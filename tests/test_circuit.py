import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eig

import omlattice as om

F_C = 7.12e9


def make_cell(f_c=F_C, inductance=3.0e-9) -> om.CircuitCell:
    capacitance = 1.0 / ((2 * np.pi * f_c) ** 2 * inductance)
    return om.CircuitCell(inductance, capacitance)


class TestDimer:
    def test_uncoupled_degenerate(self):
        cell = make_cell()
        lo, hi = om.dimer_eigenfrequencies(cell, 0.0)
        assert lo == hi == pytest.approx(F_C)

    def test_against_kirchhoff_eigenproblem(self):
        # oracle: generalized eigenproblem of L I'' + C^-1 I = 0 with mutual
        cell = make_cell()
        mutual = 0.1 * cell.inductance
        l_mat = np.array([[cell.inductance, -mutual], [-mutual, cell.inductance]])
        omega2 = eig(np.eye(2) / cell.capacitance, l_mat)[0].real
        oracle = np.sort(np.sqrt(omega2) / (2 * np.pi))
        lo, hi = om.dimer_eigenfrequencies(cell, mutual)
        assert (lo, hi) == pytest.approx(tuple(oracle), rel=1e-12)
        assert (lo, hi) == pytest.approx((6.7887e9, 7.5056e9), rel=1e-4)

    def test_small_coupling_expansion_matches_rate(self):
        cell = make_cell()
        for ratio in (0.01, 0.03):
            mutual = ratio * cell.inductance
            lo, hi = om.dimer_eigenfrequencies(cell, mutual)
            j = om.coupling_rate(cell, mutual)
            assert abs(hi - F_C * (1 + ratio / 2)) < 2 * F_C * ratio**2
            assert abs((hi - lo) / 2 - j) < 2 * F_C * ratio**2

    def test_symmetric_mode_is_higher(self):
        lo, hi = om.dimer_eigenfrequencies(make_cell(), 0.2e-9)
        assert hi > lo

    def test_rejects_overcoupling(self):
        cell = make_cell()
        with pytest.raises(ValueError):
            om.dimer_eigenfrequencies(cell, cell.inductance)


class TestCouplingRate:
    def test_zero(self):
        assert om.coupling_rate(make_cell(), 0.0) == 0.0

    def test_inversion_roundtrip(self):
        # M/L needed for J = 470 MHz at 7.12 GHz is 2 J / f_c
        cell = make_cell()
        ratio = 2 * 470e6 / F_C
        assert ratio == pytest.approx(0.13202, abs=1e-5)
        assert om.coupling_rate(cell, ratio * cell.inductance) == pytest.approx(470e6)

    def test_against_lattice_diagonalization(self):
        cell = make_cell()
        mutual = 0.08 * cell.inductance
        j = om.coupling_rate(cell, mutual)
        lo, hi = om.dimer_eigenfrequencies(cell, mutual)
        modes = om.diagonalize(om.build_ssh_chain(1, om.Couplings(j=j, j_prime=0.0), [F_C] * 2))
        assert abs(modes.eigenfreqs[0] - lo) < F_C * 0.08**2
        assert abs(modes.eigenfreqs[1] - hi) < F_C * 0.08**2
        assert (hi - lo) / 2 == pytest.approx(j, rel=0.01)


class TestInfiniteChainBand:
    def test_mutual_prime_zero_reduces_to_dimer(self):
        cell = make_cell()
        mutual = 0.05 * cell.inductance
        for beta in (0.0, 1.0, np.pi):
            assert om.infinite_chain_band(beta, cell, mutual, 0.0) == pytest.approx(
                om.dimer_eigenfrequencies(cell, mutual)
            )

    def test_gap_closes_at_equal_mutuals(self):
        cell = make_cell()
        lo, hi = om.infinite_chain_band(np.pi, cell, 0.04e-9, 0.04e-9)
        assert lo == hi == pytest.approx(F_C)

    def test_extremes_match_passband_edges(self):
        cell = make_cell()
        m, mp = 0.01 * cell.inductance, 0.016 * cell.inductance
        j, jp = om.coupling_rate(cell, m), om.coupling_rate(cell, mp)
        betas = np.linspace(-np.pi, np.pi, 721)
        freqs = np.array([om.infinite_chain_band(b, cell, m, mp) for b in betas])
        bands = om.passband_edges(F_C, j, jp)
        order = F_C * ((m + mp) / cell.inductance) ** 2
        assert freqs[:, 1].max() == pytest.approx(bands["upb"][1], abs=2 * order)
        assert freqs[:, 1].min() == pytest.approx(bands["upb"][0], abs=2 * order)
        assert freqs[:, 0].min() == pytest.approx(bands["lpb"][0], abs=2 * order)
        assert freqs[:, 0].max() == pytest.approx(bands["lpb"][1], abs=2 * order)

    def test_rejects_overstrong_coupling(self):
        cell = make_cell()
        with pytest.raises(ValueError):
            om.infinite_chain_band(0.0, cell, 0.6 * cell.inductance, 0.6 * cell.inductance)


class TestPassbandEdges:
    def test_device_values(self):
        bands = om.passband_edges(F_C, 470e6, 700e6)
        assert bands["upb"] == pytest.approx((7.35e9, 8.29e9))
        assert bands["lpb"] == pytest.approx((5.95e9, 6.89e9))

    def test_touching_at_equal_couplings(self):
        bands = om.passband_edges(F_C, 5e8, 5e8)
        assert bands["upb"][0] == bands["lpb"][1] == F_C

    def test_uncoupled_cells_collapse_to_dimer_levels(self):
        j = 3e8
        bands = om.passband_edges(F_C, j, 0.0)
        assert bands["upb"] == (F_C + j, F_C + j)
        assert bands["lpb"] == (F_C - j, F_C - j)
        cell = make_cell()
        mutual = 2 * j / F_C * cell.inductance
        lo, hi = om.dimer_eigenfrequencies(cell, mutual)
        assert hi == pytest.approx(bands["upb"][0], abs=F_C * (mutual / cell.inductance) ** 2)


class TestDrumhead:
    # site-resolved fundamental frequencies of the bundled 10-site device;
    # site 7 is excluded from fits (deformed plate, off the 1/radius trend)
    TABLE = np.array([2.142, 2.165, 2.202, 2.238, 2.267, 2.315,
                      2.616, 2.405, 2.448, 2.506]) * 1e6
    ANOMALOUS_SITE = 6  # 0-based

    def test_inverse_radius_scaling(self):
        f1 = om.drumhead_frequency(3e-5, 8e7, 2700.0)
        assert om.drumhead_frequency(6e-5, 8e7, 2700.0) == pytest.approx(f1 / 2)

    def test_inverse_linear_fit_of_device_table(self):
        # radii decrease by 500 nm per site; fit f = a / r with free (a, r1)
        from scipy.optimize import curve_fit

        sites = np.arange(10)
        keep = sites != self.ANOMALOUS_SITE

        def model(site, a, r1):
            return a / (r1 - 0.5e-6 * site)

        (a, r1), _ = curve_fit(model, sites[keep], self.TABLE[keep], p0=[66.0, 31e-6])
        residual = model(sites[keep], a, r1) / self.TABLE[keep] - 1
        assert np.abs(residual).max() < 0.02
        assert 25e-6 < r1 < 40e-6

    def test_film_calibration_predicts_other_sites(self):
        # calibrate the stress/density ratio so site 1 lands on the table,
        # then the remaining sites follow within 2%
        density = 2700.0
        r1 = 30.98e-6
        stress = (self.TABLE[0] * 2 * np.pi * r1 / 2.4) ** 2 * density
        assert 4e7 < stress < 2e8  # tensile-film range
        for site in range(10):
            if site == self.ANOMALOUS_SITE:
                continue
            predicted = om.drumhead_frequency(r1 - 0.5e-6 * site, stress, density)
            assert abs(predicted / self.TABLE[site] - 1) < 0.02


class TestNeumann:
    def test_coaxial_loops_match_elliptic_oracle(self):
        a = om.WireCurve.circle(1e-3, (0, 0, 0))
        b = om.WireCurve.circle(1e-3, (0, 0, 2e-3))
        value = om.mutual_inductance_neumann(a, b, 2000)
        oracle = om.coaxial_loop_mutual(1e-3, 1e-3, 2e-3)
        assert value == pytest.approx(oracle, rel=5e-3)

    def test_perpendicular_loops_null(self):
        # loop b lies in a plane through a's axis: net flux cancels by symmetry
        a = om.WireCurve.circle(1e-3, (0, 0, 0), normal=(0, 0, 1))
        b = om.WireCurve.circle(1e-3, (4e-3, 0, 0), normal=(0, 1, 0))
        value = om.mutual_inductance_neumann(a, b, 800)
        scale = abs(om.coaxial_loop_mutual(1e-3, 1e-3, 4e-3))
        assert abs(value) < 1e-6 * scale

    def test_far_field_inverse_cube(self):
        r = 1e-3
        a = om.WireCurve.circle(r, (0, 0, 0))
        m10 = om.mutual_inductance_neumann(a, om.WireCurve.circle(r, (0, 0, 10 * r)), 600)
        m20 = om.mutual_inductance_neumann(a, om.WireCurve.circle(r, (0, 0, 20 * r)), 600)
        assert m10 / m20 == pytest.approx(8.0, rel=0.05)

    def test_symmetry_and_rigid_motion_invariance(self):
        a = om.WireCurve.circle(1.2e-3, (0, 0, 0))
        b = om.WireCurve.circle(0.8e-3, (0.3e-3, 0.2e-3, 2.5e-3), normal=(0.2, 0.1, 1.0))
        m_ab = om.mutual_inductance_neumann(a, b, 700)
        m_ba = om.mutual_inductance_neumann(b, a, 700)
        assert m_ab == pytest.approx(m_ba, rel=1e-10)
        # rotate both curves rigidly by 40 degrees about x and translate
        theta = np.deg2rad(40.0)
        rot = np.array([[1, 0, 0],
                        [0, np.cos(theta), -np.sin(theta)],
                        [0, np.sin(theta), np.cos(theta)]])
        shift = np.array([1e-3, -2e-3, 0.5e-3])
        a2 = om.WireCurve(a.points @ rot.T + shift)
        b2 = om.WireCurve(b.points @ rot.T + shift)
        assert om.mutual_inductance_neumann(a2, b2, 700) == pytest.approx(m_ab, rel=1e-10)

    def test_richardson_convergence(self):
        a = om.WireCurve.circle(1e-3, (0, 0, 0))
        b = om.WireCurve.circle(1e-3, (0, 0, 2e-3))
        coarse = om.mutual_inductance_neumann(a, b, 500)
        fine = om.mutual_inductance_neumann(a, b, 1000)
        oracle = om.coaxial_loop_mutual(1e-3, 1e-3, 2e-3)
        assert abs(fine - oracle) < abs(coarse - oracle)

    def test_peak_memory_stays_bounded(self):
        # the quadrature runs over row blocks: no (n, n, 3) tensor is built
        a = om.WireCurve.circle(1e-3, (0, 0, 0))
        b = om.WireCurve.circle(1e-3, (0, 0, 1e-2))
        tracemalloc.start()
        try:
            om.mutual_inductance_neumann(a, b, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_rejects_identical_and_touching_curves(self):
        a = om.WireCurve.circle(1e-3, (0, 0, 0))
        with pytest.raises(ValueError):
            om.mutual_inductance_neumann(a, a, 200)
        nearby = om.WireCurve.circle(1e-3, (0, 0, 1e-6))
        with pytest.raises(ValueError):
            om.mutual_inductance_neumann(a, nearby, 200)
        # tangent at a's middle segments, past the quadrature's first row block
        tangent = om.WireCurve.circle(1e-3, (0, -2e-3, 0))
        with pytest.raises(ValueError, match="closer"):
            om.mutual_inductance_neumann(a, tangent, 2000)


class TestCoaxialLoopMutual:
    # loop radii and axial separations in meters, and the acceptance test's loops
    GRID = [(r1, r2, s) for r1 in np.logspace(-4, -1, 7) for r2 in np.logspace(-4, -1, 7)
            for s in np.logspace(-5, 0, 11)] + [(1e-3, 1e-3, 2e-3)]

    @staticmethod
    def k_squared(r1, r2, s):
        return 4 * r1 * r2 / ((r1 + r2) ** 2 + s**2)

    @staticmethod
    def scipy_closed_form(r1, r2, s):
        """mu0 sqrt(r1 r2) ((2/k - k) K - (2/k) E) by scipy's elliptic
        integrals.  K is ``ellipkm1`` of 1 - k^2 as the geometry gives it,
        since ``ellipk`` of the rounded k^2 loses digits as k -> 1."""
        from scipy.special import ellipe, ellipkm1

        d2 = (r1 + r2) ** 2 + s**2
        k2 = 4 * r1 * r2 / d2
        k = np.sqrt(k2)
        big_k = ellipkm1(((r1 - r2) ** 2 + s**2) / d2)
        return om.circuit.MU_0 * np.sqrt(r1 * r2) * ((2 / k - k) * big_k - (2 / k) * ellipe(k2))

    def test_agrees_with_scipy_where_the_closed_form_keeps_its_digits(self):
        # the closed form's bracket cancels as k shrinks
        checked = [(r1, r2, s) for r1, r2, s in self.GRID if self.k_squared(r1, r2, s) >= 0.1]
        assert len(checked) > 100
        for r1, r2, s in checked:
            assert om.coaxial_loop_mutual(r1, r2, s) == pytest.approx(
                self.scipy_closed_form(r1, r2, s), rel=1e-12, abs=0)

    def test_positive_at_every_distance(self):
        for r1, r2, s in self.GRID:
            assert om.coaxial_loop_mutual(r1, r2, s) > 0

    def test_far_loops_reach_the_dipole_limit(self):
        r, s = 1e-4, 1.0
        dipole = om.circuit.MU_0 * np.pi * r**4 / (2 * s**3)
        assert om.coaxial_loop_mutual(r, r, s) == pytest.approx(dipole, rel=1e-6, abs=0)

    @pytest.mark.parametrize("args", [(1e-3, 1e-3, 0.0), (0.0, 1e-3, 1e-3), (1e-3, -1e-3, 1e-3),
                                      (1e-3, 1e-3, np.nan), (np.inf, 1e-3, 1e-3)])
    def test_rejects_coincident_or_invalid_loops(self, args):
        with pytest.raises(ValueError):
            om.coaxial_loop_mutual(*args)


def test_wire_curve_from_csv(tmp_path):
    path = tmp_path / "loop.csv"
    path.write_text("x_m,y_m,z_m\n0,0,0\n1e-3,0,0\n1e-3,1e-3,0\n0,0,0\n")
    curve = om.WireCurve.from_csv(path)
    assert curve.points.shape == (4, 3)
    assert curve.points[1, 0] == 1e-3


def test_wire_curve_validation():
    with pytest.raises(ValueError):
        om.WireCurve(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        om.WireCurve(np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=float))
    with pytest.raises(ValueError):
        om.CircuitCell(-1e-9, 1e-12)
    for value in (1e-200, 1e200):  # L * C leaves float range
        with pytest.raises(ValueError, match="leaves float range"):
            om.CircuitCell(value, value)
