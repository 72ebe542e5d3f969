import numpy as np
import pytest

import omlattice as om
from omlattice.topology import GaplessCurveError, OutOfModelError

TOPO = om.Couplings(j=470e6, j_prime=700e6)
TRIVIAL = om.Couplings(j=700e6, j_prime=470e6)


class TestBulkRho:
    def test_sum_at_k0(self):
        assert om.bulk_rho_ssh(0.0, TOPO) == pytest.approx(1170e6)

    def test_difference_at_pi(self):
        assert om.bulk_rho_ssh(np.pi, TOPO) == pytest.approx(-230e6, abs=1e-3)

    def test_quarter_turn_with_parasitics(self):
        # independent complex-arithmetic evaluation:
        # 470 + 700*(-i) + 27*(+i) + 37*(-1) MHz = 433 - 673 i MHz
        cp = om.Couplings(j=470e6, j_prime=700e6, j3=27e6, j3_prime=37e6)
        value = om.bulk_rho_ssh(np.pi / 2, cp)
        assert value == pytest.approx(433e6 - 673e6j, abs=1.0)


class TestBulkBands:
    def test_gap_closes_at_equal_couplings(self):
        lo, hi = om.bulk_bands_ssh(np.pi, om.Couplings(j=5e8, j_prime=5e8))
        assert lo == pytest.approx(0.0, abs=1e-4)
        assert hi == pytest.approx(0.0, abs=1e-4)

    def test_gap_at_pi(self):
        lo, hi = om.bulk_bands_ssh(np.pi, TOPO)
        assert lo == pytest.approx(-230e6, abs=1e-3)
        assert hi == pytest.approx(230e6, abs=1e-3)

    def test_second_neighbor_shifts_band_centers(self):
        cp = om.Couplings(j=470e6, j_prime=700e6, j2=100e6)
        lo0, hi0 = om.bulk_bands_ssh(0.0, cp)
        lop, hip = om.bulk_bands_ssh(np.pi, cp)
        base_lo0, base_hi0 = om.bulk_bands_ssh(0.0, TOPO)
        base_lop, base_hip = om.bulk_bands_ssh(np.pi, TOPO)
        # eps = 2 j2 cos k: each site couples to one second neighbor on either side
        assert (lo0 - base_lo0, hi0 - base_hi0) == pytest.approx((200e6, 200e6))
        assert (lop - base_lop, hip - base_hip) == pytest.approx((-200e6, -200e6))

    def test_band_edges_match_the_spectrum_of_a_long_open_chain(self):
        # the paper_1d couplings; the modes with half their weight on the 20
        # sites at either end are the edge modes, left out
        cp = om.Couplings(j=470e6, j_prime=700e6, j2=100e6, j3=27e6, j3_prime=37e6)
        n_cells = 400
        h = om.build_ssh_chain(n_cells, cp, [7.12e9] * (2 * n_cells)).matrix
        energies, vectors = np.linalg.eigh(h - 7.12e9 * np.eye(2 * n_cells))
        bulk = energies[(vectors[:20] ** 2).sum(axis=0) + (vectors[-20:] ** 2).sum(axis=0) < 0.5]
        gap = np.argmax(np.diff(bulk))
        lo, hi = om.bulk_bands_ssh(np.linspace(-np.pi, np.pi, 20001), cp)
        assert [bulk[0], bulk[gap], bulk[gap + 1], bulk[-1]] == pytest.approx(
            [lo.min(), lo.max(), hi.min(), hi.max()], rel=0, abs=1e-3 * (hi.max() - lo.min()))


class TestWindingAndZak:
    def test_topological_phase(self):
        curve = om.ssh_bulk_curve(TOPO)
        assert om.winding_number(curve) == 1
        assert om.zak_phase(curve) == np.pi

    def test_trivial_phase(self):
        curve = om.ssh_bulk_curve(TRIVIAL)
        assert om.winding_number(curve) == 0
        assert om.zak_phase(curve) == 0.0

    def test_point_curve(self):
        assert om.winding_number(om.ssh_bulk_curve(om.Couplings(j=5e8, j_prime=0.0))) == 0

    def test_gapless_curve_rejected(self):
        curve = om.ssh_bulk_curve(om.Couplings(j=5e8, j_prime=5e8))
        with pytest.raises(GaplessCurveError):
            om.winding_number(curve)
        with pytest.raises(GaplessCurveError):
            om.zak_phase(curve)

    def test_double_winding_flagged_out_of_model(self):
        # second-harmonic dominated: rho = 0.1 + e^{-2ik} winds twice
        curve = om.ssh_bulk_curve(om.Couplings(j=0.1, j_prime=0.0, j3_prime=1.0))
        assert om.winding_number(curve) == 2
        with pytest.raises(OutOfModelError):
            om.zak_phase(curve)

    def test_winding_invariant_under_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            cp = om.Couplings(j=rng.uniform(0.1, 1), j_prime=rng.uniform(0.1, 1),
                              j3=rng.uniform(0, 0.1), j3_prime=rng.uniform(0, 0.1))
            curve = om.ssh_bulk_curve(cp, 1024)
            if not curve.is_gapped():
                continue
            w = om.winding_number(curve)
            scale = rng.uniform(0.5, 50)
            scaled = om.Couplings(j=cp.j * scale, j_prime=cp.j_prime * scale,
                                  j3=cp.j3 * scale, j3_prime=cp.j3_prime * scale)
            assert om.winding_number(om.ssh_bulk_curve(scaled, 1024)) == w

    def test_zak_iff_odd_winding(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            cp = om.Couplings(j=rng.uniform(0.1, 1), j_prime=rng.uniform(0.1, 1),
                              j3=rng.uniform(0, 0.15), j3_prime=rng.uniform(0, 0.15))
            curve = om.ssh_bulk_curve(cp, 1024)
            if not curve.is_gapped() or curve.min_abs < 0.02 * np.abs(curve.rho).max():
                continue
            w = om.winding_number(curve)
            if w > 1:
                continue
            assert (om.zak_phase(curve) == np.pi) == (w == 1)

    def test_curve_closure_validated(self):
        with pytest.raises(ValueError):
            om.BulkCurve.from_function(lambda k: np.exp(-0.5j * k))


class TestEdgePredictionFinite:
    def test_paper_chain_slope(self):
        pred = om.edge_prediction_finite(TOPO, 5)
        # analytic slope of arg(j + j' e^{-ik}) at k=pi is j'/(j'-j) = 700/230
        assert pred.slope_at_kmin == pytest.approx(700 / 230, rel=1e-6)
        assert pred.zak == np.pi and pred.edge_states_exist and pred.status == "ok"

    def test_dimerized_limit_slope_one(self):
        pred = om.edge_prediction_finite(om.Couplings(j=1e6, j_prime=7e8), 1)
        assert pred.slope_at_kmin == pytest.approx(1.0, abs=1e-2)
        assert pred.edge_states_exist
        # fully decoupled cells: |rho| is constant and the slope is exactly 1
        exact = om.edge_prediction_finite(om.Couplings(j=0.0, j_prime=7e8), 3)
        assert exact.slope_at_kmin == pytest.approx(1.0, abs=1e-9)
        assert exact.edge_states_exist

    def test_isolated_dimer_limit_is_trivial(self):
        pred = om.edge_prediction_finite(om.Couplings(j=5e8, j_prime=0.0), 3)
        assert pred.winding == 0
        assert not pred.edge_states_exist

    def test_shallow_chain_predicted_absent(self):
        # j/j' = 0.9 gives slope 10 > n_cells + 1 = 3
        cp = om.Couplings(j=0.9 * 7e8, j_prime=7e8)
        pred = om.edge_prediction_finite(cp, 2)
        assert pred.slope_at_kmin == pytest.approx(10.0, rel=1e-6)
        assert not pred.edge_states_exist
        # brute-force 4-site oracle: no mid-gap pair inside the bulk gap
        gap = om.ssh_bulk_curve(cp).min_abs
        freqs = np.linalg.eigvalsh(om.build_ssh_chain(2, cp, [7e9] * 4).matrix)
        assert np.sum(np.abs(freqs - 7e9) < gap) == 0

    def test_gapless_propagates(self):
        with pytest.raises(GaplessCurveError):
            om.edge_prediction_finite(om.Couplings(j=5e8, j_prime=5e8), 5)

    def test_slope_matches_half_step_finite_difference(self):
        from omlattice.topology import _locate_kmin, _phase_slope

        rng = np.random.default_rng(9)
        for _ in range(10):
            cp = om.Couplings(j=rng.uniform(0.2, 1), j_prime=rng.uniform(0.2, 1),
                              j3=rng.uniform(0, 0.05), j3_prime=rng.uniform(0, 0.05))
            curve = om.ssh_bulk_curve(cp, 1024)
            if not curve.is_gapped() or curve.min_abs < 0.05 * np.abs(curve.rho).max():
                continue
            rho_fn = lambda k: np.atleast_2d(om.bulk_rho_ssh(k, cp))  # one lane: (1, m)
            k_min = _locate_kmin(rho_fn)
            full = _phase_slope(rho_fn, k_min, step=1e-5)
            half = _phase_slope(rho_fn, k_min, step=5e-6)
            assert full == pytest.approx(half, rel=1e-6)

    def test_agreement_with_brute_force_over_random_draws(self):
        # parasitic-regime draws with a healthy gap; brute-force indicator is
        # "exactly two states strictly inside the bulk gap"; draws in the
        # declared marginal band |slope - (N+1)| < 0.5 are skipped
        rng = np.random.default_rng(20)
        draws = 0
        while draws < 200:
            j = rng.uniform(0.1, 1.0)
            jp = rng.uniform(0.1, 1.0)
            cap = 0.2 * min(j, jp)
            cp = om.Couplings(j=j * 1e9, j_prime=jp * 1e9,
                              j3=rng.uniform(0, cap) * 1e9, j3_prime=rng.uniform(0, cap) * 1e9)
            curve = om.ssh_bulk_curve(cp, 1024)
            if curve.min_abs < 0.05 * np.abs(curve.rho).max():
                continue
            draws += 1
            gap = curve.min_abs
            for n_cells in range(2, 13):
                pred = om.edge_prediction_finite(cp, n_cells, 1024)
                if pred.status == "marginal":
                    continue
                freqs = np.linalg.eigvalsh(
                    om.build_ssh_chain(n_cells, cp, [5e9] * (2 * n_cells)).matrix
                )
                brute = int(np.sum(np.abs(freqs - 5e9) < gap)) == 2
                assert brute == pred.edge_states_exist, (cp, n_cells, pred)


def _scipy_kmin(rho_fn, n_coarse=2048):
    """The scalar reference: coarse scan, then scipy's golden section from
    the bracket around the coarse minimum (the coarse point when the
    bracket fails or |rho| is constant)."""
    from scipy.optimize import minimize_scalar

    k = -np.pi + 2 * np.pi * np.arange(n_coarse) / n_coarse
    mag = np.abs(rho_fn(k))
    i = int(np.argmin(mag))
    if mag.max() - mag.min() <= 1e-12 * mag.max():
        return float(k[i])
    span = 2 * np.pi / n_coarse
    try:
        res = minimize_scalar(lambda x: float(np.abs(rho_fn(x))), method="golden",
                              bracket=(k[i] - span, k[i], k[i] + span), options={"xtol": 1e-12})
    except ValueError:
        return float(k[i])
    return float(res.x)


def test_lane_kmin_matches_scipy_golden_section_bit_for_bit():
    from omlattice.topology import _locate_kmin, ribbon_rho

    rng = np.random.default_rng(17)
    chains = [om.Couplings(j=j, j_prime=jp, j3=j3, j3_prime=j3p)
              for j, jp, j3, j3p in rng.uniform([0, 0, 0, 0], [1, 1, 0.2, 0.2], (60, 4))]
    chains.append(om.Couplings(j=0.0, j_prime=0.7))  # constant |rho|: the coarse point

    def chain_lanes(k):
        # a shared grid, or one (lanes, 1) wavenumber per lane
        rows = k if np.ndim(k) == 2 else [k] * len(chains)
        return np.stack([om.bulk_rho_ssh(kk, cp) for kk, cp in zip(rows, chains)])

    expected = [_scipy_kmin(lambda k, cp=cp: om.bulk_rho_ssh(k, cp)) for cp in chains]
    assert _locate_kmin(chain_lanes).tolist() == expected

    for orientation in om.RibbonOrientation:
        j, jp = 1.0, rng.uniform(0.3, 1.0)
        # the grid of the CLI, with its gapless points, and random wavenumbers
        k_par = np.concatenate([np.linspace(-np.pi, np.pi, 33), rng.uniform(-np.pi, np.pi, 16)])
        lanes = _locate_kmin(lambda k: ribbon_rho(orientation, k, k_par[:, None], j, jp))
        expected = [_scipy_kmin(lambda k, kp=kp: ribbon_rho(orientation, k, kp, j, jp))
                    for kp in k_par.tolist()]
        assert lanes.tolist() == expected, orientation
        predictions = om.ribbon_edge_prediction(orientation, k_par, 4, j, jp)
        assert predictions == [om.ribbon_edge_prediction(orientation, kp, 4, j, jp)
                               for kp in k_par.tolist()]


class TestGrapheneBulk:
    def test_dirac_point_for_uniform_couplings(self):
        k_dirac = np.array([4 * np.pi / (3 * np.sqrt(3)), 0.0])
        lo, hi = om.graphene_bulk(k_dirac, 1.0, 1.0, 1.0)
        assert hi == pytest.approx(0.0, abs=1e-12)

    def test_dirac_merging_threshold(self):
        # jc = ja + jb: single touching point at phases (pi, pi)
        k_merge = np.array([0.0, 2 * np.pi / 3])
        lo, hi = om.graphene_bulk(k_merge, 1.0, 1.0, 2.0)
        assert hi == pytest.approx(0.0, abs=1e-12)

    def test_gapped_at_strong_anisotropy(self):
        # flake convention: ja = jb = j', jc = j; gapped for j'/j < 0.5
        grid = np.linspace(-np.pi, np.pi, 257)
        b1 = 2 * np.pi * np.array([np.sqrt(3) / 3, 1.0 / 3])
        b2 = 2 * np.pi * np.array([-np.sqrt(3) / 3, 1.0 / 3])
        frac = np.stack(np.meshgrid(np.linspace(0, 1, 256, endpoint=False),
                                    np.linspace(0, 1, 256, endpoint=False)), axis=-1)
        kvecs = frac @ np.stack([b1, b2])
        _, hi = om.graphene_bulk(kvecs, 0.25, 0.25, 1.0)
        assert hi.min() > 0.05

    def test_gapless_exactly_on_dirac_points_only(self):
        # uniform couplings: zeros on the two Dirac phases, bounded elsewhere
        b1 = 2 * np.pi * np.array([np.sqrt(3) / 3, 1.0 / 3])
        b2 = 2 * np.pi * np.array([-np.sqrt(3) / 3, 1.0 / 3])
        steps = np.arange(384) / 384
        frac = np.stack(np.meshgrid(steps, steps), axis=-1)
        kvecs = frac @ np.stack([b1, b2])
        _, hi = om.graphene_bulk(kvecs, 1.0, 1.0, 1.0)
        # grid size divisible by 3 hits both Dirac points exactly; the
        # surrounding points sit at least half a grid step away in |rho|
        assert (hi < 1e-10).sum() == 2
        assert np.sort(hi.ravel())[2] > 0.01


class TestRibbonEdgePrediction:
    def test_strain_free_zigzag_region(self):
        exists = om.ribbon_edge_prediction(om.RibbonOrientation.ZIGZAG, 0.8 * np.pi, 400, 1.0, 1.0)
        absent = om.ribbon_edge_prediction(om.RibbonOrientation.ZIGZAG, 0.5 * np.pi, 400, 1.0, 1.0)
        assert exists.edge_states_exist is True
        assert absent.edge_states_exist is False

    def test_strain_free_armchair_never_hosts(self):
        for k_par in (0.3, 1.0, 2.0, 3.0):
            pred = om.ribbon_edge_prediction(om.RibbonOrientation.ARMCHAIR, k_par, 400, 1.0, 1.0)
            assert pred.edge_states_exist in (False, None)

    def test_gapless_k_flagged_undefined(self):
        # strain-free armchair at k_par = 0 passes through the Dirac point
        pred = om.ribbon_edge_prediction(om.RibbonOrientation.ARMCHAIR, 0.0, 50, 1.0, 1.0)
        assert pred.status == "gapless"
        assert pred.edge_states_exist is None

    def test_finite_width_shrinks_existence_and_matches_brute_force(self):
        j, jp, width = 1.0, 0.51, 4
        ks = np.linspace(-np.pi, np.pi, 97)
        pred_region, brute_region, infinite_region = [], [], []
        for k in ks:
            pred = om.ribbon_edge_prediction(om.RibbonOrientation.ZIGZAG, float(k), width, j, jp)
            curve = om.ribbon_bulk_curve(om.RibbonOrientation.ZIGZAG, float(k), j, jp, 2048)
            if pred.status == "gapless" or not curve.is_gapped():
                pred_region.append(None)
                brute_region.append(None)
                infinite_region.append(None)
                continue
            marginal = pred.status == "marginal"
            pred_region.append(None if marginal else pred.edge_states_exist)
            energies = np.linalg.eigvalsh(om.build_ribbon_hamiltonian(
                om.RibbonOrientation.ZIGZAG, width, float(k), om.Couplings(j=j, j_prime=jp)
            ).matrix)
            brute_region.append(None if marginal else
                                int(np.sum(np.abs(energies) < curve.min_abs)) == 2)
            infinite_region.append(om.zak_phase(curve) == np.pi)
        checked = [(p, b) for p, b in zip(pred_region, brute_region) if p is not None]
        mismatches = sum(1 for p, b in checked if p != b)
        assert mismatches <= 1  # at most one grid step of disagreement at each boundary
        assert sum(1 for p in pred_region if p) < sum(1 for z in infinite_region if z)
