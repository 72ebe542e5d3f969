from pathlib import Path

import numpy as np
import pytest

import omlattice as om
from omlattice import io as om_io

CONFIG_DIR = Path(om.__file__).resolve().parent / "configs"
WC = 7.12e9
IDEAL = om.Couplings(j=470e6, j_prime=700e6)


def chain_spec(n_cells=5, couplings=IDEAL):
    sites = tuple(
        om.SiteParams(cavity_freq=WC, mech_freq=2.1e6 + 3e4 * i, mech_linewidth=10.0, g0=10.0)
        for i in range(2 * n_cells)
    )
    return om.LatticeSpec(kind=om.Topology.SSH_CHAIN, n_sites=2 * n_cells,
                          sites=sites, couplings=couplings)


def stream_composition(h, master_seed, sigma_index, sigma, samples):
    """Per-sample zetas and eigenfrequencies composed literally from the
    documented per-sigma stream: row s of that stream's normal block scales
    the diagonal of sample s, then diagonalize -> participation ->
    hybridization_factor."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(master_seed, spawn_key=(sigma_index,))))
    block = rng.normal(0.0, sigma, (samples, h.n_sites))
    zetas, freqs = [], []
    for s in range(samples):
        m = h.matrix.copy()
        np.fill_diagonal(m, np.diag(h.matrix) * (1.0 + block[s]))
        modes = om.diagonalize(om.CouplingHamiltonian(m, h.site_labels))
        zetas.append(om.hybridization_factor(om.participation(modes), h.n_sites // 2))
        freqs.append(modes.eigenfreqs)
    return np.array(zetas), np.array(freqs)


def assert_point_matches(ens, j, zetas, freqs):
    zetas = np.sort(zetas)
    assert ens.zeta_mean[j] == pytest.approx(np.mean(zetas), rel=1e-12)
    for q, band in ((5, ens.zeta_p5), (15, ens.zeta_p15), (85, ens.zeta_p85), (95, ens.zeta_p95)):
        assert band[j] == pytest.approx(np.percentile(zetas, q), rel=1e-12)
    assert ens.eigenfreq_mean[j] == pytest.approx(freqs.mean(axis=0), rel=1e-12)


class TestHybridizationFactor:
    def test_disorder_free_chain_fully_hybridized(self):
        eta = om.participation(om.diagonalize(om.build_ssh_chain(5, IDEAL, [WC] * 10)))
        assert om.hybridization_factor(eta, 5) == pytest.approx(1.0, abs=1e-6)

    def test_single_side_localization_gives_zero(self):
        eta = np.full((4, 4), 1 / 4)
        eta[1] = [0.6, 0.2, 0.2, 0.0]   # mode 2 localized on the left edge
        eta[2] = [0.0, 0.2, 0.2, 0.6]   # mode 3 on the right edge
        assert om.hybridization_factor(eta, 2) == 0.0

    def test_small_disorder_stays_near_one(self):
        h = om.build_ssh_chain(5, IDEAL, [WC] * 10)
        zetas = []
        for seed in range(200):
            disordered = om.apply_disorder(h, 0.0005, seed)
            eta = om.participation(om.diagonalize(disordered))
            zetas.append(om.hybridization_factor(eta, 5))
        assert np.mean(zetas) > 0.95

    def test_invariant_under_chain_reversal(self):
        h = om.apply_disorder(om.build_ssh_chain(5, IDEAL, [WC] * 10), 0.004, 17)
        eta = om.participation(om.diagonalize(h)).eta
        reversed_eta = eta[:, ::-1]
        assert om.hybridization_factor(reversed_eta, 5) == pytest.approx(
            om.hybridization_factor(eta, 5), rel=1e-12
        )

    def test_bounds(self):
        h = om.build_ssh_chain(5, IDEAL, [WC] * 10)
        for seed in range(50):
            eta = om.participation(om.diagonalize(om.apply_disorder(h, 0.02, seed)))
            z = om.hybridization_factor(eta, 5)
            assert 0.0 <= z <= 1.0

    def test_shape_check(self):
        with pytest.raises(ValueError):
            om.hybridization_factor(np.eye(9), 5)
        with pytest.raises(ValueError):
            om.hybridization_factor(np.ones((3, 9, 9)), 5)

    def test_stack_equals_scalar_calls(self):
        rng = np.random.default_rng(11)
        stack = rng.random((3, 7, 10, 10))
        stack[0, 0, 4, [0, -1]] = 0.0          # mode N: both edges zero
        stack[0, 1, 5, [0, -1]] = 0.0          # mode N+1: both edges zero
        stack[0, 2, 4:6, [0, -1]] = 0.0        # both modes: zeta counts as 1
        stack[1, 0, 4, 0] = 0.0                # one edge zero: ratio 0
        zetas = om.hybridization_factor(stack, 5)
        assert zetas.shape == (3, 7)
        for idx in np.ndindex(3, 7):
            scalar = om.hybridization_factor(stack[idx], 5)
            assert isinstance(scalar, float)
            assert zetas[idx] == scalar
        assert zetas[0, 2] == 1.0
        assert zetas[1, 0] == pytest.approx(0.5 * (0.0 + min(stack[1, 0, 5, [0, -1]])
                                                   / max(stack[1, 0, 5, [0, -1]])), rel=1e-15)


class TestRunEnsemble:
    def test_zero_disorder_trivial(self):
        ens = om.run_ensemble(chain_spec(), [0.0], 120, master_seed=1)
        assert ens.zeta_mean[0] == pytest.approx(1.0, abs=1e-9)
        assert ens.zeta_p5[0] == pytest.approx(1.0, abs=1e-9)
        assert ens.eigenfreq_std[0].max() < 1e-3  # float jitter only

    def test_bit_reproducible(self):
        grid = [0.001, 0.003]
        a = om.run_ensemble(chain_spec(), grid, 150, master_seed=7)
        b = om.run_ensemble(chain_spec(), grid, 150, master_seed=7)
        assert np.array_equal(a.zeta_mean, b.zeta_mean)
        assert np.array_equal(a.zeta_p95, b.zeta_p95)
        assert np.array_equal(a.eigenfreq_mean, b.eigenfreq_mean)

    def test_mean_zeta_non_increasing_within_error(self):
        grid = np.array([0.0005, 0.001, 0.002, 0.004, 0.006])
        ens = om.run_ensemble(chain_spec(), grid, 400, master_seed=3)
        sem = 2.0 / np.sqrt(400)  # generous two-standard-error allowance
        assert (np.diff(ens.zeta_mean) < sem).all()

    def test_longer_chains_more_sensitive(self):
        grid = np.array([0.004, 0.01])
        short = om.run_ensemble(chain_spec(5), grid, 400, master_seed=5)
        long = om.run_ensemble(chain_spec(10), grid, 400, master_seed=5)
        assert (long.zeta_mean < short.zeta_mean).all()

    def test_sample_warning_below_threshold(self):
        with pytest.warns(UserWarning):
            om.run_ensemble(chain_spec(2), [0.001], 50, master_seed=1)

    def test_matches_per_sample_composition(self):
        # the batched sweep must equal the literal per-sample chain built from
        # the documented stream: diag(h) * (1 + block[s]) -> diagonalize ->
        # participation -> hybridization_factor
        spec = chain_spec()
        h = om.build_lattice(spec)
        sigma_idx, sigma, samples, master = 1, 0.002, 120, 31
        zetas, freqs = stream_composition(h, master, sigma_idx, sigma, samples)
        ens = om.run_ensemble(spec, [0.001, sigma], samples, master_seed=master)
        assert_point_matches(ens, sigma_idx, zetas, freqs)

    def test_fewer_samples_draw_a_prefix_of_the_rows(self):
        spec = chain_spec()
        h = om.build_lattice(spec)
        zetas, freqs = stream_composition(h, 13, 0, 0.003, 300)
        for samples in (150, 300):
            ens = om.run_ensemble(spec, [0.003], samples, master_seed=13)
            assert_point_matches(ens, 0, zetas[:samples], freqs[:samples])

    def test_sigma_point_independent_of_the_rest_of_the_grid(self):
        spec = chain_spec()
        full = om.run_ensemble(spec, [0.001, 0.002, 0.004], 200, master_seed=8)
        others = om.run_ensemble(spec, [0.006, 0.002], 200, master_seed=8)
        alone = om.run_ensemble(spec, [0.001], 200, master_seed=8)
        for ens, j, k in ((others, 1, 1), (alone, 0, 0)):
            for field in ("zeta_mean", "zeta_p5", "zeta_p15", "zeta_p85", "zeta_p95",
                          "eigenfreq_mean", "eigenfreq_std"):
                assert np.array_equal(getattr(ens, field)[j], getattr(full, field)[k])

    def test_rejects_non_chain_lattice(self):
        flake = om_io.load_config(CONFIG_DIR / "paper_2d.cfg").spec
        assert flake.kind is om.Topology.HONEYCOMB_FLAKE
        with pytest.raises(ValueError, match="ssh-chain"):
            om.run_ensemble(flake, [0.001], 200, master_seed=1)

    # above 0.1 a site's frequency factor 1 + N(0, sigma) can reach 0
    @pytest.mark.parametrize("grid", [[0.001, -0.001], [np.nan], [0.001, np.inf], [], [0.05, 0.2]])
    def test_rejects_sigma_outside_the_model(self, grid):
        with pytest.raises(ValueError, match="sigma_grid"):
            om.run_ensemble(chain_spec(), grid, 200, master_seed=1)

    def test_percentile_bands_nested(self):
        ens = om.run_ensemble(chain_spec(), [0.001, 0.003], 300, master_seed=9)
        assert (ens.zeta_p5 <= ens.zeta_p15).all()
        assert (ens.zeta_p15 <= ens.zeta_p85).all()
        assert (ens.zeta_p85 <= ens.zeta_p95).all()


@pytest.fixture(scope="module")
def wide_ensemble():
    grid = np.concatenate([[0.0], np.arange(0.0005, 0.0305, 0.0005)])
    return om.run_ensemble(chain_spec(), grid, 600, master_seed=21)


class TestInvertZeta:

    def test_perfect_hybridization_starts_at_zero(self, wide_ensemble):
        inv = om.invert_zeta(1.0, wide_ensemble, 0.9)
        assert not inv.empty
        assert inv.interval[0] == 0.0

    def test_poor_hybridization_maps_to_large_disorder(self, wide_ensemble):
        inv = om.invert_zeta(0.2, wide_ensemble, 0.9)
        assert not inv.empty
        assert inv.interval[0] > 0.005  # an order of magnitude beyond the 0.98 interval

    def test_outside_all_bands_is_empty_with_diagnostic(self):
        ens = om.run_ensemble(chain_spec(), [0.0001, 0.0002], 300, master_seed=2)
        inv = om.invert_zeta(0.05, ens, 0.9)
        assert inv.empty
        assert "outside" in inv.diagnostic

    def test_seventy_percent_band_narrower(self, wide_ensemble):
        inv90 = om.invert_zeta(0.9, wide_ensemble, 0.9)
        inv70 = om.invert_zeta(0.9, wide_ensemble, 0.7)
        assert not inv90.empty and not inv70.empty
        lo90, hi90 = inv90.interval
        lo70, hi70 = inv70.interval
        assert lo90 <= lo70 + 1e-12 and hi70 <= hi90 + 1e-12

    def test_unsupported_confidence_rejected(self, wide_ensemble):
        with pytest.raises(ValueError):
            om.invert_zeta(0.9, wide_ensemble, 0.8)
        with pytest.raises(ValueError):
            om.invert_zeta(1.5, wide_ensemble, 0.9)
