import json
from pathlib import Path

import numpy as np
import pytest

import omlattice as om
from omlattice import io as om_io

WC = 7.12e9
PAPER = om.Couplings(j=470e6, j_prime=700e6, j2=100e6, j3=27e6, j3_prime=37e6)


def small_setup(seed=0, n_cells=2, disorder=0.004):
    rng = np.random.default_rng(seed)
    n = 2 * n_cells
    freqs = WC * (1 + rng.normal(0, disorder, n))
    couplings = om.Couplings(j=4e8, j_prime=6e8, j2=5e7)
    h = om.build_ssh_chain(n_cells, couplings, freqs)
    sites = tuple(
        om.SiteParams(cavity_freq=f, mech_freq=2.1e6 + 3e4 * i,
                      mech_linewidth=rng.uniform(5, 15), g0=rng.uniform(8, 14))
        for i, f in enumerate(freqs)
    )
    readouts = tuple(
        om.ModeReadout(kappa_tot=k, kappa_1=0.125 * k, kappa_2=0.125 * k,
                       transmittance=rng.uniform(0.5, 1.0))
        for k in rng.uniform(0.5e6, 4e6, n)
    )
    return h, sites, readouts


class TestNoiselessIdentity:
    def test_exact_recovery(self):
        h, sites, readouts = small_setup()
        result = om.recover_noiseless(h, sites, readouts)
        assert result.residuals["h_rel_frobenius_error"] < 1e-10
        assert result.residuals["orthogonalized"]

    def test_recovered_modeshapes_match_truth_up_to_row_sign(self):
        h, sites, readouts = small_setup(seed=3)
        truth = om.diagonalize(h)
        result = om.recover_noiseless(h, sites, readouts)
        for row_hat, row_true in zip(result.u_hat, truth.modeshapes):
            assert min(np.abs(row_hat - row_true).max(),
                       np.abs(row_hat + row_true).max()) < 1e-8

    def test_eta_matches_truth(self):
        h, sites, readouts = small_setup(seed=4)
        eta_true = om.participation(om.diagonalize(h)).eta
        result = om.recover_noiseless(h, sites, readouts)
        assert np.abs(result.eta_hat.eta - eta_true).max() < 1e-10


class TestSimulateMeasurement:
    def test_deterministic_for_fixed_seed(self):
        h, sites, readouts = small_setup(seed=1)
        fluxes = np.linspace(1e14, 1e15, 4)
        a = om.simulate_measurement(h, sites, readouts, fluxes, master_seed=9,
                                    snr=50.0, samples_per_trace=40)
        b = om.simulate_measurement(h, sites, readouts, fluxes, master_seed=9,
                                    snr=50.0, samples_per_trace=40)
        for key in a.traces:
            assert np.array_equal(a.traces[key].powers, b.traces[key].powers)
        c = om.simulate_measurement(h, sites, readouts, fluxes, master_seed=10,
                                    snr=50.0, samples_per_trace=40)
        assert not np.array_equal(a.traces[(0, 0, 0)].powers, c.traces[(0, 0, 0)].powers)

    def test_flux_calibration_reaches_target_boost(self):
        h, sites, readouts = small_setup(seed=2)
        flux = om.calibrate_drive_flux(h, sites, readouts, damping_boost=150.0)
        slopes = om.analytic_slope_matrix(h, sites, readouts)
        median_opt = np.median(slopes[slopes > 0]) * flux
        median_gamma = np.median([s.mech_linewidth for s in sites])
        assert median_opt == pytest.approx(150.0 * median_gamma, rel=1e-9)

    def test_dataset_roundtrip_through_disk(self, tmp_path):
        h, sites, readouts = small_setup(seed=5)
        fluxes = np.linspace(1e14, 5e14, 3)
        ds = om.simulate_measurement(h, sites, readouts, fluxes, master_seed=2,
                                     snr=80.0, samples_per_trace=30)
        ds.save(tmp_path / "dataset")
        loaded = om.MeasurementDataset.load(tmp_path / "dataset")
        assert np.array_equal(loaded.mode_freqs, ds.mode_freqs)
        assert np.array_equal(loaded.drive_fluxes, ds.drive_fluxes)
        assert loaded.readouts == ds.readouts
        assert set(loaded.traces) == set(ds.traces)
        for key in ds.traces:
            assert np.array_equal(loaded.traces[key].times, ds.traces[key].times)
            assert np.array_equal(loaded.traces[key].powers, ds.traces[key].powers)
        assert np.array_equal(loaded.h_true.matrix, h.matrix)

    def test_saves_every_trace_in_one_array(self, tmp_path):
        h, sites, readouts = small_setup(seed=5)
        ds = om.simulate_measurement(h, sites, readouts, np.linspace(1e14, 5e14, 3), master_seed=2,
                                     snr=80.0, samples_per_trace=30)
        ds.save(tmp_path)
        assert sorted(p.name for p in (tmp_path / "traces").iterdir()) == ["traces.npy"]
        data = np.load(tmp_path / "traces" / "traces.npy", allow_pickle=False)
        assert data.dtype == np.float64 and data.shape == (2, 30 * len(ds.traces))
        entries = json.loads((tmp_path / "manifest.json").read_text())["traces"]
        keys = [(e["mode"], e["site"], e["power_index"]) for e in entries]
        assert keys == sorted(ds.traces)
        for entry, key in zip(entries, keys):
            assert entry["file"] == "traces/traces.npy"
            assert (entry["offset"], entry["samples"]) == (30 * keys.index(key), 30)
            window = slice(entry["offset"], entry["offset"] + entry["samples"])
            assert np.array_equal(data[0, window], ds.traces[key].times)
            assert np.array_equal(data[1, window], ds.traces[key].powers)

    def test_legacy_csv_dataset_loads_the_same(self, tmp_path, save_legacy_csv):
        h, sites, readouts = small_setup(seed=5)
        flux = om.calibrate_drive_flux(h, sites, readouts)
        ds = om.simulate_measurement(h, sites, readouts, np.linspace(flux / 4, flux, 4),
                                     master_seed=2, snr=80.0, samples_per_trace=60)
        ds.save(tmp_path / "new")
        save_legacy_csv(ds, tmp_path / "legacy")
        new = om.MeasurementDataset.load(tmp_path / "new")
        legacy = om.MeasurementDataset.load(tmp_path / "legacy")
        assert set(legacy.traces) == set(new.traces) == set(ds.traces)
        for key, trace in legacy.traces.items():
            assert np.array_equal(trace.times, new.traces[key].times)
            assert np.array_equal(trace.powers, new.traces[key].powers)
            assert trace.true_gamma_eff == new.traces[key].true_gamma_eff
        reference = om.diagonalize(h)
        a, b = om.recover(new, reference), om.recover(legacy, reference)
        assert np.array_equal(a.h_hat.matrix, b.h_hat.matrix)
        assert a.residuals == b.residuals

    @pytest.mark.parametrize("snr", [60.0, None])
    def test_trace_equals_simulate_ringdown_with_documented_seed(self, snr):
        h, sites, readouts = small_setup(seed=3)
        fluxes = np.linspace(1e14, 6e14, 3)
        ds = om.simulate_measurement(h, sites, readouts, fluxes, master_seed=21, snr=snr,
                                     p0=1.5, samples_per_trace=45)
        eta = om.participation(om.diagonalize(h)).eta
        noise_sigma = 0.0 if snr is None else 1.5 / snr
        for (k, i, p), trace in ds.traces.items():
            r, site = readouts[k], sites[i]
            cfg = om.DampingConfig(
                detuning=site.mech_freq, kappa_tot=r.kappa_tot, kappa_1=r.kappa_1,
                kappa_2=r.kappa_2, drive_flux=fluxes[p], transmittance=r.transmittance,
                mech_freq=site.mech_freq, mech_linewidth=site.mech_linewidth, g0=site.g0,
            )
            gamma = om.effective_damping(cfg, eta[k, i])
            duration = om.experiment.RINGDOWN_DECAY_SPAN / (2 * np.pi * max(gamma, 1e-3))
            expected = om.simulate_ringdown(
                gamma, 1.5, noise_sigma, duration=duration, dt=duration / 45,
                seed=np.random.SeedSequence(21, spawn_key=(k, i, p)),
                noise_floor=om.experiment.NOISE_FLOOR_SIGMAS * noise_sigma,
            )
            assert np.array_equal(trace.times, expected.times)
            assert np.array_equal(trace.powers, expected.powers)
            assert trace.true_gamma_eff == expected.true_gamma_eff
            assert trace.noise_floor == expected.noise_floor


class TestRecover:
    def test_noisy_recovery_close_to_truth(self):
        h, sites, readouts = small_setup(seed=6)
        flux = om.calibrate_drive_flux(h, sites, readouts)
        fluxes = np.linspace(flux / 8, flux, 8)
        ds = om.simulate_measurement(h, sites, readouts, fluxes, master_seed=4,
                                     snr=100.0, samples_per_trace=200)
        reference = om.diagonalize(h)
        result = om.recover(ds, reference)
        assert result.residuals["h_rel_frobenius_error"] < 0.01
        assert result.residuals["orthogonality_defect"] < 1e-10

    def test_recovery_uses_measured_mode_frequencies(self):
        h, sites, readouts = small_setup(seed=7)
        result = om.recover_noiseless(h, sites, readouts)
        assert np.allclose(np.sort(np.linalg.eigvalsh(result.h_hat.matrix)),
                           om.diagonalize(h).eigenfreqs)

    def test_reference_must_be_sorted(self):
        h, sites, readouts = small_setup(seed=8)
        slopes = om.analytic_slope_matrix(h, sites, readouts)
        modes = om.diagonalize(h)
        bad = om.ModeSet.__new__(om.ModeSet)
        object.__setattr__(bad, "eigenfreqs", modes.eigenfreqs[::-1])
        object.__setattr__(bad, "modeshapes", modes.modeshapes[::-1])
        with pytest.raises(ValueError, match="ascending"):
            om.recover_from_slopes(slopes, readouts, [s.mech_freq for s in sites],
                                   modes.eigenfreqs, bad)

    def test_orthogonalization_fallback_reconstructs_from_sign_assigned_matrix(self):
        # an all-positive reference puts eigenvalues of the sign-assigned
        # matrix on the negative real axis, where the matrix logarithm of
        # orthogonalize has no real principal branch
        h, sites, readouts = small_setup(seed=0, n_cells=5)
        truth = om.diagonalize(h)
        positive = om.ModeSet.__new__(om.ModeSet)
        object.__setattr__(positive, "eigenfreqs", truth.eigenfreqs)
        object.__setattr__(positive, "modeshapes", np.abs(truth.modeshapes))
        result = om.recover_noiseless(h, sites, readouts, reference=positive)
        assert result.residuals["orthogonalized"] is False
        assert "negative real axis" in result.residuals["orthogonalization_error"]
        u = om.assign_signs(result.eta_hat, positive)
        if np.linalg.det(u) < 0:
            u[-1] *= -1.0
        assert result.u_hat.tobytes() == u.tobytes()
        expected = u.conj().T @ (truth.eigenfreqs[:, None] * u)
        expected = 0.5 * (expected + expected.conj().T)
        assert result.h_hat.matrix.tobytes() == expected.tobytes()

    def test_det_flip_keeps_reconstruction_exact(self):
        # a reference with one row sign flipped (row signs are conventions)
        # drives the sign-assigned matrix to negative determinant; the
        # pipeline must still reconstruct exactly
        h, sites, readouts = small_setup(seed=2, n_cells=3)
        truth = om.diagonalize(h)
        flipper = np.diag([-1.0] + [1.0] * 5)
        flipped = om.ModeSet(truth.eigenfreqs, flipper @ truth.modeshapes)
        eta = om.participation(truth)
        assert np.linalg.det(om.assign_signs(eta, flipped)) == pytest.approx(
            -np.linalg.det(om.assign_signs(eta, truth))
        )
        result = om.recover_noiseless(h, sites, readouts, reference=flipped)
        assert result.residuals["h_rel_frobenius_error"] < 1e-10
        assert result.residuals["orthogonalized"]


class TestFitAll:
    @staticmethod
    def noisy_dataset(seed=6, samples=200, powers=8):
        h, sites, readouts = small_setup(seed=seed)
        flux = om.calibrate_drive_flux(h, sites, readouts)
        ds = om.simulate_measurement(h, sites, readouts, np.linspace(flux / powers, flux, powers),
                                     master_seed=4, snr=100.0, samples_per_trace=samples)
        return h, ds

    def test_every_trace_has_the_requested_length(self):
        _, ds = self.noisy_dataset(samples=400)
        assert {t.times.size for t in ds.traces.values()} == {400}

    def test_mixed_lengths_fit_as_separate_groups(self):
        _, ds = self.noisy_dataset(samples=400)
        longer = {}
        for key in list(ds.traces)[::3]:
            old = ds.traces[key]
            dt = old.times[1]
            longer[key] = om.simulate_ringdown(old.true_gamma_eff, 1.0, 0.01, duration=400.5 * dt,
                                               dt=dt, seed=7, noise_floor=old.noise_floor)
        ds.traces.update(longer)
        ds.fit_all()
        for size in (400, 401):
            keys = [key for key, t in ds.traces.items() if t.times.size == size]
            gamma, stderr, _ = om.fit_ringdowns(np.stack([ds.traces[k].times for k in keys]),
                                                np.stack([ds.traces[k].powers for k in keys]))
            index = tuple(np.array(keys).T)
            assert np.array_equal(ds.fitted_gammas[index], gamma)
            assert np.array_equal(ds.fitted_errors[index], stderr)

    def test_failed_fit_degrades_recovery(self):
        h, ds = self.noisy_dataset()
        reference = om.diagonalize(h)
        clean = om.recover(ds, reference)
        flat = ds.traces[(1, 2, 3)]
        ds.traces[(1, 2, 3)] = om.RingdownTrace(flat.times, np.full(flat.times.size, 0.2))
        ds.slopes = None
        result = om.recover(ds, reference)
        assert np.isnan(ds.fitted_gammas[1, 2, 3]) and ds.fitted_errors[1, 2, 3] == np.inf
        assert np.isfinite(ds.fitted_gammas).sum() == ds.fitted_gammas.size - 1
        assert clean.residuals["fits_failed"] == 0
        assert result.residuals["fits_failed"] == 1
        assert result.residuals["h_rel_frobenius_error"] < 0.01

    def test_pair_with_fewer_than_three_fits_gets_zero_slope(self):
        _, ds = self.noisy_dataset(powers=4)
        for p in (0, 1):
            trace = ds.traces[(0, 1, p)]
            ds.traces[(0, 1, p)] = om.RingdownTrace(trace.times, np.zeros(trace.times.size))
        slopes = ds.fit_all()
        assert slopes[0, 1] == 0.0
        assert np.count_nonzero(slopes) > slopes.size // 2

    def test_mixed_length_dataset_round_trips_bit_for_bit(self, tmp_path):
        _, ds = self.noisy_dataset(samples=400, powers=4)
        for key in list(ds.traces)[::3]:
            old = ds.traces[key]
            dt = old.times[1]
            ds.traces[key] = om.simulate_ringdown(old.true_gamma_eff, 1.0, 0.01,
                                                  duration=400.5 * dt, dt=dt, seed=7,
                                                  noise_floor=old.noise_floor)
        ds.save(tmp_path)
        loaded = om.MeasurementDataset.load(tmp_path)
        assert {t.times.size for t in loaded.traces.values()} == {400, 401}
        assert set(loaded.traces) == set(ds.traces)
        for key, trace in ds.traces.items():
            assert np.array_equal(loaded.traces[key].times, trace.times)
            assert np.array_equal(loaded.traces[key].powers, trace.powers)
            assert loaded.traces[key].true_gamma_eff == trace.true_gamma_eff
            assert loaded.traces[key].noise_floor == trace.noise_floor
        assert np.array_equal(loaded.fit_all(), ds.fit_all())
        assert np.array_equal(loaded.fitted_gammas, ds.fitted_gammas)

    def test_too_short_trace_counts_as_failed_fit(self):
        h, ds = self.noisy_dataset()
        short = ds.traces[(2, 0, 5)]
        ds.traces[(2, 0, 5)] = om.RingdownTrace(short.times[:5], short.powers[:5])
        result = om.recover(ds, om.diagonalize(h))
        assert np.isnan(ds.fitted_gammas[2, 0, 5]) and ds.fitted_errors[2, 0, 5] == np.inf
        assert result.residuals["fits_failed"] == 1
        assert result.residuals["h_rel_frobenius_error"] < 0.01

    def test_all_fits_failed_raises(self):
        _, ds = self.noisy_dataset(powers=3)
        ds.traces = {key: om.RingdownTrace(t.times, np.zeros(t.times.size))
                     for key, t in ds.traces.items()}
        with pytest.raises(om.RingdownFitError):
            ds.fit_all()


def test_flake_pipeline_end_to_end():
    # 24-site honeycomb device: noisier than the chain but still faithful
    config = om_io.load_config(Path(om.__file__).resolve().parent / "configs" / "paper_2d.cfg")
    rng = np.random.default_rng(1)
    sites = tuple(
        om.SiteParams(s.cavity_freq * (1 + rng.normal(0, 0.003)), s.mech_freq,
                      s.mech_linewidth, s.g0)
        for s in config.spec.sites
    )
    h = om.build_honeycomb_flake(config.spec.couplings, [s.cavity_freq for s in sites])
    flux = om.calibrate_drive_flux(h, sites, config.readouts)
    dataset = om.simulate_measurement(h, sites, config.readouts,
                                      np.linspace(flux / 10, flux, 10),
                                      master_seed=3, snr=100.0, samples_per_trace=400)
    reference = om.diagonalize(om.build_lattice(config.spec))
    result = om.recover(dataset, reference)
    assert result.residuals["orthogonalized"]
    assert result.residuals["h_rel_frobenius_error"] < 0.02


def test_relative_g0_through_pipeline_with_anchor():
    # per-site couplings proportional to 1 / sqrt(mech_freq); the analytic
    # pipeline recovers the relative rates exactly, and one absolute anchor
    # (site 6 at 12 Hz) fixes the scale of all others
    mech = np.array([2.142, 2.165, 2.202, 2.238, 2.267, 2.315,
                     2.616, 2.405, 2.448, 2.506]) * 1e6
    g0_true = 12.0 * np.sqrt(mech[5] / mech)
    couplings = om.Couplings(j=470e6, j_prime=700e6, j2=100e6, j3=27e6, j3_prime=37e6)
    rng = np.random.default_rng(4)
    freqs = WC * (1 + rng.normal(0, 0.003, 10))
    h = om.build_ssh_chain(5, couplings, freqs)
    sites = tuple(
        om.SiteParams(f, m, 10.0, g) for f, m, g in zip(freqs, mech, g0_true)
    )
    readouts = tuple(
        om.ModeReadout(kappa_tot=k, kappa_1=0.125 * k, kappa_2=0.125 * k)
        for k in rng.uniform(0.5e6, 5e6, 10)
    )
    slopes = om.analytic_slope_matrix(h, sites, readouts)
    # modes along axis 0, sites along axis 1
    mode = {name: np.array([getattr(r, name) for r in readouts])[:, None]
            for name in ("kappa_tot", "kappa_1", "kappa_2", "transmittance")}
    config = om.DampingConfig(detuning=mech, mech_freq=mech, mech_linewidth=10.0, g0=g0_true,
                              drive_flux=1.0, **mode)
    eta_tilde = om.unnormalized_eta(slopes, config)
    eta_hat, _ = om.sinkhorn_normalize(eta_tilde, tol=1e-13)
    relative = om.relative_g0(eta_tilde, eta_hat)
    assert np.allclose(relative, g0_true / g0_true.sum(), rtol=1e-6)
    anchored = relative / relative[5] * 12.0
    assert np.allclose(anchored, g0_true, rtol=1e-6)
