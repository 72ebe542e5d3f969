import json
import re
import tempfile
import threading
import tracemalloc
from collections.abc import Mapping, MutableMapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omlattice as om
from omlattice import _runtime
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

    def test_eigensolves_once(self, monkeypatch):
        # the slopes and the reference come from one diagonalization of h
        h, sites, readouts = small_setup(seed=4)
        calls, real = [], om.experiment.diagonalize

        def spy(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(om.experiment, "diagonalize", spy)
        result = om.recover_noiseless(h, sites, readouts)
        assert calls == [h] and result.residuals["h_rel_frobenius_error"] < 1e-10


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_flux_calibration_refuses_slopes_beyond_float_range(self):
        h, sites, readouts = small_setup(seed=3)
        sites = tuple(om.SiteParams(s.cavity_freq, s.mech_freq, s.mech_linewidth, 1e160) for s in sites)
        with pytest.raises(ValueError, match=r"^damping slopes must be finite, got 16 non-finite of 16"):
            om.calibrate_drive_flux(h, sites, readouts)

    def test_flux_calibration_reaches_target_boost(self):
        h, sites, readouts = small_setup(seed=2)
        flux = om.calibrate_drive_flux(h, sites, readouts)
        slopes = om.analytic_slope_matrix(h, sites, readouts)
        median_opt = np.median(slopes[slopes > 0]) * flux
        median_gamma = np.median([s.mech_linewidth for s in sites])
        assert om.experiment.DRIVE_DAMPING_BOOST == 200.0
        assert median_opt == pytest.approx(200.0 * median_gamma, rel=1e-9)

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

    @pytest.mark.parametrize("attribute, index, got", [
        ("noise_floor", None, "'noise_floor' must be finite >= 0; got noise_floor = inf"),
        ("true_gamma_eff", (0, 1, 2), "'true_gamma_eff_hz' must be finite >= 0, or null; "
                                      "got true_gamma_eff_hz[0, 1, 2] = inf"),
        ("mode_freqs", 3, "'mode_freqs_hz' must be finite > 0 and non-decreasing; "
                          "got mode_freqs_hz[3] = inf"),
        ("mech_freqs", 0, "'mech_freqs_hz' must be finite > 0; got mech_freqs_hz[0] = inf"),
        ("mech_linewidths", 2, "'mech_linewidths_hz' must be finite >= 0; "
                               "got mech_linewidths_hz[2] = inf"),
        ("drive_fluxes", 1, "'drive_fluxes' must be finite > 0, at least 2; got drive_fluxes[1] = inf"),
    ], ids=["noise_floor", "true_gamma_eff", "mode_freqs", "mech_freqs", "mech_linewidths",
            "drive_fluxes"])
    def test_save_refuses_a_field_that_load_would_refuse(self, tmp_path, attribute, index, got):
        h, sites, readouts = small_setup(seed=5)
        ds = om.simulate_measurement(h, sites, readouts, np.linspace(1e14, 5e14, 3),
                                     master_seed=2, snr=80.0, samples_per_trace=30)
        if index is None:
            setattr(ds, attribute, np.inf)
        else:
            getattr(ds, attribute)[index] = np.inf
        with pytest.raises(ValueError, match=re.escape(f"cannot save the dataset: {got}")):
            ds.save(tmp_path / "dataset")
        assert not (tmp_path / "dataset").exists()

    def test_saves_every_trace_in_one_array(self, tmp_path, set_trace):
        # the present traces in C order over (mode, site, power), each
        # trace `samples` columns long: here one is cut short, one missing
        h, sites, readouts = small_setup(seed=5)
        ds = om.simulate_measurement(h, sites, readouts, np.linspace(1e14, 5e14, 3), master_seed=2,
                                     snr=80.0, samples_per_trace=30)
        old = ds.traces[(1, 2, 0)]
        set_trace(ds, (1, 2, 0), om.RingdownTrace(old.times[:12], old.powers[:12], old.true_gamma_eff))
        ds.samples[2, 0, 1] = 0
        ds.save(tmp_path)
        assert sorted(p.name for p in (tmp_path / "traces").iterdir()) == ["traces.npy"]
        data = np.load(tmp_path / "traces" / "traces.npy", allow_pickle=False)
        assert data.dtype == np.float64 and data.shape == (2, 30 * (len(ds.traces) - 1) + 12)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["format"] == 3 and "traces" not in manifest
        assert manifest["samples"] == ds.samples.tolist()
        assert manifest["true_gamma_eff_hz"] == ds.true_gamma_eff.tolist()
        offset = 0
        for key in np.ndindex(ds.samples.shape):
            window = slice(offset, offset + ds.samples[key])
            assert np.array_equal(data[0, window], ds.times[key][:ds.samples[key]])
            assert np.array_equal(data[1, window], ds.powers[key][:ds.samples[key]])
            offset = window.stop
        assert offset == data.shape[1]

    @pytest.mark.parametrize("snr", [60.0, None])
    def test_trace_equals_simulate_ringdown_with_documented_seed(self, snr):
        # trace (k, i, p) is the noiseless simulate_ringdown trace plus column
        # [:, k, i, p] of one normal block from the documented Philox stream
        h, sites, readouts = small_setup(seed=3)
        fluxes = np.linspace(1e14, 6e14, 3)
        ds = om.simulate_measurement(h, sites, readouts, fluxes, master_seed=21, snr=snr,
                                     p0=1.5, samples_per_trace=45)
        eta = om.participation(om.diagonalize(h)).eta
        noise_sigma = 0.0 if snr is None else 1.5 / snr
        block = np.zeros((45, h.n_sites, h.n_sites, 3))
        if snr is not None:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(21)))
            block = rng.normal(0.0, noise_sigma, block.shape)
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
                gamma, 1.5, 0.0, duration=duration, dt=duration / 45, seed=None,
                noise_floor=om.experiment.NOISE_FLOOR_SIGMAS * noise_sigma,
            )
            assert np.array_equal(trace.times, expected.times)
            assert np.array_equal(trace.powers,
                                  np.clip(expected.powers + block[:, k, i, p], 0.0, None))
            assert trace.true_gamma_eff == expected.true_gamma_eff
            assert trace.noise_floor == expected.noise_floor

    def test_noise_drawn_in_runs_of_rows_equals_one_draw(self, monkeypatch):
        h, sites, readouts = small_setup(seed=3)
        fluxes = np.linspace(1e14, 6e14, 3)
        runs = [om.simulate_measurement(h, sites, readouts, fluxes, master_seed=21, snr=60.0,
                                        p0=1.5, samples_per_trace=45)]
        # runs of 2 rows, the last of 1, instead of one draw of all 45
        monkeypatch.setattr(_runtime, "CHUNK_VALUES", 2 * h.n_sites ** 2 * 3 + 1)
        runs.append(om.simulate_measurement(h, sites, readouts, fluxes, master_seed=21, snr=60.0,
                                            p0=1.5, samples_per_trace=45))
        assert np.array_equal(runs[0].powers, runs[1].powers)

    def test_noise_thread_ends_within_the_call(self):
        h, sites, readouts = small_setup(seed=3)
        before = threading.active_count()
        om.simulate_measurement(h, sites, readouts, np.linspace(1e14, 6e14, 3), master_seed=21,
                                snr=60.0, samples_per_trace=45)
        assert threading.active_count() == before

    def test_noise_draw_error_is_raised_in_the_caller(self, monkeypatch):
        calls = []

        class FailingGenerator:
            def __init__(self, bit_generator):
                pass

            def normal(self, loc, scale, size):
                calls.append(size)
                if len(calls) == 2:
                    raise MemoryError("second run")
                return np.zeros(size)

        h, sites, readouts = small_setup(seed=3)
        monkeypatch.setattr(_runtime, "CHUNK_VALUES", 2 * h.n_sites ** 2 * 3)
        monkeypatch.setattr(np.random, "Generator", FailingGenerator)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="second run"):
            om.simulate_measurement(h, sites, readouts, np.linspace(1e14, 6e14, 3),
                                    master_seed=21, snr=60.0, samples_per_trace=45)
        assert len(calls) == 2 and threading.active_count() == before

    def test_failure_beside_the_noise_draw_stops_it(self, monkeypatch):
        # the noise thread starts before the damping rates are computed, and
        # the failure must still join it
        def failing(*args):
            raise ValueError("damping failed")

        h, sites, readouts = small_setup(seed=3)
        monkeypatch.setattr(_runtime, "CHUNK_VALUES", h.n_sites ** 2 * 3)
        monkeypatch.setattr(om.experiment, "damping_slope", failing)
        before = threading.active_count()
        with pytest.raises(ValueError, match="damping failed"):
            om.simulate_measurement(h, sites, readouts, np.linspace(1e14, 6e14, 3),
                                    master_seed=21, snr=60.0, samples_per_trace=45)
        assert threading.active_count() == before

    def test_noiseless_block_runs_on_the_calling_thread(self, monkeypatch, started_threads):
        h, sites, readouts = small_setup(seed=3)
        diagonalized, real = [], om.experiment.diagonalize

        def spy(h):
            diagonalized.append(threading.get_ident())
            return real(h)

        monkeypatch.setattr(om.experiment, "diagonalize", spy)
        # runs of 2 rows: the first two are drawn beside the noiseless block, the rest after it
        monkeypatch.setattr(_runtime, "CHUNK_VALUES", 2 * h.n_sites ** 2 * 3)
        powers = {}
        for cpus in (1, 2, 8):
            monkeypatch.setattr(_runtime, "cpu_count", lambda: cpus)
            powers[cpus] = om.simulate_measurement(
                h, sites, readouts, np.linspace(1e14, 6e14, 3), master_seed=21, snr=60.0,
                samples_per_trace=45).powers
            if cpus == 1:
                assert started_threads == []
        assert diagonalized == [threading.get_ident()] * 3 and len(started_threads) == 2
        assert np.array_equal(powers[2], powers[1]) and np.array_equal(powers[8], powers[1])

    def test_fewer_samples_draw_a_prefix_of_the_noise_rows(self):
        h, sites, readouts = small_setup(seed=3)
        fluxes = np.linspace(1e14, 6e14, 3)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(21)))
        block = rng.normal(0.0, 1.5 / 60.0, (45, h.n_sites, h.n_sites, 3))
        quiet, noisy = (om.simulate_measurement(h, sites, readouts, fluxes, master_seed=21,
                                                snr=snr, p0=1.5, samples_per_trace=30)
                        for snr in (None, 60.0))
        expected = quiet.powers + noisy.noise_floor + np.moveaxis(block[:30], 0, -1)
        assert np.array_equal(noisy.powers, np.clip(expected, 0.0, None))

    OUTSIDE_THE_MODEL = [
        {"snr": 0.0}, {"snr": -5.0}, {"snr": float("nan")},
        {"p0": 0.0}, {"p0": -1.0}, {"p0": float("nan")}, {"p0": float("inf")},
        {"master_seed": -1}, {"master_seed": -1, "snr": None},
        {"samples_per_trace": 1},
        {"drive_fluxes": [1e14]}, {"drive_fluxes": [0.0, 1e14]},
        {"drive_fluxes": [1e14, float("nan")]}, {"drive_fluxes": [1e14, float("inf")]},
    ]

    @pytest.mark.parametrize("change", OUTSIDE_THE_MODEL,
                             ids=[",".join(f"{k}={v}" for k, v in c.items()) for c in OUTSIDE_THE_MODEL])
    def test_inputs_outside_the_model_rejected(self, change):
        h, sites, readouts = small_setup(seed=3)
        kwargs = {"drive_fluxes": [1e14, 6e14], "master_seed": 21, "snr": 60.0, "p0": 1.5,
                  "samples_per_trace": 45, **change}
        with pytest.raises(ValueError, match=next(iter(change))):
            om.simulate_measurement(h, sites, readouts, **kwargs)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_slopes_are_refused_naming_the_slopes(self, value):
        h, sites, readouts = small_setup(seed=8)
        slopes = om.analytic_slope_matrix(h, sites, readouts)
        slopes[1, 2] = value
        modes = om.diagonalize(h)
        with pytest.raises(ValueError, match="damping-power slopes must be finite, got 1 "
                                             f"non-finite of {slopes.size}; a slope is the "
                                             "regression"):
            om.recover_from_slopes(slopes, readouts, [s.mech_freq for s in sites],
                                   modes.eigenfreqs, modes)

    def test_mode_row_or_site_column_without_a_positive_slope_is_refused(self):
        h, sites, readouts = small_setup(seed=8)
        slopes = om.analytic_slope_matrix(h, sites, readouts)
        slopes[2] = 0.0
        slopes[:, 1] = -1e-20  # clipped to zero before the inversion
        modes = om.diagonalize(h)
        with pytest.raises(ValueError, match=re.escape(
                "no positive damping-power slope for modes [2] and sites [1]; a recovery needs "
                "one in every mode row and site column")):
            om.recover_from_slopes(slopes, readouts, [s.mech_freq for s in sites],
                                   modes.eigenfreqs, modes)

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
    def noisy_dataset(seed=6, samples=200, powers=8, n_cells=2):
        h, sites, readouts = small_setup(seed=seed, n_cells=n_cells)
        flux = om.calibrate_drive_flux(h, sites, readouts)
        ds = om.simulate_measurement(h, sites, readouts, np.linspace(flux / powers, flux, powers),
                                     master_seed=4, snr=100.0, samples_per_trace=samples)
        return h, ds

    def test_every_trace_has_the_requested_length(self):
        _, ds = self.noisy_dataset(samples=400)
        assert {t.times.size for t in ds.traces.values()} == {400}

    def test_uniform_traces_are_fitted_without_copies(self):
        # 1,000 traces of 400 samples; copies of both trace arrays alone
        # would allocate their full size
        _, ds = self.noisy_dataset(samples=400, powers=10, n_cells=5)
        tracemalloc.start()
        try:
            ds.fit_all()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.times.nbytes + ds.powers.nbytes
        gamma, stderr, _ = om.fit_ringdowns(ds.times.reshape(-1, 400).copy(),
                                            ds.powers.reshape(-1, 400).copy())
        assert np.array_equal(ds.fitted_gammas.ravel(), gamma)
        assert np.array_equal(ds.fitted_errors.ravel(), stderr)

    def test_mixed_lengths_fit_as_separate_groups(self, set_trace):
        _, ds = self.noisy_dataset(samples=400)
        for key in list(ds.traces)[::3]:
            old = ds.traces[key]
            dt = old.times[1]
            set_trace(ds, key, om.simulate_ringdown(old.true_gamma_eff, 1.0, 0.01,
                                                    duration=400.5 * dt, dt=dt, seed=7,
                                                    noise_floor=old.noise_floor))
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
        ds.powers[1, 2, 3] = 0.2
        ds.slopes = None
        result = om.recover(ds, reference)
        assert np.isnan(ds.fitted_gammas[1, 2, 3]) and ds.fitted_errors[1, 2, 3] == np.inf
        assert np.isfinite(ds.fitted_gammas).sum() == ds.fitted_gammas.size - 1
        assert clean.residuals["fits_failed"] == 0
        assert result.residuals["fits_failed"] == 1
        assert result.residuals["h_rel_frobenius_error"] < 0.01

    def test_pair_with_fewer_than_three_fits_gets_zero_slope(self):
        _, ds = self.noisy_dataset(powers=4)
        ds.powers[0, 1, :2] = 0.0
        slopes = ds.fit_all()
        assert slopes[0, 1] == 0.0
        assert np.count_nonzero(slopes) > slopes.size // 2

    def test_mixed_length_dataset_round_trips_bit_for_bit(self, tmp_path, set_trace):
        _, ds = self.noisy_dataset(samples=400, powers=4)
        for key in list(ds.traces)[::3]:
            old = ds.traces[key]
            dt = old.times[1]
            set_trace(ds, key, om.simulate_ringdown(old.true_gamma_eff, 1.0, 0.01,
                                                    duration=400.5 * dt, dt=dt, seed=7,
                                                    noise_floor=old.noise_floor))
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
        ds.samples[2, 0, 5] = 5
        result = om.recover(ds, om.diagonalize(h))
        assert np.isnan(ds.fitted_gammas[2, 0, 5]) and ds.fitted_errors[2, 0, 5] == np.inf
        assert result.residuals["fits_failed"] == 1
        assert result.residuals["h_rel_frobenius_error"] < 0.01

    # a power of two scales the rates (through the times) and the fluxes
    # exactly; the unscaled sums of squares would leave float range
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rate_exp, flux_exp", [(0, 900), (0, -900), (900, 0), (900, 900)])
    def test_slopes_scale_exactly_with_rates_and_fluxes(self, rate_exp, flux_exp):
        _, ds = self.noisy_dataset()
        slopes, gammas = ds.fit_all(), ds.fitted_gammas
        ds.times = np.ldexp(ds.times, -rate_exp)
        ds.drive_fluxes = np.ldexp(ds.drive_fluxes, flux_exp)
        scaled = ds.fit_all()
        assert np.array_equal(ds.fitted_gammas, np.ldexp(gammas, rate_exp))
        assert np.count_nonzero(slopes) > slopes.size // 2
        assert np.array_equal(scaled, np.ldexp(slopes, rate_exp - flux_exp))

    def test_all_fits_failed_raises(self):
        _, ds = self.noisy_dataset(powers=3)
        ds.powers[...] = 0.0
        with pytest.raises(om.RingdownFitError):
            ds.fit_all()


class TestTraceMapping:
    """``MeasurementDataset.traces`` is a read-only mapping of the present
    traces: the contract that callers counting traces and samples through it
    rely on."""

    @pytest.mark.parametrize("source", ["simulated", "v3"])
    def test_view_holds_the_present_traces(self, tmp_path, source):
        h, sites, readouts = small_setup(seed=5)
        flux = om.calibrate_drive_flux(h, sites, readouts)
        ds = om.simulate_measurement(h, sites, readouts, np.linspace(flux / 4, flux, 4),
                                     master_seed=2, snr=80.0, samples_per_trace=30)
        keys = sorted(ds.traces)
        ds.samples[1, 2, 3] = 0
        if source == "v3":
            ds.save(tmp_path / "v3")
            ds = om.MeasurementDataset.load(tmp_path / "v3")
        assert ds.samples[1, 2, 3] == 0 and (1, 2, 3) not in ds.traces
        assert list(ds.traces) == [key for key in keys if key != (1, 2, 3)]
        assert len(ds.traces) == 4 * 4 * 4 - 1
        assert sum(t.times.size for t in ds.traces.values()) == 30 * (4 * 4 * 4 - 1)
        assert all(type(ds.traces[key]) is om.RingdownTrace for key in ds.traces)
        for key in ((1, 2, 3), (-1, 0, 0), (0, 0, 4), (0, 0), ("a", 0, 0)):
            with pytest.raises(KeyError):
                ds.traces[key]
        result = om.recover(ds, om.diagonalize(h))
        assert np.isnan(ds.fitted_gammas[1, 2, 3])
        assert result.residuals["fits_failed"] == 1

    def test_view_is_read_only(self):
        h, sites, readouts = small_setup(seed=5)
        ds = om.simulate_measurement(h, sites, readouts, np.linspace(1e14, 5e14, 3),
                                     master_seed=2, snr=None, samples_per_trace=30)
        assert isinstance(ds.traces, Mapping) and not isinstance(ds.traces, MutableMapping)
        trace = ds.traces[(0, 0, 1)]
        with pytest.raises(TypeError):
            ds.traces[(0, 0, 0)] = trace
        with pytest.raises(TypeError):
            del ds.traces[(0, 0, 0)]
        with pytest.raises(AttributeError):
            ds.traces = {}
        trace.powers[:] = 0.0  # a trace is a copy
        assert ds.powers[0, 0, 1].any()

    def test_load_refuses_one_long_trace_among_short_ones(self, tmp_path, set_trace):
        # the dense arrays pad every trace to the longest: 64 x 2000 samples
        # for 2126 samples of data is refused rather than allocated
        h, sites, readouts = small_setup(seed=5)
        ds = om.simulate_measurement(h, sites, readouts, np.linspace(1e14, 5e14, 4),
                                     master_seed=2, snr=None, samples_per_trace=30)
        ds.samples[...] = 2
        set_trace(ds, (0, 0, 0), om.RingdownTrace(np.arange(2000.0), np.ones(2000)))
        ds.save(tmp_path / "dataset")
        with pytest.raises(om_io.ConfigError, match="padding its 64 traces to the longest"):
            om.MeasurementDataset.load(tmp_path / "dataset")


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**16), n_cells=st.integers(2, 4),
       snr=st.sampled_from([None, 100.0, 300.0]), powers=st.integers(3, 4),
       samples=st.integers(20, 60))
def test_format_3_dataset_round_trips_bit_for_bit(seed, n_cells, snr, powers, samples):
    h, sites, readouts = small_setup(seed=seed, n_cells=n_cells)
    flux = om.calibrate_drive_flux(h, sites, readouts)
    ds = om.simulate_measurement(h, sites, readouts, np.linspace(flux / powers, flux, powers),
                                 master_seed=seed, snr=snr, samples_per_trace=samples)
    reference = om.diagonalize(h)
    expected = om.recover(ds, reference)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ds.save(tmp / "dataset")
        loaded = om.MeasurementDataset.load(tmp / "dataset")
        result = om.recover(loaded, reference)
        assert loaded.fitted_gammas.tobytes() == ds.fitted_gammas.tobytes()
        assert loaded.fitted_errors.tobytes() == ds.fitted_errors.tobytes()
        assert result.h_hat.matrix.tobytes() == expected.h_hat.matrix.tobytes()
        assert result.eta_hat.eta.tobytes() == expected.eta_hat.eta.tobytes()
        assert result.residuals == expected.residuals
        loaded.save(tmp / "again")
        for name in ("manifest.json", "h_true.csv", "traces/traces.npy"):
            assert (tmp / "again" / name).read_bytes() == (tmp / "dataset" / name).read_bytes()


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**16), spread=st.floats(0.0, 0.005),
       kappa_1=st.floats(0.02, 0.45), kappa_2=st.floats(0.0, 0.5))
def test_noiseless_flake_recovery_is_the_identity(seed, spread, kappa_1, kappa_2):
    # random cavity-frequency spreads (0 leaves the flake's degenerate modes),
    # couplings g0 and readouts on the 24-site flake
    config = om_io.load_config(Path(om.__file__).resolve().parent / "configs" / "paper_2d.cfg")
    rng = np.random.default_rng(seed)
    sites = tuple(
        om.SiteParams(s.cavity_freq * (1 + rng.normal(0, spread)), s.mech_freq,
                      rng.uniform(3, 45), rng.uniform(8, 14))
        for s in config.spec.sites
    )
    h = om.build_honeycomb_flake(config.spec.couplings, [s.cavity_freq for s in sites])
    readouts = tuple(
        om.ModeReadout(kappa_tot=k, kappa_1=kappa_1 * k, kappa_2=kappa_2 * k,
                       transmittance=rng.uniform(0.3, 1.0))
        for k in rng.uniform(0.1e6, 7e6, h.n_sites)
    )
    result = om.recover_noiseless(h, sites, readouts)
    assert result.residuals["h_rel_frobenius_error"] < 1e-10


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
