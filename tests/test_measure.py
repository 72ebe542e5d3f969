import itertools
import math
import os
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import omlattice as om
from omlattice import _runtime, experiment, measure
from omlattice.cli import main
from omlattice.measure import EIGVEC_COND_MAX, SINKHORN_FLOOR_DEFAULT, TWO_PI

WC = 7.12e9
CONFIG_DIR = Path(om.__file__).resolve().parent / "configs"


def make_cfg(detuning=2.2e6, kappa_tot=4e6, kappa_1=0.5e6, kappa_2=0.5e6,
             drive_flux=1e12, transmittance=1.0, mech_freq=2.2e6,
             mech_linewidth=10.0, g0=10.0) -> om.DampingConfig:
    return om.DampingConfig(
        detuning=detuning, kappa_tot=kappa_tot, kappa_1=kappa_1, kappa_2=kappa_2,
        drive_flux=drive_flux, transmittance=transmittance, mech_freq=mech_freq,
        mech_linewidth=mech_linewidth, g0=g0,
    )


class TestIntracavityPhotons:
    def test_resonant_limit(self):
        cfg = make_cfg(detuning=0.0)
        expected = 4 * (TWO_PI * cfg.kappa_1) * cfg.transmittance * cfg.drive_flux / (
            TWO_PI * cfg.kappa_tot) ** 2
        assert om.intracavity_photons(cfg) == pytest.approx(expected, rel=1e-12)

    def test_half_at_half_linewidth_detuning(self):
        resonant = om.intracavity_photons(make_cfg(detuning=0.0))
        detuned = om.intracavity_photons(make_cfg(detuning=2e6))  # kappa_tot / 2
        assert detuned == pytest.approx(resonant / 2, rel=1e-12)

    def test_against_complex_amplitude_oracle(self):
        # steady-state amplitude alpha = -i sqrt(kappa1 nd) / (i Delta + kappa/2)
        cfg = make_cfg(detuning=2.2e6, kappa_tot=4e6, kappa_1=0.5e6, drive_flux=3.7e13)
        delta, kappa = TWO_PI * cfg.detuning, TWO_PI * cfg.kappa_tot
        alpha = -1j * np.sqrt(TWO_PI * cfg.kappa_1 * cfg.drive_flux) / (1j * delta + kappa / 2)
        assert om.intracavity_photons(cfg) == pytest.approx(abs(alpha) ** 2, rel=1e-12)


class TestOptomechDamping:
    def test_sideband_resolved_limit(self):
        cfg = make_cfg(detuning=2.2e6, kappa_tot=0.05e6, kappa_1=0.005e6,
                       kappa_2=0.005e6, mech_freq=2.2e6)
        eta = 0.4
        full = om.optomech_damping(cfg, eta)
        approx = om.intracavity_photons(cfg) * 4 * (eta * cfg.g0) ** 2 / cfg.kappa_tot
        assert full == pytest.approx(approx, rel=1e-3)

    def test_zero_detuning_cancels(self):
        assert om.optomech_damping(make_cfg(detuning=0.0), 0.5) == 0.0

    def test_zero_eta(self):
        assert om.optomech_damping(make_cfg(), 0.0) == 0.0

    def test_odd_in_detuning(self):
        for delta in (0.5e6, 1.7e6, 3.1e6):
            plus = om.optomech_damping(make_cfg(detuning=delta), 0.3)
            minus = om.optomech_damping(make_cfg(detuning=-delta), 0.3)
            assert minus == pytest.approx(-plus, rel=1e-12)

    def test_effective_damping_adds_intrinsic(self):
        cfg = make_cfg()
        assert om.effective_damping(cfg, 0.3) == pytest.approx(
            cfg.mech_linewidth + om.optomech_damping(cfg, 0.3)
        )


class TestDampingSlope:
    def test_quadratic_in_eta(self):
        cfg = make_cfg()
        assert om.damping_slope(cfg, 0.6) == pytest.approx(4 * om.damping_slope(cfg, 0.3))

    def test_optimal_detuning_beats_detuned(self):
        on = om.damping_slope(make_cfg(detuning=2.2e6), 0.4)
        off = om.damping_slope(make_cfg(detuning=1.2 * 2.2e6), 0.4)
        assert on > off

    def test_zero_eta(self):
        assert om.damping_slope(make_cfg(), 0.0) == 0.0

    def test_consistent_with_damping_per_flux(self):
        # the optomechanical term is linear in flux, so slope * flux = damping
        cfg = make_cfg(drive_flux=7.7e12)
        slope = om.damping_slope(cfg, 0.35)
        assert slope * cfg.drive_flux == om.optomech_damping(cfg, 0.35)


class TestBroadcasting:
    """Array calls of the damping formulas equal scalar calls bit for bit."""

    @staticmethod
    def random_fields(rng, shape):
        kappa = rng.uniform(0.5e6, 4e6, shape)
        return dict(
            detuning=rng.uniform(1.9e6, 2.5e6, shape), kappa_tot=kappa,
            kappa_1=kappa * rng.uniform(0.05, 0.5, shape), kappa_2=kappa * rng.uniform(0, 0.4, shape),
            drive_flux=rng.uniform(1e12, 1e16, shape), transmittance=rng.uniform(0.3, 1, shape),
            mech_freq=rng.uniform(2e6, 2.4e6, shape), mech_linewidth=rng.uniform(5, 15, shape),
            g0=rng.uniform(8, 14, shape),
        )

    @pytest.mark.parametrize("func", [
        om.optomech_damping, om.effective_damping, om.damping_slope,
        # the inversion takes the slope first; the values in [0, 1] serve as slopes
        pytest.param(lambda cfg, slope: om.unnormalized_eta(slope, cfg), id="unnormalized_eta"),
    ])
    def test_array_call_equals_scalar_calls(self, func):
        rng = np.random.default_rng(11)
        fields = self.random_fields(rng, 4000)
        eta = rng.uniform(0, 1, 4000)
        eta[:3] = (0.0, 1.0, 0.5)
        batch = func(om.DampingConfig(**fields), eta)
        scalar = [func(om.DampingConfig(**{k: float(v[j]) for k, v in fields.items()}), float(eta[j]))
                  for j in range(eta.size)]
        assert batch.shape == eta.shape
        assert batch.tobytes() == np.array(scalar).tobytes()

    def test_unnormalized_eta_ignores_unmeasured_fields(self):
        # the slope inversion reads only detuning, kappa_tot and mech_freq, so
        # a config with g0 = 0 and one with the site g0 invert alike
        rng = np.random.default_rng(14)
        fields = self.random_fields(rng, 500)
        slope = rng.uniform(0, 1e-12, 500)
        expected = om.unnormalized_eta(slope, om.DampingConfig(**fields)).tobytes()
        unread = ("g0", "kappa_1", "kappa_2", "transmittance", "mech_linewidth", "drive_flux")
        for scale in (0.0, 0.5, rng.uniform(0, 1, 500)):
            changed = dict(fields, **{name: fields[name] * scale for name in unread})
            assert om.unnormalized_eta(slope, om.DampingConfig(**changed)).tobytes() == expected
        assert type(om.unnormalized_eta(1e-13, make_cfg())) is float

    def test_fields_broadcast_against_each_other(self):
        rng = np.random.default_rng(12)
        mode = {k: v[:, None] for k, v in self.random_fields(rng, 3).items()
                if k in ("kappa_tot", "kappa_1", "kappa_2", "transmittance")}
        site = {k: v[None, :] for k, v in self.random_fields(rng, 5).items()
                if k in ("detuning", "mech_freq", "mech_linewidth", "g0")}
        eta = rng.uniform(0, 1, (3, 5))
        gamma = om.effective_damping(om.DampingConfig(drive_flux=2e15, **mode, **site), eta)
        assert gamma.shape == (3, 5)
        for k in range(3):
            for i in range(5):
                cfg = om.DampingConfig(drive_flux=2e15, **{n: v[k, 0] for n, v in mode.items()},
                                       **{n: v[0, i] for n, v in site.items()})
                assert gamma[k, i] == om.effective_damping(cfg, eta[k, i])

    def test_any_bad_element_is_rejected(self):
        fields = self.random_fields(np.random.default_rng(13), 3)
        fields["g0"] = np.array([1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="g0"):
            om.DampingConfig(**fields)
        fields["g0"] = np.ones(3)
        with pytest.raises(ValueError, match="eta"):
            om.optomech_damping(om.DampingConfig(**fields), np.array([0.2, 1.2, 0.3]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["detuning", "kappa_tot", "kappa_1", "kappa_2", "drive_flux",
                                      "transmittance", "mech_freq", "mech_linewidth", "g0"])
    def test_nan_or_infinite_field_is_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            make_cfg(**{name: value})
        with pytest.raises(ValueError, match=f"^{name} must be "):
            make_cfg(**{name: np.array([getattr(make_cfg(), name), value])})

    def test_negative_detuning_is_legal(self):
        assert make_cfg(detuning=-2.2e6).detuning == -2.2e6


class TestUnnormalizedEta:
    def test_roundtrip_recovers_prefactors(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            cfg = make_cfg(
                detuning=rng.uniform(1.5e6, 3e6), kappa_tot=rng.uniform(0.5e6, 6e6),
                kappa_1=rng.uniform(0.05e6, 0.2e6), kappa_2=0.05e6,
                transmittance=rng.uniform(0.2, 1.0),
                mech_freq=rng.uniform(2e6, 2.6e6), g0=rng.uniform(5, 20),
            )
            eta = rng.uniform(0.01, 1.0)
            value = om.unnormalized_eta(om.damping_slope(cfg, eta), cfg)
            expected = cfg.g0 * eta * np.sqrt(cfg.kappa_1 * cfg.transmittance)
            assert value == pytest.approx(expected, rel=1e-10)

    def test_zero_slope(self):
        assert om.unnormalized_eta(0.0, make_cfg()) == 0.0

    def test_common_mode_factors_cancel_in_ratios(self):
        cfg = make_cfg()
        cfg_b = make_cfg(mech_freq=2.4e6, detuning=2.4e6, g0=14.0)
        eta_a, eta_b = 0.3, 0.2
        ra = om.unnormalized_eta(om.damping_slope(cfg, eta_a), cfg)
        rb = om.unnormalized_eta(om.damping_slope(cfg_b, eta_b), cfg_b)
        assert ra / rb == pytest.approx((cfg.g0 * eta_a) / (cfg_b.g0 * eta_b), rel=1e-10)

    def test_rejects_negative_slope(self):
        with pytest.raises(ValueError):
            om.unnormalized_eta(-1.0, make_cfg())


class TestRingdown:
    def test_noiseless_fit_exact(self):
        trace = om.simulate_ringdown(200.0, 1.0, 0.0, duration=4 / (TWO_PI * 200), dt=1e-5, seed=0)
        gamma, _ = om.fit_ringdown(trace)
        assert gamma == pytest.approx(200.0, rel=1e-10)

    def test_zero_rate_constant_trace(self):
        trace = om.simulate_ringdown(0.0, 1.0, 0.0, duration=1.0, dt=0.01, seed=0, noise_floor=0.1)
        assert np.ptp(trace.powers) == 0.0

    def test_deterministic_per_seed(self):
        kwargs = dict(gamma_eff=150.0, p0=1.0, noise_sigma=0.01,
                      duration=3e-3, dt=2e-5, noise_floor=0.05)
        a = om.simulate_ringdown(seed=5, **kwargs)
        b = om.simulate_ringdown(seed=5, **kwargs)
        assert np.array_equal(a.powers, b.powers)

    def test_monte_carlo_accuracy_at_snr_100(self):
        # 1000 seeds, SNR 100, three decay constants: 95% of fits within 2%
        gamma = 300.0
        duration = 3 / (TWO_PI * gamma)
        fits = []
        for seed in range(1000):
            trace = om.simulate_ringdown(gamma, 1.0, 0.01, duration=duration,
                                         dt=duration / 400, seed=seed, noise_floor=0.05)
            fits.append(om.fit_ringdown(trace)[0])
        errors = np.abs(np.array(fits) / gamma - 1.0)
        assert np.percentile(errors, 95) < 0.02
        # unbiased at high SNR: mean over the 1000 seeds within 0.5%
        assert abs(np.mean(fits) / gamma - 1.0) < 0.005

    def test_short_trace_rejected(self):
        trace = om.RingdownTrace(np.linspace(0, 1, 5), np.ones(5))
        with pytest.raises(ValueError):
            om.fit_ringdown(trace)

    @pytest.mark.parametrize("times, powers, rule", [
        ([0.0], [1.0], "fewer than 2 samples"),
        ([0.0, 1.0, 1.0], [1.0, 0.5, 0.2], "strictly increasing"),
        ([0.0, np.nan, 2.0], [1.0, 0.5, 0.2], "strictly increasing"),
        ([0.0, 1.0, 2.0], [1.0, -0.5, 0.2], "powers must be >= 0"),
        ([0.0, 1.0, 2.0], [1.0, np.nan, 0.2], "powers must be >= 0"),
    ])
    def test_malformed_trace_rejected(self, times, powers, rule):
        with pytest.raises(ValueError, match=rule):
            om.RingdownTrace(np.array(times), np.array(powers))


def _reference_fit(trace, skip_fraction):
    """The least-squares ringdown fit by scipy's MINPACK wrapper, from the
    same start point as the batched kernel.  Its tolerances are tightened
    from scipy's 1.49e-8: at that default it stops up to 1e-5 (relative)
    short of the minimum in gamma on SNR-30 traces, which would measure
    curve_fit's stopping rule rather than the kernel."""
    from scipy.optimize import curve_fit

    start = int(round(skip_fraction * trace.times.size))
    t, p = trace.times[start:], trace.powers[start:]
    floor0 = float(np.mean(p[-max(3, p.size // 8):]))
    amp = p - floor0
    above = amp > 0.1 * max(amp.max(), 1e-300)
    if above.sum() >= 5:
        slope, intercept = np.polyfit(t[above], np.log(amp[above]), 1)
        guess = [float(np.exp(intercept)), max(-slope / TWO_PI, 0.0), floor0]
    else:
        guess = [max(float(amp.max()), 1e-300), 0.0, floor0]

    def model(t, a, gamma, c):
        return a * np.exp(-TWO_PI * gamma * t) + c

    def jac(t, a, gamma, c):
        e = np.exp(-TWO_PI * gamma * t)
        return np.stack([e, -TWO_PI * t * a * e, np.ones_like(t)], axis=1)

    params, cov = curve_fit(model, t, p, p0=guess, jac=jac, method="lm",
                            ftol=1e-15, xtol=1e-15, maxfev=4000)
    return params[1], np.sqrt(cov[1, 1])


def _random_traces(rng, count, samples, snr_choices=(30.0, 100.0, 300.0, np.inf), jitter=False):
    """Random ringdowns on uniform grids from 0, or with ``jitter`` on
    non-uniform, strictly increasing times from a random offset."""
    traces, snrs = [], []
    for _ in range(count):
        gamma = rng.uniform(50.0, 2000.0)
        snr = snr_choices[rng.integers(len(snr_choices))]
        duration = rng.uniform(2.0, 6.0) / (TWO_PI * gamma)
        sigma = 0.0 if np.isinf(snr) else 1.0 / snr
        if jitter:
            times = rng.uniform(0.0, 0.2) / gamma + np.cumsum(rng.uniform(0.2, 1.8, samples)) * (
                duration / samples)
            powers = np.exp(-TWO_PI * gamma * times) + 5 * sigma + rng.normal(0, sigma, samples)
            traces.append(om.RingdownTrace(times, np.clip(powers, 0.0, None)))
        else:
            traces.append(om.simulate_ringdown(
                gamma, 1.0, sigma, duration=duration, dt=duration / samples,
                seed=int(rng.integers(1 << 31)), noise_floor=5 * sigma))
        snrs.append(snr)
    return traces, np.array(snrs)


def _stacked(traces):
    return np.stack([t.times for t in traces]), np.stack([t.powers for t in traces])


class TestBatchedRingdownFit:
    @staticmethod
    def check_against_oracle(traces, snrs, skip_fraction):
        gamma, stderr, converged = om.fit_ringdowns(*_stacked(traces), skip_fraction)
        assert converged.all()
        reference = np.array([_reference_fit(t, skip_fraction) for t in traces])
        assert np.abs(gamma / reference[:, 0] - 1).max() < 1e-6
        noisy = np.isfinite(snrs)
        assert np.abs(stderr[noisy] / reference[noisy, 1] - 1).max() < 1e-4
        # noiseless traces: both standard errors are rounding-level
        assert np.all(stderr[~noisy] < 1e-9 * gamma[~noisy])
        assert np.all(reference[~noisy, 1] < 1e-9 * reference[~noisy, 0])

    @pytest.mark.parametrize("samples", [20, 60, 140, 400])
    @pytest.mark.parametrize("skip_fraction", [0.0, 0.1])
    def test_matches_curve_fit_oracle(self, samples, skip_fraction):
        rng = np.random.default_rng(samples + int(100 * skip_fraction))
        self.check_against_oracle(*_random_traces(rng, 40, samples), skip_fraction)

    @pytest.mark.parametrize("samples", [20, 140])
    def test_matches_curve_fit_oracle_on_jittered_times(self, samples):
        # non-uniform times take the general path, the uniform grids their own
        rng = np.random.default_rng(1000 + samples)
        self.check_against_oracle(*_random_traces(rng, 40, samples, jitter=True), 0.1)

    def test_too_few_samples_above_the_floor_fail(self):
        # a decay to a tenth of the peak within 4 samples gives the log-linear
        # start fewer than 5 points: the start rate is 0, where amplitude and
        # floor cannot be told apart, and the fit fails instead of guessing;
        # at 5 points the same decay is fitted
        rng = np.random.default_rng(17)
        gamma = 8000.0
        for per_sample, count, fits in ((0.6, 4, False), (0.5, 5, True)):
            times = np.tile(np.arange(100) * per_sample / (TWO_PI * gamma), (5, 1))
            powers = np.clip(np.exp(-TWO_PI * gamma * times) + 0.05
                             + rng.normal(0, 0.003, times.shape), 0.0, None)
            amp = powers - powers[:, -12:].mean(axis=1)[:, None]
            assert ((amp > 0.1 * amp.max(axis=1)[:, None]).sum(axis=1) == count).all()
            fitted, stderr, converged = om.fit_ringdowns(times, powers, skip_fraction=0.0)
            if fits:
                assert converged.all() and np.abs(fitted / gamma - 1).max() < 0.05
                continue
            assert not converged.any() and np.isnan(fitted).all() and (stderr == np.inf).all()
            with pytest.raises(om.RingdownFitError):
                om.fit_ringdown(om.RingdownTrace(times[0], powers[0]), skip_fraction=0.0)

    def test_single_trace_call_is_the_batched_kernel(self):
        traces, _ = _random_traces(np.random.default_rng(5), 12, 140)
        gamma, stderr, _ = om.fit_ringdowns(*_stacked(traces))
        for k, trace in enumerate(traces):
            assert om.fit_ringdown(trace) == (gamma[k], stderr[k])

    def test_degenerate_trace_fails_alone(self):
        traces, _ = _random_traces(np.random.default_rng(9), 300, 140, (100.0,))
        times, powers = _stacked(traces)
        gamma, stderr, converged = om.fit_ringdowns(times, powers)
        assert converged.all()
        for flat in (np.zeros(140), np.full(140, 0.1), np.full(140, 0.3)):
            g2, e2, c2 = om.fit_ringdowns(np.insert(times, 117, times[5], axis=0),
                                          np.insert(powers, 117, flat, axis=0))
            assert not c2[117] and np.isnan(g2[117]) and e2[117] == np.inf
            assert np.array_equal(np.delete(g2, 117), gamma)
            assert np.array_equal(np.delete(e2, 117), stderr)
            assert np.delete(c2, 117).all()

    def test_single_degenerate_trace_raises(self):
        trace = om.simulate_ringdown(0.0, 1.0, 0.0, duration=1.0, dt=0.01, seed=0, noise_floor=0.1)
        with pytest.raises(om.RingdownFitError):
            om.fit_ringdown(trace)

    def test_trace_length_is_exact_and_prefix_unchanged(self):
        # duration / dt rounding above 400 made np.arange give 401 samples;
        # a non-integer ratio still rounds up, and the samples both traces
        # share are bit-identical
        duration = 1e-4
        dt = duration / 400
        assert np.arange(0.0, duration, dt).size == 401
        exact = om.simulate_ringdown(3e3, 1.0, 0.01, duration=duration, dt=dt, seed=4,
                                     noise_floor=0.05)
        longer = om.simulate_ringdown(3e3, 1.0, 0.01, duration=400.5 * dt, dt=dt, seed=4,
                                      noise_floor=0.05)
        assert exact.times.size == 400 and longer.times.size == 401
        assert np.array_equal(exact.times, longer.times[:400])
        assert np.array_equal(exact.powers, longer.powers[:400])


def _stack_with_degenerate_rows(rows, samples, seed=3):
    """``rows`` random ringdowns of ``samples`` samples at SNR 30, 100 and
    noiseless; every 37th row, from row 2, is one the fit cannot take: all
    zero, flat, rising, or decaying too fast for the log-linear start."""
    traces, _ = _random_traces(np.random.default_rng(seed), rows, samples, (30.0, 100.0, np.inf))
    times, powers = _stacked(traces)
    degenerate = (np.zeros(samples), np.full(samples, 0.1), np.linspace(0.1, 1.0, samples),
                  np.where(np.arange(samples) < 14, 1.0, 0.05))
    for j, row in enumerate(range(2, rows, 37)):
        powers[row] = degenerate[j % len(degenerate)]
    return times, powers


def _row_by_row(times, powers):
    fits = [om.fit_ringdowns(times[i:i + 1], powers[i:i + 1]) for i in range(len(times))]
    return tuple(np.concatenate(column) for column in zip(*fits))


def _assert_same_fits(got, expected):
    for x, y in zip(got, expected, strict=True):
        assert np.array_equal(x, y, equal_nan=True)


class TestFitOnEveryCpu:
    """fit_ringdowns cuts a stack into chunks fitted on this thread and one
    helper thread per further CPU; no result depends on the cut or on the
    threads."""

    @pytest.fixture
    def chunks(self, monkeypatch):
        """The (rows, thread name, CPUs the thread may run on) of every
        _fit_chunk call."""
        calls, real = [], measure._fit_chunk

        def recording(t, p):
            cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
            calls.append((t.shape[0], threading.current_thread().name, cpus))
            return real(t, p)

        monkeypatch.setattr(measure, "_fit_chunk", recording)
        return calls

    @pytest.mark.parametrize("rows, expected_chunks", [
        (1, [1]),
        # one chunk's worth of 126-sample rows (140 less the skipped head), plus one
        (2**16 // 126 + 1, [261, 260]),
        (1152, [384, 384, 384]),
    ])
    def test_stack_fits_bit_for_bit_like_row_by_row(self, monkeypatch, chunks, rows,
                                                    expected_chunks):
        monkeypatch.setattr(_runtime, "cpu_count", lambda: 2)
        times, powers = _stack_with_degenerate_rows(rows, 140)
        got = om.fit_ringdowns(times, powers)
        assert sorted(size for size, _, _ in chunks) == sorted(expected_chunks)
        if rows > 1:
            assert not got[2].all()  # the degenerate rows are in the stack
        chunks.clear()
        _assert_same_fits(got, _row_by_row(times, powers))

    def test_mixed_chunks_fit_bit_for_bit_like_row_by_row(self, monkeypatch, chunks):
        # uniform grids, jittered grids and rows the fit cannot take, in turn
        monkeypatch.setattr(_runtime, "cpu_count", lambda: 2)
        rng = np.random.default_rng(31)
        uniform = _stacked(_random_traces(rng, 300, 140)[0])
        jittered = _stacked(_random_traces(rng, 300, 140, jitter=True)[0])
        degenerate = _stack_with_degenerate_rows(300, 140, seed=8)
        times, powers = (np.stack([kind[i] for kind in (uniform, jittered, degenerate)], axis=1)
                         .reshape(900, 140) for i in (0, 1))
        assert measure._on_uniform_grid(times[:, 14:]).tolist() == [True, False, True] * 300
        got = om.fit_ringdowns(times, powers)
        assert sorted(size for size, _, _ in chunks) == [450, 450]
        assert got[2][0::3].all() and got[2][1::3].all() and not got[2][2::3].all()
        chunks.clear()
        _assert_same_fits(got, _row_by_row(times, powers))

    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_threads_give_the_results_of_the_inline_path(self, monkeypatch, chunks, cpus):
        times, powers = _stack_with_degenerate_rows(1000, 400, seed=11)
        monkeypatch.setattr(_runtime, "cpu_count", lambda: 1)
        inline = om.fit_ringdowns(times, powers)
        assert {name for _, name, _ in chunks} == {threading.current_thread().name}
        chunks.clear()
        monkeypatch.setattr(_runtime, "cpu_count", lambda: cpus)
        caller_cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        before = threading.active_count()
        _assert_same_fits(om.fit_ringdowns(times, powers), inline)
        assert threading.active_count() == before
        assert len(chunks) == 6 and "omlattice-fit" in {name for _, name, _ in chunks}
        if caller_cpus is not None:
            # each helper pinned to one CPU; the calling thread left as it was
            assert all(len(allowed) == 1 for _, name, allowed in chunks if name == "omlattice-fit")
            assert os.sched_getaffinity(0) == caller_cpus

    def test_many_threads_switching_often_give_the_same_results(self, monkeypatch):
        # more threads than chunks and than CPUs, switching every microsecond
        times, powers = _stack_with_degenerate_rows(300, 140, seed=5)
        monkeypatch.setattr(_runtime, "CHUNK_VALUES", 1000)
        monkeypatch.setattr(_runtime, "cpu_count", lambda: 1)
        inline = om.fit_ringdowns(times, powers)
        monkeypatch.setattr(_runtime, "cpu_count", lambda: 64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = [om.fit_ringdowns(times, powers) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        for fits in threaded:
            _assert_same_fits(fits, inline)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="threads are not pinned here")
    def test_helper_the_os_refuses_to_pin_runs_free(self, monkeypatch):
        def refuse(pid, cpus):
            raise OSError(22, "Invalid argument")

        times, powers = _stack_with_degenerate_rows(300, 140, seed=5)
        monkeypatch.setattr(_runtime, "cpu_count", lambda: 1)
        inline = om.fit_ringdowns(times, powers)
        monkeypatch.setattr(_runtime, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        _assert_same_fits(om.fit_ringdowns(times, powers), inline)

    @pytest.mark.parametrize("cpus", [2, 8])
    def test_calling_thread_runs_the_first_item(self, monkeypatch, started_threads, cpus):
        monkeypatch.setattr(_runtime, "cpu_count", lambda: cpus)
        ran = []
        _runtime.on_all_cpus(lambda item: ran.append((item, threading.get_ident())), list(range(20)))
        assert sorted(item for item, _ in ran) == list(range(20))
        assert dict(ran)[0] == threading.get_ident()
        assert len(started_threads) == cpus - 1
        started_threads.clear()
        ran.clear()
        _runtime.on_all_cpus(lambda item: ran.append((item, threading.get_ident())), ["only"])
        assert ran == [("only", threading.get_ident())] and started_threads == []

    def test_empty_stack_gives_empty_fits(self, monkeypatch, started_threads):
        monkeypatch.setattr(_runtime, "cpu_count", lambda: 8)
        assert _runtime.row_chunks(0, 126) == []
        _runtime.on_all_cpus(lambda item: pytest.fail("no item to run"), [])
        gamma, stderr, converged = om.fit_ringdowns(np.empty((0, 140)), np.empty((0, 140)))
        assert started_threads == []
        assert gamma.shape == stderr.shape == converged.shape == (0,)
        assert (gamma.dtype, stderr.dtype, converged.dtype) == (float, float, bool)

    def test_last_chunk_ends_at_the_last_row(self):
        # a noise run's draw takes its size from its slice: 400 rows of 1000
        # values are 7 chunks of 58 rows, the last of 52
        assert _runtime.row_chunks(400, 1000) == [slice(lo, min(lo + 58, 400))
                                                  for lo in range(0, 400, 58)]

    def test_error_in_a_chunk_is_raised_in_the_caller(self, monkeypatch):
        calls, real = itertools.count(), measure._fit_chunk

        def failing_second(t, p):
            if next(calls) == 1:
                raise RuntimeError("second chunk failed")
            return real(t, p)

        monkeypatch.setattr(measure, "_fit_chunk", failing_second)
        monkeypatch.setattr(_runtime, "cpu_count", lambda: 2)
        times, powers = _stack_with_degenerate_rows(1152, 140)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="second chunk failed"):
            om.fit_ringdowns(times, powers)
        assert threading.active_count() == before


class TestUniformGrid:
    """Rows on a uniform time grid take closed-form sums, block-factored
    data sums and the partial-sum start; they fit as on the general path."""

    def test_grid_classification(self):
        n = 360
        grid = 3e-5 + np.arange(n) * 2.5e-7
        off = np.tile(grid, (4, 1))
        off[1, 200] += 8 * np.spacing(grid[-1])
        off[2, 200] += 100 * np.spacing(grid[-1])
        off[3] = np.cumsum(np.random.default_rng(2).uniform(0.5, 1.5, n)) * 2.5e-7
        assert measure._on_uniform_grid(off).tolist() == [True, True, False, False]

    @pytest.mark.parametrize("n", [10, 126, 360])
    def test_closed_form_sums_equal_explicit_sums(self, n):
        # k span from 1e-8 (the power series) through the expm1 forms to 60,
        # with a rate of exactly 0 and negative trial rates as well
        spans = np.concatenate((np.geomspace(1e-8, 60.0, 23), [0.0, -1e-6, -0.5, -5.0]))
        rows = spans.size
        t = np.tile(4e-5 + np.arange(n) * 2.5e-7, (rows, 1))
        p = np.random.default_rng(n).uniform(0.0, 1.0, (rows, n))
        table = np.full((11, rows), np.nan)
        with np.errstate(all="ignore"):  # as in _fit_chunk: k = 0 divides 0 by 0
            grid = measure._UniformGrid(t, p)
            trial = spans / (grid.h * (n - 1))
            grid.sums(trial, table)
        tau = t / grid.scale[:, None]
        for r in range(rows):
            # the uniform path's e_j = exp(-k h j), summed one by one
            e = np.exp(-trial[r] * grid.h[r] * np.arange(n))
            explicit = {measure._SE: e, measure._STE: tau[r] * e, measure._SEE: e * e,
                        measure._STEE: tau[r] * e * e, measure._STTE: tau[r] ** 2 * e * e,
                        measure._SPE: p[r] * e, measure._SPTE: p[r] * tau[r] * e}
            for row, terms in explicit.items():
                assert table[row, r] == pytest.approx(math.fsum(terms), rel=1e-12, abs=0.0), (row, spans[r])

    @pytest.mark.parametrize("skip_fraction", [0.7, 0.75, 0.8, 0.85])
    def test_rows_of_few_samples_fail_alone(self, skip_fraction):
        # 10 samples less the skipped head leave 2 to 3 on a uniform grid:
        # too few to start from, so every row fails and no error is raised
        traces, _ = _random_traces(np.random.default_rng(4), 6, 10)
        gamma, stderr, converged = om.fit_ringdowns(*_stacked(traces), skip_fraction)
        assert not converged.any() and np.isnan(gamma).all() and (stderr == np.inf).all()

    def test_both_paths_from_the_same_start_agree(self, monkeypatch):
        traces, _ = _random_traces(np.random.default_rng(21), 200, 400)
        t, p = _stacked(traces)
        t, p = t[:, 40:], p[:, 40:]
        assert measure._on_uniform_grid(t).all()
        uniform = measure._fit_chunk(t, p)
        start = measure._UniformGrid(t, p).start()
        monkeypatch.setattr(measure, "_on_uniform_grid", lambda t: np.zeros(t.shape[0], dtype=bool))
        monkeypatch.setattr(measure._AnyGrid, "start", lambda self: start.copy())
        general = measure._fit_chunk(t, p)
        assert uniform[2].all() and general[2].all()
        assert np.abs(general[0] / uniform[0] - 1).max() < 1e-12

    def test_kernel_peak_memory(self):
        # the general path keeps tau, two buffers of its size and a copy of
        # half of p: 3.6 chunk sizes on this chunk
        traces, _ = _random_traces(np.random.default_rng(3), 250, 400, (30.0, 100.0, 300.0))
        t, p = _stacked(traces)
        t, p = t[:, 40:], p[:, 40:]
        assert measure._on_uniform_grid(t).all()
        measure._fit_chunk(t, p)
        tracemalloc.start()
        try:
            measure._fit_chunk(t, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * t.nbytes


class TestSinkhorn:
    def test_uniform_matrix_unchanged_in_one_sweep(self):
        uniform = np.full((6, 6), 1 / 6)
        result, iterations = om.sinkhorn_normalize(uniform)
        assert iterations == 1
        assert np.allclose(result.eta, uniform)

    def test_recovers_ground_truth_participation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
            eta = q.T**2
            scaled = rng.uniform(0, 1, (1, 10)) * eta * rng.uniform(0, 1, (10, 1))
            result, iterations = om.sinkhorn_normalize(scaled, tol=1e-12, max_iter=200)
            assert om.relative_error(result, eta) < 1e-8
            assert iterations <= 200

    def test_identity_with_floors_converges_near_identity(self):
        result, _ = om.sinkhorn_normalize(np.eye(5), tol=1e-12)
        assert result.floored is not None
        assert np.diag(result.eta).min() > 0.999

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=st.data(), n=st.integers(2, 8))
    def test_invariant_under_row_column_rescaling(self, data, n):
        # entries and scalings keep every input entry far above
        # SINKHORN_FLOOR_DEFAULT, where no entry is floored and the
        # normalized matrix is invariant
        def positive(low, high, shape):
            return data.draw(arrays(float, shape, elements=st.floats(low, high)))

        base = positive(0.01, 1.0, (n, n))
        rescaled = positive(0.1, 10.0, (n, 1)) * base * positive(0.1, 10.0, (1, n))
        assert rescaled.min() > SINKHORN_FLOOR_DEFAULT
        ref, _ = om.sinkhorn_normalize(base, tol=1e-12)
        again, _ = om.sinkhorn_normalize(rescaled, tol=1e-12)
        assert np.abs(again.eta - ref.eta).max() < 1e-10

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_refused_at_once(self, value):
        eta = np.full((4, 4), 0.25)
        eta[1, 2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite, got 1 non-finite of 16"):
                om.sinkhorn_normalize(eta)

    def test_max_iter_error_carries_residual(self):
        rng = np.random.default_rng(1)
        with pytest.raises(om.SinkhornError) as info:
            om.sinkhorn_normalize(rng.uniform(0.1, 1.0, (8, 8)), tol=1e-14, max_iter=2)
        assert info.value.residual > 0
        assert info.value.iterations == 2


class TestRelativeError:
    def test_identical(self):
        eta = np.full((4, 4), 0.25)
        assert om.relative_error(eta, eta) == 0.0

    def test_doubled(self):
        eta = np.full((4, 4), 0.25)
        assert om.relative_error(2 * eta, eta) == pytest.approx(1.0)

    def test_random_against_direct_sum(self):
        rng = np.random.default_rng(3)
        hat = rng.uniform(0.1, 1, (5, 5))
        true = rng.uniform(0.1, 1, (5, 5))
        direct = sum(abs(hat[i, j] - true[i, j]) / true[i, j]
                     for i in range(5) for j in range(5)) / 25
        assert om.relative_error(hat, true) == pytest.approx(direct, rel=1e-12)


class TestAssignSigns:
    def test_non_negative_reference_gives_plain_roots(self):
        eta = np.full((3, 3), 1 / 3)
        signed = om.assign_signs(eta, om.ModeSet(np.arange(3.0), np.eye(3)))
        assert np.allclose(signed, np.sqrt(eta))

    def test_row_flip_propagates(self):
        h = om.build_ssh_chain(2, om.Couplings(j=3e8, j_prime=5e8), [WC] * 4)
        modes = om.diagonalize(h)
        eta = om.participation(modes)
        base = om.assign_signs(eta, modes)
        flipped_ref = om.ModeSet(modes.eigenfreqs, np.diag([1, -1, 1, 1]) @ modes.modeshapes)
        flipped = om.assign_signs(eta, flipped_ref)
        assert np.allclose(flipped[1], -base[1])
        assert np.allclose(np.delete(flipped, 1, axis=0), np.delete(base, 1, axis=0))

    def test_noiseless_pipeline_recovers_ground_truth_signs(self):
        h = om.build_ssh_chain(3, om.Couplings(j=4e8, j_prime=6e8, j2=5e7), [WC] * 6)
        modes = om.diagonalize(h)
        eta = om.participation(modes)
        signed = om.assign_signs(eta, modes)
        assert np.abs(signed - modes.modeshapes).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            om.assign_signs(np.full((3, 3), 1 / 3), om.ModeSet(np.arange(4.0), np.eye(4)))


class TestOrthogonalize:
    def test_orthogonal_input_unchanged(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        if np.linalg.det(q) < 0:
            q[-1] *= -1
        assert np.abs(om.orthogonalize(q) - q).max() < 1e-10

    def test_identity(self):
        assert np.abs(om.orthogonalize(np.eye(5)) - np.eye(5)).max() < 1e-12

    def test_small_symmetric_perturbation_projected_back(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        if np.linalg.det(q) < 0:
            q[-1] *= -1
        sym = rng.normal(size=(8, 8))
        sym = 1e-3 * (sym + sym.T) / np.abs(sym + sym.T).max()
        perturbed = q @ (np.eye(8) + sym)
        corrected = om.orthogonalize(perturbed)
        assert np.abs(corrected @ corrected.T - np.eye(8)).max() < 1e-10
        assert np.abs(corrected - q).max() < 5e-3

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        if np.linalg.det(q) < 0:
            q[-1] *= -1
        once = om.orthogonalize(q @ (np.eye(6) + 1e-4 * np.eye(6)))
        twice = om.orthogonalize(once)
        assert np.abs(once - twice).max() < 1e-10

    def test_branch_cut_rejected(self):
        with pytest.raises(om.OrthogonalizationError):
            om.orthogonalize(np.diag([1.0, 1.0, -1.0]))

    def test_singular_rejected(self):
        with pytest.raises(om.OrthogonalizationError):
            om.orthogonalize(np.diag([1.0, 0.0, 1.0]))

    @staticmethod
    def scipy_reference(u):
        """The same projection by scipy's ``logm`` and ``expm``."""
        from scipy.linalg import expm, logm

        generator = logm(u).real
        return expm(0.5 * (generator - generator.T))

    def test_agrees_with_scipy_on_recovery_matrices(self, tmp_path, monkeypatch, random_chain):
        # the sign-assigned matrices that recover hands to orthogonalize: the
        # shipped configurations' and those of 20 noisy criterion-5 chains
        inputs = []

        def record(u):
            inputs.append(np.array(u))
            return om.orthogonalize(u)

        monkeypatch.setattr(experiment, "orthogonalize", record)
        for config in ("paper_1d.cfg", "paper_2d.cfg"):
            cfg, data = str(CONFIG_DIR / config), str(tmp_path / config / "data")
            assert main(["measure-sim", "--config", cfg, "--out", data]) == 0
            assert main(["recover", "--config", cfg, "--dataset", data,
                         "--out", str(tmp_path / config / "out")]) == 0
        paper = om.Couplings(j=470e6, j_prime=700e6, j2=100e6, j3=27e6, j3_prime=37e6)
        reference = om.diagonalize(om.build_ssh_chain(5, paper, [WC] * 10))
        for seed in range(20):
            h, sites, readouts = random_chain(1000 + seed, paper)
            flux = om.calibrate_drive_flux(h, sites, readouts)
            dataset = om.simulate_measurement(h, sites, readouts, np.linspace(flux / 10, flux, 10),
                                              master_seed=seed, snr=100.0, samples_per_trace=400)
            assert om.recover(dataset, reference).residuals["orthogonalized"]
        assert [u.shape[0] for u in inputs] == [10, 24] + [10] * 20
        for u in inputs:
            assert np.abs(om.orthogonalize(u) - self.scipy_reference(u)).max() < 1e-12

    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_eigenvector_condition_bound(self, ratio):
        # [[1, 1], [0, 1 + d]] has the unit eigenvectors (1, 0) and
        # (1, d) / |(1, d)|, whose condition number is about 2 / d
        d = 2.0 / (ratio * EIGVEC_COND_MAX)
        u = np.array([[1.0, 1.0], [0.0, 1.0 + d]])
        cond = np.linalg.cond(np.linalg.eig(u)[1])
        assert cond == pytest.approx(ratio * EIGVEC_COND_MAX, rel=1e-3)
        if ratio < 1:
            ortho = om.orthogonalize(u)
            assert np.abs(ortho - self.scipy_reference(u)).max() < 1e-12
            assert np.abs(ortho @ ortho.T - np.eye(2)).max() < 1e-14
        else:
            with pytest.raises(om.OrthogonalizationError, match="condition number"):
                om.orthogonalize(u)


class TestReconstruct:
    def test_identity_modeshapes_give_diagonal(self):
        freqs = np.array([1e9, 2e9, 3e9])
        h = om.reconstruct_hamiltonian(np.eye(3), freqs)
        assert np.allclose(h.matrix, np.diag(freqs))

    def test_roundtrip_on_device_chain(self):
        h = om.build_ssh_chain(5, om.Couplings(j=470e6, j_prime=700e6, j2=100e6,
                                               j3=27e6, j3_prime=37e6), [WC] * 10)
        modes = om.diagonalize(h)
        back = om.reconstruct_hamiltonian(modes.modeshapes, modes.eigenfreqs, h.site_labels)
        assert np.abs(back.matrix - h.matrix).max() < 1e-8 * np.abs(h.matrix).max()

    def test_rotating_frame_diagonal(self):
        h = om.reconstruct_hamiltonian(np.eye(2), np.array([7e9, 7.2e9]))
        rot = h.rotating_frame().matrix
        assert np.allclose(np.diag(rot), [-0.1e9, 0.1e9])

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            om.reconstruct_hamiltonian(np.full((3, 3), 0.6), np.arange(3.0))


class TestRelativeG0:
    def test_uniform_ground_truth(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        eta = q.T**2
        tilde = eta * rng.uniform(0.5, 2.0, (8, 1))  # mode-only prefactors
        recovered = om.relative_g0(tilde, eta)
        assert np.allclose(recovered, 1 / 8, atol=1e-12)

    def test_recovers_inverse_sqrt_law(self):
        # per-site couplings drawn as a / sqrt(mech_freq); the pipeline ratio
        # recovers them up to overall normalization
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        eta = q.T**2
        mech = np.linspace(2.1e6, 2.55e6, 10)
        g0 = 1.2e7 / np.sqrt(mech)
        tilde = g0[None, :] * eta * rng.uniform(0.5, 2.0, (10, 1))
        recovered = om.relative_g0(tilde, eta)
        assert np.allclose(recovered, g0 / g0.sum(), rtol=1e-10)

    def test_anchoring_to_absolute_scale(self):
        relative = np.array([0.3, 0.2, 0.5])
        anchor_site, anchor_value = 1, 12.0
        absolute = relative / relative[anchor_site] * anchor_value
        assert absolute[anchor_site] == 12.0
        assert np.allclose(absolute / absolute.sum(), relative)


class TestSidebandThermometry:
    def test_noiseless_inversion_exact(self):
        cfg = make_cfg(detuning=0.0, kappa_tot=3.904e6, mech_freq=2.315e6)
        n_m = np.linspace(50, 400, 8)
        assert om.sideband_thermometry(cfg, 2.2, n_m) == pytest.approx(2.2, rel=1e-12)

    def test_device_anchor_value(self):
        # highest collective mode driving site 6: eta*g0 of 2.2 Hz
        cfg = make_cfg(detuning=0.0, kappa_tot=3.904e6, mech_freq=2.315e6)
        n_m = np.linspace(100, 1000, 8)
        recovered = om.sideband_thermometry(cfg, 2.2, n_m, noise_sigma=0.0)
        assert recovered == pytest.approx(2.2)

    def test_monte_carlo_coverage(self):
        cfg = make_cfg(detuning=0.0, kappa_tot=3.904e6, mech_freq=2.315e6)
        n_m = np.linspace(100, 1000, 8)
        errors = [abs(om.sideband_thermometry(cfg, 2.2, n_m, noise_sigma=0.1, seed=s) / 2.2 - 1)
                  for s in range(1000)]
        assert np.percentile(errors, 95) < 0.07

    def test_rejects_nonpositive_slope(self):
        cfg = make_cfg(detuning=0.0)
        with pytest.raises(ValueError):
            om.sideband_thermometry(cfg, 0.0, np.array([1.0, 2.0]))


def test_dampingconfig_validation():
    with pytest.raises(ValueError):
        make_cfg(kappa_tot=0.0)
    with pytest.raises(ValueError):
        make_cfg(kappa_1=3e6, kappa_2=3e6, kappa_tot=4e6)
    assert make_cfg(kappa_tot=1e6, mech_freq=2e6).sideband_resolved
    assert not make_cfg(kappa_tot=4e6, mech_freq=2e6).sideband_resolved
