import numpy as np
import pytest

import omlattice as om
from omlattice.measure import TWO_PI

WC = 7.12e9


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
        assert slope * cfg.drive_flux == pytest.approx(om.optomech_damping(cfg, 0.35), rel=1e-12)


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


def _random_traces(rng, count, samples, snr_choices=(30.0, 100.0, 300.0, np.inf)):
    traces, snrs = [], []
    for _ in range(count):
        gamma = rng.uniform(50.0, 2000.0)
        snr = snr_choices[rng.integers(len(snr_choices))]
        duration = rng.uniform(2.0, 6.0) / (TWO_PI * gamma)
        sigma = 0.0 if np.isinf(snr) else 1.0 / snr
        traces.append(om.simulate_ringdown(
            gamma, 1.0, sigma, duration=duration, dt=duration / samples,
            seed=int(rng.integers(1 << 31)), noise_floor=5 * sigma))
        snrs.append(snr)
    return traces, np.array(snrs)


def _stacked(traces):
    return np.stack([t.times for t in traces]), np.stack([t.powers for t in traces])


class TestBatchedRingdownFit:
    @pytest.mark.parametrize("samples", [20, 60, 140, 400])
    @pytest.mark.parametrize("skip_fraction", [0.0, 0.1])
    def test_matches_curve_fit_oracle(self, samples, skip_fraction):
        rng = np.random.default_rng(samples + int(100 * skip_fraction))
        traces, snrs = _random_traces(rng, 40, samples)
        gamma, stderr, converged = om.fit_ringdowns(*_stacked(traces), skip_fraction)
        assert converged.all()
        reference = np.array([_reference_fit(t, skip_fraction) for t in traces])
        assert np.abs(gamma / reference[:, 0] - 1).max() < 1e-6
        noisy = np.isfinite(snrs)
        assert np.abs(stderr[noisy] / reference[noisy, 1] - 1).max() < 1e-4
        # noiseless traces: both standard errors are rounding-level
        assert np.all(stderr[~noisy] < 1e-9 * gamma[~noisy])
        assert np.all(reference[~noisy, 1] < 1e-9 * reference[~noisy, 0])

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

    def test_invariant_under_row_column_rescaling(self):
        rng = np.random.default_rng(13)
        base = rng.uniform(0.1, 1.0, (8, 8))
        ref, _ = om.sinkhorn_normalize(base, tol=1e-12)
        rescaled = rng.uniform(0.5, 2.0, (8, 1)) * base * rng.uniform(0.5, 2.0, (1, 8))
        again, _ = om.sinkhorn_normalize(rescaled, tol=1e-12)
        assert np.abs(again.eta - ref.eta).max() < 1e-10

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
