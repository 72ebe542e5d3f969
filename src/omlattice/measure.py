"""Optomechanical measurement physics and the modeshape-recovery pipeline steps.

A red-detuned drive near a collective microwave mode damps each mechanical
oscillator in proportion to the square of its effective coupling
``eta * g0``, where ``eta`` is the energy participation ratio of the site in
the driven mode.  Measuring the power dependence of the mechanical ringdown
rate therefore gives access to the modeshapes up to per-site and per-mode
prefactors, which the iterative row/column normalization removes.

All public inputs and outputs are ordinary frequencies in Hz (photon flux in
1/s).  The Lorentzian cavity-response formulas are evaluated internally with
angular rates (2 pi x Hz) to keep photon numbers dimensionally consistent,
and converted back at the API boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._runtime import on_all_cpus, row_chunks
from .lattice import ModeSet, CouplingHamiltonian, ParticipationMatrix, SIGN_EPS

TWO_PI = 2.0 * np.pi
SINKHORN_TOL_DEFAULT = 1e-12
SINKHORN_MAX_ITER_DEFAULT = 10_000
SINKHORN_FLOOR_DEFAULT = 1e-15
ORTHOGONALITY_ATOL = 1e-10
EIGVEC_COND_MAX = 1e4  # orthogonalize's bound on cond(V); see there
RECONSTRUCT_ORTHO_ATOL = 1e-8


class SinkhornError(RuntimeError):
    """Iterative normalization did not converge; carries the last residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class RingdownFitError(RuntimeError):
    """Nonlinear ringdown fit failed to converge."""


class OrthogonalizationError(ValueError):
    """Matrix-logarithm orthogonalization cannot be applied to this input.

    Fallback: report the sign-assigned matrix without orthogonality
    correction.
    """


@dataclass(frozen=True)
class DampingConfig:
    """Drive and mode/site parameters entering the damping formulas.

    ``detuning`` is the red detuning of the drive below the collective mode
    (mode frequency minus drive frequency, Hz).  ``drive_flux`` is the photon
    flux at the source output (1/s) and ``transmittance`` the source-to-device
    power transmission of the driven mode.

    Fields may also be arrays that broadcast against each other; the damping
    formulas then return one value per element of the broadcast shape.
    """

    detuning: float
    kappa_tot: float
    kappa_1: float
    kappa_2: float
    drive_flux: float
    transmittance: float
    mech_freq: float
    mech_linewidth: float
    g0: float

    def __post_init__(self):
        if np.any(self.kappa_tot <= 0):
            raise ValueError("kappa_tot must be positive")
        for name in ("kappa_1", "kappa_2", "drive_flux", "transmittance", "mech_freq",
                     "mech_linewidth", "g0"):
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name} must be >= 0")
        if np.any(self.kappa_1 + self.kappa_2 > self.kappa_tot * (1 + 1e-12)):
            raise ValueError("kappa_1 + kappa_2 cannot exceed kappa_tot")

    @property
    def sideband_resolved(self) -> bool:
        return self.kappa_tot < self.mech_freq


@dataclass(frozen=True)
class ModeReadout:
    """Readout parameters of one collective mode (Hz, dimensionless
    transmittance): the mode fields of a :class:`DampingConfig`, as scalars."""

    kappa_tot: float
    kappa_1: float
    kappa_2: float
    transmittance: float = 1.0

    def __post_init__(self):
        # written so that NaN fails every check
        if not (0 < self.kappa_tot < np.inf and self.kappa_1 >= 0 and self.kappa_2 >= 0):
            raise ValueError("kappa_tot must be positive and finite, kappa_1/kappa_2 >= 0")
        if self.kappa_1 + self.kappa_2 > self.kappa_tot * (1 + 1e-12):
            raise ValueError("kappa_1 + kappa_2 cannot exceed kappa_tot")
        if not 0 < self.transmittance < np.inf:
            raise ValueError("transmittance must be positive and finite")


def _check_eta(eta) -> None:
    eta = np.asarray(eta)
    if np.any(~((eta >= 0.0) & (eta <= 1.0))):
        raise ValueError("eta must lie in [0, 1]")


def _drive_response(cfg: DampingConfig):
    """The angular ``Delta^2 + kappa_tot^2 / 4`` of the drive, in (rad/s)^2,
    and the angular two-Lorentzian sideband weight
    kappa/((Omega-Delta)^2 + kappa^2/4) - kappa/((Omega+Delta)^2 + kappa^2/4),
    in 1/(rad/s)."""
    delta, kappa, omega = (TWO_PI * x for x in (cfg.detuning, cfg.kappa_tot, cfg.mech_freq))
    lo, hi = omega - delta, omega + delta
    quarter = kappa * kappa / 4.0
    return delta * delta + quarter, kappa / (lo * lo + quarter) - kappa / (hi * hi + quarter)


def intracavity_photons(cfg: DampingConfig) -> float:
    """Mean photon number in the driven collective mode,
    n_c = kappa_1 R nd / (Delta^2 + kappa_tot^2 / 4) with angular rates.
    """
    denom, _ = _drive_response(cfg)
    return (TWO_PI * cfg.kappa_1) * cfg.transmittance * cfg.drive_flux / denom


def damping_slope(cfg: DampingConfig, eta: float) -> float:
    """Slope of the effective damping rate with respect to the source photon
    flux, d Gamma_eff / d nd in Hz * s; linear in R kappa_1 (eta g0)^2.  The
    damping rates derive from it.  Broadcasts over array ``eta`` and array
    fields of ``cfg``."""
    _check_eta(eta)
    denom, weight = _drive_response(cfg)
    g_eff = TWO_PI * eta * cfg.g0
    slope_ang = (TWO_PI * cfg.kappa_1) * cfg.transmittance * (g_eff * g_eff) / denom * weight
    return slope_ang / TWO_PI


def optomech_damping(cfg: DampingConfig, eta: float) -> float:
    """Optomechanical damping rate (Hz) of a mechanical mode with participation
    ``eta`` in the driven collective mode (full two-Lorentzian expression,
    valid outside the sideband-resolved regime), ``damping_slope(cfg, eta) *
    cfg.drive_flux``.  Broadcasts as :func:`damping_slope` does."""
    return damping_slope(cfg, eta) * cfg.drive_flux


def effective_damping(cfg: DampingConfig, eta: float) -> float:
    """Total mechanical damping rate: intrinsic linewidth plus the
    optomechanical term; broadcasts as :func:`optomech_damping` does."""
    return cfg.mech_linewidth + optomech_damping(cfg, eta)


def unnormalized_eta(slope: float, cfg: DampingConfig) -> float:
    """Invert a measured damping-power slope into the unnormalized
    participation ratio.

    Only the measurable parameters (detuning, total linewidth, mechanical
    frequency) enter; the result equals ``g0 * eta * sqrt(kappa_1 * R)`` (Hz
    units) and carries the unknown per-site and per-mode prefactors that the
    iterative normalization removes afterwards.  Broadcasts over array
    ``slope`` and array fields of ``cfg``, as :func:`damping_slope` does; a
    scalar call returns a float.
    """
    if np.any(slope < 0):
        raise ValueError("slope must be >= 0 (clip noise-driven negatives before inverting)")
    denom, weight = _drive_response(cfg)
    if np.any(weight <= 0):
        raise ValueError("sideband weight is non-positive at this detuning; cannot invert")
    value = np.sqrt(TWO_PI * slope * denom / weight) / TWO_PI**1.5
    return float(value) if np.ndim(value) == 0 else value


# ---------------------------------------------------------------------------
# Ringdown simulation and fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingdownTrace:
    """Sideband power versus time of a ringing-down mechanical mode.

    ``true_gamma_eff`` carries the generator's ground truth for testing; it
    is not used by the fit.
    """

    times: np.ndarray
    powers: np.ndarray
    true_gamma_eff: float | None = None
    noise_floor: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.powers, dtype=float)
        if t.ndim != 1 or t.shape != p.shape or t.size == 0:
            raise ValueError("times and powers must be matching non-empty 1D arrays")
        fault = trace_fault(t, p, t.size)
        if fault is not None:
            raise ValueError(fault[1])
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "powers", p)


def trace_fault(times: np.ndarray, powers: np.ndarray, samples) -> tuple[tuple[int, ...], str] | None:
    """The first trace of a block that breaks the :class:`RingdownTrace`
    rules, as (its index, the rule), or None.

    ``times`` and ``powers`` hold one trace per index of their leading axes,
    padded along the last; trace ``j`` is the first ``samples[j]`` entries,
    and a trace of 0 samples is missing and passes.  A present trace needs
    at least 2 samples, strictly increasing times and powers >= 0; a NaN
    time or power breaks its rule.  For a single trace (1D arrays) the
    index is ``()``.
    """
    samples = np.asarray(samples)
    present = np.arange(times.shape[-1]) < samples[..., None]
    rules = (
        (samples == 1, "fewer than 2 samples"),
        ((~(times[..., 1:] > times[..., :-1]) & present[..., 1:]).any(axis=-1),
         "times must be strictly increasing"),
        ((~(powers >= 0) & present).any(axis=-1), "powers must be >= 0"),
    )
    for bad, rule in rules:
        if bad.any():
            return tuple(np.argwhere(bad)[0].tolist()), rule
    return None


def simulate_ringdown(
    gamma_eff: float,
    p0: float,
    noise_sigma: float,
    duration: float,
    dt: float,
    seed,
    noise_floor: float = 0.0,
) -> RingdownTrace:
    """Synthetic ringdown p(t) = p0 exp(-2 pi gamma_eff t) + floor + noise.

    Gaussian noise of standard deviation ``noise_sigma`` is added per sample
    (seeded, reproducible); samples are clipped at zero, so keep the floor a
    few sigma above zero for an unbiased trace.
    """
    if gamma_eff < 0 or dt <= 0 or duration <= dt:
        raise ValueError("need gamma_eff >= 0 and 0 < dt < duration")
    # times i * dt: duration / dt samples when that ratio is a whole number up
    # to rounding (np.arange(0, duration, dt) adds one whenever rounding lifts
    # the ratio above it), else its ceiling, as arange gives
    times = np.arange(int(np.ceil(np.round(duration / dt, 9)))) * dt
    powers = p0 * np.exp(-TWO_PI * gamma_eff * times) + noise_floor
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        powers = powers + rng.normal(0.0, noise_sigma, times.size)
    powers = np.clip(powers, 0.0, None)
    return RingdownTrace(times, powers, true_gamma_eff=gamma_eff, noise_floor=noise_floor)


# Shortest ringdown :func:`fit_ringdowns` accepts.
MIN_FIT_SAMPLES = 10
# Stopping rule: converged when the Gauss-Newton step in the rate is below
# _XTOL of the rate.  Chain traces at SNR 100 take 5 to 7 iterations, the
# first at the initial rate.
_MAX_ITER = 200
_XTOL = 1e-10
# A trial rate is accepted unless its projected SSR exceeds the current one
# by more than this fraction of sum(p^2), the rounding of the closed form.
_SSR_SLACK = 1e-13
# Normal matrices whose unit-diagonal (correlation) form has a smaller
# determinant are singular to rounding: the rate is not identifiable, as in
# a flat trace where amplitude and floor trade off.
_SINGULAR_DET = 1e-12


def fit_ringdowns(times, powers, skip_fraction: float = 0.1):
    """Fit ``amplitude * exp(-2 pi gamma t) + floor`` to a stack of ringdowns.

    ``times`` and ``powers`` are ``(B, S)`` arrays, one trace per row, each
    row's times strictly increasing but not necessarily uniform.  Every
    trace gets the least-squares fit of :func:`fit_ringdown` (same skipped
    head, same log-linear initial rate), computed for all rows at once by
    variable projection: for a fixed rate, amplitude and floor are the
    linear least-squares solution, and the rate takes Kaufman's
    Gauss-Newton steps on the projected residual, halved while they raise
    it.
    Returns ``(gamma, stderr, converged)`` arrays of length B.  A trace that
    does not converge or whose normal matrix is singular (a flat or all-zero
    trace) has ``converged`` False, gamma NaN and stderr inf; one such trace
    leaves the other rows' results unchanged.  So does a trace with fewer
    than 5 samples more than a tenth of its peak above the tail floor, or
    whose log-linear start rises: the start cannot locate its decay, and
    the rate 0 it would start from leaves amplitude and floor inseparable.
    The standard error is the full 3-parameter
    ``sqrt(inv(J^T J)[gamma, gamma] * SSR / (S - 3))``.  Negative fitted
    rates are clipped to zero with a warning.

    The rows are cut into chunks and fitted on every CPU the process may
    use, as :mod:`omlattice._runtime` describes.  No sum mixes rows, so the
    results are bit-identical to a row-by-row fit whatever the number of
    CPUs.
    """
    t = np.atleast_2d(np.asarray(times, dtype=float))
    p = np.atleast_2d(np.asarray(powers, dtype=float))
    if t.shape != p.shape or t.ndim != 2:
        raise ValueError("times and powers must be matching (traces, samples) arrays")
    if t.shape[1] < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples to fit a ringdown")
    if not 0.0 <= skip_fraction < 0.9:
        raise ValueError("skip_fraction must lie in [0, 0.9)")
    start = int(round(skip_fraction * t.shape[1]))
    t, p = t[:, start:], p[:, start:]
    n_rows = t.shape[0]
    gamma = np.empty(n_rows)
    stderr = np.empty(n_rows)
    converged = np.empty(n_rows, dtype=bool)

    def fit(rows):
        gamma[rows], stderr[rows], converged[rows] = _fit_chunk(t[rows], p[rows])

    on_all_cpus(fit, row_chunks(n_rows, t.shape[1]))
    if np.any(gamma < 0):
        warnings.warn("fitted ringdown rate is negative; clipping to 0", stacklevel=2)
        gamma = np.where(gamma < 0, 0.0, gamma)
    return gamma, stderr, converged


def _row_dot(x, y):
    """Per-row dot products of two (rows, samples) arrays.  No product mixes
    rows (no GEMM), so each row's result does not depend on the others."""
    return np.einsum("ij,ij->i", x, y)


def _initial_rate(tau, p, amp, dx):
    """Tail-mean floor, then a log-linear regression of the samples more than
    a tenth of the peak above it; NaN with fewer than 5 such samples or a
    rising slope.  ``amp`` and ``dx`` are scratch arrays of ``tau``'s shape
    that end up overwritten."""
    n = tau.shape[1]
    np.subtract(p, p[:, -max(3, n // 8):].mean(axis=1)[:, None], out=amp)
    above = amp > 0.1 * np.maximum(amp.max(axis=1), 1e-300)[:, None]
    below = ~above
    count = above.sum(axis=1)
    np.copyto(dx, tau)
    np.copyto(dx, 0.0, where=below)
    np.subtract(tau, (dx.sum(axis=1) / count)[:, None], out=dx)
    np.copyto(dx, 0.0, where=below)
    np.copyto(amp, 1.0, where=below)
    np.log(amp, out=amp)
    np.multiply(dx, amp, out=amp)
    np.multiply(dx, dx, out=dx)
    slope = amp.sum(axis=1) / dx.sum(axis=1)
    return np.where((count >= 5) & (slope < 0), -slope, np.nan)


def _fit_chunk(t, p):
    """Variable projection on every row of one chunk.  Time is scaled to
    ``tau = t / max|t|`` per row, so the fitted rate is
    ``k = 2 pi gamma max|t|`` of ``a exp(-k tau) + c``.  Each iteration makes
    one pass of ``e = exp(-k tau)`` and seven per-row sums; amplitude and
    floor come from the 2x2 normal equations in ``(e, 1)``.  Converged rows,
    and rows whose step is not finite, are dropped from the arrays once at
    least half of their rows have left; until then they are computed but
    not read.  Besides ``tau`` the kernel keeps two arrays of ``t``'s size,
    which also hold the initial rate's, the residual's and the drop's
    intermediates, and a copy of at most half of ``p``."""
    scale = np.abs(t).max(axis=1)
    tau = t / scale[:, None]
    n_rows, n_samples = t.shape
    rate = np.full(n_rows, np.nan)
    rate_var = np.full(n_rows, np.inf)
    converged = np.zeros(n_rows, dtype=bool)
    rows = np.arange(n_rows)
    e_buf, te_buf = np.empty_like(tau), np.empty_like(tau)
    with np.errstate(all="ignore"):
        k = _initial_rate(tau, p, e_buf, te_buf)
        sum_p, sum_pp = p.sum(axis=1), _row_dot(p, p)
        ssr = np.full(n_rows, np.inf)
        step = np.zeros(n_rows)
        live = np.ones(n_rows, dtype=bool)
        for _ in range(_MAX_ITER):
            trial = k + step
            e, te = e_buf[:rows.size], te_buf[:rows.size]
            np.multiply(-trial[:, None], tau, out=e)
            np.exp(e, out=e)
            np.multiply(tau, e, out=te)
            se, ste = e.sum(axis=1), te.sum(axis=1)
            see, stee, stte = _row_dot(e, e), _row_dot(te, e), _row_dot(te, te)
            spe, spte = _row_dot(p, e), _row_dot(p, te)
            # the normal matrix of (e, -a tau e, 1) in unit-diagonal form
            d_e, d_te, d_1 = np.sqrt(see), np.sqrt(stte), math.sqrt(n_samples)
            m01, m02, m12 = stee / (d_e * d_te), se / (d_e * d_1), ste / (d_te * d_1)
            det = 1.0 + 2.0 * m01 * m02 * m12 - m01 * m01 - m02 * m02 - m12 * m12
            det_m = see * n_samples * (1.0 - m02 * m02)
            a = (n_samples * spe - se * sum_p) / det_m
            c = (see * sum_p - se * spe) / det_m
            # Schur complement of the (e, 1) block: a^2 s is the Gauss-Newton
            # curvature in k, and 1 / (a^2 s) = inv(J^T J)[k, k]
            s = stte * det / (1.0 - m02 * m02)
            ssr_t = sum_pp - a * spe - c * sum_p
            accept = ssr_t <= ssr + _SSR_SLACK * sum_pp
            dk = -(spte - a * stee - c * ste) / (a * s)
            done = accept & (np.abs(dk) <= _XTOL * np.abs(trial))
            bad = ~np.isfinite(trial) | (accept & ~np.isfinite(dk))
            k = np.where(accept, trial, k)
            ssr = np.where(accept, ssr_t, ssr)
            step = np.where(accept, dk, 0.5 * step)
            finishing = done & ~bad & live
            if finishing.any():
                # the residual p - a e - c of the finished rows, written over
                # their rows of te, then gathered to the first rows of e
                # (neither is read again this iteration)
                finished, where = np.flatnonzero(finishing), finishing[:, None]
                np.multiply(a[:, None], e, out=te, where=where)
                np.subtract(p, te, out=te, where=where)
                np.subtract(te, c[:, None], out=te, where=where)
                r = np.take(te, finished, axis=0, out=e[:finished.size], mode="clip")
                var = _row_dot(r, r) / (n_samples - 3) / (a[finished] ** 2 * s[finished])
                ok = (det[finished] > _SINGULAR_DET) & np.isfinite(var)
                idx = rows[finished]
                rate[idx] = np.where(ok, trial[finished], np.nan)
                rate_var[idx] = np.where(ok, var, np.inf)
                converged[idx] = ok
            live &= ~(done | bad)
            kept = np.flatnonzero(live)
            if kept.size == 0:
                break
            if 2 * kept.size <= rows.size:
                # tau is this kernel's own and moves up in place, through e's
                # buffer; p may be the caller's, so its kept rows are copied
                np.take(tau, kept, axis=0, out=e_buf[:kept.size], mode="clip")
                tau = tau[:kept.size]
                tau[...] = e_buf[:kept.size]
                p = p[kept]
                rows, k, ssr, step = rows[kept], k[kept], ssr[kept], step[kept]
                sum_p, sum_pp, live = sum_p[kept], sum_pp[kept], live[kept]
    return rate / (TWO_PI * scale), np.sqrt(rate_var) / (TWO_PI * scale), converged


def fit_ringdown(trace: RingdownTrace, skip_fraction: float = 0.1) -> tuple[float, float]:
    """Fit (amplitude, gamma_eff, floor) to a ringdown; returns (gamma_eff, stderr).

    A one-trace call of :func:`fit_ringdowns`.  The first ``skip_fraction``
    of the trace is excluded (the initial high-amplitude decay can be
    nonlinear).  The initial rate comes from a log-linear regression of the
    above-floor region.  A negative fitted rate is clipped to zero with a
    warning.  Raises :class:`RingdownFitError` when the fit does not
    converge, its normal equations are singular, or fewer than 5 samples
    lie more than a tenth of the peak above the floor.
    """
    gamma, stderr, converged = fit_ringdowns(trace.times, trace.powers, skip_fraction)
    if not converged[0]:
        raise RingdownFitError(
            f"ringdown fit of {trace.times.size} samples did not converge "
            "or its rate is not identifiable"
        )
    return float(gamma[0]), float(stderr[0])


# ---------------------------------------------------------------------------
# Normalization, sign assignment, orthogonalization, reconstruction
# ---------------------------------------------------------------------------

def sinkhorn_normalize(
    eta_tilde: np.ndarray,
    tol: float = SINKHORN_TOL_DEFAULT,
    max_iter: int = SINKHORN_MAX_ITER_DEFAULT,
) -> tuple[ParticipationMatrix, int]:
    """Alternating row/column normalization of an unnormalized participation
    matrix (modes along rows, sites along columns).

    Entries below ``SINKHORN_FLOOR_DEFAULT`` are raised to it first
    (measured slopes vanish at modeshape nodes; strict positivity is needed
    for convergence) and flagged in the result; a non-finite entry is
    refused.  One iteration is one single-axis normalization, starting
    with rows.  Stops when both row and column sums deviate from 1 by less
    than ``tol``; raises :class:`SinkhornError` carrying the residual when
    ``max_iter`` is exhausted.
    """
    x = np.array(eta_tilde, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("eta_tilde must be a square matrix")
    if not np.isfinite(x).all():  # NaN would run every iteration, with warnings
        raise ValueError(f"eta_tilde entries must be finite, got {np.sum(~np.isfinite(x))} "
                         f"non-finite of {x.size}")
    if np.any(x < 0):
        raise ValueError("eta_tilde entries must be >= 0")
    floored = x < SINKHORN_FLOOR_DEFAULT
    x[floored] = SINKHORN_FLOOR_DEFAULT

    iterations = 0
    residual = np.inf
    while iterations < max_iter:
        axis = 1 if iterations % 2 == 0 else 0
        x = x / x.sum(axis=axis, keepdims=True)
        iterations += 1
        residual = max(
            np.abs(x.sum(axis=1) - 1.0).max(),
            np.abs(x.sum(axis=0) - 1.0).max(),
        )
        if residual < tol:
            break
    else:
        raise SinkhornError(
            f"no convergence after {iterations} iterations (residual {residual:.3e}, tol {tol:.1e})",
            residual=residual,
            iterations=iterations,
        )
    return (
        ParticipationMatrix(x, atol=max(tol, 1e-12), floored=floored if floored.any() else None),
        iterations,
    )


def relative_error(eta_hat: np.ndarray, eta_true: np.ndarray) -> float:
    """Mean elementwise relative deviation, mean(|eta_hat - eta| / eta)."""
    hat = eta_hat.eta if isinstance(eta_hat, ParticipationMatrix) else np.asarray(eta_hat, float)
    true = eta_true.eta if isinstance(eta_true, ParticipationMatrix) else np.asarray(eta_true, float)
    if hat.shape != true.shape:
        raise ValueError("shape mismatch")
    if np.any(true <= 0):
        raise ValueError("reference entries must be positive")
    return float(np.mean(np.abs(hat - true) / true))


def assign_signs(eta_hat, reference: ModeSet) -> np.ndarray:
    """Square roots of measured participation ratios with signs copied from
    reference modeshapes: U~[k, i] = sign(ref psi_i^k) sqrt(eta_hat[k, i]).

    Rows of ``eta_hat`` and reference modes must both be in ascending
    eigenfrequency order (sorted orders make nearest-frequency matching
    coincide with index matching).  Reference entries of magnitude below the
    sign threshold count as positive; the corresponding amplitudes are
    near-zero anyway.
    """
    eta = eta_hat.eta if isinstance(eta_hat, ParticipationMatrix) else np.asarray(eta_hat, float)
    ref = reference.modeshapes
    if eta.shape != ref.shape:
        raise ValueError(
            f"shape mismatch: eta_hat {eta.shape} vs reference modeshapes {ref.shape}"
        )
    if np.iscomplexobj(ref):
        raise ValueError("sign assignment requires a real reference mode set")
    signs = np.where(ref < -SIGN_EPS, -1.0, 1.0)
    return signs * np.sqrt(np.clip(eta, 0.0, None))


def orthogonalize(u_tilde: np.ndarray) -> np.ndarray:
    """Project a nearly orthogonal matrix onto the orthogonal group by
    dropping the symmetric part of its matrix-logarithm generator:
    U = exp((G - G^T)/2) with G = log(U~).  The principal log is
    ``V diag(log lambda) V^-1`` from ``np.linalg.eig(U~)``; the exponential
    of the antisymmetric ``A`` is ``W diag(exp(-i mu)) W^H`` from
    ``np.linalg.eigh`` of the Hermitian ``iA``, orthogonal to rounding.

    Requires the eigenvalues of ``u_tilde`` to stay off the closed negative
    real axis (principal-branch condition) -- in particular det(U~) must be
    positive; flip the sign of one row first if needed (the reconstruction
    and the participation ratios are invariant under row sign flips).  Also
    requires cond(V) <= EIGVEC_COND_MAX = 1e4: the log's rounding error grows
    like cond(V) eps, about 2e-12 at the bound, and nearly orthogonal inputs
    have cond(V) near 1.
    Raises :class:`OrthogonalizationError` otherwise; the caller may fall
    back to reporting the unorthogonalized matrix.
    """
    u = np.asarray(u_tilde, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("input must be a square matrix")
    eigvals, vecs = np.linalg.eig(u)
    scale = np.abs(eigvals).max()
    if scale == 0 or np.abs(eigvals).min() < 1e-12 * scale:
        raise OrthogonalizationError(
            "input is singular (or nearly so); report the sign-assigned matrix instead"
        )
    on_cut = (eigvals.real < 0) & (np.abs(eigvals.imag) <= 1e-9 * np.abs(eigvals))
    if on_cut.any():
        raise OrthogonalizationError(
            f"eigenvalue(s) {eigvals[on_cut]} lie on the negative real axis (log branch "
            "cut); flip one row sign if det < 0, else report without orthogonalization"
        )
    cond = np.linalg.cond(vecs)
    if not cond <= EIGVEC_COND_MAX:
        raise OrthogonalizationError(f"eigenvector condition number {cond:.3e} exceeds "
                                     f"{EIGVEC_COND_MAX:.0e}; report without orthogonalization")
    generator = (vecs * np.log(eigvals)) @ np.linalg.inv(vecs)
    if np.iscomplexobj(generator):
        if np.abs(generator.imag).max() > 1e-8:
            raise OrthogonalizationError(
                "matrix logarithm is not real; report without orthogonalization"
            )
        generator = generator.real
    mu, w = np.linalg.eigh(0.5j * (generator - generator.T))
    ortho = ((w * np.exp(-1j * mu)) @ w.conj().T).real
    defect = np.abs(ortho @ ortho.T - np.eye(u.shape[0])).max()
    if defect > ORTHOGONALITY_ATOL:
        raise OrthogonalizationError(f"orthogonality defect {defect:.3e} after correction")
    return ortho


def reconstruct_hamiltonian(
    u: np.ndarray, eigenfreqs, site_labels=None
) -> CouplingHamiltonian:
    """Rebuild the site-basis Hamiltonian H = U^dag diag(eigenfreqs) U from an
    orthogonal modeshape matrix (rows = modes) and collective eigenfrequencies.

    The result is symmetrized and returned with absolute diagonal entries;
    use :meth:`CouplingHamiltonian.rotating_frame` for the disorder/coupling
    view relative to the mean cavity frequency.
    """
    u = np.asarray(u)
    freqs = np.asarray(eigenfreqs, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or freqs.shape != (u.shape[0],):
        raise ValueError("need a square modeshape matrix and one frequency per mode")
    defect = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
    if defect > RECONSTRUCT_ORTHO_ATOL:
        raise ValueError(f"modeshape matrix is not orthogonal (defect {defect:.3e})")
    return _hamiltonian_from_modes(u, freqs, site_labels)


def _hamiltonian_from_modes(u: np.ndarray, freqs: np.ndarray, site_labels=None) -> CouplingHamiltonian:
    """U^dag diag(freqs) U, symmetrized, without checking that ``u`` is
    orthogonal (the recovery chain's fallback when orthogonalization fails)."""
    h = u.conj().T @ (freqs[:, None] * u)
    return CouplingHamiltonian(0.5 * (h + h.conj().T), tuple(site_labels) if site_labels else ())


def relative_g0(eta_tilde: np.ndarray, eta_hat) -> np.ndarray:
    """Per-site single-photon coupling rates relative to their sum.

    The ratio eta_tilde / eta_hat equals (site prefactor) x (mode prefactor);
    averaging it over modes and normalizing the result to sum 1 leaves the
    per-site relative coupling rates g0_i / sum_j g0_j.
    """
    tilde = np.asarray(eta_tilde, dtype=float)
    hat = eta_hat.eta if isinstance(eta_hat, ParticipationMatrix) else np.asarray(eta_hat, float)
    if tilde.shape != hat.shape:
        raise ValueError("shape mismatch")
    if np.any(hat <= 0):
        raise ValueError("eta_hat entries must be positive (flooring upstream handles zeros)")
    per_site = np.mean(tilde / hat, axis=0)
    return per_site / per_site.sum()


def sideband_thermometry(
    cfg: DampingConfig,
    eta_g0: float,
    n_m_values,
    noise_sigma: float = 0.0,
    seed=None,
) -> float:
    """Simulate the thermal-sideband calibration of an effective coupling rate.

    For a resonant drive the sideband-to-drive photon-flux ratio is
    (eta g0)^2 n_m / (mech_freq^2 + kappa_tot^2 / 4)   (scale-invariant, so
    evaluated directly in Hz); a through-origin linear fit of the simulated
    ratios against the phonon occupations ``n_m_values`` is inverted for
    ``eta g0``.  Multiplicative Gaussian noise of relative size
    ``noise_sigma`` is applied per point.
    """
    n_m = np.asarray(n_m_values, dtype=float)
    if n_m.ndim != 1 or n_m.size < 2 or np.any(n_m <= 0):
        raise ValueError("need at least two positive phonon occupations")
    if eta_g0 < 0:
        raise ValueError("eta_g0 must be >= 0")
    denom = cfg.mech_freq**2 + cfg.kappa_tot**2 / 4.0
    ratios = eta_g0**2 * n_m / denom
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        ratios = ratios * (1.0 + rng.normal(0.0, noise_sigma, n_m.size))
    slope = float(n_m @ ratios / (n_m @ n_m))
    if slope <= 0:
        raise ValueError(f"non-positive fitted sideband slope ({slope:.3e}); cannot invert")
    return float(np.sqrt(slope * denom))
