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

from .lattice import ModeSet, CouplingHamiltonian, ParticipationMatrix, SIGN_EPS

TWO_PI = 2.0 * np.pi
SINKHORN_TOL_DEFAULT = 1e-10
SINKHORN_MAX_ITER_DEFAULT = 10_000
SINKHORN_FLOOR_DEFAULT = 1e-15
ORTHOGONALITY_ATOL = 1e-10
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


def _anywhere(condition) -> bool:
    """Whether a scalar or array condition holds anywhere (scalar configs
    are built per (mode, site) pair, so they skip numpy's reductions)."""
    return bool(condition.any()) if isinstance(condition, np.ndarray) else bool(condition)


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
        if _anywhere(self.kappa_tot <= 0):
            raise ValueError("kappa_tot must be positive")
        for name in ("kappa_1", "kappa_2", "drive_flux", "transmittance", "mech_freq",
                     "mech_linewidth", "g0"):
            if _anywhere(getattr(self, name) < 0):
                raise ValueError(f"{name} must be >= 0")
        if _anywhere(self.kappa_1 + self.kappa_2 > self.kappa_tot * (1 + 1e-12)):
            raise ValueError("kappa_1 + kappa_2 cannot exceed kappa_tot")

    @property
    def sideband_resolved(self) -> bool:
        return self.kappa_tot < self.mech_freq


_pow = np.frompyfunc(math.pow, 2, 1)


def _square(x):
    """``x ** 2`` by C ``pow``, element by element.

    Python and numpy scalars square by ``pow``, numpy arrays by ``x * x``,
    and the two differ in the last bit for about 0.1% of inputs.  The damping
    formulas square through here, so an array call returns bit for bit the
    values of the scalar calls, and of the datasets those wrote.
    """
    if np.ndim(x) == 0:
        return x**2
    return _pow(x, 2.0).astype(float)


def _check_eta(eta) -> None:
    eta = np.asarray(eta)
    if _anywhere(~((eta >= 0.0) & (eta <= 1.0))):
        raise ValueError("eta must lie in [0, 1]")


def intracavity_photons(cfg: DampingConfig) -> float:
    """Mean photon number in the driven collective mode,
    n_c = kappa_1 R nd / (Delta^2 + kappa_tot^2 / 4) with angular rates.
    """
    delta = TWO_PI * cfg.detuning
    kappa = TWO_PI * cfg.kappa_tot
    return (TWO_PI * cfg.kappa_1) * cfg.transmittance * cfg.drive_flux / (
        _square(delta) + _square(kappa) / 4.0
    )


def _sideband_weight(cfg: DampingConfig) -> float:
    """Angular two-Lorentzian factor
    kappa/((Omega-Delta)^2 + kappa^2/4) - kappa/((Omega+Delta)^2 + kappa^2/4),
    in 1/(rad/s)."""
    delta = TWO_PI * cfg.detuning
    kappa = TWO_PI * cfg.kappa_tot
    omega = TWO_PI * cfg.mech_freq
    return kappa / (_square(omega - delta) + _square(kappa) / 4.0) - kappa / (
        _square(omega + delta) + _square(kappa) / 4.0
    )


def optomech_damping(cfg: DampingConfig, eta: float) -> float:
    """Optomechanical damping rate (Hz) of a mechanical mode with participation
    ``eta`` in the driven collective mode (full two-Lorentzian expression,
    valid outside the sideband-resolved regime).  Broadcasts over array
    ``eta`` and array fields of ``cfg``."""
    _check_eta(eta)
    g_eff = TWO_PI * eta * cfg.g0
    return intracavity_photons(cfg) * _square(g_eff) * _sideband_weight(cfg) / TWO_PI


def effective_damping(cfg: DampingConfig, eta: float) -> float:
    """Total mechanical damping rate: intrinsic linewidth plus the
    optomechanical term; broadcasts as :func:`optomech_damping` does."""
    return cfg.mech_linewidth + optomech_damping(cfg, eta)


def damping_slope(cfg: DampingConfig, eta: float) -> float:
    """Slope of the effective damping rate with respect to the source photon
    flux, d Gamma_eff / d nd in Hz * s; linear in R kappa_1 (eta g0)^2.
    Broadcasts as :func:`optomech_damping` does."""
    _check_eta(eta)
    delta = TWO_PI * cfg.detuning
    kappa = TWO_PI * cfg.kappa_tot
    g_eff = TWO_PI * eta * cfg.g0
    slope_ang = (TWO_PI * cfg.kappa_1) * cfg.transmittance * _square(g_eff) / (
        _square(delta) + _square(kappa) / 4.0
    ) * _sideband_weight(cfg)
    return slope_ang / TWO_PI


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
    if _anywhere(slope < 0):
        raise ValueError("slope must be >= 0 (clip noise-driven negatives before inverting)")
    delta = TWO_PI * cfg.detuning
    kappa = TWO_PI * cfg.kappa_tot
    weight = _sideband_weight(cfg)
    if _anywhere(weight <= 0):
        raise ValueError("sideband weight is non-positive at this detuning; cannot invert")
    value = np.sqrt(TWO_PI * slope * (_square(delta) + _square(kappa) / 4.0) / weight) / TWO_PI**1.5
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
        if t.ndim != 1 or t.shape != p.shape or t.size < 2:
            raise ValueError("times and powers must be matching 1D arrays")
        if (t[1:] <= t[:-1]).any():
            raise ValueError("times must be strictly increasing")
        if p.min() < 0:
            raise ValueError("powers must be >= 0")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "powers", p)


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
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        powers = powers + rng.normal(0.0, noise_sigma, times.size)
    powers = np.clip(powers, 0.0, None)
    return RingdownTrace(times, powers, true_gamma_eff=gamma_eff, noise_floor=noise_floor)


# Shortest ringdown :func:`fit_ringdowns` accepts.
MIN_FIT_SAMPLES = 10
# Traces fitted together per kernel call: large enough to amortize numpy's
# per-call overhead, small enough that the (chunk, samples) temporaries stay
# in cache.
_FIT_CHUNK = 256
# Stopping rules in the style of MINPACK's lmder, but tighter than the
# 1.49e-8 that scipy passes it: converged when the actual and predicted
# relative SSR reductions are below _LM_FTOL, or the scaled step below
# _LM_XTOL of the scaled parameters.  Chain traces at SNR 100 take 5 or 6.
_LM_MAX_ITER = 200
_LM_FTOL = 1e-14
_LM_XTOL = 1e-10
# Normal matrices whose unit-diagonal (correlation) form has a smaller
# determinant are singular to rounding: the rate is not identifiable, as in
# a flat trace where amplitude and floor trade off.
_SINGULAR_DET = 1e-12


def fit_ringdowns(times, powers, skip_fraction: float = 0.1):
    """Fit ``amplitude * exp(-2 pi gamma t) + floor`` to a stack of ringdowns.

    ``times`` and ``powers`` are ``(B, S)`` arrays, one trace per row.  Every
    trace gets the least-squares fit of :func:`fit_ringdown` (same skipped
    head, same log-linear initial guess), computed for all rows at once by
    a vectorized Levenberg-Marquardt iteration on the per-trace 3x3 normal
    equations; traces are fitted in chunks of a fixed size.
    Returns ``(gamma, stderr, converged)`` arrays of length B.  A trace that
    does not converge or whose normal matrix is singular (a flat or all-zero
    trace) has ``converged`` False, gamma NaN and stderr inf; one such trace
    leaves the other rows' results unchanged.  The standard error is
    ``sqrt(inv(J^T J)[gamma, gamma] * SSR / (S - 3))``.  Negative fitted rates
    are clipped to zero with a warning.
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
    gamma = np.empty(t.shape[0])
    stderr = np.empty(t.shape[0])
    converged = np.empty(t.shape[0], dtype=bool)
    for lo in range(0, t.shape[0], _FIT_CHUNK):
        rows = slice(lo, lo + _FIT_CHUNK)
        gamma[rows], stderr[rows], converged[rows] = _fit_chunk(t[rows, start:], p[rows, start:])
    if np.any(gamma < 0):
        warnings.warn("fitted ringdown rate is negative; clipping to 0", stacklevel=2)
        gamma = np.where(gamma < 0, 0.0, gamma)
    return gamma, stderr, converged


def _normal_equations(tau, p, x):
    """SSR, scaled normal matrix entries and scaled gradient at ``x``.

    ``x`` rows are (amplitude, rate k, floor) of ``a exp(-k tau) + c``.  The
    normal matrix J^T J and J^T r come from closed-form sums over ``e``,
    ``tau e`` and the residual; they are returned Jacobi-scaled by
    ``d = sqrt(diag(J^T J))`` as the off-diagonal entries (m01, m02, m12) of
    a unit-diagonal matrix, with ``b = J^T r / d``.
    """
    a, k, c = x
    e = np.exp(-k[:, None] * tau)
    te = tau * e
    r = p - a[:, None] * e - c[:, None]
    ssr = np.einsum("ij,ij->i", r, r)
    h = (
        np.einsum("ij,ij->i", e, e),                  # (a, a)
        -a * np.einsum("ij,ij->i", te, e),            # (a, k)
        e.sum(axis=1),                                # (a, c)
        a * a * np.einsum("ij,ij->i", te, te),        # (k, k)
        -a * te.sum(axis=1),                          # (k, c)
        np.full(a.shape, float(tau.shape[1])),        # (c, c)
    )
    g = (np.einsum("ij,ij->i", e, r), -a * np.einsum("ij,ij->i", te, r), r.sum(axis=1))
    d = np.sqrt(np.stack([h[0], h[3], h[5]]))
    m = np.stack([h[1] / (d[0] * d[1]), h[2] / (d[0] * d[2]), h[4] / (d[1] * d[2])])
    return ssr, d, m, np.stack(g) / d


def _solve_unit_diag(m, diag, b):
    """Solve the symmetric 3x3 systems with off-diagonals ``m`` = (m01, m02,
    m12), diagonal ``diag`` and right-hand side ``b`` by the adjugate; a
    singular system gives non-finite entries instead of raising."""
    m01, m02, m12 = m
    c00 = diag * diag - m12 * m12
    c01 = m02 * m12 - m01 * diag
    c02 = m01 * m12 - m02 * diag
    c11 = diag * diag - m02 * m02
    c12 = m01 * m02 - diag * m12
    c22 = diag * diag - m01 * m01
    det = diag * c00 + m01 * c01 + m02 * c02
    return np.stack([
        c00 * b[0] + c01 * b[1] + c02 * b[2],
        c01 * b[0] + c11 * b[1] + c12 * b[2],
        c02 * b[0] + c12 * b[1] + c22 * b[2],
    ]) / det


def _rate_variance(m, d, ssr, dof):
    """inv(J^T J)[k, k] * SSR / dof from the scaled normal matrix; inf where
    that matrix is singular."""
    m01, m02, m12 = m
    det = 1.0 + 2.0 * m01 * m02 * m12 - m01 * m01 - m02 * m02 - m12 * m12
    return np.where(det > _SINGULAR_DET, (1.0 - m02 * m02) / det / d[1] ** 2 * ssr / dof, np.inf)


def _initial_guess(tau, p):
    """Tail-mean floor, then a log-linear regression of the samples more than
    a tenth of the peak above it (at least 5 of them, else rate 0)."""
    n = tau.shape[1]
    floor0 = p[:, -max(3, n // 8):].mean(axis=1)
    amp = p - floor0[:, None]
    peak = amp.max(axis=1)
    above = amp > 0.1 * np.maximum(peak, 1e-300)[:, None]
    count = above.sum(axis=1)
    w = above / np.maximum(count, 1)[:, None]
    y = np.log(np.where(above, amp, 1.0))
    x_mean = (w * tau).sum(axis=1)
    y_mean = (w * y).sum(axis=1)
    dx = np.where(above, tau - x_mean[:, None], 0.0)
    slope = (dx * y).sum(axis=1) / (dx * dx).sum(axis=1)
    use = count >= 5
    k0 = np.where(use, np.maximum(-slope, 0.0), 0.0)
    a0 = np.where(use, np.exp(y_mean - slope * x_mean), np.maximum(peak, 1e-300))
    return np.stack([a0, k0, floor0])


def _fit_chunk(t, p):
    """Levenberg-Marquardt (Marquardt's diagonal damping) on every row of one
    chunk.  Time is scaled to ``tau = t / max|t|`` per row, so the fitted
    rate is ``k = 2 pi gamma max|t|``.  Converged rows, and rows whose step
    is not finite, leave the active set."""
    scale = np.abs(t).max(axis=1)
    tau = t / scale[:, None]
    n_rows, n_samples = t.shape
    rate = np.full(n_rows, np.nan)
    rate_var = np.full(n_rows, np.inf)
    converged = np.zeros(n_rows, dtype=bool)
    rows = np.arange(n_rows)
    with np.errstate(all="ignore"):
        x = _initial_guess(tau, p)
        ssr, d, m, b = _normal_equations(tau, p, x)
        lam = np.full(n_rows, 1e-3)
        nu = np.full(n_rows, 2.0)
        for _ in range(_LM_MAX_ITER):
            y = _solve_unit_diag(m, 1.0 + lam, b)
            step = y / d
            trial = x + step
            ssr_t, d_t, m_t, b_t = _normal_equations(tau, p, trial)
            predicted = (y * b).sum(axis=0) + lam * (y * y).sum(axis=0)
            actual = ssr - ssr_t
            accept = actual > 0
            small_f = (predicted <= _LM_FTOL * ssr) & (np.abs(actual) <= _LM_FTOL * ssr)
            small_x = np.sqrt((y * y).sum(axis=0)) <= _LM_XTOL * np.sqrt(((d * x) ** 2).sum(axis=0))
            done = small_f | small_x | (accept & (ssr_t == 0))
            bad = ~np.isfinite(step).all(axis=0)
            x = np.where(accept, trial, x)
            ssr = np.where(accept, ssr_t, ssr)
            d = np.where(accept, d_t, d)
            m = np.where(accept, m_t, m)
            b = np.where(accept, b_t, b)
            # Nielsen's damping update: shrink by the gain ratio on success,
            # grow geometrically faster on repeated failures
            gain = actual / predicted
            lam = np.where(accept, lam * np.maximum(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), lam * nu)
            nu = np.where(accept, 2.0, 2.0 * nu)
            finished = done & ~bad
            if finished.any():
                var = _rate_variance(m[:, finished], d[:, finished], ssr[finished], n_samples - 3)
                ok = np.isfinite(x[1, finished]) & np.isfinite(var)
                idx = rows[finished]
                rate[idx] = np.where(ok, x[1, finished], np.nan)
                rate_var[idx] = np.where(ok, var, np.inf)
                converged[idx] = ok
            keep = ~(done | bad)
            if not keep.all():
                rows, tau, p = rows[keep], tau[keep], p[keep]
                x, ssr, d, m, b = x[:, keep], ssr[keep], d[:, keep], m[:, keep], b[:, keep]
                lam, nu = lam[keep], nu[keep]
            if rows.size == 0:
                break
    return rate / (TWO_PI * scale), np.sqrt(rate_var) / (TWO_PI * scale), converged


def fit_ringdown(trace: RingdownTrace, skip_fraction: float = 0.1) -> tuple[float, float]:
    """Fit (amplitude, gamma_eff, floor) to a ringdown; returns (gamma_eff, stderr).

    A one-trace call of :func:`fit_ringdowns`.  The first ``skip_fraction``
    of the trace is excluded (the initial high-amplitude decay can be
    nonlinear).  Initial guesses come from a log-linear regression of the
    above-floor region.  A negative fitted rate is clipped to zero with a
    warning.  Raises :class:`RingdownFitError` when the fit does not
    converge or its normal equations are singular.
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
    floor: float = SINKHORN_FLOOR_DEFAULT,
) -> tuple[ParticipationMatrix, int]:
    """Alternating row/column normalization of an unnormalized participation
    matrix (modes along rows, sites along columns).

    Entries below ``floor`` are raised to it first (measured slopes vanish at
    modeshape nodes; strict positivity is needed for convergence) and flagged
    in the result.  One iteration is one single-axis normalization, starting
    with rows.  Stops when both row and column sums deviate from 1 by less
    than ``tol``; raises :class:`SinkhornError` carrying the residual when
    ``max_iter`` is exhausted.
    """
    x = np.array(eta_tilde, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("eta_tilde must be a square matrix")
    if np.any(x < 0):
        raise ValueError("eta_tilde entries must be >= 0")
    floored = x < floor
    x[floored] = floor

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
    U = exp((G - G^T)/2) with G = log(U~).

    Requires the eigenvalues of ``u_tilde`` to stay off the closed negative
    real axis (principal-branch condition) -- in particular det(U~) must be
    positive; flip the sign of one row first if needed (the reconstruction
    and the participation ratios are invariant under row sign flips).
    Raises :class:`OrthogonalizationError` otherwise; the caller may fall
    back to reporting the unorthogonalized matrix.
    """
    from scipy.linalg import expm, logm

    u = np.asarray(u_tilde, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("input must be a square matrix")
    eigvals = np.linalg.eigvals(u)
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
    generator = logm(u)
    if np.iscomplexobj(generator):
        if np.abs(generator.imag).max() > 1e-8:
            raise OrthogonalizationError(
                "matrix logarithm is not real; report without orthogonalization"
            )
        generator = generator.real
    ortho = expm(0.5 * (generator - generator.T))
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
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        ratios = ratios * (1.0 + rng.normal(0.0, noise_sigma, n_m.size))
    slope = float(n_m @ ratios / (n_m @ n_m))
    if slope <= 0:
        raise ValueError(f"non-positive fitted sideband slope ({slope:.3e}); cannot invert")
    return float(np.sqrt(slope * denom))
