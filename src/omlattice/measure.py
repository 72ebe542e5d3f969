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

from ._runtime import CHUNK_VALUES, on_all_cpus, row_chunks
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
        # written so that NaN fails every check; the detuning may take either sign
        if not np.all(np.abs(self.detuning) < np.inf):
            raise ValueError("detuning must be finite")
        if not np.all((0 < self.kappa_tot) & (self.kappa_tot < np.inf)):
            raise ValueError("kappa_tot must be positive and finite")
        for name in ("kappa_1", "kappa_2", "drive_flux", "transmittance", "mech_freq",
                     "mech_linewidth", "g0"):
            value = getattr(self, name)
            if not np.all((0 <= value) & (value < np.inf)):
                raise ValueError(f"{name} must be finite and >= 0")
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
    at least 2 samples, strictly increasing times on a uniform grid (see
    :data:`_GRID_ULPS`) and powers >= 0; a NaN time or power breaks its
    rule.  For a single trace (1D arrays) the index is ``()``.
    """
    samples = np.asarray(samples)
    present = np.arange(times.shape[-1]) < samples[..., None]
    rules = (
        (samples == 1, "fewer than 2 samples"),
        ((~(times[..., 1:] > times[..., :-1]) & present[..., 1:]).any(axis=-1),
         "times must be strictly increasing"),
        (~_on_uniform_grid(times, samples), "times must lie on a uniform grid"),
        ((~(powers >= 0) & present).any(axis=-1), "powers must be >= 0"),
    )
    for bad, rule in rules:
        if bad.any():
            return tuple(np.argwhere(bad)[0].tolist()), rule
    return None


# A trace is on a uniform grid when none of its times is further than this
# many ulp of its largest |time| from the line through its first and last
# time.  Grids i * dt from np.arange are within 2.
_GRID_ULPS = 32


def _row_blocks(n_rows: int, row_values: int) -> list[slice]:
    """Runs of consecutive rows of at most :data:`CHUNK_VALUES` values each
    (one row at least): the blocks in which the grid check and the residual
    make their arrays of a row's size, so that neither grows with a chunk."""
    size = max(1, CHUNK_VALUES // row_values)
    return [slice(lo, lo + size) for lo in range(0, n_rows, size)]


def _on_uniform_grid(t, samples):
    """Which traces of ``t`` lie on a uniform grid (see :data:`_GRID_ULPS`):
    trace ``j``, one per index of the leading axes, is the first
    ``samples[j]`` entries along the last (``samples`` broadcasts), and one
    of at most 1 sample passes.  A NaN or infinite time is off the grid.
    The traces are checked in :func:`_row_blocks`."""
    rows = t.reshape(-1, t.shape[-1])
    n = np.broadcast_to(samples, t.shape[:-1]).reshape(-1)
    on_grid = np.empty(n.size, dtype=bool)
    for block in _row_blocks(n.size, t.shape[-1]):
        on_grid[block] = _rows_on_grid(rows[block], n[block])
    return on_grid.reshape(t.shape[:-1])


def _rows_on_grid(t, n):
    """:func:`_on_uniform_grid` of the rows of a (rows, samples) block."""
    j = np.arange(t.shape[1], dtype=float)
    first = t[:, 0]
    last = np.take_along_axis(t, np.maximum(n - 1, 0)[:, None], axis=1)[:, 0]
    with np.errstate(all="ignore"):
        # t_j - j (last - first) / (n - 1) is first, to the tolerance, on the grid
        offset = np.multiply.outer((last - first) / np.maximum(n - 1, 1), j)
        np.subtract(t, offset, out=offset)
        if n.min() < t.shape[1]:
            np.copyto(offset, first[:, None], where=j >= n[:, None])
        tol = _GRID_ULPS * np.spacing(np.maximum(np.abs(first), np.abs(last)))
        return (offset.max(axis=1) - first <= tol) & (first - offset.min(axis=1) <= tol) | (n < 2)


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
    row's times on a uniform grid, the rule of :class:`RingdownTrace`; a
    ``ValueError`` names the lowest row that is not, checked on the rows as
    given, before the skipped head is cut.  Every trace gets the
    least-squares fit of :func:`fit_ringdown` (same skipped head), computed
    for all rows at once by variable projection: for a fixed rate,
    amplitude and floor are the linear least-squares solution, and the rate
    takes Kaufman's Gauss-Newton steps on the projected residual, halved
    while they raise it.  It starts from Cornell's partial-sum estimate and
    takes its sums in closed form and by blocks (:class:`_UniformGrid`).
    Returns ``(gamma, stderr, converged)`` arrays of length B.  A trace that
    does not converge or whose normal matrix is singular (a flat or all-zero
    trace) has ``converged`` False, gamma NaN and stderr inf; one such trace
    leaves the other rows' results unchanged.  So does a trace with fewer
    than 5 samples more than a tenth of its peak above the tail floor, or
    whose start does not decay: the start cannot locate its decay, and the
    rate 0 it would start from leaves amplitude and floor inseparable.
    The standard error is the full 3-parameter
    ``sqrt(inv(J^T J)[gamma, gamma] * SSR / (S - 3))``, with SSR summed
    from the explicit residual.  Negative fitted rates are clipped to zero
    with a warning.

    The rows are cut into chunks and fitted on every CPU the process may
    use, as :mod:`omlattice._runtime` describes: a stack of at most one
    chunk of work, as a criterion-5 chain's or the 24-site flake's, is
    fitted on the calling thread.  A row counts for its work in one
    iteration of the kernel, the ``m + n / m`` values of
    :class:`_UniformGrid` (49 for 360 samples), not for its ``n`` samples.
    Each chunk checks its rows' grid, then makes one :func:`_fit_chunk`
    call.  No sum mixes rows, so the results are
    bit-identical to a row-by-row fit whatever the number of CPUs.
    """
    times = np.atleast_2d(np.asarray(times, dtype=float))
    p = np.atleast_2d(np.asarray(powers, dtype=float))
    if times.shape != p.shape or times.ndim != 2:
        raise ValueError("times and powers must be matching (traces, samples) arrays")
    if times.shape[1] < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples to fit a ringdown")
    if not 0.0 <= skip_fraction < 0.9:
        raise ValueError("skip_fraction must lie in [0, 0.9)")
    start = int(round(skip_fraction * times.shape[1]))
    t, p = times[:, start:], p[:, start:]
    n_rows = t.shape[0]
    gamma = np.empty(n_rows)
    stderr = np.empty(n_rows)
    converged = np.empty(n_rows, dtype=bool)
    off_grid = []  # the first row off the grid of each chunk that has one

    def fit(rows):
        on_grid = _on_uniform_grid(times[rows], times.shape[1])
        if not on_grid.all():
            off_grid.append(rows.start + int(np.argmin(on_grid)))
        if not off_grid:
            gamma[rows], stderr[rows], converged[rows] = _fit_chunk(t[rows], p[rows])

    m = _block_width(t.shape[1])
    on_all_cpus(fit, row_chunks(n_rows, m + t.shape[1] // m))
    if off_grid:
        raise ValueError(f"row {min(off_grid)}: times must lie on a uniform grid")
    if np.any(gamma < 0):
        warnings.warn("fitted ringdown rate is negative; clipping to 0", stacklevel=2)
        gamma = np.where(gamma < 0, 0.0, gamma)
    return gamma, stderr, converged


def _row_dot(x, y, out=None):
    """Per-row dot products of two (rows, samples) arrays.  No product mixes
    rows (no GEMM), so each row's result does not depend on the others."""
    return np.einsum("ij,ij->i", x, y, out=out)


def _initial_rate(tau, p):
    """Tail-mean floor, then a log-linear regression of the samples more than
    a tenth of the peak above it; NaN with fewer than 5 such samples or a
    rising slope.  The start of the rows whose partial sums
    (:meth:`_UniformGrid._partial_sum_rate`) are unusable."""
    n = tau.shape[1]
    amp = p - p[:, -max(3, n // 8):].mean(axis=1)[:, None]
    above = amp > 0.1 * np.maximum(amp.max(axis=1), 1e-300)[:, None]
    count = above.sum(axis=1)
    dx = np.where(above, tau, 0.0)
    dx = np.where(above, tau - (dx.sum(axis=1) / count)[:, None], 0.0)
    y = np.log(np.where(above, amp, 1.0))
    slope = (dx * y).sum(axis=1) / (dx * dx).sum(axis=1)
    return np.where((count >= 5) & (slope < 0), -slope, np.nan)


# Below this |n u| the grid moments come from their power series in u: the
# closed forms lose about -log10(|n u|) (mean) and -2 log10(|n u|) (variance)
# digits to cancellation, the series' first omitted term is below 1e-14.
_SERIES_SPAN = 0.2
# Bernoulli numbers B_2 ... B_10 over k!: 1 / expm1(x) = 1/x - 1/2 + sum of
# these times x^(k-1)
_BERNOULLI = ((2, 1 / 6 / 2), (4, -1 / 30 / 24), (6, 1 / 42 / 720),
              (8, -1 / 30 / 40320), (10, 5 / 66 / 3628800))


def _grid_moments(u, n, total=None):
    """Closed-form sums of the weights ``w_j = exp(-x j)``, ``j = 0 .. n-1``,
    at ``x = u`` (row 0) and ``x = 2 u`` (row 1) of one (2, rows) array each:
    the total ``sum w`` (into ``total`` if given), the mean
    ``sum j w / sum w`` and, at ``2 u`` only, the variance of ``j`` under
    ``w``.  All come from expm1: ``sum w = expm1(-n x) / expm1(-x)``, mean
    ``1 / expm1(x) - n / expm1(n x)`` and variance ``1 / (4 sinh^2(x/2)) -
    n^2 / (4 sinh^2(n x/2))``, with ``4 sinh^2(y/2) = -expm1(y) expm1(-y)``;
    below :data:`_SERIES_SPAN` the mean and variance take their power
    series instead.  No array holds more than two values per row."""
    x = np.multiply.outer((1.0, 2.0), u)
    nx = n * x
    plus, plus_n = np.expm1(x), np.expm1(nx)
    minus, minus_n = np.expm1(-x), np.expm1(-nx)
    total = np.divide(minus_n, minus, out=total)
    mean = 1.0 / plus
    mean -= n / plus_n
    var = (n * n) / (plus_n[1] * minus_n[1])
    var -= 1.0 / (plus[1] * minus[1])
    if not nx[0].min(initial=np.inf) >= _SERIES_SPAN:
        small = np.abs(nx[0]) < _SERIES_SPAN
        y = x[:, small]
        w = y * y
        coef = {k: c * (1.0 - float(n) ** k) for k, c in _BERNOULLI}
        series_mean, series_var = coef[10], 9.0 * coef[10]
        for k in (8, 6, 4):
            series_mean = coef[k] + w * series_mean
            series_var = (k - 1) * coef[k] + w[1] * series_var
        mean[:, small] = 0.5 * (n - 1) + y * (coef[2] + w * series_mean)
        var[small] = -(coef[2] + w[1] * series_var)
        total[:, small] = np.where(y == 0.0, float(n), total[:, small])
    return total, mean, var


# Rows of the per-row table the iteration works on: the sample count, the
# five sums free of data, sum p, the two data sums, sum p^2 and its
# _SSR_SLACK share.  The sample count and the sums of p and p^2 are
# constants; the order puts next to each other the pairs that the iteration
# takes in one call.
_N, _SEE, _STTE, _SE, _STE, _STEE, _SUM_P, _SPE, _SPTE, _SUM_PP, _SLACK = range(11)


def _block_width(n: int) -> int:
    """The width ``m`` of the blocks :class:`_UniformGrid` cuts a row of
    ``n`` samples into: the least divisor of ``n`` from ``2 sqrt(n)``."""
    return next(d for d in range(min(math.isqrt(4 * n - 1) + 1, n), n + 1) if n % d == 0)


class _UniformGrid:
    """Sums and start of rows on a uniform time grid ``tau_j = tau_0 + h j``
    (``tau = t / max|t|``).  With ``e_j = exp(-k h j)``, which differs
    from ``exp(-k tau_j)`` by a per-row factor that the amplitude absorbs,
    the five sums free of data come from :func:`_grid_moments`, and the
    two data sums, ``sum p e`` and ``sum p tau e``, from batched products
    over ``p``: a row is an ``(n / m, m)`` block, ``j = m a + b``,
    ``e_j = exp(-k h m a) exp(-k h b)`` and ``tau_j = (tau_0 + h m a) + h
    b``, so that each iteration takes ``exp`` of ``m + n / m`` values per
    row (``m`` from :func:`_block_width`) into one buffer that every
    iteration reuses, and makes one pass over ``p``; each product of the
    batch multiplies one row's own blocks, so no product mixes rows.  The
    start is Cornell's partial-sum estimate.  Of arrays of ``p``'s size it
    makes only, after a drop, a copy of the kept rows; the residual of the
    rows that finish in an iteration is made in :func:`_row_blocks`, whose
    copy of ``p`` and model together hold at most :data:`CHUNK_VALUES`
    values."""

    def __init__(self, t, p):
        n = t.shape[1]
        first, last = t[:, 0], t[:, -1]
        self.scale = np.maximum(np.abs(first), np.abs(last))
        self.tau0 = first / self.scale
        self.h = (last - first) / ((n - 1) * self.scale)
        self.n = n
        self.m = m = _block_width(n)
        self.blocks = blocks = n // m
        b, block = np.arange(m, dtype=float), m * np.arange(blocks, dtype=float)
        # the factors exp(-u b) and exp(-u m a) of e_j, and their weights
        # h b and tau_0 + h m a, which sum to tau_j
        self.factors = -np.concatenate((b, block))
        self.weights = np.concatenate((np.multiply.outer(self.h, b),
                                       self.tau0[:, None] + np.multiply.outer(self.h, block)), axis=1)
        self.p = p
        self.buffer = np.empty((p.shape[0], 2, m + blocks))
        self.sum_pp = _row_dot(p, p)
        self.k0, self.sum_p = self._partial_sum_rate(p)

    def _partial_sum_rate(self, p):
        """Cornell's partial-sum start, and the row sums of ``p``: with
        ``S_1, S_2, S_3`` the sums of the row's three thirds of ``n // 3``
        samples, ``q = (S_3 - S_2) / (S_2 - S_1) = exp(-k h n // 3)``.  NaN
        with fewer than 5 samples more than a tenth of the peak above the
        tail mean, or a start that does not decay (``S_2 >= S_1``).  A
        decaying start with ``q`` outside (0, 1), which noise makes on short
        or faint traces, takes the log-linear start of :func:`_initial_rate`
        instead."""
        n = p.shape[1]
        floor = p[:, -max(3, n // 8):].mean(axis=1)
        above = (floor + 0.1 * np.maximum(p.max(axis=1) - floor, 1e-300))[:, None]
        # a decay has its first 5 samples above; count the other rows
        enough = (p[:, :5] > above).all(axis=1)
        if not enough.all():
            rest = np.flatnonzero(~enough)
            enough[rest] = np.count_nonzero(p[rest] > above[rest], axis=1) >= 5
        third = n // 3
        s1, s2, s3, s4 = (p[:, lo:hi].sum(axis=1) for lo, hi in
                          ((0, third), (third, 2 * third), (2 * third, 3 * third), (3 * third, None)))
        d1 = s2 - s1
        q = (s3 - s2) / d1
        decays = enough & (d1 < 0)
        k = np.where(decays & (q > 0) & (q < 1), -np.log(q) / (third * self.h), np.nan)
        retry = np.flatnonzero(decays & ~((q > 0) & (q < 1)))
        if retry.size:
            tau = self.tau0[retry, None] + np.multiply.outer(self.h[retry], np.arange(n))
            k[retry] = _initial_rate(tau, p[retry])
        return k, s1 + s2 + s3 + s4

    def sums(self, trial, out):
        rows, m, blocks, h = trial.size, self.m, self.blocks, self.h
        u = trial * h
        # the totals at k and 2k are sum e and sum e^2: rows _SE and _SEE
        total, mean, var = _grid_moments(u, self.n, out[_SE::-2][:2])
        mean *= h
        mean += self.tau0  # the mean tau
        np.multiply(total, mean, out=out[_STE:_STEE + 1])
        var *= h * h
        var += mean[1] * mean[1]
        np.multiply(var, total[1], out=out[_STTE])
        # the factors (row 0) and the weighted factors (row 1), kept for the
        # residual of this iteration; per row and block a, sum_b p exp(-u b)
        # and sum_b p h b exp(-u b), then the blocks against exp(-u m a) and
        # (tau_0 + h m a) exp(-u m a)
        self.exps = exps = self.buffer[:rows]
        np.exp(np.multiply.outer(u, self.factors, out=exps[:, 0]), out=exps[:, 0])
        np.multiply(exps[:, 0], self.weights, out=exps[:, 1])
        inner = np.matmul(self.p.reshape(rows, blocks, m), exps[:, :, :m].transpose(0, 2, 1))
        outer = np.matmul(inner.transpose(0, 2, 1), exps[:, :, m:].transpose(0, 2, 1))
        out[_SPE] = outer[:, 0, 0]
        np.add(outer[:, 0, 1], outer[:, 1, 0], out=out[_SPTE])

    def residual(self, finished, a, c):
        r2 = np.empty(finished.size)
        # a row's copy of p and its model: 2 n values
        for block in _row_blocks(finished.size, 2 * self.n):
            r2[block] = self._squared_residual(finished[block], a[block], c[block])
        return r2

    def _squared_residual(self, rows, a, c):
        """The residual sum of squares of ``rows``."""
        m, exps = self.m, self.exps[rows, 0]
        outer = np.multiply(exps[:, m:], a[:, None])
        r = self.p[rows]
        r -= np.multiply(outer[:, :, None], exps[:, None, :m]).reshape(rows.size, self.n)
        r -= c[:, None]
        return _row_dot(r, r)

    def keep(self, kept):
        self.p = self.p[kept]
        self.tau0, self.h, self.weights = self.tau0[kept], self.h[kept], self.weights[kept]


def _fit_chunk(t, p):
    """Variable projection on every row of a chunk on uniform time grids,
    whose sums and start :class:`_UniformGrid` gives.  Time is scaled to
    ``tau = t / max|t|`` per row, so the fitted rate is ``k = 2 pi gamma
    max|t|`` of ``a exp(-k tau) + c``.  Each iteration takes seven per-row
    sums, the ones over ``e = exp(-k tau)``, ``tau e`` and their products
    and the ones of ``p`` with ``e`` and ``tau e``; amplitude and floor come
    from the 2x2 normal equations in ``(e, 1)``.

    The iteration keeps its per-row quantities in one table, and no sum
    mixes rows.  Converged rows, and rows whose step is not finite, are
    dropped from the arrays once at least half of their rows have left;
    until then they are computed but not read.  The residual behind the
    standard error is computed for the rows that finish, in the iteration
    they finish."""
    n_rows, n_samples = t.shape
    rate = np.full(n_rows, np.nan)
    rate_var = np.full(n_rows, np.inf)
    converged = np.zeros(n_rows, dtype=bool)
    with np.errstate(all="ignore"):
        grid = _UniformGrid(t, p)
        k = grid.k0
        rows = np.arange(n_rows)
        table = np.empty((11, n_rows))
        table[_N] = n_samples
        table[_SUM_P], table[_SUM_PP] = grid.sum_p, grid.sum_pp
        table[_SLACK] = _SSR_SLACK * table[_SUM_PP]
        ssr = np.full(n_rows, np.inf)
        step = np.zeros(n_rows)
        live = np.ones(n_rows, dtype=bool)
        d_1 = math.sqrt(n_samples)
        for _ in range(_MAX_ITER):
            trial_dk = np.empty((2, rows.size))
            trial = np.add(k, step, out=trial_dk[0])
            grid.sums(trial, table)
            see, stte, se, ste, stee, sum_p, spe, spte, sum_pp, slack = table[_SEE:]
            # the normal matrix of (e, -a tau e, 1) in unit-diagonal form:
            # m01 of (e, tau e), m02 and m12 of (e, 1) and (tau e, 1)
            d = np.sqrt(table[_SEE:_STTE + 1])
            m01 = stee / (d[0] * d[1])
            m0 = table[_SE:_STE + 1] / (d * d_1)
            squares = m0 * m0
            det = 2.0 * m01
            det *= m0[0]
            det *= m0[1]
            det += 1.0
            det -= m01 * m01
            det -= squares[0]
            det -= squares[1]
            one_m = 1.0 - squares[0]
            det_m = see * n_samples
            det_m *= one_m
            # amplitude and floor: (n spe - se sum_p, see sum_p - se spe) / det_m
            ac = table[_N:_SEE + 1] * table[_SPE:_SUM_P - 1:-1]
            ac -= se * table[_SUM_P:_SPE + 1]
            ac /= det_m
            a, c = ac
            # Schur complement of the (e, 1) block: a^2 s is the Gauss-Newton
            # curvature in k, and 1 / (a^2 s) = inv(J^T J)[k, k]
            s = stte * det
            s /= one_m
            terms = ac * table[_SPE:_SUM_P - 1:-1]
            ssr_t = sum_pp - terms[0]
            ssr_t -= terms[1]
            accept = ssr_t <= ssr + slack
            # dk = -(spte - a stee - c ste) / (a s)
            terms = ac * table[_STEE:_STE - 1:-1]
            dk = np.subtract(spte, terms[0], out=trial_dk[1])
            dk -= terms[1]
            np.negative(dk, out=dk)
            dk /= a * s
            size = np.abs(trial_dk)
            done = size[1] <= _XTOL * size[0]
            done &= accept
            # rows that stay or finish: a finite trial, and a finite step
            # where it is taken
            sound = np.isfinite(trial_dk)
            sound[1] |= ~accept
            sound = sound[0] & sound[1]
            np.copyto(k, trial, where=accept)
            np.copyto(ssr, ssr_t, where=accept)
            step *= 0.5
            np.copyto(step, dk, where=accept)
            finishing = done & sound
            finishing &= live
            if finishing.any():
                finished = np.flatnonzero(finishing)
                r2 = grid.residual(finished, a[finished], c[finished])
                var = r2 / (n_samples - 3) / (a[finished] ** 2 * s[finished])
                idx = rows[finished]
                rate[idx], rate_var[idx] = trial[finished], var
                converged[idx] = (det[finished] > _SINGULAR_DET) & np.isfinite(var)
            live &= sound
            live &= ~done
            kept = np.flatnonzero(live)
            if kept.size == 0:
                break
            if 2 * kept.size <= rows.size:
                grid.keep(kept)
                rows, k, ssr, step, live = rows[kept], k[kept], ssr[kept], step[kept], live[kept]
                table = table[:, kept]
    rate[~converged], rate_var[~converged] = np.nan, np.inf
    return rate / (TWO_PI * grid.scale), np.sqrt(rate_var) / (TWO_PI * grid.scale), converged


def fit_ringdown(trace: RingdownTrace, skip_fraction: float = 0.1) -> tuple[float, float]:
    """Fit (amplitude, gamma_eff, floor) to a ringdown; returns (gamma_eff, stderr).

    A one-trace call of :func:`fit_ringdowns`; the trace's times lie on a
    uniform grid, as :class:`RingdownTrace` checks.  The first
    ``skip_fraction`` of the trace is excluded (the initial high-amplitude
    decay can be nonlinear).  The initial rate comes from the partial sums
    of the trace's thirds, or, where noise makes them unusable, from a
    log-linear regression of the above-floor region.  A negative fitted
    rate is clipped to zero with a warning.  Raises
    :class:`RingdownFitError` when the fit does not converge, its normal
    equations are singular, fewer than 5 samples lie more than a tenth of
    the peak above the floor, or its start does not decay.
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
