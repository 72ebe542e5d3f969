"""Bulk two-band analysis: winding numbers, Zak phases, and edge-state prediction.

The in-scope lattices reduce to two-band bulk Hamiltonians of the form
``[[eps(k), rho(k)], [conj(rho(k)), eps(k)]]`` with ``rho = |rho| e^{-i phi}``.
The band energies relative to the site resonance are ``eps(k) +- |rho(k)|``;
``eps`` only shifts both bands and does not affect the topology.  Both are
summed over the bonds that the builders of :mod:`omlattice.lattice` place.

Edge states of a truncated chain of N cells exist when two conditions hold:
the Zak phase is pi (equivalently the curve rho(k) winds around the origin),
and the finite-size slope condition ``|d phi / dk| < N + 1`` at the
wavenumber of the band-gap minimum.  The same analysis applies to
wavenumber-resolved honeycomb ribbons via ``rho(k_perp | k_par)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import _CHAIN_BONDS, _RIBBON_BONDS, Couplings, RibbonOrientation

BZ_SAMPLES_DEFAULT = 4096
GAP_RTOL = 1e-9
MARGINAL_BAND = 0.5
# scipy's golden-section constants and iteration cap, kept so that k_min
# matches its result, and the tolerance the refinement runs with
_gR = 0.61803399
_gC = 1.0 - _gR
_KMIN_XTOL = 1e-12
_KMIN_MAXITER = 5000

# Honeycomb lattice vectors (unit bond length); the two reciprocal phases
# a1.k and a2.k independently cover [0, 2pi) as k runs over the BZ.
LATTICE_VECTORS = np.array([[np.sqrt(3.0) / 2, 1.5], [-np.sqrt(3.0) / 2, 1.5]])


class GaplessCurveError(ValueError):
    """The bulk curve touches the origin; winding and Zak phase are undefined."""


class OutOfModelError(ValueError):
    """The curve is outside the two-band model class (|winding| > 1)."""


def _item(value):
    """A 0-d reduction as a Python scalar; one value per lane otherwise."""
    return value.item() if np.ndim(value) == 0 else value


def _winding(rho):
    """Whole turns of each lane of ``rho`` around the origin, with no gap
    check: the caller has established that every lane is gapped."""
    arg = np.angle(rho)
    steps = np.diff(arg, axis=-1, append=arg[..., :1])
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    # wrapped steps around a closed loop sum to whole turns, up to rounding
    return np.round(np.abs(np.sum(steps, axis=-1)) / (2 * np.pi)).astype(int)


@dataclass(frozen=True)
class BulkCurve:
    """Off-diagonal bulk element sampled over one Brillouin zone.

    ``k`` is a uniform strictly increasing grid over [-pi, pi); the closing
    value rho(pi) = rho(-pi) is checked at construction.  ``rho`` is either
    one curve of ``k.size`` samples or a ``(lanes, k.size)`` stack of curves;
    every quantity below reduces over the last axis, giving one value per
    lane (a Python scalar for a single curve).
    """

    k: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        rho = np.asarray(self.rho, dtype=complex)
        if k.ndim != 1 or rho.ndim not in (1, 2) or rho.shape[-1:] != k.shape or k.size < 8:
            raise ValueError("need a 1D k and a 1D or 2D rho over it, with at least 8 samples")
        if np.any(np.diff(k) <= 0):
            raise ValueError("k must be strictly increasing")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_function(cls, rho_fn, n_samples: int = BZ_SAMPLES_DEFAULT) -> "BulkCurve":
        k = -np.pi + 2 * np.pi * np.arange(n_samples) / n_samples
        rho = np.asarray(rho_fn(k), dtype=complex)
        lo, hi = np.asarray(rho_fn(-np.pi)), np.asarray(rho_fn(np.pi))
        scale = np.maximum(np.abs(rho).max(axis=-1, keepdims=True), 1e-300)
        if np.any(np.abs(hi - lo) > 1e-12 * scale):
            raise ValueError("curve does not close: rho(-pi) != rho(pi)")
        return cls(k, rho)

    @property
    def min_abs(self):
        return _item(np.abs(self.rho).min(axis=-1))

    def is_gapped(self):
        """True when the sampled curve stays clear of the origin.

        The default threshold accounts for the sampling resolution: a zero
        can hide between samples whenever min |rho| is comparable to the
        largest per-step movement of the curve.
        """
        mag = np.abs(self.rho)
        max_step = np.abs(np.diff(self.rho, axis=-1, append=self.rho[..., :1])).max(axis=-1)
        return _item(mag.min(axis=-1) > np.maximum(GAP_RTOL * mag.max(axis=-1), max_step))

    def to_rows(self, couplings: Couplings):
        """(k, Re rho, Im rho, E-, E+) rows for CSV export, E-+ = eps -+ |rho|
        with eps from the chain bonds of ``couplings``."""
        eps = _bloch(_CHAIN_BONDS, couplings, self.k)[0]
        mag = np.abs(self.rho)
        return np.column_stack([self.k, self.rho.real, self.rho.imag, eps - mag, eps + mag])


@dataclass(frozen=True)
class EdgePrediction:
    """Outcome of the bulk-edge analysis for a finite system of ``n_cells`` cells.

    ``status`` is "ok", "marginal" (slope within 0.5 of the bound, where the
    finite-size criterion is only asymptotic), or "gapless" (undefined;
    ``edge_states_exist`` is None).
    """

    zak: float | None
    winding: int | None
    slope_at_kmin: float | None
    slope_bound: float
    edge_states_exist: bool | None
    status: str


# ---------------------------------------------------------------------------
# Bulk elements
# ---------------------------------------------------------------------------

def _bloch(bonds, couplings: Couplings, k, k_par=0.0):
    """eps(k) and rho(k) of two-site cells joined by ``bonds`` as the builders
    place them: rho sums the A-B bonds (conjugated when they run B to A), eps
    the A-A bonds and their Hermitian partners (the B-B bonds repeat them)."""
    k = np.asarray(k, dtype=float)
    eps = rho = 0.0
    for name, site, to_site, cells, par in bonds:
        rate, phase = getattr(couplings, name), cells * k - par * k_par
        if site == to_site == "A":
            eps = eps + 2 * rate * np.cos(phase)
        elif site != to_site:
            rho = rho + rate * np.exp(1j * (phase if site == "A" else -phase))
    return eps, rho


def bulk_rho_ssh(k, couplings: Couplings):
    """Off-diagonal bulk element of the chain build_ssh_chain builds:
    rho(k) = j + j' e^{-ik} + j3 e^{ik} + j3' e^{-2ik}.
    """
    return _bloch(_CHAIN_BONDS, couplings, k)[1]


def bulk_bands_ssh(k, couplings: Couplings):
    """Band energies relative to the cavity frequency:
    E(k) = 2 j2 cos(k) -+ |rho(k)|.
    """
    eps, rho = _bloch(_CHAIN_BONDS, couplings, k)
    mag = np.abs(rho)
    return eps - mag, eps + mag


def ssh_bulk_curve(couplings: Couplings, n_samples: int = BZ_SAMPLES_DEFAULT) -> BulkCurve:
    return BulkCurve.from_function(lambda k: bulk_rho_ssh(k, couplings), n_samples)


def graphene_bulk(kvec, j_a: float, j_b: float, j_c: float):
    """Honeycomb two-band energies at wave vector ``kvec``:
    rho(k) = jc + ja e^{-i a1.k} + jb e^{-i a2.k}, bands -+ |rho|.

    ``kvec`` is a 2-vector or an (..., 2) array; lattice vectors are
    (+-sqrt(3)/2, 3/2).
    """
    kvec = np.asarray(kvec, dtype=float)
    phase1 = kvec @ LATTICE_VECTORS[0]
    phase2 = kvec @ LATTICE_VECTORS[1]
    rho = j_c + j_a * np.exp(-1j * phase1) + j_b * np.exp(-1j * phase2)
    mag = np.abs(rho)
    return -mag, mag


def ribbon_rho(orientation: RibbonOrientation, k_perp, k_par, j: float, j_prime: float):
    """Bulk element rho(k_perp | k_par) of the ribbon build_ribbon_hamiltonian
    builds (``k_perp`` and ``k_par`` broadcast against each other)."""
    return _bloch(_RIBBON_BONDS[orientation], Couplings(j=j, j_prime=j_prime), k_perp, k_par)[1]


def ribbon_bulk_curve(
    orientation: RibbonOrientation,
    k_par: float,
    j: float,
    j_prime: float,
    n_samples: int = BZ_SAMPLES_DEFAULT,
) -> BulkCurve:
    return BulkCurve.from_function(
        lambda k: ribbon_rho(orientation, k, k_par, j, j_prime), n_samples
    )


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def winding_number(curve: BulkCurve):
    """Number of times the closed curve rho(k) encircles the complex origin
    (an int array for a stack of curves)."""
    if not np.all(curve.is_gapped()):
        raise GaplessCurveError(f"curve reaches |rho| = {np.min(curve.min_abs):.3e}; "
                                "winding undefined on a gapless curve")
    return _item(_winding(curve.rho))


def _zak_from_winding(winding):
    if np.any(winding > 1):
        raise OutOfModelError(f"winding {np.max(winding)} >= 2 is outside the two-band model")
    return _item(np.where(winding == 1, np.pi, 0.0))


def zak_phase(curve: BulkCurve):
    """Zak phase (1/2) closed-integral of d phi, which is pi times the winding:
    pi for winding 1, 0 for winding 0.  Raises :class:`OutOfModelError` for
    |winding| >= 2, outside the two-band model class handled here."""
    return _zak_from_winding(winding_number(curve))


def _phase_slope(rho_fn, k, step: float = 1e-5) -> np.ndarray:
    """d phi / dk at one wavenumber per lane by a wrapped central difference
    (phi = -arg rho)."""
    k = np.asarray(k, dtype=float)[:, None]
    d_arg = np.angle(rho_fn(k + step)) - np.angle(rho_fn(k - step))
    d_arg = (d_arg + np.pi) % (2 * np.pi) - np.pi
    return -d_arg[:, 0] / (2 * step)


def _locate_kmin(rho_fn, n_coarse: int = 2048) -> np.ndarray:
    """Wavenumber of minimum |rho| per lane: a coarse scan, then scipy's
    ``minimize_scalar(method="golden")`` from the bracket around the coarse
    minimum, step for step and over all lanes at once.  A lane whose bracket
    fails, or whose |rho| is constant, keeps its coarse point."""
    k = -np.pi + 2 * np.pi * np.arange(n_coarse) / n_coarse
    mag = np.abs(rho_fn(k))
    k_coarse = k[np.argmin(mag, axis=-1)]
    hi = mag.max(axis=-1)
    flat = hi - mag.min(axis=-1) <= 1e-12 * hi  # any wavenumber is a minimum
    f = lambda x: np.abs(rho_fn(x[:, None]))[:, 0]
    span = 2 * np.pi / n_coarse
    x0, xb, x3 = k_coarse - span, k_coarse, k_coarse + span
    fb = f(xb)
    bracketed = ~flat & (fb < f(x0)) & (fb < f(x3))
    wide_right = np.abs(x3 - xb) > np.abs(xb - x0)
    x1 = np.where(wide_right, xb, xb - _gC * (xb - x0))
    x2 = np.where(wide_right, xb + _gC * (x3 - xb), xb)
    f1, f2 = f(x1), f(x2)
    for _ in range(_KMIN_MAXITER):
        active = bracketed & ~(np.abs(x3 - x0) <= _KMIN_XTOL * (np.abs(x1) + np.abs(x2)))
        if not active.any():
            break
        right, left = active & (f2 < f1), active & ~(f2 < f1)
        x0[right], x3[left] = x1[right], x2[left]
        x_new = np.where(right, _gR * x2 + _gC * x3, _gR * x1 + _gC * x0)  # left: the old x1
        f_new = f(x_new)
        x1[right], x2[right], f1[right], f2[right] = x2[right], x_new[right], f2[right], f_new[right]
        x2[left], x1[left], f2[left], f1[left] = x1[left], x_new[left], f1[left], f_new[left]
    return np.where(bracketed, np.where(f1 < f2, x1, x2), k_coarse)


def _predict(rho_fn, n_cells: int, n_samples: int) -> list[EdgePrediction]:
    """One prediction per lane of ``rho_fn``, which maps a shared 1D grid, or
    one ``(lanes, 1)`` wavenumber per lane, to a ``(lanes, k)`` array."""
    curve = BulkCurve.from_function(rho_fn, n_samples)
    gapped = curve.is_gapped()
    bound = float(n_cells + 1)
    winding = _winding(curve.rho[gapped])
    zak = _zak_from_winding(winding)
    slope = _phase_slope(rho_fn, _locate_kmin(rho_fn))[gapped]
    exists = (zak == np.pi) & (np.abs(slope) < bound)
    status = np.where(np.abs(np.abs(slope) - bound) < MARGINAL_BAND, "marginal", "ok")
    lanes = iter(map(EdgePrediction, zak.tolist(), winding.tolist(), slope.tolist(),
                     [bound] * len(slope), exists.tolist(), status.tolist()))
    gapless = EdgePrediction(None, None, None, bound, None, "gapless")
    return [next(lanes) if ok else gapless for ok in gapped]


def edge_prediction_finite(
    couplings: Couplings, n_cells: int, n_samples: int = BZ_SAMPLES_DEFAULT
) -> EdgePrediction:
    """Edge-state prediction for an open chain of ``n_cells`` cells.

    Combines the Zak phase with the finite-size slope condition
    ``|d phi/dk at k_min| < n_cells + 1`` evaluated at the band-gap minimum.
    Raises :class:`GaplessCurveError` for gapless couplings.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    (prediction,) = _predict(lambda k: np.atleast_2d(bulk_rho_ssh(k, couplings)),
                             n_cells, n_samples)
    if prediction.status == "gapless":
        raise GaplessCurveError("bulk curve is gapless; no edge-state prediction")
    return prediction


def ribbon_edge_prediction(
    orientation: RibbonOrientation,
    k_par,
    width: int,
    j: float,
    j_prime: float,
    n_samples: int = BZ_SAMPLES_DEFAULT,
):
    """Edge-state prediction for a ribbon of ``width`` cells at fixed ``k_par``.

    ``k_par`` is a float, which gives one :class:`EdgePrediction`, or a 1D
    array, which gives a list of them, one per value, from one array
    computation.  Gapless (k_par at a band-touching point) returns status
    "gapless" with ``edge_states_exist`` None instead of raising.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    k_lanes = np.asarray(k_par, dtype=float)
    if k_lanes.ndim > 1:
        raise ValueError("k_par must be a float or a 1D array")
    predictions = _predict(
        lambda k: ribbon_rho(orientation, k, np.atleast_1d(k_lanes)[:, None], j, j_prime),
        width, n_samples,
    )
    return predictions if k_lanes.ndim else predictions[0]
