"""Bulk two-band analysis: winding numbers, Zak phases, and edge-state prediction.

The in-scope lattices reduce to two-band bulk Hamiltonians of the form
``[[eps(k), rho(k)], [conj(rho(k)), eps(k)]]`` with ``rho = |rho| e^{-i phi}``.
The band energies relative to the site resonance are ``eps(k) +- |rho(k)|``;
``eps`` only shifts both bands and does not affect the topology.

Edge states of a truncated chain of N cells exist when two conditions hold:
the Zak phase is pi (equivalently the curve rho(k) winds around the origin),
and the finite-size slope condition ``|d phi / dk| < N + 1`` at the
wavenumber of the band-gap minimum.  The same analysis applies to
wavenumber-resolved honeycomb ribbons via ``rho(k_perp | k_par)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Couplings, RibbonOrientation, ribbon_cell_couplings

BZ_SAMPLES_DEFAULT = 4096
GAP_RTOL = 1e-9
ZAK_SNAP_TOL = np.pi * 1e-6
ZAK_FAIL_TOL = np.pi * 1e-3
MARGINAL_BAND = 0.5

# Honeycomb lattice vectors (unit bond length); the two reciprocal phases
# a1.k and a2.k independently cover [0, 2pi) as k runs over the BZ.
LATTICE_VECTORS = np.array([[np.sqrt(3.0) / 2, 1.5], [-np.sqrt(3.0) / 2, 1.5]])


class GaplessCurveError(ValueError):
    """The bulk curve touches the origin; winding and Zak phase are undefined."""


class OutOfModelError(ValueError):
    """The curve is outside the two-band model class (|winding| > 1)."""


@dataclass(frozen=True)
class BulkCurve:
    """Off-diagonal bulk element sampled over one Brillouin zone.

    ``k`` is a uniform strictly increasing grid over [-pi, pi); the closing
    value rho(pi) = rho(-pi) is checked at construction.  ``phase`` is the
    unwrapped phi(k) with rho = |rho| e^{-i phi}, continued around the loop.
    """

    k: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        rho = np.asarray(self.rho, dtype=complex)
        if k.ndim != 1 or k.shape != rho.shape or k.size < 8:
            raise ValueError("need matching 1D k and rho arrays with at least 8 samples")
        if np.any(np.diff(k) <= 0):
            raise ValueError("k must be strictly increasing")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_function(cls, rho_fn, n_samples: int = BZ_SAMPLES_DEFAULT) -> "BulkCurve":
        k = -np.pi + 2 * np.pi * np.arange(n_samples) / n_samples
        rho = np.asarray(rho_fn(k), dtype=complex)
        lo, hi = complex(rho_fn(-np.pi)), complex(rho_fn(np.pi))
        scale = max(float(np.abs(rho).max()), 1e-300)
        if abs(hi - lo) > 1e-12 * scale:
            raise ValueError("curve does not close: rho(-pi) != rho(pi)")
        return cls(k, rho)

    @property
    def min_abs(self) -> float:
        return float(np.abs(self.rho).min())

    def is_gapped(self, rtol: float | None = None) -> bool:
        """True when the sampled curve stays clear of the origin.

        The default threshold accounts for the sampling resolution: a zero
        can hide between samples whenever min |rho| is comparable to the
        largest per-step movement of the curve.
        """
        if rtol is not None:
            return self.min_abs > rtol * float(np.abs(self.rho).max())
        closed = np.concatenate([self.rho, self.rho[:1]])
        max_step = float(np.abs(np.diff(closed)).max())
        return self.min_abs > max(GAP_RTOL * float(np.abs(self.rho).max()), max_step)

    @property
    def phase(self) -> np.ndarray:
        """Unwrapped phi(k) over the sampled grid (phi = -arg rho)."""
        return np.unwrap(-np.angle(self.rho))

    def total_phase_change(self) -> float:
        """Net change of phi around the closed loop (a multiple of 2 pi)."""
        arg = np.angle(self.rho)
        steps = np.diff(np.concatenate([arg, arg[:1]]))
        steps = (steps + np.pi) % (2 * np.pi) - np.pi
        return float(-np.sum(steps))

    def to_rows(self, couplings: Couplings | None = None):
        """(k, Re rho, Im rho, E-, E+) rows for CSV export."""
        eps = couplings.j2 * np.cos(self.k) if couplings is not None else np.zeros_like(self.k)
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

    def to_json(self) -> dict:
        return {
            "zak": self.zak,
            "winding": self.winding,
            "slope_at_kmin": self.slope_at_kmin,
            "slope_bound": self.slope_bound,
            "edge_states_exist": self.edge_states_exist,
            "status": self.status,
        }


# ---------------------------------------------------------------------------
# Bulk elements
# ---------------------------------------------------------------------------

def bulk_rho_ssh(k, couplings: Couplings):
    """Off-diagonal bulk element of the chain:
    rho(k) = j + j' e^{-ik} + j3 e^{ik} + j3' e^{-2ik}.
    """
    k = np.asarray(k, dtype=float)
    return (
        couplings.j
        + couplings.j_prime * np.exp(-1j * k)
        + couplings.j3 * np.exp(1j * k)
        + couplings.j3_prime * np.exp(-2j * k)
    )


def bulk_bands_ssh(k, couplings: Couplings):
    """Band energies relative to the cavity frequency:
    E(k) = j2 cos(k) -+ |rho(k)|.
    """
    k = np.asarray(k, dtype=float)
    eps = couplings.j2 * np.cos(k)
    mag = np.abs(bulk_rho_ssh(k, couplings))
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


def ribbon_rho(orientation: RibbonOrientation, k_perp, k_par: float, j: float, j_prime: float):
    """Wavenumber-resolved bulk element rho(k_perp | k_par) of a ribbon cut."""
    ja, jb, jc = ribbon_cell_couplings(orientation, j, j_prime)
    k_perp = np.asarray(k_perp, dtype=float)
    if orientation.is_armchair_family:
        return jc + jb * np.exp(-1j * k_perp) + ja * np.exp(1j * (k_perp - k_par))
    return ja + jb * np.exp(-1j * k_par) + jc * np.exp(-1j * k_perp)


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

def winding_number(curve: BulkCurve) -> int:
    """Number of times the closed curve rho(k) encircles the complex origin."""
    if not curve.is_gapped():
        raise GaplessCurveError(
            f"curve reaches |rho| = {curve.min_abs:.3e}; winding undefined on a gapless curve"
        )
    turns = curve.total_phase_change() / (2 * np.pi)
    winding = int(round(abs(turns)))
    if abs(abs(turns) - winding) > 1e-6:
        raise ValueError(f"phase change is not an integer number of turns: {turns!r}")
    return winding


def zak_phase(curve: BulkCurve) -> float:
    """Zak phase (1/2) closed-integral of d phi, snapped to {0, pi}.

    Raises :class:`OutOfModelError` when the raw value is not within
    tolerance of 0 or pi (e.g. |winding| >= 2 curves are outside the
    two-band model class handled here).
    """
    if not curve.is_gapped():
        raise GaplessCurveError("Zak phase undefined on a gapless curve")
    raw = abs(curve.total_phase_change()) / 2.0
    for target in (0.0, np.pi):
        if abs(raw - target) < ZAK_SNAP_TOL:
            _check_consistency(curve, target)
            return target
    if abs(raw - 0.0) < ZAK_FAIL_TOL or abs(raw - np.pi) < ZAK_FAIL_TOL:
        snapped = 0.0 if abs(raw) < abs(raw - np.pi) else np.pi
        _check_consistency(curve, snapped)
        return snapped
    raise OutOfModelError(
        f"Zak integral {raw:.6f} rad is not near 0 or pi; curve is outside the two-band model"
    )


def _check_consistency(curve: BulkCurve, zak: float):
    w = winding_number(curve)
    if (w % 2 == 1) != (zak == np.pi):
        raise OutOfModelError(f"Zak phase {zak} inconsistent with winding {w}")


def _phase_slope(rho_fn, k: float, step: float = 1e-5) -> float:
    """d phi / dk by a wrapped central difference (phi = -arg rho)."""
    d_arg = np.angle(rho_fn(k + step)) - np.angle(rho_fn(k - step))
    d_arg = (d_arg + np.pi) % (2 * np.pi) - np.pi
    return float(-d_arg / (2 * step))


def _locate_kmin(rho_fn, n_coarse: int = 2048) -> float:
    """Wavenumber of minimum |rho|: coarse scan then golden-section refinement."""
    from scipy.optimize import minimize_scalar

    k = -np.pi + 2 * np.pi * np.arange(n_coarse) / n_coarse
    mag = np.abs(rho_fn(k))
    i = int(np.argmin(mag))
    if mag.max() - mag.min() <= 1e-12 * mag.max():
        return float(k[i])  # |rho| constant: any wavenumber is a minimum
    span = 2 * np.pi / n_coarse
    bracket = (k[i] - span, k[i], k[i] + span)
    try:
        res = minimize_scalar(
            lambda x: float(np.abs(rho_fn(x))), bracket=bracket, method="golden",
            options={"xtol": 1e-12},
        )
    except ValueError:
        return float(k[i])  # locally flat around the coarse minimum
    return float(res.x)


def _predict(rho_fn, n_cells: int, n_samples: int) -> EdgePrediction:
    curve = BulkCurve.from_function(rho_fn, n_samples)
    if not curve.is_gapped():
        return EdgePrediction(None, None, None, float(n_cells + 1), None, "gapless")
    z = zak_phase(curve)
    w = winding_number(curve)
    k_min = _locate_kmin(rho_fn)
    slope = _phase_slope(rho_fn, k_min)
    bound = float(n_cells + 1)
    exists = (z == np.pi) and (abs(slope) < bound)
    status = "marginal" if abs(abs(slope) - bound) < MARGINAL_BAND else "ok"
    return EdgePrediction(z, w, slope, bound, exists, status)


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
    prediction = _predict(lambda k: bulk_rho_ssh(k, couplings), n_cells, n_samples)
    if prediction.status == "gapless":
        raise GaplessCurveError("bulk curve is gapless; no edge-state prediction")
    return prediction


def ribbon_edge_prediction(
    orientation: RibbonOrientation,
    k_par: float,
    width: int,
    j: float,
    j_prime: float,
    n_samples: int = BZ_SAMPLES_DEFAULT,
) -> EdgePrediction:
    """Edge-state prediction for a ribbon of ``width`` cells at fixed ``k_par``.

    Gapless (k_par at a band-touching point) returns status "gapless" with
    ``edge_states_exist`` None instead of raising.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    return _predict(
        lambda k: ribbon_rho(orientation, k, k_par, j, j_prime), width, n_samples
    )
