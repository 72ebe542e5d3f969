"""Circuit-level relations: LC cells, inductive coupling, passbands, geometry.

Maps physical circuit parameters (inductance, capacitance, mutual
inductance, drumhead geometry) onto the lattice-model parameters used by
:mod:`omlattice.lattice`, and provides the closed-form two-band results of
the dimerized LC chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import ConfigError

MU_0 = 4e-7 * np.pi  # vacuum permeability [H/m]
# Segment pairs per block of the Neumann quadrature.
_NEUMANN_CHUNK_PAIRS = 1 << 17


@dataclass(frozen=True)
class CircuitCell:
    """A single LC resonator."""

    inductance: float  # H
    capacitance: float  # F

    def __post_init__(self):
        if not (self.inductance > 0 and self.capacitance > 0):
            raise ValueError("inductance and capacitance must be positive")
        if not 0 < self.inductance * self.capacitance < np.inf:
            raise ValueError(f"L * C = {self.inductance} * {self.capacitance} leaves float range")

    @property
    def resonance_freq(self) -> float:
        """f_c = 1 / (2 pi sqrt(LC)) in Hz."""
        return 1.0 / (2 * np.pi * np.sqrt(self.inductance * self.capacitance))


@dataclass(frozen=True)
class WireCurve:
    """3D polyline approximating a conductor path, coordinates in meters.

    A closed loop repeats its first point as the last one.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise ValueError("points must be an (n >= 2, 3) array")
        seglen = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(seglen == 0):
            raise ValueError("consecutive points must be distinct")
        object.__setattr__(self, "points", pts)

    @classmethod
    def circle(cls, radius: float, center=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0),
               n_points: int = 256) -> "WireCurve":
        """Closed circular loop of given radius around ``center``, lying in the
        plane perpendicular to ``normal``."""
        normal = np.asarray(normal, dtype=float)
        normal = normal / np.linalg.norm(normal)
        helper = np.array([1.0, 0.0, 0.0])
        if abs(normal @ helper) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        u = np.cross(normal, helper)
        u /= np.linalg.norm(u)
        v = np.cross(normal, u)
        theta = np.linspace(0.0, 2 * np.pi, n_points + 1)
        pts = (np.asarray(center, dtype=float)[None, :]
               + radius * np.outer(np.cos(theta), u)
               + radius * np.outer(np.sin(theta), v))
        return cls(pts)

    @classmethod
    def from_csv(cls, path) -> "WireCurve":
        """Read an x,y,z polyline (meters, one point per row, the first line may
        be a header); ``ConfigError`` naming the file and line of a bad row."""
        rows = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    row = [float(p) for p in line.split(",")]
                except ValueError:
                    row = []
                if len(row) == 3:
                    rows.append(row)
                elif line.strip() and (row or lineno > 1):
                    raise ConfigError(f"{path} line {lineno}: {line.strip()!r} is not x,y,z")
        return cls(np.array(rows))


def dimer_eigenfrequencies(cell: CircuitCell, mutual: float) -> tuple[float, float]:
    """Eigenfrequencies (f_minus, f_plus) of two identical inductively coupled cells.

    f_+- = f_c / sqrt(1 -+ M/L); the symmetric-current mode is the higher
    one.  Requires |M| < L.
    """
    ratio = mutual / cell.inductance
    if abs(ratio) >= 1.0:
        raise ValueError(f"|M| must be smaller than L (got M/L = {ratio:.4g})")
    f_c = cell.resonance_freq
    return f_c / np.sqrt(1.0 + ratio), f_c / np.sqrt(1.0 - ratio)


def coupling_rate(cell: CircuitCell, mutual: float) -> float:
    """Energy coupling rate J = f_c M / (2 L) of an inductively coupled pair, in Hz."""
    return cell.resonance_freq * mutual / (2.0 * cell.inductance)


def infinite_chain_band(beta: float, cell: CircuitCell, mutual: float,
                        mutual_prime: float) -> tuple[float, float]:
    """Band frequencies of the infinite dimerized chain at Bloch phase ``beta``:
    f = f_c / sqrt(1 -+ sqrt(M^2 + M'^2 + 2 M M' cos beta) / L).
    """
    m_eff = np.sqrt(mutual**2 + mutual_prime**2 + 2 * mutual * mutual_prime * np.cos(beta))
    ratio = m_eff / cell.inductance
    if 1.0 - ratio <= 0.0:
        raise ValueError(f"effective coupling too strong: sqrt(...)/L = {ratio:.4g} >= 1")
    f_c = cell.resonance_freq
    return f_c / np.sqrt(1.0 + ratio), f_c / np.sqrt(1.0 - ratio)


def passband_edges(f_c: float, j: float, j_prime: float) -> dict[str, tuple[float, float]]:
    """Upper/lower passband intervals of the weakly coupled dimerized chain.

    UPB spans f_c + |j - j'| .. f_c + (j + j'); LPB mirrors it below f_c.
    """
    inner = abs(j - j_prime)
    outer = j + j_prime
    return {"upb": (f_c + inner, f_c + outer), "lpb": (f_c - outer, f_c - inner)}


def drumhead_frequency(radius: float, stress: float, density: float) -> float:
    """Fundamental drumhead frequency (Hz) of a tensioned circular membrane:
    f = (1 / 2 pi) (2.4 / R) sqrt(stress / density).
    """
    if radius <= 0 or stress <= 0 or density <= 0:
        raise ValueError("radius, stress and density must be positive")
    return (2.4 / radius) * np.sqrt(stress / density) / (2 * np.pi)


def _resample(points: np.ndarray, n_segments: int):
    """Resample a polyline into n_segments equal-arclength segments; returns
    midpoints and segment vectors."""
    seg = np.diff(points, axis=0)
    seglen = np.linalg.norm(seg, axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seglen)])
    targets = np.linspace(0.0, arc[-1], n_segments + 1)
    nodes = np.empty((n_segments + 1, 3))
    for dim in range(3):
        nodes[:, dim] = np.interp(targets, arc, points[:, dim])
    vec = np.diff(nodes, axis=0)
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    return mid, vec


def mutual_inductance_neumann(a: WireCurve, b: WireCurve, n_segments: int = 1000) -> float:
    """Mutual inductance of two disjoint conductor paths by the Neumann double
    line integral M = (mu0 / 4 pi) sum_ij (dl_a . dl_b) / |r_a - r_b|, with
    midpoint quadrature on ``n_segments`` segments per curve.

    The filament approximation requires the curves to be disjoint; curves
    closer than one segment length (and the self-inductance case a == b) are
    rejected.
    """
    if n_segments < 8:
        raise ValueError("n_segments must be at least 8")
    if a.points.shape == b.points.shape and np.allclose(a.points, b.points):
        raise ValueError("identical curves: self-inductance out of scope")
    mid_a, vec_a = _resample(a.points, n_segments)
    mid_b, vec_b = _resample(b.points, n_segments)
    max_seg = max(np.linalg.norm(vec_a, axis=1).max(), np.linalg.norm(vec_b, axis=1).max())
    # segments of a in row blocks of about _NEUMANN_CHUNK_PAIRS pairs, so that
    # the (rows, n_segments) temporaries stay a few MB at any n_segments
    rows = max(1, _NEUMANN_CHUNK_PAIRS // n_segments)
    total, closest = 0.0, np.inf
    for start in range(0, n_segments, rows):
        block = slice(start, start + rows)
        dist = np.sqrt(sum((mid_a[block, None, k] - mid_b[None, :, k]) ** 2 for k in range(3)))
        closest = min(closest, dist.min())
        total += float(np.sum((vec_a[block] @ vec_b.T) / dist))
    if closest <= max_seg:
        raise ValueError(
            f"curves are closer ({closest:.3e} m) than one segment length "
            f"({max_seg:.3e} m): intersecting or self-inductance out of scope"
        )
    return MU_0 / (4 * np.pi) * total


def coaxial_loop_mutual(r1: float, r2: float, separation: float) -> float:
    """Closed-form mutual inductance of two coaxial circular loops (elliptic
    integrals); independent reference for the Neumann quadrature."""
    from scipy.special import ellipe, ellipk

    k2 = 4 * r1 * r2 / ((r1 + r2) ** 2 + separation**2)
    k = np.sqrt(k2)
    return MU_0 * np.sqrt(r1 * r2) * ((2 / k - k) * ellipk(k2) - (2 / k) * ellipe(k2))
