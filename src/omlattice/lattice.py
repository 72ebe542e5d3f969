"""Lattice Hamiltonians for arrays of mutually coupled microwave LC resonators.

Every frequency-like quantity in this package is an ordinary frequency
``nu = omega / 2pi`` in Hz: on-site resonance frequencies, coupling rates,
linewidths, eigenfrequencies.  Angular rates appear only inside the
Lorentzian response formulas of :mod:`omlattice.measure`, which convert at
their boundaries.

A coupled lattice of LC resonators is described in the site basis by a
Hermitian matrix ``H`` with ``H[i, i]`` the bare cavity frequency of site
``i`` and ``H[i, j]`` the coupling rate between sites ``i`` and ``j``.
Collective modes are rows of a unitary matrix ``U`` with ``U H U^dag``
diagonal; the energy participation ratio of site ``i`` in mode ``k`` is
``|U[k, i]|**2``.

Two lattice topologies are built from a :class:`LatticeSpec`: the
alternating-coupling 1D chain (two-site unit cells) and a 24-site honeycomb
flake with anisotropic couplings.  :func:`build_ribbon_hamiltonian` builds
the wavenumber-resolved chain of a honeycomb ribbon for edge-state analysis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# Validation tolerances, relative to the largest matrix element unless noted.
HERMITICITY_RTOL = 1e-9
ORTHONORMALITY_ATOL = 1e-10
DEGENERACY_RTOL = 1e-10
SIGN_EPS = 1e-12
STOCHASTICITY_ATOL = 1e-10

_SQRT3 = np.sqrt(3.0)


class Topology(enum.Enum):
    """Supported lattice kinds."""

    SSH_CHAIN = "ssh-chain"
    HONEYCOMB_FLAKE = "honeycomb-flake"


class RibbonOrientation(enum.Enum):
    """Boundary orientation of a honeycomb ribbon relative to the strained bonds.

    The strained (strong, rate ``J``) bonds single out one of the three bond
    orientations.  A ribbon edge can run perpendicular to that axis (plain
    zig-zag / armchair) or tilted with respect to it.  The two mirror-related
    tilted cuts are equivalent and represented once.
    """

    ZIGZAG = "zigzag"
    ARMCHAIR = "armchair"
    TILTED_ZIGZAG = "tilted-zigzag"
    TILTED_ARMCHAIR = "tilted-armchair"


@dataclass(frozen=True)
class Couplings:
    """Named coupling rates in Hz.

    ``j`` and ``j_prime`` are the alternating nearest-neighbor rates (``j``
    intra-cell for the chain, strained-bond rate for the flake).  ``j2`` is
    the second-neighbor parasitic rate; ``j3``/``j3_prime`` are the two
    inequivalent third-neighbor rates of the chain.
    """

    j: float
    j_prime: float
    j2: float = 0.0
    j3: float = 0.0
    j3_prime: float = 0.0

    def __post_init__(self):
        for name in ("j", "j_prime", "j2", "j3", "j3_prime"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"coupling {name!r} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class SiteParams:
    """Per-site physical parameters (all in Hz)."""

    cavity_freq: float
    mech_freq: float
    mech_linewidth: float
    g0: float

    def __post_init__(self):
        # written so that NaN fails every check
        if not (0.0 < self.cavity_freq < np.inf and 0.0 < self.mech_freq < np.inf):
            raise ValueError("cavity_freq and mech_freq must be finite and > 0")
        if not (0.0 <= self.mech_linewidth < np.inf and 0.0 <= self.g0 < np.inf):
            raise ValueError("mech_linewidth and g0 must be finite and >= 0")


@dataclass(frozen=True)
class LatticeSpec:
    """Declarative description of a lattice: topology, per-site and coupling params."""

    kind: Topology
    n_sites: int
    sites: tuple[SiteParams, ...]
    couplings: Couplings

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be positive")
        if len(self.sites) != self.n_sites:
            raise ValueError(f"expected {self.n_sites} site parameter sets, got {len(self.sites)}")
        if self.kind is Topology.SSH_CHAIN and self.n_sites % 2 != 0:
            raise ValueError("chain lattices consist of two-site cells; n_sites must be even")
        if self.kind is Topology.HONEYCOMB_FLAKE and self.n_sites != 24:
            raise ValueError("the honeycomb flake has exactly 24 sites")
        if self.kind is Topology.HONEYCOMB_FLAKE and (self.couplings.j3 or self.couplings.j3_prime):
            raise ValueError("j3/j3_prime are chain couplings; the flake takes j, j_prime, j2")

    @property
    def cavity_freqs(self) -> np.ndarray:
        return np.array([s.cavity_freq for s in self.sites])


@dataclass(frozen=True)
class CouplingHamiltonian:
    """Dense Hermitian lattice Hamiltonian in Hz, with site labels.

    Diagonal entries are bare cavity frequencies, off-diagonal entries the
    coupling rates.  Chain and flake matrices are real symmetric; ribbon
    matrices carry Bloch phases and are complex Hermitian.
    """

    matrix: np.ndarray
    site_labels: tuple[str, ...] = ()

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        scale = np.abs(m).max()
        if scale > 0 and np.abs(m - m.conj().T).max() > HERMITICITY_RTOL * scale:
            raise ValueError("matrix is not Hermitian within tolerance")
        if not np.iscomplexobj(m):
            m = m.astype(float)
        elif np.abs(m.imag).max() <= HERMITICITY_RTOL * max(scale, 1.0):
            m = m.real.astype(float)
        labels = self.site_labels or tuple(f"site{i + 1}" for i in range(m.shape[0]))
        if len(labels) != m.shape[0]:
            raise ValueError("site_labels length does not match matrix size")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "site_labels", tuple(labels))

    @property
    def n_sites(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.matrix)

    def rotating_frame(self) -> "CouplingHamiltonian":
        """Same couplings with the mean cavity frequency subtracted from the diagonal."""
        shifted = self.matrix - np.mean(np.diag(self.matrix).real) * np.eye(self.n_sites)
        return CouplingHamiltonian(shifted, self.site_labels)

    def to_json(self) -> dict:
        data = {"site_labels": list(self.site_labels)}
        if self.is_real:
            data["matrix_hz"] = self.matrix.tolist()
        else:
            data["matrix_re_hz"] = self.matrix.real.tolist()
            data["matrix_im_hz"] = self.matrix.imag.tolist()
        return data


@dataclass(frozen=True)
class ModeSet:
    """Eigenfrequencies (ascending, Hz) and modeshapes, one collective mode per row."""

    eigenfreqs: np.ndarray
    modeshapes: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.eigenfreqs, dtype=float)
        u = np.asarray(self.modeshapes)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or f.shape != (u.shape[0],):
            raise ValueError("modeshapes must be square with one eigenfrequency per row")
        if np.any(np.diff(f) < 0):
            raise ValueError("eigenfrequencies must be ascending")
        gram = u @ u.conj().T
        if np.abs(gram - np.eye(u.shape[0])).max() > ORTHONORMALITY_ATOL:
            raise ValueError("modeshape rows are not orthonormal within tolerance")
        if not np.iscomplexobj(u) or np.abs(u.imag).max() <= ORTHONORMALITY_ATOL:
            u = np.real(u).astype(float)
        object.__setattr__(self, "eigenfreqs", f)
        object.__setattr__(self, "modeshapes", u)

    @property
    def n_modes(self) -> int:
        return self.modeshapes.shape[0]

    def to_json(self) -> dict:
        data = {"eigenfreqs_hz": self.eigenfreqs.tolist()}
        if np.iscomplexobj(self.modeshapes):
            data["modeshapes_re"] = self.modeshapes.real.tolist()
            data["modeshapes_im"] = self.modeshapes.imag.tolist()
        else:
            data["modeshapes"] = self.modeshapes.tolist()
        return data


@dataclass(frozen=True)
class ParticipationMatrix:
    """Doubly stochastic matrix of energy participation ratios, eta[k, i] = |U[k, i]|^2.

    ``floored`` marks entries that were raised to the positivity floor during
    iterative normalization (None when not applicable).
    """

    eta: np.ndarray
    atol: float = STOCHASTICITY_ATOL
    floored: np.ndarray | None = None

    def __post_init__(self):
        e = np.asarray(self.eta, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("participation matrix must be square")
        if e.min() < -self.atol:
            raise ValueError("participation ratios must be non-negative")
        rows = np.abs(e.sum(axis=1) - 1.0).max()
        cols = np.abs(e.sum(axis=0) - 1.0).max()
        if max(rows, cols) > self.atol:
            raise ValueError(
                f"matrix is not doubly stochastic: row dev {rows:.3e}, col dev {cols:.3e}, tol {self.atol:.1e}"
            )
        object.__setattr__(self, "eta", e)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

# The bonds of a chain of two-site cells (sites A, B), each as (coupling,
# from-site, to-site, cell offset, k_par multiplicity): the Couplings field
# named joins the from-site of every cell m to the to-site of cell m + offset,
# with the phase exp(-i multiplicity k_par) on that matrix entry.  The builders
# place them in an open chain; omlattice.topology sums them over k.
_CHAIN_BONDS = (("j", "A", "B", 0, 0), ("j_prime", "B", "A", 1, 0), ("j2", "A", "A", 1, 0),
                ("j2", "B", "B", 1, 0), ("j3", "A", "B", 1, 0), ("j3_prime", "B", "A", 2, 0))
# A ribbon cell is one A-B pair across the width.  Plain cuts put the strained
# rate j on the bond along the width, tilted cuts on another; zig-zag-family
# cuts join neighboring cells by one bond, armchair-family cuts by two.
_RIBBON_BONDS = {
    RibbonOrientation.ZIGZAG:
        (("j_prime", "A", "B", 0, 0), ("j_prime", "A", "B", 0, 1), ("j", "B", "A", 1, 0)),
    RibbonOrientation.ARMCHAIR:
        (("j", "A", "B", 0, 0), ("j_prime", "B", "A", 1, 0), ("j_prime", "A", "B", 1, 1)),
    RibbonOrientation.TILTED_ZIGZAG:
        (("j", "A", "B", 0, 0), ("j_prime", "A", "B", 0, 1), ("j_prime", "B", "A", 1, 0)),
    RibbonOrientation.TILTED_ARMCHAIR:
        (("j_prime", "A", "B", 0, 0), ("j_prime", "B", "A", 1, 0), ("j", "A", "B", 1, 1)),
}


def _cell_pairs(bonds, couplings: Couplings, n_cells: int, k_par: float = 0.0) -> list:
    """(value, i, j) of every bond placed in an open chain of ``n_cells``
    cells (sites A1, B1, A2, B2, ...), in each cell whose partner cell exists."""
    return [(getattr(couplings, name) * np.exp(-1j * par * k_par), 2 * m + "AB".index(site),
             2 * (m + cells) + "AB".index(to_site))
            for name, site, to_site, cells, par in bonds for m in range(n_cells - cells)]


def _place(diagonal, pairs) -> np.ndarray:
    """Hermitian matrix with ``diagonal`` and each (value, i, j) of ``pairs``
    added at [i, j], its conjugate at [j, i]."""
    h = np.diag(np.asarray(diagonal, dtype=complex))
    for value, i, j in pairs:
        h[i, j] += value
        h[j, i] += np.conj(value)
    return h


def build_ssh_chain(n_cells: int, couplings: Couplings, cavity_freqs) -> CouplingHamiltonian:
    """Chain of ``n_cells`` two-site cells with alternating nearest-neighbor couplings.

    Sites are ordered A1, B1, A2, B2, ...; ``j`` couples A-B inside a cell,
    ``j_prime`` couples B to the next cell's A.  ``j2`` couples every pair of
    sites two apart (A-A and B-B alike).  The third-neighbor couplings follow
    the bipartite pattern of the physical layout: ``j3`` couples A_n to
    B_(n+1) (even 0-based site index to index+3) and ``j3_prime`` couples B_n
    to A_(n+2) (odd index to index+3).
    """
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    freqs = np.asarray(cavity_freqs, dtype=float)
    if freqs.shape != (2 * n_cells,):
        raise ValueError(f"expected {2 * n_cells} cavity frequencies, got shape {freqs.shape}")
    if np.any(freqs <= 0):
        raise ValueError("cavity frequencies must be strictly positive")
    return CouplingHamiltonian(_place(freqs, _cell_pairs(_CHAIN_BONDS, couplings, n_cells)))


def flake_site_positions() -> tuple[np.ndarray, tuple[str, ...]]:
    """Canonical geometry of the 24-site honeycomb flake.

    The flake is the seven-hexagon (one central, six surrounding) cut of a
    honeycomb lattice with unit bond length, drawn with the strained bonds
    vertical.  Sites are numbered 1..24 top-to-bottom, left-to-right:

    ==========  =================  ==========
    row (y)     site numbers       sublattice
    ==========  =================  ==========
    +3.0        1  2               A
    +2.5        3  4  5            B
    +1.5        6  7  8            A
    +1.0        9  10 11 12        B
     0.0        13 14 15 16        A
    -0.5        17 18 19           B
    -1.5        20 21 22           A
    -2.0        23 24              B
    ==========  =================  ==========

    Returns the (24, 2) position array (bond lengths of 1) and the
    sublattice label of each site.
    """
    a_sites = [
        (0, 3), (_SQRT3, 3),
        (-_SQRT3 / 2, 1.5), (_SQRT3 / 2, 1.5), (3 * _SQRT3 / 2, 1.5),
        (-_SQRT3, 0), (0, 0), (_SQRT3, 0), (2 * _SQRT3, 0),
        (-_SQRT3 / 2, -1.5), (_SQRT3 / 2, -1.5), (3 * _SQRT3 / 2, -1.5),
    ]
    b_sites = [
        (-_SQRT3 / 2, 2.5), (_SQRT3 / 2, 2.5), (3 * _SQRT3 / 2, 2.5),
        (-_SQRT3, 1), (0, 1), (_SQRT3, 1), (2 * _SQRT3, 1),
        (-_SQRT3 / 2, -0.5), (_SQRT3 / 2, -0.5), (3 * _SQRT3 / 2, -0.5),
        (0, -2), (_SQRT3, -2),
    ]
    tagged = [(x, y, "A") for x, y in a_sites] + [(x, y, "B") for x, y in b_sites]
    tagged.sort(key=lambda s: (-s[1], s[0]))
    positions = np.array([(x, y) for x, y, _ in tagged])
    sublattice = tuple(t for _, _, t in tagged)
    return positions, sublattice


# Indices (1-based) of the four flake sites hosting the gap modes: the two
# topmost and two bottommost sites, attached to the body only by weak bonds.
FLAKE_EDGE_SITES = (1, 2, 23, 24)


def flake_bonds() -> dict[str, list[tuple[int, int]]]:
    """Bond table of the canonical flake, 1-based site pairs.

    * ``strained`` - the 10 vertical bonds, carrying rate ``j``.
    * ``unstrained`` - the 20 zig-zag bonds, carrying rate ``j_prime``.
    * ``second`` - all vertex-sharing pairs beyond nearest neighbors
      (distance sqrt(3), and distance 2 across a hexagon, which is every
      pair at distance 2), carrying ``j2``.

    Each kind is read off one array of the distances between all sites.
    """
    pos, _ = flake_site_positions()
    d = pos - pos[:, None]  # d[i, j] = pos[j] - pos[i]
    r = np.hypot(d[..., 0], d[..., 1])
    # the pairs i < j at distance 1, sqrt(3) and 2
    near, mid, far = (np.triu(np.abs(r - dist) < 1e-9, 1) for dist in (1.0, _SQRT3, 2.0))
    vertical = np.abs(d[..., 0]) < 1e-9
    masks = {"strained": near & vertical, "unstrained": near & ~vertical, "second": mid | far}
    return {kind: [(i + 1, j + 1) for i, j in np.argwhere(mask).tolist()] for kind, mask in masks.items()}


def build_honeycomb_flake(couplings: Couplings, cavity_freqs) -> CouplingHamiltonian:
    """24-site honeycomb flake with anisotropic nearest-neighbor couplings.

    In the canonical drawing (see :func:`flake_site_positions`) the strained
    bond orientation is vertical and carries rate ``j``; the two zig-zag
    orientations carry ``j_prime``.  The four sites 1, 2, 23, 24 attach to
    the body only through ``j_prime`` bonds and host the four gap modes.
    ``j2`` couples every vertex-sharing pair of the triangular-inductor
    layout (honeycomb second and third neighbors).  Third-neighbor chain
    couplings do not apply; ``j3``/``j3_prime`` must be zero.
    """
    freqs = np.asarray(cavity_freqs, dtype=float)
    if freqs.shape != (24,):
        raise ValueError(f"the flake has exactly 24 sites, got {freqs.shape} cavity frequencies")
    if np.any(freqs <= 0):
        raise ValueError("cavity frequencies must be strictly positive")
    if couplings.j3 != 0.0 or couplings.j3_prime != 0.0:
        raise ValueError("j3/j3_prime are chain couplings; the flake takes j, j_prime, j2")

    rates = {"strained": couplings.j, "unstrained": couplings.j_prime, "second": couplings.j2}
    pairs = [(rates[kind], a - 1, b - 1) for kind, bonds in flake_bonds().items() for a, b in bonds]
    return CouplingHamiltonian(_place(freqs, pairs))


def build_ribbon_hamiltonian(
    orientation: RibbonOrientation,
    width: int,
    k_par: float,
    couplings: Couplings,
    cavity_freq: float = 0.0,
) -> CouplingHamiltonian:
    """Wavenumber-resolved 1D chain of a honeycomb ribbon at parallel wavenumber ``k_par``.

    The ribbon is periodic along its edge and open across its width of
    ``width`` two-site cells, so a fixed ``k_par`` reduces it to a 1D chain
    with complex couplings.  For zig-zag-family cuts the intra-cell coupling
    is ``ja + jb * exp(-i k_par)`` and cells are linked by ``jc``; for
    armchair-family cuts the intra-cell coupling is ``jc`` and cells are
    linked both by ``jb`` and by ``ja * exp(-i k_par)`` on the opposite
    sublattice pairing (``jc = j`` on plain cuts, ``ja = j`` on tilted ones,
    ``j_prime`` elsewhere).  The diagonal holds ``cavity_freq``.

    Sites are ordered A1, B1, ..., A_width, B_width.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if not -np.pi <= k_par <= np.pi:
        raise ValueError("k_par must lie in [-pi, pi]")
    if couplings.j2 != 0.0 or couplings.j3 != 0.0 or couplings.j3_prime != 0.0:
        raise ValueError("ribbon cells take only j and j_prime")

    pairs = _cell_pairs(_RIBBON_BONDS[orientation], couplings, width, k_par)
    h = _place(np.full(2 * width, cavity_freq), pairs)
    labels = tuple(f"{ab}{m + 1}" for m in range(width) for ab in ("A", "B"))
    return CouplingHamiltonian(h, labels)


def build_lattice(spec: LatticeSpec) -> CouplingHamiltonian:
    """Build the coupling Hamiltonian described by a :class:`LatticeSpec`."""
    if spec.kind is Topology.SSH_CHAIN:
        return build_ssh_chain(spec.n_sites // 2, spec.couplings, spec.cavity_freqs)
    return build_honeycomb_flake(spec.couplings, spec.cavity_freqs)


# ---------------------------------------------------------------------------
# Diagonalization
# ---------------------------------------------------------------------------

def _canonicalize_degenerate(freqs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Replace eigenvector rows within degenerate clusters by a basis derived
    from the (basis-independent) subspace projector, so ties do not depend on
    the eigensolver's arbitrary choice.

    The basis is a Gram–Schmidt pass over the projector's columns with column
    pivoting (Golub & Van Loan, *Matrix Computations*, 4th ed., §5.4).  Tie
    rule: each step pivots on the lowest-index column whose remaining norm is
    within ``DEGENERACY_RTOL`` (relative) of the largest, so columns whose
    norms tie to rounding are taken in site order whatever basis of the
    cluster the eigensolver returned."""
    scale = max(np.abs(freqs).max(), 1.0)
    out = rows.copy()
    start = 0
    for stop in range(1, len(freqs) + 1):
        if stop < len(freqs) and abs(freqs[stop] - freqs[stop - 1]) <= DEGENERACY_RTOL * scale:
            continue
        if stop - start > 1:
            block = out[start:stop]
            remaining = block.conj().T @ block  # the projector's columns
            for row in range(start, stop):
                norms = np.linalg.norm(remaining, axis=0)
                pivot = np.argmax(norms >= (1 - DEGENERACY_RTOL) * norms.max())
                q = remaining[:, pivot] / norms[pivot]
                remaining -= np.outer(q, q.conj() @ remaining)
                out[row] = q.conj()
        start = stop
    return out


def _apply_sign_convention(rows: np.ndarray) -> np.ndarray:
    """Make the first entry with magnitude above SIGN_EPS of each row real positive."""
    out = rows.copy()
    for row in out:
        above = np.abs(row) > SIGN_EPS
        if not above.any():
            continue
        pivot = row[np.argmax(above)]
        if np.iscomplexobj(out):
            row *= np.conj(pivot) / abs(pivot)
        elif pivot < 0:
            row *= -1.0
    return out


def diagonalize(h: CouplingHamiltonian) -> ModeSet:
    """Eigenfrequencies and modeshapes of a coupling Hamiltonian.

    Eigenfrequencies are ascending.  Modeshape rows are orthonormal with a
    deterministic convention (first entry of each row above 1e-12 in
    magnitude is made real positive); degenerate clusters are re-based from
    the subspace projector before the convention is applied.  A spectrum
    whose span leaves float range raises ``ValueError``.
    """
    m = h.matrix
    try:
        freqs, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        diag = np.diag(m)
        raise np.linalg.LinAlgError(
            f"eigensolver failed on {m.shape[0]}x{m.shape[0]} matrix "
            f"(diag range [{diag.min():.6g}, {diag.max():.6g}], max |entry| {np.abs(m).max():.6g}): {exc}"
        ) from exc
    with np.errstate(over="ignore"):  # an overflow is refused here
        if not np.isfinite(freqs[-1] - freqs[0]):
            raise ValueError(f"eigenfrequencies from {freqs[0]:.6g} to {freqs[-1]:.6g} Hz span "
                             f"beyond float range (largest |entry| {np.abs(m).max():.6g} Hz)")
    rows = vecs.conj().T
    rows = _canonicalize_degenerate(freqs, rows)
    rows = _apply_sign_convention(rows)
    if np.iscomplexobj(rows) and np.abs(rows.imag).max() <= ORTHONORMALITY_ATOL:
        rows = rows.real
    return ModeSet(freqs, rows)


def _check_lc_spectrum(modes: ModeSet) -> None:
    """``ValueError`` unless the lowest eigenfrequency of ``modes`` is
    positive, as in every LC lattice (ribbon cells, written relative to the
    cavity frequency, are not checked)."""
    if not modes.eigenfreqs[0] > 0:
        raise ValueError(f"lowest eigenfrequency {modes.eigenfreqs[0]:.6g} Hz is not positive; an LC lattice "
                         "has no such mode, so the couplings are too large for the cavity frequencies")


def participation(modes: ModeSet) -> ParticipationMatrix:
    """Energy participation ratios eta[k, i] = |psi_i^k|^2 of a mode set."""
    return ParticipationMatrix(np.abs(modes.modeshapes) ** 2)


# The largest disorder strength sigma: at 0.1 a site's factor 1 + N(0, sigma)
# is non-positive with probability 7.6e-24; a larger sigma draws cavity
# frequencies <= 0, which are outside the model.
_MAX_SIGMA = 0.1


def apply_disorder(h: CouplingHamiltonian, sigma: float, seed) -> CouplingHamiltonian:
    """Multiply each diagonal entry by (1 + N(0, sigma)), couplings untouched;
    ``sigma`` lies in [0, ``_MAX_SIGMA``].

    ``seed`` may be an int, a ``numpy.random.SeedSequence`` or a Generator;
    results are reproducible for a fixed seed.
    """
    if not 0 <= sigma <= _MAX_SIGMA:  # written so that NaN fails
        raise ValueError(f"sigma must lie in [0, {_MAX_SIGMA}], got {sigma}")
    rng = np.random.default_rng(seed)
    factors = 1.0 + rng.normal(0.0, sigma, h.n_sites) if sigma > 0 else np.ones(h.n_sites)
    m = h.matrix.copy()
    idx = np.diag_indices(h.n_sites)
    m[idx] = m[idx] * factors
    return CouplingHamiltonian(m, h.site_labels)
