"""Monte-Carlo ensembles over cavity-frequency disorder.

Fabrication spread of the vacuum-gap capacitors scatters the bare cavity
frequencies; this module quantifies its effect on the spectrum and,
through the hybridization factor ``zeta`` of the two mid-gap modes, on the
edge-state symmetry of finite chains, each given as a :class:`LatticeSpec`
of kind ``ssh-chain``.  Inverting a measured ``zeta`` against the ensemble
bands yields a disorder estimate.

Random numbers come from one counter-based Philox stream per sigma point
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11):
sigma index ``j`` draws from
``Generator(Philox(SeedSequence(master_seed, spawn_key=(j,))))``, and one
``normal(0, sigma, (samples, n_sites))`` call gives the whole block of
relative frequency shifts (none are drawn at sigma = 0).  Hence:

* results are bit-reproducible for a fixed (master_seed, sigma grid, samples);
* each sigma point depends only on master_seed and its sigma index, not on
  the order in which sigma points are evaluated;
* sample ``s`` of sigma index ``j`` is row ``s`` of that block, so an
  ensemble with fewer samples draws a prefix of the same rows;
* results do not depend on the number of CPUs: LAPACK solves each sample's
  matrix on its own, whichever thread and chunk of rows it falls in (see
  :mod:`omlattice._runtime`).

Certainty bands are central percentiles (70% -> [p15, p85],
90% -> [p5, p95]).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._runtime import on_all_cpus, row_chunks
from .lattice import _MAX_SIGMA, LatticeSpec, ParticipationMatrix, Topology, build_lattice

MIN_SAMPLES_FOR_PERCENTILES = 100
MAX_FAILURE_FRACTION = 1e-3
_BAND_PERCENTILES = {0.9: (5.0, 95.0), 0.7: (15.0, 85.0)}


def hybridization_factor(eta, n_cells: int):
    """Edge hybridization of the two mid-gap modes of a 2N-site chain.

    zeta = (r_N + r_(N+1)) / 2 where r_k = min(eta[k, first], eta[k, last]) /
    max(...) for the modes of frequency rank N and N+1 (1-based).  1 means
    equal edge participation (fully hybridized), 0 a mode localized on a
    single edge.  Both-edges-zero degenerate ratios count as 1 (equal).

    ``eta`` is one ``(2N, 2N)`` matrix (modes along rows), which gives a
    float, or a ``(..., 2N, 2N)`` stack, which gives an array of shape
    ``(...)``.  A stack entry holding NaN gives NaN.
    """
    matrix = eta.eta if isinstance(eta, ParticipationMatrix) else np.asarray(eta, dtype=float)
    n = 2 * n_cells
    if matrix.shape[-2:] != (n, n):
        raise ValueError(f"expected a {n}x{n} participation matrix, got {matrix.shape}")
    edges = matrix[..., n_cells - 1:n_cells + 1, :][..., [0, -1]]  # (..., mode, edge)
    lo, hi = edges.min(axis=-1), edges.max(axis=-1)
    ratios = np.divide(lo, hi, out=np.ones_like(lo), where=hi != 0.0)
    zeta = 0.5 * (ratios[..., 0] + ratios[..., 1])
    return float(zeta) if zeta.ndim == 0 else zeta


@dataclass(frozen=True)
class EnsembleResult:
    """Disorder-ensemble statistics per sigma grid point."""

    sigma_grid: np.ndarray
    zeta_mean: np.ndarray
    zeta_p5: np.ndarray
    zeta_p15: np.ndarray
    zeta_p85: np.ndarray
    zeta_p95: np.ndarray
    eigenfreq_mean: np.ndarray  # (n_sigma, n_modes)
    eigenfreq_std: np.ndarray
    samples_per_point: int
    master_seed: int
    failed_samples: int = 0

    def __post_init__(self):
        bands = np.stack([self.zeta_p5, self.zeta_p15, self.zeta_p85, self.zeta_p95])
        if np.any(np.diff(bands, axis=0) < -1e-12):
            raise ValueError("percentile bands must be nested (p5 <= p15 <= p85 <= p95)")

    def band(self, confidence: float) -> tuple[np.ndarray, np.ndarray]:
        if confidence not in _BAND_PERCENTILES:
            raise ValueError(
                f"confidence must be one of {sorted(_BAND_PERCENTILES)} "
                "(the ensemble stores central 70%/90% bands)"
            )
        return (self.zeta_p5, self.zeta_p95) if confidence == 0.9 else (self.zeta_p15, self.zeta_p85)

    def to_rows(self) -> np.ndarray:
        return np.column_stack([
            self.sigma_grid, self.zeta_mean,
            self.zeta_p5, self.zeta_p15, self.zeta_p85, self.zeta_p95,
        ])


def run_ensemble(lattice: LatticeSpec, sigma_grid, samples: int, master_seed: int) -> EnsembleResult:
    """Monte-Carlo sweep over disorder strengths.

    For every sigma, draw the diagonal disorder of all samples as one block
    from the sigma point's Philox stream (see the module docstring),
    diagonalize the disordered matrices, and reduce participation ratios to
    hybridization factors; aggregate means, central percentiles, and
    per-mode eigenfrequency statistics.  ``lattice`` is a
    :class:`LatticeSpec` of kind ``ssh-chain``; anything else raises
    ``ValueError``.

    The samples are diagonalized in chunks of rows on every CPU the
    process may use, as :mod:`omlattice._runtime` describes, with results
    bit-identical whatever the number of CPUs.  A chunk builds its own
    batch and keeps its eigenvectors only until it has their hybridization
    factors, so neither the whole batch nor its eigenvectors are held at
    once.  A
    chunk whose batched eigensolve fails is solved sample by sample; failed
    samples are left out, and more than 0.1% of a sigma point's samples
    failing raises :class:`numpy.linalg.LinAlgError`.  An eigenfrequency
    mean or standard deviation that leaves float range (cavity frequencies
    near the float limit) raises ``ValueError`` naming the sigma point.
    """
    if not (isinstance(lattice, LatticeSpec) and lattice.kind is Topology.SSH_CHAIN):
        got = lattice.kind.value if isinstance(lattice, LatticeSpec) else type(lattice).__name__
        raise ValueError(f"disorder ensembles need a LatticeSpec of kind {Topology.SSH_CHAIN.value}, "
                         f"got {got}")
    h = build_lattice(lattice)
    n = h.n_sites
    sigma_grid = np.asarray(sigma_grid, dtype=float)
    valid = (0 <= sigma_grid) & (sigma_grid <= _MAX_SIGMA)
    if sigma_grid.ndim != 1 or sigma_grid.size == 0 or not valid.all():
        raise ValueError(f"sigma_grid must be a 1D array of values in [0, {_MAX_SIGMA}]")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples < MIN_SAMPLES_FOR_PERCENTILES:
        warnings.warn(
            f"{samples} samples per point is below {MIN_SAMPLES_FOR_PERCENTILES}; "
            "percentile bands will be unreliable",
            stacklevel=2,
        )

    zeta_mean = np.empty(sigma_grid.size)
    zeta_pcts = np.empty((4, sigma_grid.size))
    freq_mean = np.empty((sigma_grid.size, n))
    freq_std = np.empty((sigma_grid.size, n))
    failures = 0

    diag = np.arange(n)
    for j, sigma in enumerate(sigma_grid):
        if sigma > 0:
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(master_seed, spawn_key=(j,))))
            factors = 1.0 + rng.normal(0.0, sigma, (samples, n))
        else:
            factors = np.ones((samples, n))
        freqs = np.empty((samples, n))
        zetas = np.empty(samples)
        failed = np.zeros(samples, dtype=bool)

        def solve(rows):
            block = factors[rows]
            batch = np.repeat(h.matrix[None], len(block), axis=0)
            batch[:, diag, diag] *= block
            try:
                freqs[rows], vecs = np.linalg.eigh(batch)
            except np.linalg.LinAlgError:
                vecs = np.full(batch.shape, np.nan)
                for s, matrix in enumerate(batch, start=rows.start):
                    try:
                        freqs[s], vecs[s - rows.start] = np.linalg.eigh(matrix)
                    except np.linalg.LinAlgError:
                        freqs[s] = np.nan
                        failed[s] = True
            # eta[sample, mode, site] = |eigvec|^2 with modes along rows
            zetas[rows] = hybridization_factor(np.abs(np.swapaxes(vecs, 1, 2)) ** 2, n // 2)

        # cut only now: a sample count beyond memory is refused above, at the
        # first allocation, before a list of its chunks could grow
        on_all_cpus(solve, row_chunks(samples, n * n))
        n_failed = int(failed.sum())
        if n_failed > MAX_FAILURE_FRACTION * samples:
            raise np.linalg.LinAlgError(
                f"the eigensolver failed on {n_failed} of {samples} samples at sigma = {sigma:g} "
                f"(grid point {j}), more than the {MAX_FAILURE_FRACTION:.1%} that are tolerated"
            )
        failures += n_failed
        zetas = np.sort(zetas[np.isfinite(zetas)])
        zeta_mean[j] = zetas.mean()
        zeta_pcts[:, j] = np.percentile(zetas, [5, 15, 85, 95])
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            freq_mean[j] = np.nanmean(freqs, axis=0)
            freq_std[j] = np.nanstd(freqs, axis=0, ddof=1) if samples > 1 else 0.0
        if not (np.isfinite(freq_mean[j]).all() and np.isfinite(freq_std[j]).all()):
            raise ValueError(f"the eigenfrequency mean or standard deviation at sigma = {sigma:g} "
                             f"(grid point {j}) leaves float range")

    return EnsembleResult(
        sigma_grid=sigma_grid,
        zeta_mean=zeta_mean,
        zeta_p5=zeta_pcts[0],
        zeta_p15=zeta_pcts[1],
        zeta_p85=zeta_pcts[2],
        zeta_p95=zeta_pcts[3],
        eigenfreq_mean=freq_mean,
        eigenfreq_std=freq_std,
        samples_per_point=samples,
        master_seed=master_seed,
        failed_samples=failures,
    )


@dataclass(frozen=True)
class ZetaInversion:
    """Disorder interval compatible with a measured hybridization factor."""

    interval: tuple[float, float] | None
    confidence: float
    diagnostic: str

    @property
    def empty(self) -> bool:
        return self.interval is None


def invert_zeta(zeta_measured: float, ensemble: EnsembleResult, confidence: float) -> ZetaInversion:
    """Disorder strengths whose central ``confidence`` band contains the
    measured hybridization factor, as a contiguous interval.

    Band boundaries between grid points are linearly interpolated.  Returns
    an empty result with a diagnostic when no grid point's band contains the
    value.
    """
    if not 0.0 <= zeta_measured <= 1.0:
        raise ValueError("zeta_measured must lie in [0, 1]")
    lower, upper = ensemble.band(confidence)
    sigma = ensemble.sigma_grid
    tol = 1e-9  # band containment up to eigensolver float noise
    inside = (lower - tol <= zeta_measured) & (zeta_measured <= upper + tol)
    if not inside.any():
        return ZetaInversion(
            None, confidence,
            f"zeta={zeta_measured} lies outside every {int(confidence * 100)}% band on the "
            f"sigma grid [{sigma[0]:.4g}, {sigma[-1]:.4g}]",
        )
    first = int(np.argmax(inside))
    last = int(len(inside) - 1 - np.argmax(inside[::-1]))
    if not inside[first:last + 1].all():
        # non-contiguous acceptance (percentile noise); report the hull
        gaps = int(np.sum(~inside[first:last + 1]))
        note = f"; {gaps} interior grid points excluded by percentile noise, reporting the hull"
    else:
        note = ""

    lo_sigma = sigma[first]
    if first > 0:
        # zeta crossed the lower boundary curve between first-1 and first
        y0, y1 = lower[first - 1], lower[first]
        if y0 > zeta_measured >= y1 and y0 != y1:
            lo_sigma = sigma[first - 1] + (y0 - zeta_measured) * (
                sigma[first] - sigma[first - 1]) / (y0 - y1)
    hi_sigma = sigma[last]
    if last < len(sigma) - 1:
        y0, y1 = upper[last], upper[last + 1]
        if y0 >= zeta_measured > y1 and y0 != y1:
            hi_sigma = sigma[last] + (y0 - zeta_measured) * (
                sigma[last + 1] - sigma[last]) / (y0 - y1)
    return ZetaInversion(
        (float(lo_sigma), float(hi_sigma)), confidence,
        f"{int(confidence * 100)}% band contains zeta on {int(inside.sum())} grid points{note}",
    )
