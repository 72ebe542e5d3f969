"""End-to-end modeshape measurement: synthetic datasets and Hamiltonian recovery.

``simulate_measurement`` drives every (collective mode, site) pair at a
sweep of source powers, generates the mechanical ringdown traces, and
packages them with the measured mode frequencies and readout parameters.
``recover`` runs the full analysis chain on such a dataset: ringdown fits,
damping-slope regression, slope inversion, iterative normalization, sign
assignment from a theory reference, orthogonality correction, and
reconstruction of the site-basis Hamiltonian.

Per-trace random seeds derive deterministically from the dataset master
seed, so simulation results are independent of evaluation order.

A saved dataset is a directory holding ``manifest.json``, ``h_true.csv``
and ``traces/traces.npy``, one float64 array of shape ``(2, total
samples)``: row 0 the times, row 1 the powers of every trace, concatenated
in manifest order; each manifest trace entry gives its ``offset`` and
``samples`` in that array.  Datasets of earlier versions, one CSV per trace
named by its entry's ``file``, still load.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lattice import CouplingHamiltonian, ModeSet, ParticipationMatrix, SiteParams, diagonalize, participation
from .measure import (
    MIN_FIT_SAMPLES,
    TWO_PI,
    DampingConfig,
    OrthogonalizationError,
    RingdownFitError,
    RingdownTrace,
    assign_signs,
    damping_slope,
    effective_damping,
    fit_ringdowns,
    orthogonalize,
    reconstruct_hamiltonian,
    sinkhorn_normalize,
    unnormalized_eta,
)

RINGDOWN_DECAY_SPAN = 4.0  # trace length in 1/e power-decay times
NOISE_FLOOR_SIGMAS = 5.0   # keeps the additive floor clear of the clip at zero


@dataclass(frozen=True)
class ModeReadout:
    """Per-collective-mode readout parameters (Hz, dimensionless transmittance)."""

    kappa_tot: float
    kappa_1: float
    kappa_2: float
    transmittance: float = 1.0

    def __post_init__(self):
        if self.kappa_tot <= 0 or min(self.kappa_1, self.kappa_2) < 0:
            raise ValueError("kappa_tot must be positive, kappa_1/kappa_2 >= 0")
        if self.kappa_1 + self.kappa_2 > self.kappa_tot * (1 + 1e-12):
            raise ValueError("kappa_1 + kappa_2 cannot exceed kappa_tot")
        if self.transmittance <= 0:
            raise ValueError("transmittance must be positive")


# Keys that MeasurementDataset.load reads from manifest.json and its entries.
_MANIFEST_KEYS = ("readouts", "traces", "mode_freqs_hz", "mech_freqs_hz", "mech_linewidths_hz",
                  "drive_fluxes", "master_seed", "site_labels")
_READOUT_KEYS = ("kappa_tot_hz", "kappa_1_hz", "kappa_2_hz", "transmittance")
_TRACE_KEYS = ("mode", "site", "power_index", "file")
# Where MeasurementDataset.save puts every trace, relative to the dataset.
TRACE_FILE = "traces/traces.npy"


def _read_manifest(path: Path) -> dict:
    """Load a dataset manifest.  Raise ``io.ConfigError`` when it is not JSON,
    when it, or one of its readout or trace entries, lacks a key that
    :meth:`MeasurementDataset.load` reads (the message names the key), or
    when a trace entry's ``file`` is neither a ``.npy`` nor a ``.csv`` file.
    Entries of a ``.npy`` file also need ``offset`` and ``samples``."""
    from .io import ConfigError  # io imports this module

    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"dataset manifest {path} is not valid JSON: {exc}") from None

    def require(entry, keys, where):
        if not isinstance(entry, dict):
            raise ConfigError(f"dataset manifest {path}: {where or 'top level'} is not an object")
        for key in keys:
            if key not in entry:
                raise ConfigError(f"dataset manifest {path} is missing key '{where}{key}'")

    require(manifest, _MANIFEST_KEYS, "")
    for field, keys in (("readouts", _READOUT_KEYS), ("traces", _TRACE_KEYS)):
        if not isinstance(manifest[field], list):
            raise ConfigError(f"dataset manifest {path}: '{field}' is not a list")
        for i, item in enumerate(manifest[field]):
            require(item, keys, f"{field}[{i}].")
    for i, item in enumerate(manifest["traces"]):
        name = item["file"]
        if not isinstance(name, str) or not name.endswith((".npy", ".csv")):
            raise ConfigError(f"dataset manifest {path}: traces[{i}].file {name!r} "
                              "is neither a .npy nor a .csv file")
        if name.endswith(".npy"):
            require(item, ("offset", "samples"), f"traces[{i}].")
    return manifest


def _read_trace_array(path: Path) -> np.ndarray:
    """The ``(2, total samples)`` float64 array of a ``.npy`` trace file;
    ``io.ConfigError`` naming the file when it holds anything else or is cut
    short."""
    from .io import ConfigError

    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ConfigError(f"dataset trace file {path} is not a readable .npy array: {exc}") from None
    if not isinstance(data, np.ndarray) or data.dtype != np.float64 or data.ndim != 2 \
            or data.shape[0] != 2:
        raise ConfigError(f"dataset trace file {path} must hold a float64 array of shape "
                          f"(2, samples), not {getattr(data, 'dtype', type(data).__name__)} "
                          f"{getattr(data, 'shape', '')}")
    return data


def _slice_trace(data: np.ndarray, entry: dict, path: Path, index: int):
    """Times and powers of manifest trace ``index`` in the array of ``path``."""
    from .io import ConfigError

    offset, samples = entry["offset"], entry["samples"]
    if type(offset) is not int or type(samples) is not int or offset < 0 or samples < 0 \
            or offset + samples > data.shape[1]:
        raise ConfigError(f"dataset trace file {path}: traces[{index}] offset {offset!r} and "
                          f"samples {samples!r} lie outside its {data.shape[1]} samples")
    return data[0, offset:offset + samples], data[1, offset:offset + samples]


def _read_csv_trace(path: Path):
    """Times and powers of a one-trace CSV file (the format of earlier
    versions: a header line, then ``time_s,power`` rows); ``io.ConfigError``
    naming the file when it does not parse as two numeric columns."""
    from .io import ConfigError

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # header-only files
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"dataset trace file {path} does not parse: {exc}") from None
    if data.size and data.shape[1] != 2:
        raise ConfigError(f"dataset trace file {path} has {data.shape[1]} columns, not 2")
    data = data.reshape(-1, 2)
    return data[:, 0], data[:, 1]


@dataclass
class MeasurementDataset:
    """Synthetic ringdown traces plus everything needed to invert them.

    ``traces[(k, i, p)]`` is the ringdown of site ``i`` while driving mode
    ``k`` at source flux ``drive_fluxes[p]``.  ``fit_all`` fills the fitted
    damping rates and per-(mode, site) slope estimates.
    """

    mode_freqs: np.ndarray
    readouts: tuple[ModeReadout, ...]
    mech_freqs: np.ndarray
    mech_linewidths: np.ndarray
    drive_fluxes: np.ndarray
    traces: dict[tuple[int, int, int], RingdownTrace]
    master_seed: int
    site_labels: tuple[str, ...]
    h_true: CouplingHamiltonian | None = None
    fitted_gammas: np.ndarray | None = None
    fitted_errors: np.ndarray | None = None
    slopes: np.ndarray | None = None

    @property
    def n_modes(self) -> int:
        return len(self.mode_freqs)

    @property
    def n_sites(self) -> int:
        return len(self.mech_freqs)

    def damping_config(self, k: int, i: int, flux: float = 1.0, g0: float = 0.0) -> DampingConfig:
        """Measurable drive parameters for mode ``k`` and site ``i`` (red
        detuning equal to the mechanical frequency)."""
        r = self.readouts[k]
        return DampingConfig(
            detuning=self.mech_freqs[i],
            kappa_tot=r.kappa_tot,
            kappa_1=r.kappa_1,
            kappa_2=r.kappa_2,
            drive_flux=flux,
            transmittance=r.transmittance,
            mech_freq=self.mech_freqs[i],
            mech_linewidth=self.mech_linewidths[i],
            g0=g0,
        )

    def fit_all(self, skip_fraction: float = 0.1, gate_sigma: float = 2.0) -> np.ndarray:
        """Fit every ringdown and regress each (mode, site) damping rate
        against the source flux; returns and caches the slope matrix.

        Traces of equal length are stacked and fitted together by the batched
        Levenberg-Marquardt kernel :func:`~omlattice.measure.fit_ringdowns`.
        A trace whose fit fails (no convergence, singular normal equations,
        fewer than ``MIN_FIT_SAMPLES`` samples) gets ``fitted_gammas`` NaN and
        ``fitted_errors`` inf and is left out of its pair's regression.  A
        pair left with fewer than 3 fitted powers gets slope 0, except that a
        sweep of only 2 powers keeps the ungated slope of pairs with both
        fitted.
        Raises :class:`~omlattice.measure.RingdownFitError` only when no
        trace at all could be fitted.

        Slopes smaller than ``gate_sigma`` times their regression standard
        error are set to zero: at modeshape nodes the true slope vanishes and
        the square root taken during inversion would otherwise turn fit noise
        into a positive participation bias.
        """
        n, m, npow = self.n_modes, self.n_sites, len(self.drive_fluxes)
        gammas = np.full((n, m, npow), np.nan)
        errors = np.full((n, m, npow), np.inf)
        by_length: dict[int, list[tuple[int, int, int]]] = {}
        for key, trace in self.traces.items():
            by_length.setdefault(trace.times.size, []).append(key)
        for size, keys in by_length.items():
            if size < MIN_FIT_SAMPLES:
                continue
            gamma, stderr, _ = fit_ringdowns(
                np.stack([self.traces[key].times for key in keys]),
                np.stack([self.traces[key].powers for key in keys]),
                skip_fraction,
            )
            index = tuple(np.array(keys).T)
            gammas[index] = gamma
            errors[index] = stderr
        fitted = np.isfinite(gammas)
        if not fitted.any():
            raise RingdownFitError(f"none of the {len(self.traces)} ringdowns could be fitted")
        count = fitted.sum(axis=2)

        def centered(values):
            values = np.where(fitted, values, 0.0)
            mean = values.sum(axis=2, keepdims=True) / np.maximum(count, 1)[:, :, None]
            return np.where(fitted, values - mean, 0.0)

        # centered closed-form regression over each pair's fitted powers: the
        # raw flux scale (~1e16/s) against an intercept column would make a
        # generic least-squares solve hopelessly ill-conditioned
        x = centered(np.broadcast_to(self.drive_fluxes - self.drive_fluxes.mean(), gammas.shape))
        y = centered(gammas)
        with np.errstate(divide="ignore", invalid="ignore"):
            sxx = (x * x).sum(axis=2)
            slopes = (x * y).sum(axis=2) / sxx
            residual = y - slopes[:, :, None] * x
            slope_err = np.sqrt((residual**2).sum(axis=2) / (count - 2) / sxx)
        slopes = np.where((count > 2) & (slopes < gate_sigma * slope_err), 0.0, slopes)
        slopes = np.where(count >= max(2, min(3, npow)), slopes, 0.0)
        self.fitted_gammas = gammas
        self.fitted_errors = errors
        self.slopes = slopes
        return self.slopes

    # -- persistence ---------------------------------------------------------

    def save(self, directory) -> None:
        """Write the dataset as ``manifest.json``, ``h_true.csv`` and every
        trace in one ``traces/traces.npy`` (layout in the module docstring)."""
        directory = Path(directory)
        (directory / "traces").mkdir(parents=True, exist_ok=True)
        keys = sorted(self.traces)
        offsets = np.cumsum([0] + [self.traces[key].times.size for key in keys]).tolist()
        data = np.empty((2, offsets[-1]))
        for key, offset in zip(keys, offsets):
            trace = self.traces[key]
            data[0, offset:offset + trace.times.size] = trace.times
            data[1, offset:offset + trace.times.size] = trace.powers
        manifest = {
            "mode_freqs_hz": self.mode_freqs.tolist(),
            "readouts": [
                {
                    "kappa_tot_hz": r.kappa_tot,
                    "kappa_1_hz": r.kappa_1,
                    "kappa_2_hz": r.kappa_2,
                    "transmittance": r.transmittance,
                }
                for r in self.readouts
            ],
            "mech_freqs_hz": self.mech_freqs.tolist(),
            "mech_linewidths_hz": self.mech_linewidths.tolist(),
            "drive_fluxes": self.drive_fluxes.tolist(),
            "master_seed": self.master_seed,
            "site_labels": list(self.site_labels),
            "traces": [
                {
                    "mode": k,
                    "site": i,
                    "power_index": p,
                    "drive_flux": self.drive_fluxes[p],
                    "file": TRACE_FILE,
                    "offset": offset,
                    "samples": end - offset,
                    "true_gamma_eff_hz": self.traces[(k, i, p)].true_gamma_eff,
                    "noise_floor": self.traces[(k, i, p)].noise_floor,
                }
                for (k, i, p), offset, end in zip(keys, offsets, offsets[1:])
            ],
        }
        with open(directory / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        if self.h_true is not None:
            self.h_true.to_csv(directory / "h_true.csv")
        np.save(directory / TRACE_FILE, data)

    @classmethod
    def load(cls, directory) -> "MeasurementDataset":
        """Read a dataset written by :meth:`save`, or by earlier versions
        (one CSV per trace).  Raises ``io.ConfigError`` naming the file when
        the manifest or trace data are malformed, ``OSError`` when a file is
        missing."""
        from .io import ConfigError

        directory = Path(directory)
        manifest = _read_manifest(directory / "manifest.json")
        readouts = tuple(
            ModeReadout(r["kappa_tot_hz"], r["kappa_1_hz"], r["kappa_2_hz"], r["transmittance"])
            for r in manifest["readouts"]
        )
        arrays: dict[str, tuple[Path, np.ndarray]] = {}
        traces = {}
        for index, entry in enumerate(manifest["traces"]):
            name = entry["file"]
            if name.endswith(".csv"):
                path = directory / name
                times, powers = _read_csv_trace(path)
            else:
                if name not in arrays:
                    arrays[name] = directory / name, _read_trace_array(directory / name)
                path, data = arrays[name]
                times, powers = _slice_trace(data, entry, path, index)
            try:
                trace = RingdownTrace(
                    times, powers,
                    true_gamma_eff=entry.get("true_gamma_eff_hz"),
                    noise_floor=entry.get("noise_floor", 0.0),
                )
            except ValueError as exc:
                raise ConfigError(f"dataset trace file {path}, traces[{index}]: {exc}") from None
            traces[(entry["mode"], entry["site"], entry["power_index"])] = trace
        h_true = None
        h_path = directory / "h_true.csv"
        if h_path.exists():
            from . import io as _io

            matrix, labels = _io.matrix_from_csv(h_path)
            h_true = CouplingHamiltonian(matrix, labels)
        return cls(
            mode_freqs=np.array(manifest["mode_freqs_hz"]),
            readouts=readouts,
            mech_freqs=np.array(manifest["mech_freqs_hz"]),
            mech_linewidths=np.array(manifest["mech_linewidths_hz"]),
            drive_fluxes=np.array(manifest["drive_fluxes"]),
            traces=traces,
            master_seed=manifest["master_seed"],
            site_labels=tuple(manifest["site_labels"]),
            h_true=h_true,
        )


@dataclass(frozen=True)
class RecoveryResult:
    """Output of the full recovery pipeline."""

    eta_hat: ParticipationMatrix
    u_hat: np.ndarray
    h_hat: CouplingHamiltonian
    iterations_used: int
    residuals: dict


def _pair_configs(readouts: tuple[ModeReadout, ...], sites: tuple[SiteParams, ...],
                  flux=1.0) -> DampingConfig:
    """The drive configurations of every (mode k, site i) pair as one
    broadcasting :class:`DampingConfig`: mode fields vary along axis 0, site
    fields along axis 1 and ``flux`` along axis 2, so a damping formula
    evaluated on it with ``eta[:, :, None]`` returns ``(n, n, flux.size)``."""
    mode = np.array([[r.kappa_tot, r.kappa_1, r.kappa_2, r.transmittance] for r in readouts])
    site = np.array([[s.mech_freq, s.mech_linewidth, s.g0] for s in sites])
    mode, site = mode.T[:, :, None, None], site.T[:, :, None]
    return DampingConfig(
        detuning=site[0], kappa_tot=mode[0], kappa_1=mode[1], kappa_2=mode[2],
        drive_flux=np.atleast_1d(flux), transmittance=mode[3],
        mech_freq=site[0], mech_linewidth=site[1], g0=site[2],
    )


def calibrate_drive_flux(
    h: CouplingHamiltonian,
    sites: tuple[SiteParams, ...],
    readouts: tuple[ModeReadout, ...],
    damping_boost: float = 200.0,
) -> float:
    """Source flux at which the median optomechanical damping rate reaches
    ``damping_boost`` times the median intrinsic mechanical linewidth."""
    slopes = analytic_slope_matrix(h, sites, readouts)
    positive = slopes[slopes > 0]
    if positive.size == 0:
        raise ValueError("all damping slopes vanish; check g0 and couplings")
    target = damping_boost * float(np.median([s.mech_linewidth for s in sites]))
    return target / float(np.median(positive))


def _true_config_from_parts(readout: ModeReadout, site: SiteParams, flux: float) -> DampingConfig:
    return DampingConfig(
        detuning=site.mech_freq,
        kappa_tot=readout.kappa_tot,
        kappa_1=readout.kappa_1,
        kappa_2=readout.kappa_2,
        drive_flux=flux,
        transmittance=readout.transmittance,
        mech_freq=site.mech_freq,
        mech_linewidth=site.mech_linewidth,
        g0=site.g0,
    )


def simulate_measurement(
    h: CouplingHamiltonian,
    sites: tuple[SiteParams, ...],
    readouts: tuple[ModeReadout, ...],
    drive_fluxes,
    master_seed: int,
    snr: float | None = 100.0,
    p0: float = 1.0,
    samples_per_trace: int = 140,
) -> MeasurementDataset:
    """Simulate the ringdown measurement of every (mode, site) pair over a
    power sweep.

    ``snr`` is the ratio of initial sideband power to additive noise standard
    deviation (None or inf for noiseless traces).  Trace length covers
    ``RINGDOWN_DECAY_SPAN`` power-decay times of the true effective damping.
    Trace ``(k, i, p)`` is the one :func:`~omlattice.measure.simulate_ringdown`
    gives for the pair's effective damping at ``drive_fluxes[p]`` with
    ``duration = RINGDOWN_DECAY_SPAN / (2 pi max(gamma_eff, 1e-3))``,
    ``dt = duration / samples_per_trace``, the noise floor of
    ``NOISE_FLOOR_SIGMAS`` noise sigmas and the seed
    ``SeedSequence(master_seed, spawn_key=(k, i, p))``; all traces are
    computed as one ``(n, n, powers, samples)`` block.
    """
    if len(sites) != h.n_sites or len(readouts) != h.n_sites:
        raise ValueError("need one SiteParams and one ModeReadout per site/mode")
    fluxes = np.asarray(drive_fluxes, dtype=float)
    if fluxes.ndim != 1 or fluxes.size < 2 or np.any(fluxes <= 0):
        raise ValueError("drive_fluxes must hold at least two positive values")
    if samples_per_trace < 2:
        raise ValueError("samples_per_trace must be at least 2")
    modes = diagonalize(h)
    eta = participation(modes).eta
    noise_sigma = 0.0 if snr is None or np.isinf(snr) else p0 / snr
    floor = NOISE_FLOOR_SIGMAS * noise_sigma

    gamma = effective_damping(_pair_configs(readouts, sites, fluxes), eta[:, :, None])
    duration = RINGDOWN_DECAY_SPAN / (TWO_PI * np.maximum(gamma, 1e-3))
    # duration / dt rounds to exactly samples_per_trace, the length
    # simulate_ringdown gives
    times = np.arange(samples_per_trace) * (duration / samples_per_trace)[..., None]
    powers = (-TWO_PI * gamma)[..., None] * times
    np.exp(powers, out=powers)
    powers *= p0
    powers += floor
    if noise_sigma > 0:
        for key in np.ndindex(gamma.shape):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=key))
            powers[key] += rng.normal(0.0, noise_sigma, samples_per_trace)
    powers = np.clip(powers, 0.0, None)
    traces = {
        key: RingdownTrace(times[key], powers[key], true_gamma_eff=gamma[key], noise_floor=floor)
        for key in np.ndindex(gamma.shape)
    }
    return MeasurementDataset(
        mode_freqs=modes.eigenfreqs.copy(),
        readouts=tuple(readouts),
        mech_freqs=np.array([s.mech_freq for s in sites]),
        mech_linewidths=np.array([s.mech_linewidth for s in sites]),
        drive_fluxes=fluxes,
        traces=traces,
        master_seed=master_seed,
        site_labels=h.site_labels,
        h_true=h,
    )


def analytic_slope_matrix(
    h: CouplingHamiltonian,
    sites: tuple[SiteParams, ...],
    readouts: tuple[ModeReadout, ...],
) -> np.ndarray:
    """Noise-free damping-power slopes of every (mode, site) pair, from the
    closed-form damping formula (no ringdown simulation)."""
    eta = participation(diagonalize(h)).eta
    return damping_slope(_pair_configs(readouts, sites), eta[:, :, None])[:, :, 0]


def recover_from_slopes(
    slopes: np.ndarray,
    dataset_like,
    reference: ModeSet,
    sinkhorn_tol: float = 1e-12,
    sinkhorn_max_iter: int = 10_000,
    h_true: CouplingHamiltonian | None = None,
) -> RecoveryResult:
    """Core recovery chain from per-(mode, site) slopes.

    ``dataset_like`` provides ``mode_freqs``, ``damping_config`` and
    ``site_labels`` (a :class:`MeasurementDataset` or equivalent).  Mode rows
    and the theory reference are matched by ascending eigenfrequency.  If the
    sign-assigned matrix has negative determinant the last row sign is
    flipped before orthogonalization (participation ratios and the
    reconstructed Hamiltonian are invariant under row sign flips, and the
    matrix-logarithm correction requires a special-orthogonal neighborhood).
    """
    n = slopes.shape[0]
    if slopes.shape != (n, n) or reference.n_modes != n:
        raise ValueError("slope matrix and reference mode set sizes disagree")
    order = np.argsort(reference.eigenfreqs, kind="stable")
    if not np.array_equal(order, np.arange(n)):
        raise ValueError("reference mode set must be in ascending frequency order")

    eta_tilde = np.empty_like(slopes)
    for k in range(n):
        for i in range(n):
            cfg = dataset_like.damping_config(k, i)
            eta_tilde[k, i] = unnormalized_eta(max(slopes[k, i], 0.0), cfg)

    eta_hat, iterations = sinkhorn_normalize(
        eta_tilde, tol=sinkhorn_tol, max_iter=sinkhorn_max_iter
    )
    u_tilde = assign_signs(eta_hat, reference)
    if np.linalg.det(u_tilde) < 0:
        u_tilde = u_tilde.copy()
        u_tilde[-1] *= -1.0
    residuals: dict = {
        "sinkhorn_iterations": iterations,
        "negative_slope_count": int(np.sum(slopes < 0)),
        "pre_orthogonality_defect": float(
            np.abs(u_tilde @ u_tilde.T - np.eye(n)).max()
        ),
    }
    try:
        u_hat = orthogonalize(u_tilde)
        residuals["orthogonalized"] = True
    except OrthogonalizationError as exc:
        u_hat = u_tilde
        residuals["orthogonalized"] = False
        residuals["orthogonalization_error"] = str(exc)
    residuals["orthogonality_defect"] = float(np.abs(u_hat @ u_hat.T - np.eye(n)).max())

    h_hat = reconstruct_hamiltonian(u_hat, dataset_like.mode_freqs, dataset_like.site_labels) \
        if residuals["orthogonalized"] else _reconstruct_unchecked(
            u_hat, dataset_like.mode_freqs, dataset_like.site_labels)
    truth = h_true if h_true is not None else getattr(dataset_like, "h_true", None)
    if truth is not None:
        diff = h_hat.matrix - truth.matrix
        residuals["h_rel_frobenius_error"] = float(
            np.linalg.norm(diff) / np.linalg.norm(truth.matrix)
        )
        rot = h_hat.rotating_frame().matrix - truth.rotating_frame().matrix
        residuals["h_rotframe_max_error_hz"] = float(np.abs(rot).max())
    return RecoveryResult(eta_hat, u_hat, h_hat, iterations, residuals)


def _reconstruct_unchecked(u, freqs, labels) -> CouplingHamiltonian:
    # fallback path when orthogonalization was skipped: symmetrize without
    # demanding tight orthogonality of u
    h = u.conj().T @ (np.asarray(freqs, float)[:, None] * u)
    return CouplingHamiltonian(0.5 * (h + h.conj().T), tuple(labels) if labels else ())


def recover(
    dataset: MeasurementDataset,
    reference: ModeSet,
    skip_fraction: float = 0.1,
    sinkhorn_tol: float = 1e-12,
    sinkhorn_max_iter: int = 10_000,
) -> RecoveryResult:
    """Full recovery from a measurement dataset: ringdown fits, slope
    regression, slope inversion, iterative normalization, sign assignment,
    orthogonality correction, Hamiltonian reconstruction.

    Failed ringdown fits are left out of the slope regression and counted in
    ``residuals["fits_failed"]``.
    """
    slopes = dataset.slopes if dataset.slopes is not None else dataset.fit_all(skip_fraction)
    result = recover_from_slopes(
        slopes, dataset, reference,
        sinkhorn_tol=sinkhorn_tol, sinkhorn_max_iter=sinkhorn_max_iter,
    )
    if dataset.fitted_gammas is not None:
        result.residuals["fits_failed"] = int(np.sum(~np.isfinite(dataset.fitted_gammas)))
    return result


@dataclass
class _SlopeContext:
    """Minimal dataset-like view for :func:`recover_from_slopes`."""

    mode_freqs: np.ndarray
    site_labels: tuple[str, ...]
    readouts: tuple[ModeReadout, ...]
    sites: tuple[SiteParams, ...]
    h_true: CouplingHamiltonian | None = None

    def damping_config(self, k: int, i: int) -> DampingConfig:
        return _true_config_from_parts(self.readouts[k], self.sites[i], 1.0)


def recover_noiseless(
    h: CouplingHamiltonian,
    sites: tuple[SiteParams, ...],
    readouts: tuple[ModeReadout, ...],
    reference: ModeSet | None = None,
    sinkhorn_tol: float = 1e-12,
) -> RecoveryResult:
    """Analytic-slope (noise-free) end-to-end identity run; the reference
    defaults to the diagonalization of ``h`` itself."""
    slopes = analytic_slope_matrix(h, sites, readouts)
    truth_modes = diagonalize(h)
    reference = reference if reference is not None else truth_modes
    context = _SlopeContext(truth_modes.eigenfreqs, h.site_labels, tuple(readouts),
                            tuple(sites), h_true=h)
    return recover_from_slopes(slopes, context, reference, sinkhorn_tol=sinkhorn_tol)
