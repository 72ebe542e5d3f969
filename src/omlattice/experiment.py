"""End-to-end modeshape measurement: synthetic datasets and Hamiltonian recovery.

``simulate_measurement`` drives every (collective mode, site) pair at a
sweep of source powers, generates the mechanical ringdown traces, and
packages them with the measured mode frequencies and readout parameters.
``recover`` runs the full analysis chain on such a dataset: ringdown fits,
damping-slope regression, slope inversion, iterative normalization, sign
assignment from a theory reference, orthogonality correction, and
reconstruction of the site-basis Hamiltonian.

A saved dataset is a directory holding ``manifest.json``, ``h_true.csv``
and ``traces/traces.npy``.  The manifest (``"format": 3``) holds the
dataset's parameters, ``samples``, ``true_gamma_eff_hz`` (null where
unknown) and ``noise_floor``.  ``traces.npy`` is one float64 array of shape
``(2, total samples)``: row 0 the times, row 1 the powers of every present
trace, concatenated in C order over (mode, site, power).  ``load`` reads
format 3 only.
"""

from __future__ import annotations

import json
import operator
import warnings
from collections.abc import Callable, Mapping
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from ._runtime import on_all_cpus, row_chunks
from .io import ConfigError, matrix_from_csv, matrix_to_csv
from .lattice import (CouplingHamiltonian, ModeSet, ParticipationMatrix, SiteParams, _check_lc_spectrum,
                      diagonalize, participation)
from .measure import (
    MIN_FIT_SAMPLES,
    TWO_PI,
    DampingConfig,
    ModeReadout,
    OrthogonalizationError,
    RingdownFitError,
    RingdownTrace,
    _hamiltonian_from_modes,
    assign_signs,
    damping_slope,
    fit_ringdowns,
    orthogonalize,
    sinkhorn_normalize,
    trace_fault,
    unnormalized_eta,
)

RINGDOWN_DECAY_SPAN = 4.0  # trace length in 1/e power-decay times
NOISE_FLOOR_SIGMAS = 5.0   # keeps the additive floor clear of the clip at zero
SLOPE_GATE_SIGMAS = 2.0    # slopes below this many standard errors are set to zero
DRIVE_DAMPING_BOOST = 200.0  # calibrated damping over the median intrinsic linewidth


# The manifest format MeasurementDataset.save writes and load reads.
MANIFEST_FORMAT = 3
# The keys of a readout entry, in ModeReadout's field order.
_READOUT_KEYS = ("kappa_tot_hz", "kappa_1_hz", "kappa_2_hz", "transmittance")
# Where MeasurementDataset.save puts every trace, relative to the dataset.
TRACE_FILE = "traces/traces.npy"
# MeasurementDataset.load refuses a dataset whose traces, padded to the
# longest, would take more than MAX_PADDING times their own samples plus
# PADDING_ALLOWANCE.
MAX_PADDING = 4
PADDING_ALLOWANCE = 2**16


@dataclass(frozen=True)
class _Field:
    """A manifest field: its JSON type (``number``, ``integer``, ``text`` or
    ``readout``, an object of the :data:`_READOUT_KEYS`), the axes its array
    spans (none: a scalar) and the rule each entry must pass, as text and as
    a test of the whole array."""

    type: str
    size: tuple[str, ...]
    rule: str
    ok: Callable[[np.ndarray], np.ndarray]


# Every field of a dataset manifest besides its "format", in the order they
# are checked; an axis takes its size from the first field that spans it.
# The MeasurementDataset attribute of a field is its name without "_hz".
_FIELDS = {
    # recover_from_slopes matches mode rows to the reference by index
    "mode_freqs_hz": _Field("number", ("n",), "finite > 0 and non-decreasing",
                            lambda a: (0 < a) & (a < np.inf) & (np.diff(a, prepend=0) >= 0)),
    "mech_freqs_hz": _Field("number", ("n",), "finite > 0", lambda a: (0 < a) & (a < np.inf)),
    "mech_linewidths_hz": _Field("number", ("n",), "finite >= 0", lambda a: (0 <= a) & (a < np.inf)),
    # a site label is a header cell of the CSV files recover writes
    "site_labels": _Field("text", ("n",), "without ',' or line break",
                          lambda a: (np.char.find(a, ",") < 0) & (np.char.find(a, "\n") < 0)),
    "readouts": _Field("readout", ("n",), f"the keys {', '.join(_READOUT_KEYS)}, which ModeReadout "
                       "accepts", None),
    "drive_fluxes": _Field("number", ("powers",), "finite > 0, at least 2",
                           lambda a: (0 < a) & (a < np.inf) & (a.size >= 2)),
    "master_seed": _Field("integer", (), ">= 0", lambda a: a >= 0),
    "samples": _Field("integer", ("n", "n", "powers"), ">= 0", lambda a: a >= 0),
    "true_gamma_eff_hz": _Field("number", ("n", "n", "powers"), "finite >= 0, or null",
                                lambda a: np.isnan(a) | ((0 <= a) & (a < np.inf))),
    "noise_floor": _Field("number", (), "finite >= 0", lambda a: (0 <= a) & (a < np.inf)),
}


def _first_bad(key: str, field: _Field, value: np.ndarray) -> str | None:
    """The first entry of the array ``value`` of ``field`` that breaks its
    rule, as ``key[i, j] = entry`` (``key = entry`` for a scalar), or None."""
    bad = np.argwhere(~np.atleast_1d(np.asarray(field.ok(value), dtype=bool))).tolist()
    if not bad:
        return None
    return f"{key}{bad[0]} = {value[tuple(bad[0])].item()!r}" if field.size \
        else f"{key} = {value.item()!r}"


# The JSON types an entry of a field of each type may have; np.array would
# read true as 1 in a number array and 7 as "7" among texts.
_ENTRY_TYPES = {"number": {int, float, type(None)}, "readout": {int, float}, "integer": {int},
                "text": {str}}


def _as_array(raw, kind: str) -> np.ndarray | None:
    """``raw`` as an array of the field type ``kind`` (numbers and readout
    rows as floats, null as NaN), or None when it is not of that type."""
    try:
        if kind == "readout":
            raw = [[entry[key] for key in _READOUT_KEYS] for entry in raw]
        elif kind == "integer" and type(raw) is int:  # also one that int64 cannot hold
            return np.array(raw, dtype=object)
        array = np.array(raw)
        if array.dtype == object and kind == "number":
            array = np.array(np.where(np.equal(array, None), np.nan, array).tolist())
    except (KeyError, TypeError, ValueError):  # ValueError: ragged lists
        return None
    if array.dtype.kind not in {"integer": "iu", "text": "U"}.get(kind, "iuf") \
            or not set(map(type, np.array(raw, dtype=object).flat)) <= _ENTRY_TYPES[kind]:
        return None
    return array.astype(float) if kind in ("number", "readout") else array


def read_manifest(path: Path) -> dict:
    """The checked values of the :data:`_FIELDS` of the format-3 dataset
    manifest at ``path``: arrays, scalars, and tuples for ``site_labels`` and
    ``readouts`` (of :class:`~omlattice.measure.ModeReadout`).
    ``io.ConfigError`` naming the manifest and the key on any violation."""
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"dataset manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"dataset manifest {path}: top level is not an object")
    if "format" not in manifest:
        raise ConfigError(f"dataset manifest {path} is from an earlier version (no 'format' key); "
                          f"this version reads format {MANIFEST_FORMAT} only: convert it with "
                          "tools/upgrade_dataset.py of commit eca01cc4fd09")
    found = manifest["format"]
    if type(found) is not int or found != MANIFEST_FORMAT:
        raise ConfigError(f"dataset manifest {path} has unknown format {found!r}; "
                          f"this version reads format {MANIFEST_FORMAT}")
    sizes, values = {}, {}
    for key, field in _FIELDS.items():
        if key not in manifest:
            raise ConfigError(f"dataset manifest {path} is missing key '{key}'")
        # with the sizes known before this field: "4 × 4 × 5 integers", "n numbers", "one number"
        what = " × ".join(str(sizes.get(axis, axis)) for axis in field.size) + f" {field.type}s" \
            if field.size else f"one {field.type}"
        value, got = _as_array(manifest[key], field.type), None
        ndim = len(field.size) + (field.type == "readout")  # a readout is a row of numbers
        if value is None or value.ndim != ndim or value.size == 0 \
                or not all(sizes.setdefault(axis, n) == n for axis, n in zip(field.size, value.shape)):
            got = repr(manifest[key])[:80]
        elif field.type == "readout":
            readouts = []
            for i, row in enumerate(value.tolist()):
                try:
                    readouts.append(ModeReadout(*row))
                except ValueError as exc:
                    got = f"readouts[{i}]: {exc}"
                    break
            value = tuple(readouts)
        else:
            got = _first_bad(key, field, value)
            if got and not field.size:  # a scalar as the manifest has it
                got = repr(manifest[key])
        if got:
            raise ConfigError(f"dataset manifest {path}: '{key}' must be {what}: {field.rule}; "
                              f"got {got}")
        values[key] = tuple(value.tolist()) if field.type == "text" else \
            value if field.size else value.item()
    return values


def _read_trace_array(path: Path) -> np.ndarray:
    """The ``(2, total samples)`` float64 array of a ``.npy`` trace file;
    ``io.ConfigError`` naming the file when it holds anything else or is cut
    short."""
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


def _read_traces(samples: np.ndarray, path: Path, trace_path: Path) -> dict:
    """The ``times`` and ``powers`` of a format-3 dataset whose manifest
    ``path`` gives the trace ``samples``; ``io.ConfigError`` naming a file
    when they disagree, when padding every trace to the longest would hold
    more than :data:`MAX_PADDING` times their samples plus
    :data:`PADDING_ALLOWANCE` (one long trace among many short or missing
    ones would otherwise blow the dense arrays up), or when a trace is not a
    valid ringdown."""
    data = _read_trace_array(trace_path)
    width = data.shape[1]
    # a length beyond the file's width is checked first: it cannot fit, and
    # it keeps the sum clear of integer overflow
    if samples.max(initial=0) > width or samples.sum() != width:
        raise ConfigError(f"dataset trace file {trace_path} holds {width} samples per row, but "
                          f"the trace lengths in {path} ('samples') add up to {samples.sum()}")
    longest = int(samples.max(initial=0))
    if samples.size * longest > MAX_PADDING * width + PADDING_ALLOWANCE:
        raise ConfigError(f"dataset manifest {path}: padding its {samples.size} traces to the longest "
                          f"({longest} samples) would hold {samples.size * longest} samples for "
                          f"{width} samples of data")
    present = np.arange(longest) < samples[..., None]
    times, powers = np.zeros((2,) + present.shape)
    times[present], powers[present] = data
    fault = trace_fault(times, powers, samples)
    if fault is not None:
        (k, i, p), rule = fault
        raise ConfigError(f"dataset trace file {trace_path}, trace of mode {k}, site {i}, "
                          f"power_index {p}: {rule}")
    return dict(times=times, powers=powers)


def _read_h_true(path: Path, n_modes: int) -> CouplingHamiltonian:
    """The ground-truth Hamiltonian of a dataset of ``n_modes`` modes, from
    its ``h_true.csv`` at ``path``; ``io.ConfigError`` naming the file when
    it is not a finite Hermitian matrix of that size below a header of site
    labels."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a file without data rows
            h = CouplingHamiltonian(*matrix_from_csv(path))
    except (ValueError, UserWarning) as exc:
        raise ConfigError(f"dataset file {path} is not a Hermitian matrix below a header of site "
                          f"labels: {exc}") from None
    if h.n_sites != n_modes or not np.isfinite(h.matrix).all():
        raise ConfigError(f"dataset file {path} must hold a finite {n_modes} × {n_modes} matrix, got "
                          f"{h.n_sites} × {h.n_sites} with {np.sum(~np.isfinite(h.matrix))} non-finite "
                          "entries")
    return h


class _TraceView(Mapping):
    """The present traces (``samples > 0``) of a :class:`MeasurementDataset`
    as a read-only mapping from (mode, site, power_index) to a
    :class:`~omlattice.measure.RingdownTrace` copied from its arrays."""

    def __init__(self, dataset: "MeasurementDataset"):
        self._dataset = dataset

    def __getitem__(self, key) -> RingdownTrace:
        ds = self._dataset
        try:
            index = tuple(operator.index(x) for x in key)
            size = ds.samples[index] if len(index) == ds.samples.ndim and min(index) >= 0 else 0
        except (TypeError, IndexError):
            size = 0
        if size == 0:
            raise KeyError(key)
        gamma = ds.true_gamma_eff[index]
        return RingdownTrace(ds.times[index][:size].copy(), ds.powers[index][:size].copy(),
                             true_gamma_eff=None if np.isnan(gamma) else float(gamma),
                             noise_floor=ds.noise_floor)

    def __iter__(self):
        return iter(map(tuple, np.argwhere(self._dataset.samples > 0).tolist()))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._dataset.samples))


@dataclass
class MeasurementDataset:
    """Synthetic ringdown traces plus everything needed to invert them.

    Trace ``(k, i, p)`` is the ringdown of site ``i`` while driving mode
    ``k`` at source flux ``drive_fluxes[p]``: the first ``samples[k, i, p]``
    entries of ``times[k, i, p]`` and ``powers[k, i, p]`` (none when the
    trace is missing), with the generator's damping rate
    ``true_gamma_eff[k, i, p]`` (NaN when unknown).  ``traces`` gives them as
    :class:`~omlattice.measure.RingdownTrace` objects.  ``fit_all`` fills
    the fitted damping rates and per-(mode, site) slope estimates.
    """

    mode_freqs: np.ndarray
    readouts: tuple[ModeReadout, ...]
    mech_freqs: np.ndarray
    mech_linewidths: np.ndarray
    drive_fluxes: np.ndarray
    times: np.ndarray
    powers: np.ndarray
    samples: np.ndarray
    true_gamma_eff: np.ndarray
    noise_floor: float
    master_seed: int
    site_labels: tuple[str, ...]
    h_true: CouplingHamiltonian | None = None
    fitted_gammas: np.ndarray | None = field(default=None, init=False)
    fitted_errors: np.ndarray | None = field(default=None, init=False)
    slopes: np.ndarray | None = field(default=None, init=False)

    @property
    def traces(self) -> _TraceView:
        """Read-only mapping of the present traces (see :class:`_TraceView`)."""
        return _TraceView(self)

    @property
    def n_modes(self) -> int:
        return len(self.mode_freqs)

    def fit_all(self) -> np.ndarray:
        """Fit every ringdown and regress each (mode, site) damping rate
        against the source flux; returns and caches the slope matrix.

        All traces are fitted by one call of the batched variable-projection
        kernel :func:`~omlattice.measure.fit_ringdowns`, or one call per
        trace length when lengths differ.
        A trace whose fit fails (no convergence, singular normal equations,
        no decay the initial guess can locate, fewer than
        ``MIN_FIT_SAMPLES`` samples) or that is missing gets
        ``fitted_gammas`` NaN and ``fitted_errors`` inf and is left out of
        its pair's regression.  A pair left with fewer than 3 fitted powers
        gets slope 0, except that a sweep of only 2 powers keeps the ungated
        slope of pairs with both fitted.
        Raises :class:`~omlattice.measure.RingdownFitError` only when no
        trace at all could be fitted.

        Slopes smaller than ``SLOPE_GATE_SIGMAS`` times their regression
        standard error are set to zero: at modeshape nodes the true slope
        vanishes and the square root taken during inversion would otherwise
        turn fit noise into a positive participation bias.
        """
        shape, npow = self.samples.shape, len(self.drive_fluxes)
        lengths = self.samples.reshape(-1)
        times = self.times.reshape(lengths.size, self.times.shape[-1])
        powers = self.powers.reshape(lengths.size, self.powers.shape[-1])
        gammas = np.full(lengths.size, np.nan)
        errors = np.full(lengths.size, np.inf)
        sizes = np.unique(lengths)
        for size in sizes[sizes >= MIN_FIT_SAMPLES]:
            # a boolean mask copies the rows it picks; a slice does not
            rows = lengths == size if sizes.size > 1 else slice(None)
            gammas[rows], errors[rows], _ = fit_ringdowns(times[rows, :size], powers[rows, :size])
        gammas, errors = gammas.reshape(shape), errors.reshape(shape)
        fitted = np.isfinite(gammas)
        if not fitted.any():
            raise RingdownFitError(f"none of the {np.count_nonzero(self.samples)} ringdowns could be fitted")
        count = fitted.sum(axis=2)

        def centered(values):
            values = np.where(fitted, values, 0.0)
            mean = values.sum(axis=2, keepdims=True) / np.maximum(count, 1)[:, :, None]
            return np.where(fitted, values - mean, 0.0)

        # centered closed-form regression over each pair's fitted powers: the
        # raw flux scale (~1e16/s) against an intercept column would make a
        # generic least-squares solve hopelessly ill-conditioned.  The fluxes,
        # and each pair's centered rates, are scaled by a power of two to at
        # most 1, which is exact, so that no mean or sum of squares leaves
        # float range at any drive; the slope is scaled back at the end
        flux_exp = np.frexp(self.drive_fluxes.max())[1]
        fluxes = np.ldexp(self.drive_fluxes, -flux_exp)
        x = centered(np.broadcast_to(fluxes - fluxes.mean(), gammas.shape))
        y = centered(gammas)
        rate_exp = np.frexp(np.abs(y).max(axis=2))[1]
        y = np.ldexp(y, -rate_exp[:, :, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            sxx = (x * x).sum(axis=2)
            slopes = (x * y).sum(axis=2) / sxx
            residual = y - slopes[:, :, None] * x
            slope_err = np.sqrt((residual**2).sum(axis=2) / (count - 2) / sxx)
        slopes = np.where((count > 2) & (slopes < SLOPE_GATE_SIGMAS * slope_err), 0.0, slopes)
        slopes = np.where(count >= max(2, min(3, npow)), np.ldexp(slopes, rate_exp - flux_exp), 0.0)
        self.fitted_gammas = gammas
        self.fitted_errors = errors
        self.slopes = slopes
        return self.slopes

    # -- persistence ---------------------------------------------------------

    def save(self, directory) -> None:
        """Write the dataset as ``manifest.json`` (format 3), ``h_true.csv``
        and ``traces/traces.npy`` (layouts in the module docstring).  Raises
        ``ValueError``, before any file is written, naming the field and its
        first bad entry when a field breaks its rule in :data:`_FIELDS`, or
        naming ``h_true`` when it is complex: files hold real matrices only."""
        if self.h_true is not None and np.iscomplexobj(self.h_true.matrix):
            raise ValueError("cannot save the dataset: 'h_true' is complex; h_true.csv holds real "
                             "matrices only")
        manifest = {"format": MANIFEST_FORMAT}
        for key, field in _FIELDS.items():
            value = getattr(self, key.removesuffix("_hz"))
            if field.type == "readout":
                value = [dict(zip(_READOUT_KEYS, astuple(r))) for r in value]
            else:  # checked here, so that load never refuses what save wrote
                bad = _first_bad(key, field, np.asarray(value))
                if bad:
                    raise ValueError(f"cannot save the dataset: '{key}' must be {field.rule}; "
                                     f"got {bad}")
                if field.type == "number":
                    value = np.where(np.isnan(value), None, value)  # NaN, unknown, is null
            manifest[key] = np.asarray(value).tolist()
        directory = Path(directory)
        (directory / "traces").mkdir(parents=True, exist_ok=True)
        present = np.arange(self.times.shape[-1]) < self.samples[..., None]
        # json.dumps without indent runs the C encoder; json.dump never does
        with open(directory / "manifest.json", "w") as fh:
            fh.write(json.dumps(manifest, sort_keys=True))
        if self.h_true is not None:
            matrix_to_csv(directory / "h_true.csv", self.h_true.matrix, self.h_true.site_labels)
        np.save(directory / TRACE_FILE, np.stack((self.times[present], self.powers[present])))

    @classmethod
    def load(cls, directory) -> "MeasurementDataset":
        """Read a dataset written by :meth:`save` (format 3).  Raises
        ``io.ConfigError`` naming the file when the manifest, trace data or
        ``h_true.csv`` are malformed or the manifest is of an earlier
        version (the message names the last commit with a converter),
        ``OSError`` when a file is missing."""
        directory = Path(directory)
        path, h_path = directory / "manifest.json", directory / "h_true.csv"
        values = read_manifest(path)
        arrays = _read_traces(values["samples"], path, directory / TRACE_FILE)
        h_true = _read_h_true(h_path, values["mode_freqs_hz"].size) if h_path.exists() else None
        return cls(**{key.removesuffix("_hz"): value for key, value in values.items()}, **arrays,
                   h_true=h_true)


@dataclass(frozen=True)
class RecoveryResult:
    """Output of the full recovery pipeline."""

    eta_hat: ParticipationMatrix
    u_hat: np.ndarray
    h_hat: CouplingHamiltonian
    residuals: dict


def _pair_configs(readouts: tuple[ModeReadout, ...], mech_freqs, g0) -> DampingConfig:
    """The red-detuned drive configurations (detuning equal to the mechanical
    frequency) of every (mode k, site i) pair, at unit flux and no intrinsic
    linewidth, as one broadcasting :class:`DampingConfig`: mode fields vary
    along axis 0, the site arrays ``mech_freqs`` and ``g0`` (or scalars)
    along axis 1."""
    mode = np.array([(r.kappa_tot, r.kappa_1, r.kappa_2, r.transmittance) for r in readouts]).T[:, :, None]
    freq = np.asarray(mech_freqs, dtype=float)
    return DampingConfig(
        detuning=freq, kappa_tot=mode[0], kappa_1=mode[1], kappa_2=mode[2], drive_flux=1.0,
        transmittance=mode[3], mech_freq=freq, mech_linewidth=0.0, g0=np.asarray(g0, dtype=float),
    )


def _closed_form_slopes(h: CouplingHamiltonian, sites: tuple[SiteParams, ...],
                        readouts: tuple[ModeReadout, ...]) -> tuple[ModeSet, np.ndarray]:
    """The modes of ``h`` and the closed-form damping-power slopes (Hz s) of
    every (mode, site) pair; ``ValueError`` for a size mismatch or a
    non-positive lowest eigenfrequency."""
    if len(sites) != h.n_sites or len(readouts) != h.n_sites:
        raise ValueError("need one SiteParams and one ModeReadout per site/mode")
    modes = diagonalize(h)
    _check_lc_spectrum(modes)
    config = _pair_configs(readouts, [s.mech_freq for s in sites], [s.g0 for s in sites])
    return modes, damping_slope(config, participation(modes).eta)


def _refuse_empty_slopes(slopes: np.ndarray) -> None:
    """``ValueError`` naming the mode rows and site columns of ``slopes``
    without a positive entry: a recovery would normalize them from floored
    entries alone."""
    empty_modes, empty_sites = (np.flatnonzero(~(slopes > 0).any(axis=axis)).tolist() for axis in (1, 0))
    if empty_modes or empty_sites:
        raise ValueError(f"no positive damping-power slope for modes {empty_modes} and sites {empty_sites}; "
                         "a recovery needs one in every mode row and site column")


def calibrate_drive_flux(
    h: CouplingHamiltonian,
    sites: tuple[SiteParams, ...],
    readouts: tuple[ModeReadout, ...],
) -> float:
    """Source flux at which the median optomechanical damping rate reaches
    ``DRIVE_DAMPING_BOOST`` times the median intrinsic mechanical linewidth.
    Slopes beyond float range, a mode row or site column without a positive
    slope (which :func:`recover_from_slopes` refuses), and a flux that is not
    finite and > 0 (as from a median linewidth of 0), raise ``ValueError``
    naming them, as do the refusals of :func:`analytic_slope_matrix`."""
    with np.errstate(over="ignore"):  # an overflow is refused below
        _, slopes = _closed_form_slopes(h, sites, readouts)
    if not np.isfinite(slopes).all():
        raise ValueError(f"damping slopes must be finite, got {np.sum(~np.isfinite(slopes))} non-finite "
                         f"of {slopes.size}; check g0 and couplings")
    _refuse_empty_slopes(slopes)
    positive = slopes[slopes > 0]
    width, slope = float(np.median([s.mech_linewidth for s in sites])), float(np.median(positive))
    flux = DRIVE_DAMPING_BOOST * width / slope
    if not 0 < flux < np.inf:
        raise ValueError(f"the calibrated drive flux {DRIVE_DAMPING_BOOST:g} × median linewidth {width:g} "
                         f"Hz / median positive damping slope {slope:g} Hz s = {flux:g} must be finite "
                         "and > 0")
    return flux


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

    ``snr`` (> 0) is the ratio of the initial sideband power ``p0`` (finite,
    > 0) to the additive noise standard deviation (None or inf for noiseless
    traces).  Trace length covers ``RINGDOWN_DECAY_SPAN`` power-decay times of
    the true effective damping.  Trace ``(k, i, p)`` is the noiseless one
    :func:`~omlattice.measure.simulate_ringdown` gives for the pair's
    effective damping at ``drive_fluxes[p]`` with
    ``duration = RINGDOWN_DECAY_SPAN / (2 pi max(gamma_eff, 1e-3))``,
    ``dt = duration / samples_per_trace`` and the noise floor of
    ``NOISE_FLOOR_SIGMAS`` noise sigmas, plus noise, clipped at zero; all
    traces are computed as one ``(n, n, powers, samples)`` block, the
    dataset's ``times`` and ``powers``.

    The noise of a dataset comes from one counter-based Philox stream,
    ``Generator(Philox(SeedSequence(master_seed)))``, drawn as one
    ``normal(0, p0 / snr, (samples_per_trace, n, n, powers))`` block, and
    trace ``(k, i, p)`` gets column ``[:, k, i, p]``.  The block is drawn
    in runs of consecutive rows, cut as :mod:`omlattice._runtime` cuts
    rows, which consume the stream exactly as one call would.  The
    noiseless block and the draw of the first two runs are the two items
    this call runs on every CPU the process may use; the later runs are
    drawn after them, on this thread.  Hence:

    * the same (master_seed, sizes, p0, snr) give bit-identical traces,
      whatever the number of CPUs;
    * sample ``s`` of every trace is row ``s`` of the block, so a dataset
      with fewer samples per trace draws a prefix of the same rows;
    * the stream has no spawn key, so it is never one of the disorder
      ensemble's streams, which are keyed ``spawn_key=(j,)``.

    ``master_seed`` must be a non-negative integer, also for noiseless runs.
    A noise floor or an effective damping rate beyond float range, a
    non-positive lowest eigenfrequency, or a mode row or site column of the
    closed-form slopes without a positive entry (a dataset that
    :func:`recover` would refuse), raises ``ValueError`` naming it, before
    the traces are computed.
    """
    fluxes = np.asarray(drive_fluxes, dtype=float)
    if fluxes.ndim != 1 or fluxes.size < 2 or not np.all((fluxes > 0) & np.isfinite(fluxes)):
        raise ValueError("drive_fluxes must hold at least two positive finite values")
    if samples_per_trace < 2:
        raise ValueError("samples_per_trace must be at least 2")
    if snr is not None and not snr > 0:
        raise ValueError(f"snr must be > 0 (inf or None for no noise), got {snr}")
    if not (np.isfinite(p0) and p0 > 0):
        raise ValueError(f"p0 must be finite and > 0, got {p0}")
    if master_seed < 0:
        raise ValueError(f"master_seed must be a non-negative integer, got {master_seed}")
    noise_sigma = 0.0 if snr is None or np.isinf(snr) else p0 / snr
    floor = NOISE_FLOOR_SIGMAS * noise_sigma
    if not np.isfinite(floor):  # also when noise_sigma is not
        raise ValueError(f"the noise standard deviation p0 / snr = {noise_sigma:g} and the noise floor "
                         f"of {NOISE_FLOOR_SIGMAS:g} times it must be finite; got p0 = {p0!r}, snr = {snr!r}")
    shape = (h.n_sites, h.n_sites, fluxes.size)
    # each run of consecutive rows of the noise block: its samples, the shape of its draw
    runs = row_chunks(samples_per_trace, h.n_sites ** 2 * fluxes.size)
    shapes = [(run.stop - run.start, *shape) for run in runs]

    def noiseless():
        mech_freqs = np.array([s.mech_freq for s in sites], dtype=float)
        mech_linewidths = np.array([s.mech_linewidth for s in sites], dtype=float)
        with np.errstate(over="ignore"):  # an overflow is refused below
            modes, slopes = _closed_form_slopes(h, sites, readouts)
            gamma = mech_linewidths[:, None] + slopes[..., None] * fluxes
        if not np.isfinite(gamma).all():
            raise ValueError(f"effective damping rates must be finite, got {np.sum(~np.isfinite(gamma))} "
                             f"non-finite of {gamma.size} at drive fluxes up to {fluxes.max():g}")
        _refuse_empty_slopes(slopes)
        duration = RINGDOWN_DECAY_SPAN / (TWO_PI * np.maximum(gamma, 1e-3))
        # duration / dt rounds to exactly samples_per_trace, the length
        # simulate_ringdown gives
        times = np.arange(samples_per_trace) * (duration / samples_per_trace)[..., None]
        powers = (-TWO_PI * gamma)[..., None] * times
        np.exp(powers, out=powers)
        powers *= p0
        powers += floor
        return modes, mech_freqs, mech_linewidths, gamma, times, powers

    # the noiseless block and the noise runs drawn beside it: at most the first
    # two, as more would be held in memory, and a helper on a busy CPU, which
    # draws slower than this thread, would hold up every run it took
    block, head = [], []
    tasks = [lambda: block.extend(noiseless())]
    if noise_sigma > 0:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(master_seed)))
        tasks.append(lambda: head.extend(rng.normal(0.0, noise_sigma, s) for s in shapes[:2]))
    on_all_cpus(lambda task: task(), tasks)
    modes, mech_freqs, mech_linewidths, gamma, times, powers = block
    if noise_sigma > 0:
        for j, run in enumerate(runs):
            # the runs after the first two are drawn here, from the same stream
            noise = head[j] if j < len(head) else rng.normal(0.0, noise_sigma, shapes[j])
            powers[..., run] += np.moveaxis(noise, 0, -1)
    np.clip(powers, 0.0, None, out=powers)
    return MeasurementDataset(
        mode_freqs=modes.eigenfreqs.copy(),
        readouts=tuple(readouts),
        mech_freqs=mech_freqs,
        mech_linewidths=mech_linewidths,
        drive_fluxes=fluxes,
        times=times,
        powers=powers,
        samples=np.full(gamma.shape, samples_per_trace),
        true_gamma_eff=gamma,
        noise_floor=floor,
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
    closed-form damping formula (no ringdown simulation); ``ValueError`` for
    a size mismatch or a non-positive lowest eigenfrequency."""
    return _closed_form_slopes(h, sites, readouts)[1]


def recover_from_slopes(
    slopes: np.ndarray,
    readouts: tuple[ModeReadout, ...],
    mech_freqs,
    mode_freqs,
    reference: ModeSet,
    site_labels: tuple[str, ...] = (),
    h_true: CouplingHamiltonian | None = None,
) -> RecoveryResult:
    """Core recovery chain from per-(mode, site) slopes.

    ``slopes[k, i]`` is the damping-power slope of site ``i`` driven through
    mode ``k``; ``readouts`` (one per mode), ``mech_freqs`` (Hz, one per
    site) and the measured ``mode_freqs`` (Hz) are the measurable parameters
    that invert it, ``site_labels`` label the reconstructed Hamiltonian, and
    ``h_true``, when given, adds its errors to the residuals.  A non-finite
    slope, and a mode row or site column without a positive slope, are
    refused; negative slopes are clipped to zero before the inversion.
    Mode rows and the theory reference are matched by ascending
    eigenfrequency.  If the sign-assigned matrix has negative determinant
    the last row sign is flipped before orthogonalization (participation
    ratios and the reconstructed Hamiltonian are invariant under row sign
    flips, and the matrix-logarithm correction requires a special-orthogonal
    neighborhood).
    When orthogonalization fails, the sign-assigned matrix is used as it is.
    """
    n = slopes.shape[0]
    mech_freqs = np.asarray(mech_freqs, dtype=float)
    mode_freqs = np.asarray(mode_freqs, dtype=float)
    if slopes.shape != (n, n) or reference.n_modes != n or len(readouts) != n \
            or mech_freqs.shape != (n,) or mode_freqs.shape != (n,):
        raise ValueError("slope matrix, readouts, frequencies and reference mode set sizes disagree")
    if not np.isfinite(slopes).all():  # NaN would pass every later check
        raise ValueError(f"damping-power slopes must be finite, got {np.sum(~np.isfinite(slopes))} "
                         f"non-finite of {slopes.size}; a slope is the regression of a (mode, site) "
                         "pair's fitted ringdown rates on the drive flux")
    _refuse_empty_slopes(slopes)
    order = np.argsort(reference.eigenfreqs, kind="stable")
    if not np.array_equal(order, np.arange(n)):
        raise ValueError("reference mode set must be in ascending frequency order")

    # the inversion does not read g0
    eta_tilde = unnormalized_eta(np.maximum(slopes, 0.0), _pair_configs(readouts, mech_freqs, 0.0))

    eta_hat, iterations = sinkhorn_normalize(eta_tilde)
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
    # orthogonalize's defect bound is tighter than reconstruct_hamiltonian's
    h_hat = _hamiltonian_from_modes(u_hat, mode_freqs, site_labels)
    residuals["orthogonality_defect"] = float(np.abs(u_hat @ u_hat.T - np.eye(n)).max())

    if h_true is not None:
        diff = h_hat.matrix - h_true.matrix
        residuals["h_rel_frobenius_error"] = float(
            np.linalg.norm(diff) / np.linalg.norm(h_true.matrix)
        )
        rot = h_hat.rotating_frame().matrix - h_true.rotating_frame().matrix
        residuals["h_rotframe_max_error_hz"] = float(np.abs(rot).max())
    return RecoveryResult(eta_hat, u_hat, h_hat, residuals)


def recover(
    dataset: MeasurementDataset,
    reference: ModeSet,
) -> RecoveryResult:
    """Full recovery from a measurement dataset: ringdown fits, slope
    regression, slope inversion, iterative normalization, sign assignment,
    orthogonality correction, Hamiltonian reconstruction.

    Failed ringdown fits are left out of the slope regression and counted in
    ``residuals["fits_failed"]``.
    """
    slopes = dataset.slopes if dataset.slopes is not None else dataset.fit_all()
    result = recover_from_slopes(
        slopes, dataset.readouts, dataset.mech_freqs, dataset.mode_freqs, reference,
        dataset.site_labels, dataset.h_true,
    )
    if dataset.fitted_gammas is not None:
        result.residuals["fits_failed"] = int(np.sum(~np.isfinite(dataset.fitted_gammas)))
    return result


def recover_noiseless(
    h: CouplingHamiltonian,
    sites: tuple[SiteParams, ...],
    readouts: tuple[ModeReadout, ...],
    reference: ModeSet | None = None,
) -> RecoveryResult:
    """Analytic-slope (noise-free) end-to-end identity run; the reference
    defaults to the diagonalization of ``h`` itself.  Refuses what
    :func:`analytic_slope_matrix` refuses."""
    truth_modes, slopes = _closed_form_slopes(h, sites, readouts)
    reference = reference if reference is not None else truth_modes
    return recover_from_slopes(slopes, readouts, [s.mech_freq for s in sites],
                               truth_modes.eigenfreqs, reference, h.site_labels, h)
