"""Configuration parsing and file export helpers.

Run configurations are INI-style text files with nested sections; parsing is
strict (unknown sections or keys abort with the offending line).  Matrices
export to CSV with a header row of site labels; complex matrices emit
``<label>_re`` / ``<label>_im`` column pairs.  No CSV holds a NaN or infinity.
"""

from __future__ import annotations

import configparser
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lattice import _MAX_SIGMA, Couplings, LatticeSpec, SiteParams, Topology
from .disorder import _BAND_PERCENTILES
from .measure import MIN_FIT_SAMPLES, ModeReadout


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


def _find_line(path: Path, needle: str) -> str:
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if needle in line:
            return f" ({path.name}:{lineno})"
    return ""


MAX_RANGE_STEPS = 10_000  # the most steps a start:stop:step range may take
# The most cells a chain may have: lattice._place builds the dense complex
# (2 n_cells)^2 Hamiltonian, whose 16-byte entries must fit in the 2^47-byte
# (128 TiB) address space of a 64-bit process.
MAX_N_CELLS = math.isqrt(2**47 // 16) // 2


def _float_list(raw: str, name: str) -> list[float]:
    """The values of the list or ``start:stop:step`` range ``raw`` (``stop``
    included); ``ConfigError`` naming the key ``name`` for a range that is
    not finite, runs backwards or takes more than :data:`MAX_RANGE_STEPS`."""
    if ":" in raw and "," not in raw:
        parts = [float(p) for p in raw.split(":")]
        if len(parts) != 3 or not np.all(np.isfinite(parts)) or parts[2] <= 0 or parts[1] < parts[0]:
            raise ConfigError(f"{name} must be a range start:stop:step of finite numbers with "
                              f"step > 0 and stop >= start, got {raw}")
        start, stop, step = parts
        steps = (stop - start) / step  # inf when the step underflows the span
        if steps > MAX_RANGE_STEPS:
            raise ConfigError(f"{name} range {raw} takes {steps:.3g} steps, more than "
                              f"{MAX_RANGE_STEPS}")
        return [start + k * step for k in range(round(steps) + 1)]
    return [float(p) for p in raw.split(",") if p.strip()]


_REQUIRED = object()  # the default of a key that must be given


@dataclass(frozen=True)
class _Key:
    """A configuration key: its type (``integer`` of decimal digits, ``number``,
    ``list`` of numbers or ``start:stop:step`` range, ``text``), its default as
    a file would hold it (None: absent), the rule that a value (each value of a
    list) must pass, as text and as a test, and the words that read as None."""

    type: str
    default: object
    rule: str
    ok: Callable[[object], bool]
    words: tuple[str, ...] = ()


_FINITE = "a finite number", lambda v: -np.inf < v < np.inf
_POSITIVE = "a finite number > 0", lambda v: 0 < v < np.inf
_NON_NEGATIVE = "a finite number >= 0", lambda v: 0 <= v < np.inf
_FRACTION = "a number in [0, 1]", lambda v: 0 <= v <= 1
_KINDS = [t.value for t in Topology]
_CONFIDENCES = sorted(_BAND_PERCENTILES)

# Every key of every section.  Conditions that tie keys together are checked by
# load_config (|M| < L, |M'| < L) or by what is built from them (list lengths,
# kappa_1 + kappa_2 <= kappa_tot).
_KEYS = {
    "lattice": {
        "kind": _Key("text", _REQUIRED, f"one of {', '.join(_KINDS)}", lambda v: v in _KINDS),
        "n_cells": _Key("integer", None,  # required by a chain
                        f"an integer in [1, {MAX_N_CELLS}], so that the dense complex "
                        "(2 n_cells)² Hamiltonian fits in a 64-bit address space",
                        lambda v: 1 <= v <= MAX_N_CELLS),
        "cavity_freq_hz": _Key("number", None, *_POSITIVE),
        "cavity_freqs_hz": _Key("list", None, *_POSITIVE),
    },
    "couplings": {key: _Key("number", "0", *_NON_NEGATIVE)
                  for key in ("j_hz", "j_prime_hz", "j2_hz", "j3_hz", "j3_prime_hz")},
    "mechanics": {
        "freqs_hz": _Key("list", _REQUIRED, *_POSITIVE),
        "linewidths_hz": _Key("list", _REQUIRED, *_NON_NEGATIVE),
        "g0_hz": _Key("list", "0", *_NON_NEGATIVE),
    },
    "readout": {
        "kappa_tot_hz": _Key("list", _REQUIRED, *_POSITIVE),
        "kappa_1_fraction": _Key("number", "0.25", *_FRACTION),
        "kappa_2_fraction": _Key("number", "0.25", *_FRACTION),
        "kappa_1_hz": _Key("list", None, *_NON_NEGATIVE),
        "kappa_2_hz": _Key("list", None, *_NON_NEGATIVE),
        "transmittance": _Key("list", "1.0", *_POSITIVE),
    },
    "measurement": {
        "n_powers": _Key("integer", "10", "an integer >= 2", lambda v: v >= 2),
        "drive_flux_max": _Key("number", "auto", *_POSITIVE, words=("auto",)),
        "snr": _Key("number", "100", *_POSITIVE, words=("inf", "none")),
        # outside about [1e-150, 1e150] the fits' sums of squares leave float range
        "p0": _Key("number", "1.0", "a number in [1e-100, 1e100]", lambda v: 1e-100 <= v <= 1e100),
        "samples_per_trace": _Key("integer", "140", f"an integer >= {MIN_FIT_SAMPLES}",
                                  lambda v: v >= MIN_FIT_SAMPLES),
        "seed": _Key("integer", "0", "an integer >= 0", lambda v: v >= 0),
    },
    "disorder": {
        "sigma_grid": _Key("list", _REQUIRED, f"a number in [0, {_MAX_SIGMA}]",
                           lambda v: 0 <= v <= _MAX_SIGMA),
        "samples": _Key("integer", "4000", "an integer >= 1", lambda v: v >= 1),
        "seed": _Key("integer", "0", "an integer >= 0", lambda v: v >= 0),
        "zeta_measured": _Key("number", None, *_FRACTION),
        "confidence": _Key("number", "0.9", f"one of {', '.join(map(str, _CONFIDENCES))}",
                           lambda v: v in _CONFIDENCES),
    },
    "circuit": {
        "inductance_h": _Key("number", None, *_POSITIVE),
        "capacitance_f": _Key("number", None, *_POSITIVE),
        "mutual_h": _Key("number", None, *_FINITE),
        "mutual_prime_h": _Key("number", None, *_FINITE),
        "drum_radius_m": _Key("number", None, *_POSITIVE),
        "film_stress_pa": _Key("number", None, *_POSITIVE),
        "film_density_kg_m3": _Key("number", None, *_POSITIVE),
        "loop_csv_a": _Key("text", None, "a file name", bool),
        "loop_csv_b": _Key("text", None, "a file name", bool),
        "neumann_segments": _Key("integer", "1000", "an integer >= 8", lambda v: v >= 8),
    },
}


def _read_section(section: str, given) -> dict:
    """Every key of ``section`` read from ``given``, the mapping of its raw
    text (None for a special word or an absent key without a default);
    ``ConfigError`` naming a required key that is absent or a bad value."""
    values = {}
    for name, key in _KEYS[section].items():
        raw = given.get(name, key.default)
        if raw is _REQUIRED:
            raise ConfigError(f"[{section}] {name} is required")
        if raw is None or raw in key.words:
            values[name] = None
            continue
        try:
            if key.type == "list":  # _float_list's own ConfigError names a bad range
                parsed = _float_list(raw, f"[{section}] {name}")
            elif key.type == "integer":
                parsed = [int(raw)] if raw.isdecimal() else []
            else:
                parsed = [float(raw) if key.type == "number" else raw]
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            parsed = []
        if not parsed or not all(map(key.ok, parsed)):
            must_be = " or ".join((key.rule, *key.words))
            raise ConfigError(f"[{section}] {name} must be {must_be}, got {raw}")
        values[name] = parsed if key.type == "list" else parsed[0]
    return values


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration document; sections that are absent stay None, and
    the sections kept as dicts map every key of the section to its value."""

    spec: LatticeSpec | None
    readouts: tuple[ModeReadout, ...] | None
    measurement: dict | None
    disorder: dict | None
    circuit: dict | None
    path: Path | None


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file (strict: unknown keys abort)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file {path} does not exist")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]{_find_line(path, '[' + section + ']')}")
        for key in parser[section]:
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]{_find_line(path, key)}")
    read = {section: _read_section(section, parser[section]) for section in parser.sections()}

    circuit = read.get("circuit", {})
    for key in ("mutual_h", "mutual_prime_h"):
        if None not in (circuit.get("inductance_h"), circuit.get(key)) \
                and not abs(circuit[key]) < circuit["inductance_h"]:
            raise ConfigError(f"[circuit] {key} must be smaller than inductance_h in magnitude, "
                              f"got {circuit[key]} and {circuit['inductance_h']}")
    try:  # the checks of the library's dataclasses
        spec = _parse_lattice(read) if "lattice" in read else None
        readouts = _parse_readout(read["readout"], spec) if "readout" in read else None
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid configuration {path}: {exc}") from exc
    return RunConfig(spec, readouts, read.get("measurement"), read.get("disorder"),
                     read.get("circuit"), path)


def _parse_lattice(read: dict) -> LatticeSpec:
    lat = read["lattice"]
    kind = Topology(lat["kind"])
    if kind is Topology.SSH_CHAIN and lat["n_cells"] is None:
        raise ConfigError(f"[lattice] n_cells is required for an {kind.value} lattice")
    n_sites = 2 * lat["n_cells"] if kind is Topology.SSH_CHAIN else 24
    cavity = lat["cavity_freqs_hz"] or [lat["cavity_freq_hz"]] * n_sites
    if cavity[0] is None:
        raise ConfigError("[lattice] cavity_freq_hz (or cavity_freqs_hz) is required")
    if len(cavity) != n_sites:
        raise ConfigError(f"[lattice] cavity_freqs_hz must list {n_sites} values")

    cp = read["couplings"] if "couplings" in read else _read_section("couplings", {})
    couplings = Couplings(**{key.removesuffix("_hz"): value for key, value in cp.items()})

    if "mechanics" in read:
        mech = read["mechanics"]
        freqs, widths, g0s = (_expand(mech[key], n_sites, f"[mechanics] {key}")
                              for key in ("freqs_hz", "linewidths_hz", "g0_hz"))
    else:
        # placeholder mechanics for purely microwave runs
        freqs, widths, g0s = [1.0] * n_sites, [0.0] * n_sites, [0.0] * n_sites
    sites = tuple(
        SiteParams(cavity_freq=c, mech_freq=f, mech_linewidth=w, g0=g)
        for c, f, w, g in zip(cavity, freqs, widths, g0s)
    )
    return LatticeSpec(kind=kind, n_sites=n_sites, sites=sites, couplings=couplings)


def _expand(values: list[float], n: int, name: str) -> list[float]:
    if len(values) not in (1, n):
        raise ConfigError(f"{name} must list 1 or {n} values, got {len(values)}")
    return values * n if len(values) == 1 else values


def _parse_readout(ro: dict, spec: LatticeSpec | None) -> tuple[ModeReadout, ...]:
    if spec is None:
        raise ConfigError("[readout] requires a [lattice] section")
    n = spec.n_sites
    kappas = _expand(ro["kappa_tot_hz"], n, "[readout] kappa_tot_hz")
    k1, k2 = (
        [ro[f"kappa_{i}_fraction"] * k for k in kappas] if ro[f"kappa_{i}_hz"] is None
        else _expand(ro[f"kappa_{i}_hz"], n, f"[readout] kappa_{i}_hz")
        for i in (1, 2)
    )
    trans = _expand(ro["transmittance"], n, "[readout] transmittance")
    return tuple(
        ModeReadout(kappa_tot=k, kappa_1=a, kappa_2=b, transmittance=t)
        for k, a, b, t in zip(kappas, k1, k2, trans)
    )


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def matrix_to_csv(path, matrix: np.ndarray, labels) -> None:
    """``matrix`` under a header row of its site ``labels``, a complex one as
    ``<label>_re`` / ``<label>_im`` column pairs; refused as by :func:`rows_to_csv`."""
    matrix = np.asarray(matrix)
    labels = list(labels) if labels else [f"site{i + 1}" for i in range(matrix.shape[1])]
    if np.iscomplexobj(matrix):
        labels = [f"{lab}_{part}" for lab in labels for part in ("re", "im")]
        matrix = np.stack((matrix.real, matrix.imag), axis=-1).reshape(len(matrix), -1)
    rows_to_csv(path, ",".join(labels), matrix)


def matrix_from_csv(path) -> tuple[np.ndarray, tuple[str, ...]]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header and header[0].endswith("_re"):
        labels = tuple(h[:-3] for h in header[::2])
        matrix = data[:, 0::2] + 1j * data[:, 1::2]
    else:
        labels = tuple(header)
        matrix = data
    return matrix, labels


def rows_to_csv(path, header: str, rows) -> None:
    """``rows`` below the ``header`` line that names their columns;
    ``ValueError`` naming the file, the row (from 1, below the header) and the
    column of a NaN or infinity, before any write."""
    rows = np.asarray(rows)
    rows = rows[:, None] if rows.ndim == 1 else rows
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{Path(path).name}: row {row + 1}, column {header.split(',')[col]} is "
                         f"{rows[row, col]}, not a finite number")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
