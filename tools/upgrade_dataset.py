"""Rewrite a measurement dataset of an earlier version as format 3:
``python tools/upgrade_dataset.py SRC DST``.

SRC's manifest has no ``format`` key and one entry per trace, which names
the trace's own ``time_s,power`` CSV (version 1) or its ``offset`` and
``samples`` in a ``.npy`` file (version 2).  The new directory DST gets the
dataset as ``MeasurementDataset.save`` writes it, read back by ``load``.
Exit codes: 0 success; 2 malformed input or a missing file, with one line
naming the file or key, and nothing left at DST."""

import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from omlattice.experiment import (_FIELDS, MeasurementDataset, _as_array, _check_padding,
                                  _read_trace_array, read_manifest)
from omlattice.io import ConfigError
from omlattice.measure import trace_fault

# The keys of a trace entry that index the dataset, and the fields they index.
INDICES = {"mode": "mode_freqs_hz", "site": "mech_freqs_hz", "power_index": "drive_fluxes"}


def read_entries(path: Path) -> tuple[list, dict]:
    """The trace entries, checked, and the field values of the manifest of an
    earlier version at ``path``."""
    manifest, values = read_manifest(path, version=None)
    entries = manifest.get("traces")
    if not isinstance(entries, list):
        raise ConfigError(f"dataset manifest {path}: 'traces' is not a list" if "traces" in manifest
                          else f"dataset manifest {path} is missing key 'traces'")
    seen: dict[tuple, int] = {}
    for i, item in enumerate(entries):
        if not isinstance(item, dict):
            raise ConfigError(f"dataset manifest {path}: traces[{i}] is not an object")
        npy = str(item.get("file")).endswith(".npy")
        for key in (*INDICES, "file") + (("offset", "samples") if npy else ()):
            if key not in item:
                raise ConfigError(f"dataset manifest {path} is missing key 'traces[{i}].{key}'")
        for key, axis in INDICES.items():
            index, size = item[key], len(values[axis])
            if type(index) is not int or not 0 <= index < size:
                raise ConfigError(f"dataset manifest {path}: traces[{i}].{key} {index!r} is not "
                                  f"an index into '{axis}' ({size} entries)")
        key = (item["mode"], item["site"], item["power_index"])
        if key in seen:
            raise ConfigError(f"dataset manifest {path}: traces[{seen[key]}] and traces[{i}] "
                              "are both mode {}, site {}, power_index {}".format(*key))
        seen[key] = i
        # format 3 keeps these per dataset, by the rules of its fields
        gamma, floor = item.get("true_gamma_eff_hz"), item.get("noise_floor", 0.0)
        for key, value in (("true_gamma_eff_hz", gamma), ("noise_floor", floor)):
            number = _as_array(value, "number")  # null is NaN
            if number is None or number.ndim or not _FIELDS[key].ok(number):
                raise ConfigError(f"dataset manifest {path}: traces[{i}].{key} {value!r} is not "
                                  f"a number {_FIELDS[key].rule}")
        if floor != entries[0].get("noise_floor", 0.0):
            raise ConfigError(f"dataset manifest {path}: traces[{i}].noise_floor {floor!r} is not "
                              "a number equal to traces[0]'s; a dataset has one noise floor")
        name = item["file"]
        if not isinstance(name, str) or not name.endswith((".npy", ".csv")):
            raise ConfigError(f"dataset manifest {path}: traces[{i}].file {name!r} "
                              "is neither a .npy nor a .csv file")
    return entries, values


def read_trace(directory: Path, entry: dict, index: int, arrays: dict) -> np.ndarray:
    """The ``(2, samples)`` times and powers of trace entry ``index``, which
    pass the ringdown rules; ``arrays`` caches the ``.npy`` files read."""
    path = directory / entry["file"]
    if entry["file"].endswith(".csv"):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # header-only files
                trace = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"dataset trace file {path} does not parse: {exc}") from None
        if trace.size and trace.shape[1] != 2:
            raise ConfigError(f"dataset trace file {path} has {trace.shape[1]} columns, not 2")
        trace = trace.reshape(-1, 2).T
    else:
        if path not in arrays:
            arrays[path] = _read_trace_array(path)
        offset, samples, width = entry["offset"], entry["samples"], arrays[path].shape[1]
        if type(offset) is not int or type(samples) is not int or offset < 0 or samples < 0 \
                or offset + samples > width:
            raise ConfigError(f"dataset trace file {path}: traces[{index}] offset {offset!r} and "
                              f"samples {samples!r} lie outside its {width} samples")
        trace = arrays[path][:, offset:offset + samples]
    fault = trace_fault(trace[0], trace[1], trace.shape[1]) if trace.size else \
        ((), "times and powers must be matching non-empty 1D arrays")
    if fault is not None:
        raise ConfigError(f"dataset trace file {path}, traces[{index}]: {fault[1]}")
    return trace


def upgrade(src, dst) -> None:
    """Write the dataset of an earlier version at ``src`` as the new format-3
    directory ``dst``; ``ValueError`` or ``OSError`` when it is malformed."""
    src, dst = Path(src), Path(dst)
    if dst.exists():
        raise FileExistsError(f"{dst} already exists")
    path = src / "manifest.json"
    (entries, values), arrays = read_entries(path), {}
    traces = [read_trace(src, entry, index, arrays) for index, entry in enumerate(entries)]
    lengths = np.array([trace.shape[1] for trace in traces], dtype=int)
    shape = tuple(len(values[axis]) for axis in INDICES.values())
    _check_padding(lengths, int(np.prod(shape)), path)
    samples, true_gamma = np.zeros(shape, dtype=int), np.full(shape, np.nan)
    times, powers = np.zeros((2,) + shape + (lengths.max(initial=0),))
    for entry, trace in zip(entries, traces):
        key = entry["mode"], entry["site"], entry["power_index"]
        samples[key] = trace.shape[1]
        times[key][:samples[key]], powers[key][:samples[key]] = trace
        true_gamma[key] = entry.get("true_gamma_eff_hz")  # None reads as NaN
    dataset = MeasurementDataset._from_manifest(
        values, src, times=times, powers=powers, samples=samples, true_gamma_eff=true_gamma,
        noise_floor=float(entries[0].get("noise_floor", 0.0)) if entries else 0.0)
    stage = Path(tempfile.mkdtemp(prefix=f".{dst.name}-", dir=dst.parent))
    try:
        dataset.save(stage)
        MeasurementDataset.load(stage)
        stage.rename(dst)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 2:
        print("usage: python tools/upgrade_dataset.py SRC DST", file=sys.stderr)
        return 2
    try:
        upgrade(*args)
    except (ValueError, OSError) as exc:  # ValueError: io.ConfigError
        print(f"{'file' if isinstance(exc, OSError) else 'configuration'} error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
