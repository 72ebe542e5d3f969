import importlib.util
import json
import threading
from pathlib import Path

import numpy as np
import pytest

import omlattice as om


def _write_legacy(dataset, directory, entries) -> None:
    """Write ``dataset`` with the manifest of earlier versions: no ``format``
    key and one entry per trace, which ``entries[key]`` extends by the keys
    that locate the trace."""
    manifest = {
        "mode_freqs_hz": dataset.mode_freqs.tolist(),
        "readouts": [
            {"kappa_tot_hz": r.kappa_tot, "kappa_1_hz": r.kappa_1, "kappa_2_hz": r.kappa_2,
             "transmittance": r.transmittance}
            for r in dataset.readouts
        ],
        "mech_freqs_hz": dataset.mech_freqs.tolist(),
        "mech_linewidths_hz": dataset.mech_linewidths.tolist(),
        "drive_fluxes": dataset.drive_fluxes.tolist(),
        "master_seed": dataset.master_seed,
        "site_labels": list(dataset.site_labels),
        "traces": [
            {"mode": k, "site": i, "power_index": p, "drive_flux": dataset.drive_fluxes[p],
             "true_gamma_eff_hz": trace.true_gamma_eff, "noise_floor": trace.noise_floor,
             **entries[(k, i, p)]}
            for (k, i, p), trace in dataset.traces.items()
        ],
    }
    with open(Path(directory) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    if dataset.h_true is not None:
        om.io.matrix_to_csv(Path(directory) / "h_true.csv", dataset.h_true.matrix,
                            dataset.h_true.site_labels)


def _save_legacy_csv(dataset, directory) -> None:
    """Write ``dataset`` in the v1 layout: each manifest entry's ``file``
    names its own CSV, written one 17-digit line per sample as that
    version's writer did."""
    directory = Path(directory)
    (directory / "traces").mkdir(parents=True, exist_ok=True)
    entries = {}
    for (k, i, p), trace in dataset.traces.items():
        entries[(k, i, p)] = {"file": f"traces/k{k:02d}_i{i:02d}_p{p:02d}.csv"}
        with open(directory / entries[(k, i, p)]["file"], "w") as fh:
            fh.write("time_s,power\n")
            for t, y in zip(trace.times, trace.powers):
                fh.write(f"{t:.17g},{y:.17g}\n")
    _write_legacy(dataset, directory, entries)


def _save_v2(dataset, directory) -> None:
    """Write ``dataset`` in the v2 layout: every trace in one
    ``traces/traces.npy`` of shape ``(2, total samples)``, each manifest
    entry giving its ``offset`` and ``samples`` there."""
    directory = Path(directory)
    (directory / "traces").mkdir(parents=True, exist_ok=True)
    traces = dict(dataset.traces)
    offsets = np.cumsum([0] + [t.times.size for t in traces.values()]).tolist()
    entries = {key: {"file": "traces/traces.npy", "offset": offset, "samples": end - offset}
               for key, offset, end in zip(traces, offsets, offsets[1:])}
    _write_legacy(dataset, directory, entries)
    data = np.empty((2, offsets[-1]))
    for trace, offset in zip(traces.values(), offsets):
        data[:, offset:offset + trace.times.size] = trace.times, trace.powers
    np.save(directory / "traces" / "traces.npy", data)


def _set_trace(dataset, key, trace) -> None:
    """Store the ``RingdownTrace`` ``trace`` as trace ``key`` of ``dataset``'s
    arrays, growing their sample axis when it is longer than the others."""
    size = trace.times.size
    if size > dataset.times.shape[-1]:
        pad = [(0, 0)] * (dataset.times.ndim - 1) + [(0, size - dataset.times.shape[-1])]
        dataset.times, dataset.powers = np.pad(dataset.times, pad), np.pad(dataset.powers, pad)
    for array, values in ((dataset.times, trace.times), (dataset.powers, trace.powers)):
        array[key][:size], array[key][size:] = values, 0.0
    dataset.samples[key] = size
    dataset.true_gamma_eff[key] = np.nan if trace.true_gamma_eff is None else trace.true_gamma_eff


@pytest.fixture(scope="session")
def save_legacy_csv():
    """Reference writer of the per-trace CSV datasets (v1) that
    ``tools/upgrade_dataset.py`` converts."""
    return _save_legacy_csv


@pytest.fixture(scope="session")
def save_v2():
    """Reference writer of the one-array datasets with per-trace manifest
    entries (v2) that ``tools/upgrade_dataset.py`` converts."""
    return _save_v2


@pytest.fixture(scope="session")
def set_trace():
    """Writer of one trace into a dataset's arrays (``traces`` is read-only)."""
    return _set_trace


UPGRADE_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "upgrade_dataset.py"


@pytest.fixture(scope="session")
def upgrade_dataset():
    """The converter ``tools/upgrade_dataset.py`` as a module: ``upgrade(src,
    dst)`` raises, ``main([src, dst])`` returns the exit code."""
    spec = importlib.util.spec_from_file_location("upgrade_dataset", UPGRADE_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _random_chain(seed, couplings, disorder=0.003):
    """A random 10-site chain of acceptance criterion 5: cavity frequencies
    spread by ``disorder`` around 7.12 GHz, mechanics and readouts drawn
    from ``default_rng(seed)``; returns ``(h, sites, readouts)``."""
    rng = np.random.default_rng(seed)
    freqs = 7.12e9 * (1 + rng.normal(0, disorder, 10))
    h = om.build_ssh_chain(5, couplings, freqs)
    sites = tuple(
        om.SiteParams(cavity_freq=f, mech_freq=2.1e6 + 2.5e4 * i,
                      mech_linewidth=rng.uniform(4, 16), g0=10.0)
        for i, f in enumerate(freqs)
    )
    readouts = tuple(
        om.ModeReadout(kappa_tot=k, kappa_1=0.125 * k, kappa_2=0.125 * k)
        for k in rng.uniform(0.5e6, 5e6, 10)
    )
    return h, sites, readouts


@pytest.fixture(scope="session")
def random_chain():
    """Builder of the random chains of acceptance criterion 5."""
    return _random_chain


@pytest.fixture
def started_threads(monkeypatch):
    """The names of the threads started while the test runs, in order."""
    names, start = [], threading.Thread.start

    def recording(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return names
