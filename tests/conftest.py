import threading

import numpy as np
import pytest

import omlattice as om


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
def set_trace():
    """Writer of one trace into a dataset's arrays (``traces`` is read-only)."""
    return _set_trace


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
