"""The process that runs omlattice for the benchmark.

``worker.py serve [--traced]`` runs operations in this one process, one
request at a time, with whichever omlattice ``PYTHONPATH`` gives it: the
checkout's program or the benchmark's frozen baseline copy.  Each line on
standard input is a JSON request, and each reply is one JSON line on
standard output with ``seconds``, ``rss_mb`` (the process's peak so far) and
``spans``:

* ``{"argv": [...]}`` runs the CLI subcommand ``omlattice.cli.main(argv)``
  and replies with its ``returncode`` as well.
* ``{"chain": i, "seed": n, "config": path}`` runs instance ``i`` of the
  noisy in-memory recovery of random 10-site chains (acceptance criterion
  5).  Instance ``i`` of workload seed ``n`` is drawn from
  ``default_rng([n, i])``, the way the criterion draws its instances.  The
  reply says whether it ``ok`` (or its ``error``), whether it is
  ``covered`` by the criterion's tolerances, its ``h_rel_err`` and a
  ``digest`` of the recovered matrix.

With ``--traced`` the tracer is on for requests with ``"traced": true``, and
the reply carries the spans they recorded, tagged with the request's
``op``; otherwise ``spans`` is empty.  The process ends at the end of its
input.  Whatever the program prints goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, instrument  # noqa: E402

# acceptance criterion 5: SNR 100, 10 powers, 400 samples per trace, 0.3%
# cavity-frequency spread, nearest-neighbour couplings within 5% and the
# diagonal within 0.002 of the cavity frequency
CHAIN_SNR = 100.0
CHAIN_POWERS = 10
CHAIN_SAMPLES = 400
CHAIN_FREQ_SPREAD = 0.003
NN_REL_TOL = 0.05
DIAG_REL_TOL = 0.002


class Chains:
    """The chain workload's fixed inputs, loaded once per config."""

    def __init__(self):
        self.loaded: dict[str, tuple] = {}

    def run(self, request: dict) -> dict:
        import numpy as np

        import omlattice as om
        from omlattice import io

        if request["config"] not in self.loaded:
            spec = io.load_config(request["config"]).spec
            wc = float(np.mean(spec.cavity_freqs))
            reference = om.diagonalize(
                om.build_ssh_chain(spec.n_sites // 2, spec.couplings, [wc] * spec.n_sites))
            self.loaded[request["config"]] = spec, wc, reference
        spec, wc, reference = self.loaded[request["config"]]
        try:
            h, result = chain_recovery(om, spec, reference, request["seed"], request["chain"])
        except Exception as exc:  # a failed recovery is counted, not fatal
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        return {"ok": True, **chain_check(h, result, wc)}


def run_cli(request: dict) -> dict:
    from omlattice import cli

    try:
        returncode = cli.main(request["argv"])
    except SystemExit as exc:  # argparse
        returncode = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash of the subcommand is its failure, not the worker's
        traceback.print_exc()
        returncode = 1
    return {"returncode": returncode}


def serve(traced: bool) -> int:
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    tracer = None
    if traced:
        tracer = Tracer()
        instrument(tracer)
        tracer.enabled = False
    chains = Chains()
    for line in sys.stdin:
        request = json.loads(line)
        if tracer is not None:
            tracer.op = request["op"]
            tracer.enabled = request["traced"]
        start = time.monotonic()
        reply = chains.run(request) if "chain" in request else run_cli(request)
        reply["seconds"] = time.monotonic() - start
        reply["spans"] = []
        if tracer is not None:
            tracer.enabled = False
            reply["spans"], tracer.spans = tracer.spans, []
        reply["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


def chain_instance(om, spec, workload_seed: int, index: int):
    """Random chain with criterion 5's mechanics and readout spread."""
    import numpy as np

    rng = np.random.default_rng([workload_seed, index])
    n = spec.n_sites
    wc = float(np.mean(spec.cavity_freqs))
    freqs = wc * (1 + rng.normal(0, CHAIN_FREQ_SPREAD, n))
    h = om.build_ssh_chain(n // 2, spec.couplings, freqs)
    sites = tuple(
        om.SiteParams(cavity_freq=f, mech_freq=2.1e6 + 2.5e4 * i,
                      mech_linewidth=rng.uniform(4, 16), g0=10.0)
        for i, f in enumerate(freqs)
    )
    readouts = tuple(
        om.ModeReadout(kappa_tot=k, kappa_1=0.125 * k, kappa_2=0.125 * k)
        for k in rng.uniform(0.5e6, 5e6, n)
    )
    return h, sites, readouts, int(rng.integers(2**63))


def chain_recovery(om, spec, reference, workload_seed: int, index: int):
    import numpy as np

    h, sites, readouts, master_seed = chain_instance(om, spec, workload_seed, index)
    flux = om.calibrate_drive_flux(h, sites, readouts)
    dataset = om.simulate_measurement(
        h, sites, readouts, np.linspace(flux / CHAIN_POWERS, flux, CHAIN_POWERS),
        master_seed=master_seed, snr=CHAIN_SNR, samples_per_trace=CHAIN_SAMPLES,
    )
    return h, om.recover(dataset, reference)


def chain_check(h, result, wc: float) -> dict:
    import numpy as np

    truth, recovered = h.matrix, result.h_hat.matrix
    n = truth.shape[0]
    nn_ok = all(abs(recovered[i, i + 1] / truth[i, i + 1] - 1) < NN_REL_TOL for i in range(n - 1))
    diag_ok = float(np.abs(np.diag(recovered) - np.diag(truth)).max()) < DIAG_REL_TOL * wc
    return {
        "covered": bool(nn_ok and diag_ok),
        "h_rel_err": result.residuals["h_rel_frobenius_error"],
        "digest": hashlib.sha256(np.ascontiguousarray(recovered).tobytes()).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    serve_p = sub.add_parser("serve")
    serve_p.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    return serve(args.traced)


if __name__ == "__main__":
    sys.exit(main())
