#!/usr/bin/env python3
"""Benchmark of the omlattice pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (one client, closed loop, one operation at a time):

* ``flake-roundtrip``: ``omlattice measure-sim`` then ``omlattice recover`` on
  ``paper_2d.cfg`` (2 of its 10 source powers) with ``--seed <n>``; the only
  workload that writes and reads the on-disk trace format.
* ``chain-recovery-mc``: in-memory noisy recoveries of random 10-site chains
  (acceptance criterion 5), instance seeds drawn from ``<n>``; dominated by
  the ringdown fits, no file I/O.
* ``chain-disorder``: ``omlattice disorder`` on ``paper_1d.cfg`` (3 points of
  its sigma grid) with ``--seed <n>``; the only workload that runs the
  disorder ensemble.

Operations run in a long-lived ``worker.py serve`` process.  With
``--trace 0`` every operation runs twice, right after each other: on the
checkout's program and on ``baseline/``, a frozen copy of the program as it
was when the benchmark was written.  The end-to-end times are the median
ratio of the two, scaled by the baseline's time on a quiet machine, so the
host's slow stretches cancel (see README.md).  Every operation of the
checkout's program passes a correctness gate; a failed gate counts toward
``failed`` and the run goes on.  ``--trace 1`` runs only the checkout's
program, plain and traced operations in turn on the same input, and prints
the per-layer metrics of the traced ones with the paired difference as the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit and record the environment.
Spans and the full result go to
``.perfbench-work/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# The program the checkout's is compared with: src/omlattice as it was when
# the benchmark was written, byte for byte.  It never changes.
PROGRAMS = {"current": SRC, "baseline": HERE / "baseline"}

CHILD_TIMEOUT_S = 150.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

MIN_OPS = 2               # every run repeats its operation, so reruns can be compared
# The coverage gate looks at instances 0 .. COVERAGE_INSTANCES-1 of the seed,
# which every chain run holds, and fails when more than COVERAGE_ALLOWED of
# them miss criterion 5's tolerances; README.md gives the error rates.
COVERAGE_INSTANCES = 50
COVERAGE_ALLOWED = 4
# A set-up probe is a fresh interpreter that imports omlattice and loads the
# workload's config.  A pair of them, one per program, runs every
# SETUP_PROBE_EVERY_S between operations, and one pair before and after.
SETUP_PROBE = "import sys, omlattice, omlattice.io; omlattice.io.load_config(sys.argv[1])"
SETUP_PROBE_EVERY_S = 5.0
# About the baseline's fastest set-up time on the 2-core machine the
# benchmark was written on; setup_s is this times the run's median
# current/baseline ratio (see README.md).
SETUP_NOMINAL_S = 0.17

# correctness bounds; see README.md for how each was chosen
FLAKE_H_REL_ERR_BOUND = 2e-3
PERCENTILE_TOL = 1e-12

PER_LAYER_COUNTS = {
    "experiment.simulate.traces": "count", "experiment.simulate.samples": "count",
    "experiment.save.bytes": "B", "experiment.save.files": "count", "experiment.load.bytes": "B",
    "experiment.fit_all.traces": "count", "experiment.fit_all.failed": "count",
    "experiment.fit_all.slopes_gated": "count",
    "measure.sinkhorn_iterations": "count", "measure.sinkhorn_floored": "count",
    "measure.orthogonalized": "count",
    "disorder.samples": "count", "disorder.failed_samples": "count",
}
PER_LAYER_TIMES = (
    "cli.overhead_s", "client_s", "io.load_config_s", "io.write_outputs_s",
    "lattice.build_s", "lattice.diagonalize_s",
    "experiment.calibrate_drive_flux_s", "experiment.simulate_measurement_s",
    "experiment.save_s", "experiment.load_s", "experiment.fit_all_s",
    "experiment.recover_from_slopes_s", "disorder.run_ensemble_s", "disorder.invert_zeta_s",
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no source tree, broken import)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Context:
    work: Path
    seed: int
    small: bool = False


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(ctx: Context, program: str) -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(nproc())
    env["PYTHONPATH"] = str(PROGRAMS[program])
    env["TMPDIR"] = str(ctx.work)
    return env


def setup_probe(ctx: Context, program: str, config: Path) -> float:
    """Wall time of a fresh interpreter that imports ``program``'s omlattice
    and loads ``config``."""
    with open(ctx.work / "stderr.txt", "a") as err:
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(config)],
                              env=child_env(ctx, program), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=err, timeout=CHILD_TIMEOUT_S)
        seconds = time.monotonic() - start
    if proc.returncode != 0:
        raise SetupError(f"import omlattice ({program}) failed; see {ctx.work / 'stderr.txt'}")
    return seconds


class Server:
    """A ``worker.py serve`` process: operations run in it one at a time."""

    def __init__(self, ctx: Context, program: str, traced: bool = False):
        self.ctx = ctx
        with open(ctx.work / "stderr.txt", "a") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), "serve", *(["--traced"] if traced else [])],
                env=child_env(ctx, program), cwd=ROOT, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err, text=True)

    def request(self, request: dict) -> dict:
        killer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        killer.start()
        try:
            self.proc.stdin.write(json.dumps(request, default=str) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        finally:
            killer.cancel()
        if not line:
            raise SetupError(f"worker exited {self.proc.wait()}; see {self.ctx.work / 'stderr.txt'}")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def tree_digest(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def tree_size(directory: Path) -> tuple[int, int]:
    files = [p for p in directory.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


# ---------------------------------------------------------------------------
# operations and gates
# ---------------------------------------------------------------------------

@dataclass
class Op:
    seconds: float
    rss_mb: float
    problem: str | None = None
    parts: dict = field(default_factory=dict)     # sub-timings in s
    values: dict = field(default_factory=dict)    # checked output values
    key: int | None = None                        # input id
    warmup: bool = False                          # checked, but not timed
    base_seconds: float | None = None             # the baseline on the same input, right beside it
    untraced_s: float | None = None               # traced operations: plain time on the same input

    @property
    def ok(self) -> bool:
        return self.problem is None


def succeeded(reply: dict) -> bool:
    return reply.get("returncode", 0) == 0 and reply.get("ok", True)


def check_flake(dataset: Path, recovered: Path) -> tuple[str | None, dict]:
    """Gate of one measure-sim + recover round trip."""
    for name in ("manifest.json", "h_true.csv"):
        if not (dataset / name).is_file():
            return f"dataset lacks {name}", {}
    for name in ("recovered_h.csv", "recovered_h_rotating_frame.csv", "eta_hat.csv", "report.json"):
        if not (recovered / name).is_file():
            return f"recover output lacks {name}", {}
    try:
        report = json.loads((recovered / "report.json").read_text())
        err = float(report["h_rel_frobenius_error"])
        orthogonalized = report["orthogonalized"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report.json: {exc!r}", {}
    if orthogonalized is not True:
        return "report.json: orthogonalized is not true", {}
    if not math.isfinite(err) or not err < FLAKE_H_REL_ERR_BOUND:
        return f"h_rel_frobenius_error {err} not below {FLAKE_H_REL_ERR_BOUND}", {}
    return None, {"recover_h_rel_err": err}


def _read_rows(path: Path) -> list[list[float]]:
    lines = path.read_text().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_disorder(out: Path) -> tuple[str | None, dict]:
    """Gate of one disorder subcommand."""
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        rows = _read_rows(out / "ensemble.csv")
        n_sigma = int(manifest["n_sigma"])
        failed = int(manifest["failed_samples"])
        interval = manifest["inversion"]["sigma_interval"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable disorder output: {exc!r}", {}
    if failed != 0:
        return f"{failed} failed samples", {}
    if len(rows) != n_sigma or any(len(r) != 6 for r in rows):
        return "ensemble.csv does not hold one 6-column row per sigma", {}
    for sigma, mean, *bands in rows:
        if not all(0.0 <= v <= 1.0 for v in (mean, *bands)):
            return f"zeta outside [0, 1] at sigma {sigma}", {}
        if any(b - a < -PERCENTILE_TOL for a, b in zip(bands, bands[1:])):
            return f"bands not nested at sigma {sigma}", {}
    if not interval or not interval[0] <= interval[1]:
        return f"empty inversion interval {interval}", {}
    return None, {"sigma_lo": interval[0], "sigma_hi": interval[1]}


def coverage_gate(covered: int) -> str | None:
    """Fail when more than COVERAGE_ALLOWED of the seed's first
    COVERAGE_INSTANCES instances miss criterion 5's tolerances; ``covered``
    counts those that met them.  The verdict depends on the seed and the
    code only, not on how many instances the run reached."""
    missed = COVERAGE_INSTANCES - covered
    if missed > COVERAGE_ALLOWED:
        return (f"{missed} of the first {COVERAGE_INSTANCES} instances missed the tolerances;"
                f" at most {COVERAGE_ALLOWED} may")
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def derived_config(ctx: Context, program: str, name: str, replace: dict[str, str]) -> Path:
    """Copy of one of ``program``'s shipped configs with some keys replaced,
    written to the run's directory."""
    lines = []
    for line in (PROGRAMS[program] / "omlattice" / "configs" / name).read_text().splitlines():
        key = line.split("=")[0].strip()
        lines.append(f"{key} = {replace[key]}" if key in replace and "=" in line else line)
    path = ctx.work / f"{program}-{name}"
    path.write_text("\n".join(lines) + "\n")
    return path


def cli_request(*args) -> dict:
    return {"argv": [str(a) for a in args]}


class Workload:
    """An operation is a list of steps, each one request to a worker.

    ``run`` times operations on both programs, ``trace`` traces the
    checkout's.  Every output directory is deleted when the run's workers
    close, not between operations: freeing the blocks of a thousand files
    made the next operation's writes slower and noisier.
    """

    name: str
    config_name: str
    replace: dict[str, str] = {}
    small_replace: dict[str, str] = {}
    # About the baseline's fastest operation on the 2-core machine the
    # benchmark was written on; op_s is this times the run's median
    # current/baseline ratio (see README.md).
    nominal_s: float
    min_ops = MIN_OPS
    pair_every = 1        # run() pairs operations 0, pair_every, 2 * pair_every, ...
    step_span = True      # a traced step gets a span of its own, "cli.<step>"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        replace = self.small_replace if ctx.small else self.replace
        self.configs = {p: derived_config(ctx, p, self.config_name, replace) for p in PROGRAMS}
        self.servers: dict[str, Server] = {}
        self.outputs = ctx.work / "ops"
        self.made = 0
        self.digests: dict = {}
        self.setup_pairs: list[tuple[float, float]] = []
        self.counts: dict = {}

    # -- what a workload defines ------------------------------------------

    def steps(self, d: Path, index: int, program: str) -> list[tuple[str, dict]]:
        raise NotImplementedError

    def gate(self, d: Path, replies: list[dict]) -> Op:
        raise NotImplementedError

    def key(self, index: int) -> int:
        """Operations with one key have the same input and must write the
        same outputs.  A CLI workload has one input, its seed."""
        return 0

    def digest(self, d: Path, replies: list[dict]):
        return tree_digest(d)

    def after_step(self, name: str, d: Path, index: int) -> None:
        """Test seam: runs after each step that succeeded."""

    def trace_counts(self, d: Path) -> dict:
        return {}

    def run_problem(self, ops: list[Op]) -> str | None:
        return None

    def report(self, ops: list[Op]) -> dict:
        return {}

    # -- running ------------------------------------------------------------

    @contextmanager
    def serving(self, programs, traced: bool = False):
        try:
            for program in programs:
                self.servers[program] = Server(self.ctx, program, traced)
            yield
        finally:
            for server in self.servers.values():
                server.close()
            self.servers = {}
            shutil.rmtree(self.outputs, ignore_errors=True)

    def op_dir(self) -> Path:
        self.made += 1
        return self.outputs / f"op{self.made}"

    def step(self, program: str, name: str, request: dict, index: int,
             tracer: tracing.Tracer | None = None, spans: list | None = None) -> dict:
        request = {**request, "op": index, "traced": tracer is not None}
        server = self.servers[program]
        if tracer is None:
            return server.request(request)
        if self.step_span:
            with tracer.span(f"cli.{name}") as record:
                reply = server.request(request)
            parent = record["id"]
        else:
            reply = server.request(request)
            parent = tracer.current
        spans += tracer.adopt(reply["spans"], parent)
        return reply

    def finish(self, d: Path, replies: list[dict], index: int, warmup: bool) -> Op:
        op = self.gate(d, replies)
        op.key, op.warmup = self.key(index), warmup
        if op.ok:
            digest = self.digest(d, replies)
            known = self.digests.setdefault(op.key, digest)
            if digest != known:
                changed = ""
                if isinstance(digest, dict):
                    changed = ": " + ", ".join(sorted(k for k in set(digest) | set(known)
                                                      if digest.get(k) != known.get(k))[:3])
                op.problem = f"outputs differ from the first operation on input {op.key}{changed}"
        return op

    def single_op(self, index: int, warmup: bool = False, tracer: tracing.Tracer | None = None,
                  spans: list | None = None) -> Op:
        """One operation on the checkout's program.  When ``tracer`` is
        given it runs inside a ``client`` span, whose length is its time."""
        d = self.op_dir()
        replies = []
        with tracer.span("client") if tracer else nullcontext() as root:
            for name, request in self.steps(d, index, "current"):
                replies.append(self.step("current", name, request, index, tracer, spans))
                if not succeeded(replies[-1]):
                    break
                self.after_step(name, d, index)
        op = self.finish(d, replies, index, warmup)
        if tracer is not None:
            op.seconds = root["end"] - root["start"]
            for name, value in self.trace_counts(d).items():
                self.counts[name] = self.counts.get(name, 0) + value
        return op

    def paired_op(self, index: int, warmup: bool = False) -> Op:
        """One operation on both programs, each step on one right after the
        other; which program goes first alternates.  The baseline's outputs
        are not checked; if one of its steps fails, the operation has no
        baseline time."""
        d, base_d = self.op_dir(), self.op_dir()
        order = (("current", "baseline") if index // self.pair_every % 2
                 else ("baseline", "current"))
        replies, base_seconds, base_ok = [], 0.0, True
        for (name, request), (_, base_request) in zip(self.steps(d, index, "current"),
                                                      self.steps(base_d, index, "baseline")):
            for program in order:
                if program == "current":
                    replies.append(self.step(program, name, request, index))
                elif base_ok:
                    reply = self.step(program, name, base_request, index)
                    base_seconds += reply["seconds"]
                    base_ok = succeeded(reply)
            if not succeeded(replies[-1]):
                break
            self.after_step(name, d, index)
        op = self.finish(d, replies, index, warmup)
        op.base_seconds = base_seconds if base_ok else None
        return op

    def setup_pair(self) -> None:
        programs = ("current", "baseline") if len(self.setup_pairs) % 2 else ("baseline", "current")
        seconds = {p: setup_probe(self.ctx, p, self.configs[p]) for p in programs}
        self.setup_pairs.append((seconds["current"], seconds["baseline"]))

    def run(self, seconds: float) -> list[Op]:
        """Operations until ``seconds``, every ``pair_every``-th one paired,
        the first a warm-up that is checked but not timed (lazy imports and
        first-call set-up), with set-up probe pairs before, in between and
        after."""
        with self.serving(PROGRAMS):
            self.setup_pair()
            ops = [self.paired_op(0, warmup=True)]
            start = last_probe = time.monotonic()
            while len(ops) < self.min_ops or (
                    time.monotonic() - start
                    + statistics.median(o.seconds + (o.base_seconds or 0.0) for o in ops)
                    <= seconds):
                index = len(ops)
                ops.append(self.paired_op(index) if index % self.pair_every == 0
                           else self.single_op(index))
                if time.monotonic() - last_probe >= SETUP_PROBE_EVERY_S:
                    self.setup_pair()
                    last_probe = time.monotonic()
            self.setup_pair()
        return ops

    def trace(self, tracer: tracing.Tracer, seconds: float):
        """Plain and traced operations of the checkout's program in turn,
        each traced one right after a plain one on the same input, until
        ``seconds``.  Returns the plain operations, the traced ones (their
        time is the ``client`` span, which their self times add up to), the
        spans and the counts read from the traced operations' outputs."""
        spans: list[dict] = []
        traced: list[Op] = []
        with self.serving(["current"], traced=True):
            plain = [self.single_op(0, warmup=True)]
            start = time.monotonic()
            while len(plain) < self.min_ops or len(traced) < MIN_OPS or (
                    time.monotonic() - start
                    + 2 * statistics.median(o.seconds for o in plain[1:] + traced) <= seconds):
                index = len(plain)
                plain.append(self.single_op(index))
                tracer.op = index
                op = self.single_op(index, tracer=tracer, spans=spans)
                op.untraced_s = plain[-1].seconds
                traced.append(op)
        return plain, traced, spans, self.counts


class FlakeRoundtrip(Workload):
    name = "flake-roundtrip"
    config_name = "paper_2d.cfg"
    # Two of the shipped ten source powers: 1,152 traces of 140 samples in the
    # shipped file format, so that each subcommand takes about half a second
    # on a quiet machine and a run repeats the round trip many times.
    replace = {"n_powers": "2"}
    small_replace = {"n_powers": "2", "samples_per_trace": "40"}
    nominal_s = 1.0

    def steps(self, d: Path, index: int, program: str) -> list[tuple[str, dict]]:
        config = self.configs[program]
        return [
            ("measure-sim", cli_request("measure-sim", "--config", config, "--out", d / "dataset",
                                        "--seed", self.ctx.seed)),
            ("recover", cli_request("recover", "--config", config, "--dataset", d / "dataset",
                                    "--out", d / "recovered")),
        ]

    def gate(self, d: Path, replies: list[dict]) -> Op:
        op = Op(sum(r["seconds"] for r in replies), max(r["rss_mb"] for r in replies))
        for (name, _), reply in zip(self.steps(d, 0, "current"), replies):
            op.parts[f"{name.replace('-', '_')}_s"] = reply["seconds"]
            if reply["returncode"] != 0:
                op.problem = f"{name} exited {reply['returncode']}"
                return op
        op.problem, op.values = check_flake(d / "dataset", d / "recovered")
        return op

    def trace_counts(self, d: Path) -> dict:
        if not (d / "dataset").is_dir():
            return {}
        files, size = tree_size(d / "dataset")
        return {"experiment.save.files": files, "experiment.save.bytes": size,
                "experiment.load.bytes": size}

    def report(self, ops: list[Op]) -> dict:
        ok = [o for o in ops if o.ok]
        return {
            "measure_sim_s": _median_metric([o.parts["measure_sim_s"] for o in ok], "s"),
            "recover_s": _median_metric([o.parts["recover_s"] for o in ok], "s"),
            "recover_h_rel_err": _median_metric([o.values["recover_h_rel_err"] for o in ok], "1"),
        }


class ChainDisorder(Workload):
    name = "chain-disorder"
    config_name = "paper_1d.cfg"
    # Three points of the shipped 120-point sigma grid, 4000 samples each: the
    # same per-point work in a fortieth of the time, so that the subcommand
    # takes about half a second on a quiet machine.  The points bracket the
    # measured zeta's interval, so the inversion runs.
    replace = {"sigma_grid": "0.001:0.003:0.001"}
    small_replace = {"sigma_grid": "0.0002:0.0014:0.0004", "samples": "200"}
    nominal_s = 0.45

    def steps(self, d: Path, index: int, program: str) -> list[tuple[str, dict]]:
        return [("disorder", cli_request("disorder", "--config", self.configs[program],
                                         "--out", d / "out", "--seed", self.ctx.seed))]

    def gate(self, d: Path, replies: list[dict]) -> Op:
        reply = replies[0]
        op = Op(reply["seconds"], reply["rss_mb"], parts={"disorder_s": reply["seconds"]})
        if reply["returncode"] != 0:
            op.problem = f"disorder exited {reply['returncode']}"
            return op
        op.problem, op.values = check_disorder(d / "out")
        return op

    def report(self, ops: list[Op]) -> dict:
        return {"disorder_s": _median_metric([o.parts["disorder_s"] for o in ops if o.ok], "s")}


class ChainRecoveryMC(Workload):
    """In-memory recoveries: operation ``i`` is instance ``i`` of the seed."""

    name = "chain-recovery-mc"
    config_name = "paper_1d.cfg"
    nominal_s = 0.3
    # Every run holds the first COVERAGE_INSTANCES instances for the coverage
    # gate; pairing every fourth one keeps a run under a minute.
    min_ops = COVERAGE_INSTANCES
    pair_every = 4
    step_span = False

    def steps(self, d: Path, index: int, program: str) -> list[tuple[str, dict]]:
        return [("recovery", {"chain": index, "seed": self.ctx.seed,
                              "config": str(self.configs[program])})]

    def key(self, index: int) -> int:
        return index

    def digest(self, d: Path, replies: list[dict]):
        return replies[0]["digest"]

    def gate(self, d: Path, replies: list[dict]) -> Op:
        reply = replies[0]
        op = Op(reply["seconds"], reply["rss_mb"])
        if not reply["ok"]:
            op.problem = reply["error"]
        else:
            op.values = {"covered": reply["covered"], "h_rel_err": reply["h_rel_err"]}
        return op

    @staticmethod
    def covered(ops: list[Op]) -> list[Op]:
        return [o for o in ops if o.ok and o.values["covered"]]

    def run_problem(self, ops: list[Op]) -> str | None:
        return coverage_gate(sum(1 for o in self.covered(ops) if o.key < COVERAGE_INSTANCES))

    def report(self, ops: list[Op]) -> dict:
        done = sum(1 for o in ops if o.ok)
        busy = sum(o.seconds for o in ops)
        first = sum(1 for o in self.covered(ops) if o.key < COVERAGE_INSTANCES)
        return {
            "recoveries_per_s": {"value": done / busy if busy else 0.0, "unit": "1/s",
                                 "samples": len(ops)},
            "recovery_coverage": {"value": len(self.covered(ops)) / len(ops) if ops else 0.0,
                                  "unit": "1", "samples": len(ops)},
            "coverage_first_instances": {"value": first / COVERAGE_INSTANCES, "unit": "1",
                                         "samples": COVERAGE_INSTANCES},
        }


WORKLOADS = {w.name: w for w in (FlakeRoundtrip, ChainRecoveryMC, ChainDisorder)}


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _median_metric(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values) if values else 0.0, "unit": unit,
            "samples": len(values)}


def fastest(ops: list[Op]) -> float:
    """The run's fastest operation.  An operation of several subcommands adds
    up the fastest time of each."""
    ok = [o for o in ops if o.ok] or ops
    if ok[0].parts:
        return sum(min(o.parts[step] for o in ok) for step in ok[0].parts)
    return min(o.seconds for o in ok)


def environment(ctx: Context, workload: str, seconds: float, trace: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = probe.stdout.strip() if probe.returncode == 0 else None
    return {
        "nproc": nproc(), "blas_threads": int(child_env(ctx, "current")[BLAS_VARS[0]]),
        "blas_thread_vars": list(BLAS_VARS),
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "git_sha": sha, "workload": workload, "seed": ctx.seed, "seconds": seconds,
        "trace": trace, "small": ctx.small, "load": "closed loop, 1 client",
    }


def per_layer(traced: list[Op], spans: list[dict], counts: dict) -> dict:
    """Self times and counts per traced operation, and the tracing overhead:
    the mean difference between each traced operation and its plain time on
    the same input (``Op.untraced_s``)."""
    n = max(len(traced), 1)
    times = tracing.self_times(spans)
    totals = tracing.count_totals(spans)
    totals.update(counts)
    metrics = {name: {"value": times.get(name, 0.0) / n, "unit": "s"} for name in PER_LAYER_TIMES}
    for name, unit in PER_LAYER_COUNTS.items():
        metrics[name] = {"value": totals.get(name, 0) / n, "unit": unit}
    fit_total = totals.get("experiment.fit_all.traces", 0)
    metrics["experiment.fit_all.useful_ratio"] = {
        "value": (fit_total - totals.get("experiment.fit_all.failed", 0)) / fit_total if fit_total else 0.0,
        "unit": "1"}
    samples = totals.get("disorder.samples", 0)
    metrics["disorder.useful_ratio"] = {
        "value": (samples - totals.get("disorder.failed_samples", 0)) / samples if samples else 0.0,
        "unit": "1"}
    traced_s = statistics.fmean(o.seconds for o in traced)
    untraced_s = statistics.fmean(o.untraced_s for o in traced)
    metrics["trace.traced_op_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.untraced_op_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    return metrics


def run(workload: str, seed: int, seconds: float, trace: int, small: bool = False,
        workload_factory=None) -> dict:
    for program, path in PROGRAMS.items():
        if not (path / "omlattice" / "__init__.py").is_file():
            raise SetupError(f"no {program} omlattice source tree under {path};"
                             " run from the repository root")
    work = WORK / f"{workload}-seed{seed}-trace{trace}{'-small' if small else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(work, seed, small)
    wl = (workload_factory or WORKLOADS[workload])(ctx)
    env = environment(ctx, workload, seconds, trace)

    spans: list[dict] = []
    if trace:
        tracer = tracing.Tracer()
        ops, traced_ops, spans, counts = wl.trace(tracer, seconds)
        spans = tracer.spans + spans
    else:
        ops, traced_ops = wl.run(seconds), []
    problems = [o.problem for o in ops if not o.ok]
    problems += [f"traced: {o.problem}" for o in traced_ops if not o.ok]
    attempted, failed = len(ops) + len(traced_ops), len(problems)
    run_problem = wl.run_problem(ops)
    timed = [o for o in ops if not o.warmup]
    ok = [o for o in timed if o.ok] or timed

    details = {}
    if not trace:
        # the checkout's program relative to the baseline beside it; see README.md
        paired = ([o for o in ok if o.base_seconds is not None]
                  or [o for o in timed if o.base_seconds is not None])
        if not paired:
            raise SetupError("no operation ran on both programs; see "
                             f"{work / 'stderr.txt'}")
        op_ratio = statistics.median(o.seconds / o.base_seconds for o in paired)
        setup_ratio = statistics.median(c / b for c, b in wl.setup_pairs)
        details.update({
            "op_s": {"value": wl.nominal_s * op_ratio, "unit": "s", "samples": len(paired)},
            "setup_s": {"value": SETUP_NOMINAL_S * setup_ratio, "unit": "s",
                        "samples": len(wl.setup_pairs)},
            "op_ratio": {"value": op_ratio, "unit": "1", "samples": len(paired)},
            "setup_ratio": {"value": setup_ratio, "unit": "1", "samples": len(wl.setup_pairs)},
            "setup_median_s": _median_metric([c for c, _ in wl.setup_pairs], "s"),
            "baseline_latency_s": _median_metric([o.base_seconds for o in paired], "s"),
        })
    details.update({
        "op_latency_s": _median_metric([o.seconds for o in ok], "s"),
        "op_best_s": {"value": fastest(ok), "unit": "s", "samples": len(ok)},
        "cold_op_s": {"value": ops[0].seconds, "unit": "s", "samples": 1},
        "peak_rss_mb": _median_metric([o.rss_mb for o in ops], "MB"),
        "error_rate": {"value": failed / attempted, "unit": "1", "samples": attempted},
    })
    details.update(wl.report(timed))
    if trace:
        metrics = per_layer(traced_ops, spans, counts)
        details["trace_accounting"] = {
            "sum_of_self_times_s": sum(metrics[name]["value"] for name in PER_LAYER_TIMES),
            "traced_op_s": metrics["trace.traced_op_s"]["value"],
            "untraced_op_s": metrics["trace.untraced_op_s"]["value"],
            "pairs": len(traced_ops),
            "overhead_per_pair_s": [round(o.seconds - o.untraced_s, 4) for o in traced_ops],
        }
    else:
        metrics = {
            "setup_s": {"value": details["setup_s"]["value"], "unit": "s"},
            "op_s": {"value": details["op_s"]["value"], "unit": "s"},
            "peak_rss_mb": {"value": details["peak_rss_mb"]["value"], "unit": "MB"},
            "success_rate": {"value": 1.0 - failed / attempted, "unit": "1"},
        }
    if run_problem:
        problems.append(run_problem)
    result = {
        "correct": failed == 0 and run_problem is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {"environment": env, "details": details, "problems": problems, "result": result,
              "setup_pairs_s": wl.setup_pairs, "op_s": [o.seconds for o in ops],
              "baseline_op_s": [o.base_seconds for o in ops],
              "op_parts_s": [o.parts for o in ops], "op_warmup": [o.warmup for o in ops],
              "traced_op_s": [o.seconds for o in traced_ops]}
    (work / "result.json").write_text(json.dumps(record, indent=2))
    (work / "spans.json").write_text(json.dumps(spans))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="self-test mode: tiny configs, figures mean nothing")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace, args.small)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, m in record["details"].items():
        if "value" in m:
            print(f"{name} {m['value']:.6g} {m['unit']} (samples {m.get('samples', 1)})")
        else:
            print(f"{name} " + json.dumps(m))
    for problem in record["problems"]:
        print(f"problem {problem}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
