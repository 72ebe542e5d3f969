"""Record where a checkout's time goes, as one entry of a ``BENCH_<n>.json``:
``python tools/bench_snapshot.py OUT [--checkout DIR] [--label NAME]``.

For the checkout at DIR (default: the one this file is in) it

* runs ``perfbench/run.py`` on each workload (seed 1, ``--seconds 30``,
  ``--trace 0``) and keeps the end-to-end result and the named figures of
  its ``result.json``;
* times each CLI subcommand on both shipped configs in a fresh interpreter
  (``PYTHONPATH`` the checkout's ``src``), the median of 5 runs.  ``disorder``
  runs only on ``paper_1d.cfg``, with its sigma grid cut to the benchmark's 3
  points (``0.001:0.003:0.001``); the flake has no disorder ensemble.

The entry, with the machine, the Python and numpy versions, the git sha and
whether tracked files differ from it, goes under NAME (default ``change``)
into OUT, which keeps its other entries: run it once per checkout to compare
two.  No figure is a gate.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("flake-roundtrip", "chain-recovery-mc", "chain-disorder")
SEED, SECONDS, REPEATS = 1, 30, 5
CUT_SIGMA_GRID = "0.001:0.003:0.001"
# (config, subcommand), in the order they run; recover reads measure-sim's dataset
CLI_RUNS = [(config, command) for config in ("paper_1d.cfg", "paper_2d.cfg")
            for command in ("spectrum", "topology", "measure-sim", "recover")] \
    + [("paper_1d.cfg", "disorder")]


def run_workload(checkout: Path, workload: str) -> dict:
    """The result and named figures of one benchmark run in ``checkout``."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                    "--seconds", str(SECONDS), "--trace", "0"],
                   cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    result = json.loads((checkout / ".perfbench-work" / f"{workload}-seed{SEED}-trace0"
                         / "result.json").read_text())
    return {"result": result["result"],
            "figures": {name: figure["value"] for name, figure in result["details"].items()}}


def time_cli(checkout: Path, work: Path) -> dict:
    """Median wall time and exit code of each of :data:`CLI_RUNS`."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    configs = checkout / "src" / "omlattice" / "configs"
    cut = work / "paper_1d-cut.cfg"
    cut.write_text("".join(f"sigma_grid = {CUT_SIGMA_GRID}\n" if line.startswith("sigma_grid") else line
                           for line in (configs / "paper_1d.cfg").read_text().splitlines(True)))
    figures = {}
    for config, command in CLI_RUNS:
        path = cut if command == "disorder" else configs / config
        argv = [sys.executable, "-m", "omlattice.cli", command, "--config", str(path)]
        if command == "recover":
            argv += ["--dataset", str(work / f"{config}-measure-sim-0")]
        seconds, codes = [], set()
        for repeat in range(REPEATS):
            start = time.monotonic()
            proc = subprocess.run([*argv, "--out", str(work / f"{config}-{command}-{repeat}")],
                                  env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            seconds.append(time.monotonic() - start)
            codes.add(proc.returncode)
        figures[f"{config} {command}"] = {"median_s": statistics.median(seconds),
                                          "exit_codes": sorted(codes)}
    return figures


def snapshot(checkout: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True).stdout

    sha = git("rev-parse", "HEAD").strip() or None
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as work:
        cli = time_cli(checkout, Path(work))
    return {
        "git_sha": sha,
        # uncommitted edits of tracked files: the figures are of those, on top of git_sha
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count()},
        "versions": {"python": platform.python_version(), "numpy": numpy},
        "benchmark": {"seed": SEED, "seconds": SECONDS,
                      **{workload: run_workload(checkout, workload) for workload in WORKLOADS}},
        "cli": {"repeats": REPEATS, "disorder_sigma_grid": CUT_SIGMA_GRID, **cli},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--label", default="change")
    args = parser.parse_args(argv)
    entries = json.loads(args.out.read_text()) if args.out.exists() else {}
    entries[args.label] = snapshot(args.checkout.resolve())
    args.out.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
