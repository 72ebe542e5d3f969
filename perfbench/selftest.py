"""Self-tests of the benchmark, on the tiny configs of ``--small`` mode.

Run from the repository root:

    python3 perfbench/selftest.py

The file is not named ``test_*.py`` on purpose: the repository's pytest run
stays the package's own suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def small_context(tag: str) -> run.Context:
    work = run.WORK / f"selftest-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return run.Context(work, seed=3, small=True)


def run_steps(workload: run.Workload, out: Path) -> list[dict]:
    """Operation 0's steps on the checkout's program, writing under ``out``."""
    with workload.serving(["current"]):
        return [workload.step("current", name, request, 0)
                for name, request in workload.steps(out, 0, "current")]


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for workload in BENCHMARK["workloads"]:
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = bench("--workload", workload["name"], "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--small")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], run.MIN_OPS)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, expected)
                    if trace:
                        accounting = next(
                            json.loads(line.split(" ", 1)[1]) for line in proc.stdout.splitlines()
                            if line.startswith("trace_accounting "))
                        self.assertAlmostEqual(accounting["sum_of_self_times_s"],
                                               accounting["traced_op_s"], places=9)
                        self.assertGreaterEqual(accounting["pairs"], run.MIN_OPS)

    def test_bare_directory_fails_without_result(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "chain-disorder", "--seed", "1", "--seconds", "1", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class FlakeGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        ctx = small_context("flake-gate")
        cls.out = ctx.work / "good"
        replies = run_steps(run.FlakeRoundtrip(ctx), cls.out)
        assert [r["returncode"] for r in replies] == [0, 0]

    def tampered(self, edit) -> Path:
        copy = self.out.parent / "tampered"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.out, copy)
        path = copy / "recovered" / "report.json"
        report = json.loads(path.read_text())
        edit(report)
        path.write_text(json.dumps(report))
        return copy

    def test_untouched_output_passes(self):
        problem, values = run.check_flake(self.out / "dataset", self.out / "recovered")
        self.assertIsNone(problem)
        self.assertLess(values["recover_h_rel_err"], run.FLAKE_H_REL_ERR_BOUND)

    def test_tampered_report_fails(self):
        edits = {
            "not orthogonalized": lambda r: r.update(orthogonalized=False),
            "large error": lambda r: r.update(h_rel_frobenius_error=0.5),
            "nan error": lambda r: r.update(h_rel_frobenius_error=float("nan")),
            "missing error": lambda r: r.pop("h_rel_frobenius_error"),
        }
        for label, edit in edits.items():
            with self.subTest(label):
                copy = self.tampered(edit)
                problem, _ = run.check_flake(copy / "dataset", copy / "recovered")
                self.assertIsNotNone(problem)


class TruncatedFirstTrace(run.FlakeRoundtrip):
    """Cuts one trace CSV in half between measure-sim and recover, in the first operation only."""

    def after_step(self, name, d, index):
        if name == "measure-sim" and index == 0:
            trace = sorted((d / "dataset" / "traces").iterdir())[0]
            data = trace.read_bytes()
            trace.write_bytes(data[: len(data) // 2])


class TruncatedTrace(unittest.TestCase):
    def test_counted_as_failure_and_run_goes_on(self):
        record = run.run("flake-roundtrip", 3, 0.0, 0, small=True, workload_factory=TruncatedFirstTrace)
        result = record["result"]
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], run.MIN_OPS)
        self.assertEqual(result["failed"], 1)
        self.assertEqual(record["details"]["error_rate"]["value"], 1 / run.MIN_OPS)
        self.assertEqual(result["metrics"]["success_rate"]["value"], 1 - 1 / run.MIN_OPS)


class InteractionMap(unittest.TestCase):
    def test_covers_every_workload_and_layer_metric(self):
        interactions = json.loads((HERE / "interactions.json").read_text())
        workloads = {w["name"] for w in BENCHMARK["workloads"]}
        self.assertEqual(set(interactions["per_layer"]), {m["name"] for m in BENCHMARK["per_layer"]})
        for entry in interactions["per_layer"].values():
            self.assertLessEqual(set(entry["moves"]) | set(entry["unchanged_on"]), workloads)
            self.assertFalse(set(entry["moves"]) & set(entry["unchanged_on"]))


class Gates(unittest.TestCase):
    def test_coverage_gate(self):
        first = run.COVERAGE_INSTANCES
        self.assertIsNone(run.coverage_gate(first))
        self.assertIsNone(run.coverage_gate(first - run.COVERAGE_ALLOWED))
        self.assertIsNotNone(run.coverage_gate(first - run.COVERAGE_ALLOWED - 1))
        self.assertIsNotNone(run.coverage_gate(0))

    def test_disorder_gate(self):
        ctx = small_context("disorder-gate")
        replies = run_steps(run.ChainDisorder(ctx), ctx.work)
        self.assertEqual(replies[0]["returncode"], 0)
        out = ctx.work / "out"
        self.assertIsNone(run.check_disorder(out)[0])
        rows = (out / "ensemble.csv").read_text().splitlines()
        cells = rows[1].split(",")
        cells[2], cells[5] = cells[5], cells[2]  # p5 above p95
        (out / "ensemble.csv").write_text("\n".join([rows[0], ",".join(cells), *rows[2:]]) + "\n")
        self.assertIsNotNone(run.check_disorder(out)[0])


if __name__ == "__main__":
    unittest.main()
