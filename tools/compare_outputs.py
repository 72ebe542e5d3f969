"""Compare what two checkouts write on the shipped configs:
``python tools/compare_outputs.py PARENT [--checkout DIR]``.

PARENT is a checkout directory, or a git revision of the repository at DIR,
which is then extracted with ``git archive`` into a temporary directory.
DIR (default: the checkout this file is in) is taken as it stands,
uncommitted edits included.

In each tree, every run of :data:`RUNS` runs on both configs the tree ships
(``src/omlattice/configs``), each in a fresh interpreter with ``PYTHONPATH``
the tree's ``src``; ``recover`` reads the dataset of ``measure-sim``.  The
report is one Markdown table with, per run, a row for its exit code, one
for its stderr and one per file it wrote: the first 12 hex digits of each
side's sha256 and, for a numeric file (csv, json, npy) that differs, the
largest absolute and relative change over its numbers.  A count of
identical and differing rows follows.  It gates nothing: it exits 0
whatever the rows say.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CONFIGS = ("paper_1d.cfg", "paper_2d.cfg")
# run name: the subcommand and its options besides --config, --out and --dataset
RUNS = {
    "spectrum-csv": ("spectrum", "--format", "csv", "--svg"),
    "spectrum-json": ("spectrum", "--format", "json"),
    "topology": ("topology", "--svg"),
    "measure-sim": ("measure-sim",),
    "recover-csv": ("recover", "--format", "csv"),
    "recover-json": ("recover", "--format", "json"),
    "disorder": ("disorder", "--svg"),
}
MISSING = "—"


def run_all(tree: Path, work: Path) -> dict[str, tuple[int, bytes]]:
    """Run every config and run of ``tree`` under ``work``, the config's
    stem and the run's name naming its output directory; the exit code and
    stderr of each.  Paths are relative to ``work``, so that a message
    naming a file reads alike in both trees."""
    shutil.copytree(tree / "src" / "omlattice" / "configs", work / "configs")
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    results = {}
    for config in CONFIGS:
        stem = Path(config).stem
        for name, (command, *options) in RUNS.items():
            argv = [sys.executable, "-m", "omlattice.cli", command, *options,
                    "--config", f"configs/{config}", "--out", f"{stem}/{name}"]
            if command == "recover":
                argv += ["--dataset", f"{stem}/measure-sim"]
            proc = subprocess.run(argv, cwd=work, env=env, capture_output=True)
            results[f"{stem}/{name}"] = proc.returncode, proc.stderr
    return results


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def tokens(path: Path) -> list | None:
    """The cells of a csv, the keys and values of a json or the entries of
    an npy file in file order, numbers as floats; None for other files."""
    if path.suffix == ".npy":
        return [float(x) for x in np.load(path, allow_pickle=False).ravel()]
    if path.suffix == ".csv":
        with path.open(newline="") as handle:
            cells = [cell for row in csv.reader(handle) for cell in row]
        return [_number(cell) for cell in cells]
    if path.suffix == ".json":
        found = []

        def walk(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    found.append(key)
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                found.append(float(node))
            else:
                found.append(node)

        walk(json.loads(path.read_text()))
        return found
    return None


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def largest_change(old: list, new: list) -> tuple[float, float] | None:
    """The largest absolute and relative change between the numbers of two
    token lists; None when their other tokens or their layout differ.  A
    change from 0 is infinitely large relative to it; equal NaNs count as
    equal."""
    if len(old) != len(new) or any(isinstance(a, float) != isinstance(b, float)
                                   or not isinstance(a, float) and a != b for a, b in zip(old, new)):
        return None
    x = np.array([a for a in old if isinstance(a, float)])
    y = np.array([b for b in new if isinstance(b, float)])
    moved = ~((x == y) | (np.isnan(x) & np.isnan(y)))
    if not moved.any():
        return 0.0, 0.0
    with np.errstate(all="ignore"):
        change = np.abs(y[moved] - x[moved])
        relative = change / np.abs(x[moved])
    change = np.where(np.isnan(change), np.inf, change)
    relative = np.where(np.isnan(relative), np.inf, relative)
    return float(change.max()), float(relative.max())


def compare_dirs(old: Path, new: Path) -> list[tuple[str, str, str, str, str]]:
    """One row per file under either directory, by relative path: the file,
    both digests (:data:`MISSING` where a side lacks it) and, for a numeric
    file that differs, its largest absolute and relative change (else
    empty, or :data:`MISSING` when the layouts do not match)."""
    files = sorted({path.relative_to(root).as_posix() for root in (old, new) if root.is_dir()
                    for path in root.rglob("*") if path.is_file()})
    rows = []
    for name in files:
        a, b = old / name, new / name
        digests = [digest(path.read_bytes()) if path.is_file() else MISSING for path in (a, b)]
        change = ("", "")
        if MISSING not in digests and digests[0] != digests[1]:
            old_tokens, new_tokens = tokens(a), tokens(b)
            if old_tokens is not None:
                moved = largest_change(old_tokens, new_tokens)
                change = (MISSING, MISSING) if moved is None else tuple(f"{v:.1e}" for v in moved)
        rows.append((name, *digests, *change))
    return rows


def report(old_work: Path, new_work: Path, old_results: dict, new_results: dict) -> str:
    lines = ["| run | file | parent | change | largest abs change | largest rel change |",
             "| --- | --- | --- | --- | --- | --- |"]
    same = differ = 0
    for run in old_results:
        (old_code, old_err), (new_code, new_err) = old_results[run], new_results[run]
        rows = [("exit code", str(old_code), str(new_code), "", ""),
                ("stderr", digest(old_err), digest(new_err), "", ""),
                *compare_dirs(old_work / run, new_work / run)]
        for name, a, b, change, relative in rows:
            lines.append(f"| {run} | {name} | {a} | {b} | {change} | {relative} |")
            same, differ = (same + 1, differ) if a == b else (same, differ + 1)
    lines.append("")
    lines.append(f"{same} rows identical, {differ} differ")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="a checkout directory, or a git revision of DIR's repository")
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        parent = Path(args.parent)
        if not parent.is_dir():
            archive = subprocess.run(["git", "-C", str(args.checkout), "archive", args.parent],
                                     check=True, capture_output=True).stdout
            parent = tmp / "tree"
            parent.mkdir()
            subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        results = []
        for side, tree in (("parent", parent), ("change", args.checkout)):
            (tmp / side).mkdir()
            results.append(run_all(tree, tmp / side))
        print(report(tmp / "parent", tmp / "change", *results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
