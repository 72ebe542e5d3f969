"""tools/compare_outputs.py: the rows it reports for two output directories."""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: Path, files: dict) -> None:
    for name, content in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, np.ndarray):
            np.save(path, content)
        else:
            path.write_text(content)


def short(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12]


def test_compare_dirs_rows(tmp_path, compare_outputs):
    same = "site,value\n0,1.5\n"
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_tree(parent, {
        "same.csv": same, "moved.csv": "site,value\n0,2.0\n1,-4.0\n", "plot.svg": "<svg/>",
        "report.json": json.dumps({"error": 1e-10, "modes": [1, 2], "ok": True}),
        "traces/traces.npy": np.array([[0.0, 1.0], [0.5, 0.0]]), "relabelled.csv": "a\n1\n",
        "gone.csv": same,
    })
    write_tree(change, {
        "same.csv": same, "moved.csv": "site,value\n0,2.5\n1,-4.0\n", "plot.svg": "<svg />",
        "report.json": json.dumps({"error": 1e-10, "modes": [1, 3], "ok": True}),
        "traces/traces.npy": np.array([[0.0, 1.0], [0.5, 1e-3]]), "relabelled.csv": "b\n1\n",
        "new.csv": same,
    })
    rows = {row[0]: row[1:] for row in compare_outputs.compare_dirs(parent, change)}
    missing = compare_outputs.MISSING
    assert list(rows) == sorted(rows)
    assert rows["same.csv"] == (short(parent / "same.csv"),) * 2 + ("", "")
    # 2.0 -> 2.5: 0.5 absolute, a quarter relative
    assert rows["moved.csv"] == (short(parent / "moved.csv"), short(change / "moved.csv"),
                                 "5.0e-01", "2.5e-01")
    assert rows["report.json"][2:] == ("1.0e+00", "5.0e-01")
    # a change from 0 is infinitely large relative to it
    assert rows["traces/traces.npy"][2:] == ("1.0e-03", "inf")
    # not numeric, or numbers laid out among other text that moved
    assert rows["plot.svg"][2:] == ("", "")
    assert rows["relabelled.csv"][2:] == (missing, missing)
    assert rows["gone.csv"] == (short(parent / "gone.csv"), missing, "", "")
    assert rows["new.csv"] == (missing, short(change / "new.csv"), "", "")


def test_report_counts_exit_codes_and_stderr(tmp_path, compare_outputs):
    write_tree(tmp_path / "parent" / "paper_1d" / "spectrum-csv", {"modes.csv": "a\n1\n"})
    write_tree(tmp_path / "change" / "paper_1d" / "spectrum-csv", {"modes.csv": "a\n1\n"})
    results = ({"paper_1d/spectrum-csv": (0, b""), "paper_2d/disorder": (2, b"configuration error: x\n")},
               {"paper_1d/spectrum-csv": (0, b""), "paper_2d/disorder": (3, b"numerical failure: y\n")})
    table = compare_outputs.report(tmp_path / "parent", tmp_path / "change", *results).splitlines()
    assert "| paper_1d/spectrum-csv | modes.csv |" in table[4]
    assert table[5] == "| paper_2d/disorder | exit code | 2 | 3 |  |  |"
    assert table[-1] == "3 rows identical, 2 differ"
