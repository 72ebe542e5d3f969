import json
from pathlib import Path

import pytest


def _save_legacy_csv(dataset, directory) -> None:
    """Write ``dataset`` in the layout of earlier versions: the same manifest
    without ``offset``/``samples``, each entry's ``file`` naming its own CSV,
    written one 17-digit line per sample as their writer did."""
    directory = Path(directory)
    dataset.save(directory)
    (directory / "traces" / "traces.npy").unlink()
    manifest = json.loads((directory / "manifest.json").read_text())
    for entry in manifest["traces"]:
        entry["file"] = "traces/k{mode:02d}_i{site:02d}_p{power_index:02d}.csv".format(**entry)
        del entry["offset"], entry["samples"]
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    for (k, i, p), trace in dataset.traces.items():
        with open(directory / "traces" / f"k{k:02d}_i{i:02d}_p{p:02d}.csv", "w") as fh:
            fh.write("time_s,power\n")
            for t, y in zip(trace.times, trace.powers):
                fh.write(f"{t:.17g},{y:.17g}\n")


@pytest.fixture()
def save_legacy_csv():
    """Reference writer of the per-trace CSV datasets that ``load`` still reads."""
    return _save_legacy_csv
