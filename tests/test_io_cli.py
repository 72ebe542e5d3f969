import configparser
import functools
import json
import operator
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import omlattice as om
from omlattice import io as om_io
from omlattice.cli import main

CONFIG_DIR = Path(om.__file__).resolve().parent / "configs"
SRC_DIR = Path(om.__file__).resolve().parent.parent

SMALL_CFG = """
[lattice]
kind = ssh-chain
n_cells = 2
cavity_freq_hz = 7.12e9

[couplings]
j_hz = 470e6
j_prime_hz = 700e6

[mechanics]
freqs_hz = 2.1e6, 2.15e6, 2.2e6, 2.25e6
linewidths_hz = 10
g0_hz = 10

[readout]
kappa_tot_hz = 2e6
kappa_1_fraction = 0.125
kappa_2_fraction = 0.125

[measurement]
n_powers = 5
drive_flux_max = auto
snr = inf
samples_per_trace = 60
seed = 3

[disorder]
sigma_grid = 0:0.002:0.001
samples = 150
seed = 5
zeta_measured = 0.98
confidence = 0.9
"""


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def edited_config(tmp_path: Path, section: str, key: str, value: str | None) -> Path:
    """SMALL_CFG with ``key`` of ``[section]`` set to ``value``, or deleted
    when ``value`` is None; a section SMALL_CFG lacks is added."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(SMALL_CFG)
    if not parser.has_section(section):
        parser.add_section(section)
    if value is None:
        del parser[section][key]
    else:
        parser[section][key] = value
    path = tmp_path / "edited.cfg"
    with open(path, "w") as fh:
        parser.write(fh)
    return path


# Values outside the lattice, measurement, disorder or circuit model, values
# that do not parse and required keys left out (None), with the subcommand
# that reads them: each is a configuration error.
OUTSIDE_THE_MODEL = [
    ("spectrum", "lattice", "kind", "kagome"),
    ("spectrum", "lattice", "kind", "ribbon-unit-cell"),
    ("spectrum", "lattice", "n_cells", "0"),
    ("spectrum", "lattice", "n_cells", "-3"),
    ("spectrum", "lattice", "n_cells", "2.5"),
    ("spectrum", "lattice", "cavity_freq_hz", "inf"),
    ("spectrum", "lattice", "cavity_freq_hz", "nan"),
    ("spectrum", "lattice", "cavity_freq_hz", "0"),
    ("measure-sim", "lattice", "cavity_freq_hz", "inf"),
    ("disorder", "lattice", "cavity_freq_hz", "inf"),
    ("measure-sim", "mechanics", "freqs_hz", "nan"),
    ("measure-sim", "mechanics", "freqs_hz", "inf"),
    ("measure-sim", "mechanics", "linewidths_hz", "nan"),
    ("measure-sim", "mechanics", "linewidths_hz", "inf"),
    ("measure-sim", "mechanics", "linewidths_hz", "-1"),
    ("measure-sim", "mechanics", "g0_hz", "nan"),
    ("measure-sim", "mechanics", "g0_hz", "inf"),
    ("measure-sim", "mechanics", "g0_hz", "-1"),
    ("measure-sim", "measurement", "snr", "0"),
    ("measure-sim", "measurement", "snr", "-5"),
    ("measure-sim", "measurement", "snr", "nan"),
    ("measure-sim", "measurement", "n_powers", "0"),
    ("measure-sim", "measurement", "n_powers", "1"),
    ("measure-sim", "measurement", "p0", "0"),
    # outside [1e-100, 1e100]: from about 1e-160 down and 1e155 up fits fail
    ("measure-sim", "measurement", "p0", "9.9e-101"),
    ("measure-sim", "measurement", "p0", "1.01e100"),
    ("measure-sim", "measurement", "p0", "-1"),
    ("measure-sim", "measurement", "p0", "nan"),
    ("measure-sim", "measurement", "p0", "inf"),
    ("measure-sim", "measurement", "samples_per_trace", "1"),
    # every ringdown shorter than measure.MIN_FIT_SAMPLES could not be fitted
    ("measure-sim", "measurement", "samples_per_trace", "9"),
    ("measure-sim", "measurement", "drive_flux_max", "0"),
    ("measure-sim", "measurement", "drive_flux_max", "-1e14"),
    ("measure-sim", "measurement", "drive_flux_max", "nan"),
    ("measure-sim", "measurement", "drive_flux_max", "inf"),
    ("measure-sim", "measurement", "seed", "-3"),
    ("disorder", "disorder", "seed", "-3"),
    ("disorder", "disorder", "samples", "0"),
    ("disorder", "disorder", "samples", "-5"),
    ("disorder", "disorder", "confidence", "0.5"),
    ("disorder", "disorder", "sigma_grid", "-0.001"),
    ("disorder", "disorder", "sigma_grid", "nan"),
    ("disorder", "disorder", "sigma_grid", "0, inf"),
    ("disorder", "disorder", "sigma_grid", "0:inf:0.001"),
    ("disorder", "disorder", "sigma_grid", "0:nan:0.001"),
    ("disorder", "disorder", "sigma_grid", "0:0.001:nan"),
    # about 1e297 values, refused before any is built
    ("disorder", "disorder", "sigma_grid", "0.001:0.002:1e-300"),
    ("disorder", "disorder", "sigma_grid", "0:1:0.00001"),
    # above lattice._MAX_SIGMA a site's frequency factor 1 + N(0, sigma) can reach 0
    ("disorder", "disorder", "sigma_grid", "2"),
    ("disorder", "disorder", "sigma_grid", "0.001, 0.11"),
    ("disorder", "disorder", "sigma_grid", "0:0.2:0.05"),
    ("disorder", "disorder", "zeta_measured", "1.5"),
    ("disorder", "disorder", "zeta_measured", "-0.1"),
    ("disorder", "disorder", "zeta_measured", "nan"),
    ("measure-sim", "measurement", "seed", "2.5"),
    ("measure-sim", "measurement", "seed", "%(x)s"),  # read as written, not interpolated
    ("measure-sim", "measurement", "n_powers", "ten"),
    ("disorder", "disorder", "samples", "1e3"),
    ("spectrum", "couplings", "j_hz", "abc"),
    ("measure-sim", "measurement", "p0", "x"),
    ("measure-sim", "measurement", "snr", "abc"),
    ("measure-sim", "readout", "kappa_1_fraction", "2"),
    ("circuit", "circuit", "inductance_h", "abc"),
    ("circuit", "circuit", "inductance_h", "nan"),
    ("circuit", "circuit", "inductance_h", "-1e-9"),
    ("circuit", "circuit", "neumann_segments", "4"),
    ("circuit", "circuit", "neumann_segments", "2.5"),
    ("spectrum", "lattice", "n_cells", None),
    ("measure-sim", "readout", "kappa_tot_hz", None),
]


# Values outside the flake's model, as edits of a flake made from SMALL_CFG:
# the couplings that only a chain has.  The lattice's own check refuses them.
OUTSIDE_THE_FLAKE_MODEL = [
    ("spectrum", "couplings", "j3_hz", "27e6"),
    ("topology", "couplings", "j3_prime_hz", "37e6"),
    ("measure-sim", "couplings", "j3_hz", "1"),
]


def legacy_dataset(config: Path, tmp_path: Path, save_legacy_csv) -> Path:
    """``measure-sim`` output (left in ``tmp_path / "npy"``) rewritten as a
    per-trace CSV dataset."""
    assert main(["measure-sim", "--config", str(config), "--out", str(tmp_path / "npy")]) == 0
    save_legacy_csv(om.MeasurementDataset.load(tmp_path / "npy"), tmp_path / "legacy")
    return tmp_path / "legacy"


def converted(dataset: Path, upgrade_dataset) -> Path:
    """``dataset`` (an earlier version) converted to format 3 next to it."""
    assert upgrade_dataset.main([str(dataset), str(dataset.with_name(dataset.name + "-3"))]) == 0
    return dataset.with_name(dataset.name + "-3")


def v2_dataset(config: Path, tmp_path: Path, save_v2) -> Path:
    """``measure-sim`` output (left in ``tmp_path / "npy"``) rewritten as a
    dataset with per-trace manifest entries locating each trace in
    ``traces.npy``."""
    assert main(["measure-sim", "--config", str(config), "--out", str(tmp_path / "npy")]) == 0
    save_v2(om.MeasurementDataset.load(tmp_path / "npy"), tmp_path / "v2")
    return tmp_path / "v2"


def recover_or_convert(config: Path, dataset: Path, out: Path, upgrade_dataset, convert: bool) -> int:
    """The exit code of the converter (``convert``; ``out`` is its
    destination) or of ``recover`` on ``dataset``."""
    if convert:
        return upgrade_dataset.main([str(dataset), str(out)])
    return main(["recover", "--config", str(config), "--dataset", str(dataset), "--out", str(out)])


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this omlattice."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=300)


def _locate(manifest: dict, key: str):
    """The container and index of the manifest item that ``key`` names, as
    in ``traces[0].mode`` or ``samples[0][0][0]``."""
    *path, last = [int(t[1:-1]) if t.startswith("[") else t
                   for t in re.findall(r"\[\d+\]|[^.\[\]]+", key)]
    return functools.reduce(operator.getitem, path, manifest), last


def _both(name, key, value, expected):
    """The case of a field that manifests of every version have, for recover
    and for the converter."""
    return [pytest.param(convert, key, value, expected,
                         id=f"{name}-{'converter' if convert else 'recover'}")
            for convert in (False, True)]


NAN = float("nan")
# Manifest values outside the model: (convert, key, new value or an edit of
# the old one, part of the message).  recover reads measure-sim's format-3
# output, the converter a v2 dataset; format-3 fields are per-trace entries
# there.
VALUES_OUTSIDE_THE_MODEL = [
    *_both("kappa-tot-negative", "readouts[0].kappa_tot_hz", -1,
           "readouts[0]: kappa_tot must be positive"),
    *_both("kappa-tot-nan", "readouts[3].kappa_tot_hz", NAN, "readouts[3]: kappa_tot must be positive"),
    *_both("kappa-1-too-large", "readouts[1].kappa_1_hz", 1e9,
           "readouts[1]: kappa_1 + kappa_2 cannot exceed kappa_tot"),
    *_both("transmittance-string", "readouts[2].transmittance", "x",
           "'readouts' must be 4 readouts: the keys kappa_tot_hz"),
    *_both("seed-string", "master_seed", "x", "'master_seed' must be one integer: >= 0; got 'x'"),
    *_both("seed-negative", "master_seed", -1, "'master_seed' must be one integer: >= 0; got -1"),
    *_both("seed-float", "master_seed", 1.5, "'master_seed' must be one integer: >= 0; got 1.5"),
    *_both("seed-bool", "master_seed", True, "'master_seed' must be one integer: >= 0; got True"),
    *_both("labels-integers", "site_labels", lambda labels: list(range(len(labels))),
           "'site_labels' must be 4 texts: without ',' or line break; got [0, 1, 2, 3]"),
    *_both("labels-short", "site_labels", lambda labels: labels[:3], "'site_labels' must be 4 texts"),
    # one entry of another JSON type, which one np.array call would coerce
    *_both("label-integer", "site_labels[0]", 7,
           "'site_labels' must be 4 texts: without ',' or line break; got [7, "),
    *_both("width-bool", "mech_linewidths_hz[0]", True,
           "'mech_linewidths_hz' must be 4 numbers: finite >= 0; got [True, "),
    *_both("flux-bool", "drive_fluxes[1]", True,
           "'drive_fluxes' must be powers numbers: finite > 0, at least 2; got ["),
    *_both("transmittance-bool", "readouts[2].transmittance", True,
           "'readouts' must be 4 readouts: the keys kappa_tot_hz"),
    pytest.param(False, "samples[0][1][2]", True, "'samples' must be 4 × 4 × 5 integers: >= 0",
                 id="samples-bool-recover"),
    *_both("labels-comma", "site_labels[1]", "a,b", "got site_labels[1] = 'a,b'"),
    *_both("readouts-short", "readouts", lambda readouts: readouts[:3], "'readouts' must be 4 readouts"),
    *_both("modes-descending", "mode_freqs_hz", lambda freqs: freqs[::-1],
           "'mode_freqs_hz' must be n numbers: finite > 0 and non-decreasing; got mode_freqs_hz[1] = "),
    *_both("mode-string", "mode_freqs_hz[0]", "x", "'mode_freqs_hz' must be n numbers"),
    *_both("mode-nan", "mode_freqs_hz[0]", NAN, "got mode_freqs_hz[0] = nan"),
    *_both("mode-list", "mode_freqs_hz[0]", [1.0], "'mode_freqs_hz' must be n numbers"),
    *_both("mech-negative", "mech_freqs_hz[0]", -1, "'mech_freqs_hz' must be 4 numbers: finite > 0; "
                                                     "got mech_freqs_hz[0] = -1.0"),
    *_both("widths-strings", "mech_linewidths_hz", lambda widths: [str(w) for w in widths],
           "'mech_linewidths_hz' must be 4 numbers: finite >= 0; got ['10.0', "),
    *_both("widths-one", "mech_linewidths_hz", lambda widths: widths[:1],
           "'mech_linewidths_hz' must be 4 numbers: finite >= 0; got [10.0]"),
    *_both("flux-string", "drive_fluxes[0]", "x", "'drive_fluxes' must be powers numbers"),
    *_both("flux-negative", "drive_fluxes[0]", -1, "got drive_fluxes[0] = -1.0"),
    *_both("flux-nan", "drive_fluxes[0]", NAN, "got drive_fluxes[0] = nan"),
    *_both("flux-one", "drive_fluxes", lambda fluxes: fluxes[:1], "finite > 0, at least 2; got "),
    pytest.param(False, "noise_floor", NAN, "'noise_floor' must be one number: finite >= 0; got nan",
                 id="floor-nan-recover"),
    pytest.param(True, "traces[0].noise_floor", NAN,
                 "traces[0].noise_floor nan is not a number finite >= 0", id="floor-nan-converter"),
    pytest.param(False, "noise_floor", -1, "'noise_floor' must be one number: finite >= 0; got -1",
                 id="floor-negative-recover"),
    pytest.param(True, "traces[0].noise_floor", -1,
                 "traces[0].noise_floor -1 is not a number finite >= 0", id="floor-negative-converter"),
    # a float cannot hold it
    pytest.param(True, "traces[0].noise_floor", 10**400,
                 "traces[0].noise_floor 1000", id="floor-huge-converter"),
    pytest.param(False, "true_gamma_eff_hz[1][2][3]", -1.0,
                 "got true_gamma_eff_hz[1, 2, 3] = -1.0", id="gamma-negative-recover"),
    pytest.param(True, "traces[5].true_gamma_eff_hz", -1.0,
                 "traces[5].true_gamma_eff_hz -1.0 is not a number finite >= 0, or null",
                 id="gamma-negative-converter"),
]


def _edit_csv(edit):
    def apply(path):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
    return apply


def _edit_npy(edit):
    def apply(path):
        np.save(path, edit(np.load(path)))
    return apply


def _out_of_range(path):
    manifest_path = path.parent.parent / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["traces"][-1]["samples"] += 1
    manifest_path.write_text(json.dumps(manifest))


def _one_sample_first_trace(path):
    manifest_path = path.parent.parent / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    size = manifest["samples"][0][0][0]
    manifest["samples"][0][0][0] = 1
    manifest_path.write_text(json.dumps(manifest))
    np.save(path, np.delete(np.load(path), range(1, size), axis=1))


def _one_trace_holds_all(manifest):
    """Give trace (0, 0, 0) every sample of the trace file and the others none."""
    total = int(np.sum(manifest["samples"]))
    manifest["samples"] = np.zeros_like(manifest["samples"]).tolist()
    manifest["samples"][0][0][0] = total


def _set_sample(row, column, value):
    def apply(data):
        data[row, column] = value
        return data
    return apply


# Each class of malformed trace data, as an edit of the trace file at ``path``
# of a v1 ("csv-" cases) or v2 (V2_TRACE_CASES) dataset, which the converter
# refuses, or of a format-3 dataset, which recover refuses.
MALFORMED_TRACES = {
    "csv-header-only": _edit_csv(lambda lines: lines[:1]),
    "csv-one-row": _edit_csv(lambda lines: lines[:2]),
    "csv-non-numeric": _edit_csv(lambda lines: lines[:3] + ["0.5,abc"] + lines[4:]),
    "csv-three-columns": _edit_csv(lambda lines: [line + ",1" for line in lines]),
    "csv-times-not-increasing": _edit_csv(lambda lines: lines[:1] + lines[1:][::-1]),
    "npy-missing": lambda path: path.unlink(),
    "npy-truncated": lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
    "npy-not-an-array": lambda path: path.write_text("time_s,power\n0,1\n"),
    "npy-wrong-dtype": _edit_npy(lambda data: data.astype(np.float32)),
    "npy-wrong-ndim": _edit_npy(lambda data: data.ravel()),
    "npy-offset-out-of-range": _out_of_range,
    "npy-times-not-increasing": _edit_npy(_set_sample(0, 2, 0.0)),
    "npy-negative-power": _edit_npy(_set_sample(1, 5, -1.0)),
    "npy-nan-time": _edit_npy(_set_sample(0, 2, np.nan)),
    "npy-nan-power": _edit_npy(_set_sample(1, 5, np.nan)),
    "npy-one-sample-trace": _one_sample_first_trace,
}
V2_TRACE_CASES = ("npy-offset-out-of-range",)


class TestConfigParsing:
    def test_parse_small(self, small_cfg):
        config = om_io.load_config(small_cfg)
        assert config.spec.kind is om.Topology.SSH_CHAIN
        assert config.spec.n_sites == 4
        assert config.spec.couplings.j == 470e6
        assert config.spec.sites[2].mech_freq == 2.2e6
        assert config.spec.sites[0].mech_linewidth == 10.0  # uniform expansion
        assert len(config.readouts) == 4
        assert config.readouts[0].kappa_1 == pytest.approx(0.25e6)
        assert config.measurement["snr"] is None
        assert np.allclose(config.disorder["sigma_grid"], [0.0, 0.001, 0.002])

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[lattice]\nkind = ssh-chain\nn_cells = 2\ncavity_freq_hz = 7e9\nwhatever = 3\n")
        with pytest.raises(om_io.ConfigError, match="whatever.*bad.cfg:5"):
            om_io.load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(om_io.ConfigError, match="nonsense"):
            om_io.load_config(path)

    def test_wrong_list_length_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "[lattice]\nkind = ssh-chain\nn_cells = 2\ncavity_freqs_hz = 7e9, 7e9, 7e9\n"
            "[couplings]\nj_hz = 1e8\nj_prime_hz = 2e8\n"
        )
        with pytest.raises(om_io.ConfigError):
            om_io.load_config(path)

    def test_range_takes_at_most_max_range_steps(self):
        cap = om_io.MAX_RANGE_STEPS
        assert om_io._float_list(f"0:{cap}:1", "[x] y") == [float(k) for k in range(cap + 1)]
        with pytest.raises(om_io.ConfigError, match=rf"^\[x\] y range 0:{cap + 1}:1 takes"):
            om_io._float_list(f"0:{cap + 1}:1", "[x] y")

    def test_bundled_device_configs_parse(self):
        chain = om_io.load_config(CONFIG_DIR / "paper_1d.cfg")
        assert chain.spec.n_sites == 10
        assert chain.spec.couplings.j2 == 100e6
        assert chain.readouts[0].kappa_tot == 0.080e6
        flake = om_io.load_config(CONFIG_DIR / "paper_2d.cfg")
        assert flake.spec.n_sites == 24
        assert flake.spec.couplings.j_prime / flake.spec.couplings.j == pytest.approx(0.51)


class TestCsvRoundtrip:
    def test_real_matrix(self, tmp_path):
        matrix = np.arange(9.0).reshape(3, 3)
        om_io.matrix_to_csv(tmp_path / "m.csv", matrix, ["a", "b", "c"])
        back, labels = om_io.matrix_from_csv(tmp_path / "m.csv")
        assert labels == ("a", "b", "c")
        assert np.array_equal(back, matrix)

    def test_complex_matrix(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        om_io.matrix_to_csv(tmp_path / "m.csv", matrix, None)
        back, labels = om_io.matrix_from_csv(tmp_path / "m.csv")
        assert labels == ("site1", "site2", "site3", "site4")
        assert np.allclose(back, matrix, rtol=0, atol=0)


class TestCliSpectrum:
    def test_outputs_and_determinism(self, small_cfg, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["spectrum", "--config", str(small_cfg), "--out", str(out1)]) == 0
        assert main(["spectrum", "--config", str(small_cfg), "--out", str(out2)]) == 0
        for name in ("eigenfreqs.csv", "modeshapes.csv", "hamiltonian.csv",
                     "participation.csv", "passbands.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        rows = (out1 / "eigenfreqs.csv").read_text().strip().splitlines()
        assert rows[0] == "mode,freq_hz"
        assert len(rows) == 5

    def test_bundled_chain_config_shows_two_midgap_modes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(CONFIG_DIR / "paper_1d.cfg"),
                     "--out", str(out)]) == 0
        rows = (out / "eigenfreqs.csv").read_text().strip().splitlines()
        assert len(rows) == 11
        bands = json.loads((out / "passbands.json").read_text())
        assert bands["n_midgap_modes"] == 2

    def test_single_site_lattice(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(
            "[lattice]\nkind = ssh-chain\nn_cells = 1\ncavity_freq_hz = 7e9\n"
            "[couplings]\nj_hz = 0\nj_prime_hz = 0\n"
        )
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "eigenfreqs.csv").read_text().strip().splitlines()
        assert len(rows) == 3

    def test_malformed_config_exits_2_without_outputs(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[lattice]\nkind = ssh-chain\nn_cells = 2\ncavity_freq_hz = 7e9\noops = 1\n")
        out = tmp_path / "nope"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_numerical_failure_exits_3(self, tmp_path):
        # gapless couplings break the topology analysis
        cfg = tmp_path / "gapless.cfg"
        cfg.write_text(
            "[lattice]\nkind = ssh-chain\nn_cells = 5\ncavity_freq_hz = 7e9\n"
            "[couplings]\nj_hz = 5e8\nj_prime_hz = 5e8\n"
        )
        out = tmp_path / "out"
        assert main(["topology", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()


class TestCliTopology:
    def test_trivial_couplings_report_winding_zero(self, tmp_path):
        cfg = tmp_path / "trivial.cfg"
        cfg.write_text(
            "[lattice]\nkind = ssh-chain\nn_cells = 5\ncavity_freq_hz = 7.12e9\n"
            "[couplings]\nj_hz = 700e6\nj_prime_hz = 470e6\n"
        )
        out = tmp_path / "out"
        assert main(["topology", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "prediction.json").read_text())
        assert report["winding"] == 0
        assert report["edge_states_exist"] is False
        header = (out / "rho_curve.csv").read_text().splitlines()[0]
        assert header == "k_rad,re_rho_hz,im_rho_hz,e_minus_hz,e_plus_hz"

    def test_flake_config_emits_ribbon_predictions(self, tmp_path):
        cfg = tmp_path / "flake.cfg"
        cfg.write_text(
            "[lattice]\nkind = honeycomb-flake\ncavity_freq_hz = 7.3e9\n"
            "[couplings]\nj_hz = 400e6\nj_prime_hz = 204e6\n"
        )
        out = tmp_path / "out"
        assert main(["topology", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "ribbon_predictions.csv").read_text().strip().splitlines()
        assert rows[0].startswith("orientation,k_par_rad")
        assert len(rows) == 1 + 4 * 129


class TestCliMeasureAndRecover:
    def test_noiseless_pipeline_report(self, small_cfg, tmp_path):
        dataset = tmp_path / "dataset"
        out = tmp_path / "out"
        assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert manifest["format"] == 3 and "traces" not in manifest
        assert np.array(manifest["samples"]).shape == (4, 4, 5)
        assert (dataset / "h_true.csv").exists()
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["matches_ground_truth_1e-6"] is True
        assert report["fits_failed"] == 0
        assert report["h_rel_frobenius_error"] < 1e-6
        matrix, labels = om_io.matrix_from_csv(out / "recovered_h.csv")
        assert matrix.shape == (4, 4)

    def test_missing_dataset_exits_2_without_traceback(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["recover", "--config", str(small_cfg), "--dataset",
                     str(tmp_path / "no-such-dataset"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()

    def test_unfittable_dataset_exits_3_without_traceback(self, small_cfg, tmp_path, capsys):
        dataset, out = tmp_path / "dataset", tmp_path / "out"
        assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
        path = dataset / "traces" / "traces.npy"
        data = np.load(path)
        data[1] = 0.5
        np.save(path, data)
        capsys.readouterr()
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert "ringdown" in err
        assert not out.exists()

    def test_unfittable_legacy_dataset_exits_3_without_traceback(self, small_cfg, tmp_path, capsys,
                                                                 save_legacy_csv, upgrade_dataset):
        dataset, out = legacy_dataset(small_cfg, tmp_path, save_legacy_csv), tmp_path / "out"
        for path in (dataset / "traces").iterdir():
            rows = path.read_text().splitlines()
            path.write_text("\n".join([rows[0]] + [r.split(",")[0] + ",0.5" for r in rows[1:]]))
        dataset = converted(dataset, upgrade_dataset)
        capsys.readouterr()
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert "ringdown" in err
        assert not out.exists()

    def test_legacy_dataset_recovers_as_the_new_one(self, small_cfg, tmp_path, save_legacy_csv,
                                                    upgrade_dataset):
        legacy = converted(legacy_dataset(small_cfg, tmp_path, save_legacy_csv), upgrade_dataset)
        for dataset in (tmp_path / "npy", legacy):
            assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                         "--out", str(dataset.with_name(dataset.name + "-out"))]) == 0
        for name in ("recovered_h.csv", "recovered_h_rotating_frame.csv", "eta_hat.csv",
                     "report.json"):
            assert (tmp_path / "npy-out" / name).read_bytes() == \
                (tmp_path / "legacy-3-out" / name).read_bytes()

    def test_too_short_legacy_trace_degrades_recovery(self, small_cfg, tmp_path, save_legacy_csv,
                                                      upgrade_dataset):
        dataset, out = legacy_dataset(small_cfg, tmp_path, save_legacy_csv), tmp_path / "out"
        path = dataset / "traces" / "k01_i02_p03.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:6]) + "\n")
        dataset = converted(dataset, upgrade_dataset)
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["fits_failed"] == 1

    @pytest.mark.parametrize("case", list(MALFORMED_TRACES))
    def test_malformed_trace_data_exits_2_naming_the_file(self, small_cfg, tmp_path, capsys,
                                                          save_legacy_csv, save_v2, upgrade_dataset,
                                                          case):
        if case.startswith("csv"):
            dataset = legacy_dataset(small_cfg, tmp_path, save_legacy_csv)
            path = dataset / "traces" / "k01_i02_p03.csv"
        elif case in V2_TRACE_CASES:
            dataset = v2_dataset(small_cfg, tmp_path, save_v2)
            path = dataset / "traces" / "traces.npy"
        else:
            dataset = tmp_path / "dataset"
            assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
            path = dataset / "traces" / "traces.npy"
        MALFORMED_TRACES[case](path)
        out = tmp_path / "out"
        capsys.readouterr()
        convert = case.startswith("csv") or case in V2_TRACE_CASES
        assert recover_or_convert(small_cfg, dataset, out, upgrade_dataset, convert) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("drop, expected", [
        (None, "is from an earlier version (no 'format' key)"),
        ("readouts", "missing key 'readouts'"),
        ("traces", "missing key 'traces'"),
        ("drive_fluxes", "missing key 'drive_fluxes'"),
        ("traces[0].file", "missing key 'traces[0].file'"),
        ("json", "not valid JSON"),
        ("traces[0].offset", "missing key 'traces[0].offset'"),
        ("traces[0].samples", "missing key 'traces[0].samples'"),
        # a trace index outside its list, negative (it used to wrap around
        # silently), of the wrong type or a bool; "=" sets instead of drops
        ("traces[0].mode=99", "traces[0].mode 99 is not an index into 'mode_freqs_hz'"),
        ("traces[0].mode=-1", "traces[0].mode -1 is not an index into 'mode_freqs_hz'"),
        ("traces[0].site=\"a\"", "traces[0].site 'a' is not an index into 'mech_freqs_hz'"),
        ("traces[0].site=4", "traces[0].site 4 is not an index into 'mech_freqs_hz'"),
        ("traces[0].power_index=1.5", "traces[0].power_index 1.5 is not an index into 'drive_fluxes'"),
        ("traces[0].power_index=true", "traces[0].power_index True is not an index"),
        ("mode_freqs_hz=3", "'mode_freqs_hz' must be n numbers: finite > 0 and non-decreasing; got 3"),
        ("site_labels=5", "'site_labels' must be 4 texts: without ',' or line break; got 5"),
        # two entries for one trace; per-trace values the dataset's arrays cannot hold
        ("traces[0].power_index=1", "traces[0] and traces[1] are both mode 0, site 0, power_index 1"),
        ("traces[1].noise_floor=0.5", "traces[1].noise_floor 0.5 is not a number equal to traces[0]'s"),
        ("traces[0].true_gamma_eff_hz=\"a\"", "traces[0].true_gamma_eff_hz 'a' is not a number"),
        # format 3
        ("format=4", "unknown format 4"),
        ("format=\"3\"", "unknown format '3'"),
        ("samples", "missing key 'samples'"),
        ("samples=[[60]]", "'samples' must be 4 × 4 × 5 integers: >= 0; got [[60]]"),
        ("samples[0][0][0]=-60", "'samples' must be 4 × 4 × 5 integers: >= 0; "
                                 "got samples[0, 0, 0] = -60"),
        ("samples[0][0][0]=59", "add up to 4799"),
        ("true_gamma_eff_hz=[1.0]", "'true_gamma_eff_hz' must be 4 × 4 × 5 numbers: "
                                    "finite >= 0, or null; got [1.0]"),
        ("noise_floor=\"x\"", "'noise_floor' must be one number: finite >= 0; got 'x'"),
        # lengths that add up, but padding to the longest would take 80 x 4800 samples
        pytest.param(_one_trace_holds_all, "padding its 80 traces to the longest (4800 samples)",
                     id="one-trace-holds-all"),
    ])
    def test_malformed_manifest_exits_2_without_traceback(self, small_cfg, tmp_path, save_v2,
                                                          upgrade_dataset, capsys, drop, expected):
        # cases that edit trace entries run the converter on a v2 dataset,
        # the rest recover on measure-sim's format-3 output
        if isinstance(drop, str) and drop.startswith("traces"):
            dataset = v2_dataset(small_cfg, tmp_path, save_v2)
        else:
            dataset = tmp_path / "dataset"
            assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
        out = tmp_path / "out"
        manifest = json.loads((dataset / "manifest.json").read_text())
        if drop is None:
            text = "{}"
        elif drop == "json":
            text = "{"
        elif callable(drop):
            drop(manifest)
            text = json.dumps(manifest)
        elif "=" in drop:
            key, value = drop.split("=")
            container, last = _locate(manifest, key)
            container[last] = json.loads(value)
            text = json.dumps(manifest)
        else:
            container, last = _locate(manifest, drop)
            del container[last]
            text = json.dumps(manifest)
        (dataset / "manifest.json").write_text(text)
        capsys.readouterr()
        convert = isinstance(drop, str) and drop.startswith("traces")
        assert recover_or_convert(small_cfg, dataset, out, upgrade_dataset, convert) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("configuration error:") and expected in err
        assert not out.exists()

    @pytest.mark.parametrize("convert, key, value, expected", VALUES_OUTSIDE_THE_MODEL)
    def test_manifest_value_outside_the_model_exits_2_naming_the_file(
            self, small_cfg, tmp_path, save_v2, upgrade_dataset, capsys, convert, key, value,
            expected):
        # recover reads measure-sim's format-3 output, the converter a v2 dataset
        if convert:
            dataset = v2_dataset(small_cfg, tmp_path, save_v2)
        else:
            dataset = tmp_path / "dataset"
            assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
        manifest = json.loads((dataset / "manifest.json").read_text())
        container, last = _locate(manifest, key)
        container[last] = value(container[last]) if callable(value) else value
        (dataset / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        capsys.readouterr()
        assert recover_or_convert(small_cfg, dataset, out, upgrade_dataset, convert) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"configuration error: dataset manifest {dataset / 'manifest.json'}")
        assert expected in err
        assert not out.exists()

    @pytest.mark.parametrize("writer", ["save_legacy_csv", "save_v2"])
    def test_manifest_without_format_names_the_converter(self, small_cfg, tmp_path, capsys,
                                                         request, writer):
        dataset = tmp_path / "dataset"
        assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
        request.getfixturevalue(writer)(om.MeasurementDataset.load(dataset), tmp_path / "old")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(tmp_path / "old"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert "earlier version" in err and "python tools/upgrade_dataset.py OLD NEW" in err
        assert not out.exists()

    def test_non_finite_slopes_exit_3_with_one_line(self, small_cfg, tmp_path, capsys):
        # every fit's sum of squares underflows at this drive, so every slope
        # is NaN; pytest captures warnings, which would be lines of their
        # own on standard error, so here they are errors
        cfg = tmp_path / "tiny-drive.cfg"
        cfg.write_text(SMALL_CFG.replace("drive_flux_max = auto", "drive_flux_max = 1e-300"))
        dataset, out = tmp_path / "dataset", tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["measure-sim", "--config", str(cfg), "--out", str(dataset)]) == 0
            capsys.readouterr()
            assert main(["recover", "--config", str(cfg), "--dataset", str(dataset),
                         "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("numerical failure: damping-power slopes must be finite, got 16 "
                              "non-finite of 16; a slope is the regression of a (mode, site) "
                              "pair's fitted ringdown rates on the drive flux")
        assert not out.exists()

    def test_dataset_of_another_size_exits_2_naming_both_files(self, small_cfg, tmp_path, capsys):
        dataset, out = tmp_path / "dataset", tmp_path / "out"
        assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
        cfg = tmp_path / "six-sites.cfg"
        cfg.write_text(SMALL_CFG.replace("n_cells = 2", "n_cells = 3")
                       .replace("freqs_hz = 2.1e6, 2.15e6, 2.2e6, 2.25e6", "freqs_hz = 2.1e6"))
        capsys.readouterr()
        assert main(["recover", "--config", str(cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == (f"configuration error: configuration {cfg} has 6 sites, but "
                               f"dataset {dataset} has 4 modes")
        assert not out.exists()

    def test_failed_move_into_out_restores_the_old_outputs(self, small_cfg, tmp_path, capsys,
                                                           monkeypatch):
        out = tmp_path / "out"
        assert main(["measure-sim", "--config", str(small_cfg), "--out", str(out)]) == 0
        (out / "notes.txt").write_text("not ours")
        before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        real_move, moves_in = shutil.move, []

        def failing_move(src, dst):
            # the second of the three staged items fails to move in
            if Path(dst).parent == out:
                moves_in.append(Path(src).name)
                if len(moves_in) == 2:
                    raise OSError("disk full")
            return real_move(src, dst)

        monkeypatch.setattr(shutil, "move", failing_move)
        capsys.readouterr()
        assert main(["measure-sim", "--config", str(small_cfg), "--out", str(out),
                     "--seed", "4"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "disk full" in err
        assert moves_in[:2] == ["h_true.csv", "manifest.json"]
        after = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert after == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "small.cfg"]

    @pytest.mark.parametrize("command, section, key, value", OUTSIDE_THE_MODEL,
                             ids=[f"{c}-{k}={v}" for c, _, k, v in OUTSIDE_THE_MODEL])
    def test_input_outside_the_model_exits_2_without_traceback(self, tmp_path, capsys, command,
                                                               section, key, value):
        cfg = edited_config(tmp_path, section, key, value)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"configuration error: [{section}] {key} ")
        assert not out.exists()

    @pytest.mark.parametrize("p0", ["1e-100", "1e100"])
    def test_p0_at_its_bounds_is_recovered(self, tmp_path, p0):
        cfg = edited_config(tmp_path, "measurement", "p0", p0)
        dataset, out = tmp_path / "dataset", tmp_path / "out"
        assert main(["measure-sim", "--config", str(cfg), "--out", str(dataset)]) == 0
        assert main(["recover", "--config", str(cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["fits_failed"] == 0

    @pytest.mark.parametrize("command, section, key, value", OUTSIDE_THE_FLAKE_MODEL,
                             ids=[f"{c}-{k}={v}" for c, _, k, v in OUTSIDE_THE_FLAKE_MODEL])
    def test_input_outside_the_flake_model_exits_2_without_traceback(self, tmp_path, capsys,
                                                                     command, section, key, value):
        flake = edited_config(tmp_path, "lattice", "kind", "honeycomb-flake")
        flake.write_text(flake.read_text().replace("2.1e6, 2.15e6, 2.2e6, 2.25e6", "2.1e6"))
        assert main(["spectrum", "--config", str(flake), "--out", str(tmp_path / "flake")]) == 0
        cfg = tmp_path / "outside.cfg"
        cfg.write_text(flake.read_text().replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == (f"configuration error: invalid configuration {cfg}: j3/j3_prime "
                               "are chain couplings; the flake takes j, j_prime, j2")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["measure-sim", "disorder"])
    def test_negative_seed_flag_exits_2(self, small_cfg, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--config", str(small_cfg), "--out", str(out), "--seed", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "configuration error: --seed must be a non-negative integer, got -3"
        assert not out.exists()

    @pytest.mark.parametrize("config", ["paper_1d.cfg", "paper_2d.cfg"])
    def test_reruns_on_shipped_configs_are_byte_identical(self, tmp_path, config):
        runs = []
        for run in (tmp_path / "a", tmp_path / "b"):
            assert main(["measure-sim", "--config", str(CONFIG_DIR / config),
                         "--out", str(run / "dataset")]) == 0
            assert main(["recover", "--config", str(CONFIG_DIR / config),
                         "--dataset", str(run / "dataset"), "--out", str(run / "recovered")]) == 0
            runs.append({p.relative_to(run): p.read_bytes() for p in run.rglob("*") if p.is_file()})
        assert Path("dataset/traces/traces.npy") in runs[0]
        assert Path("recovered/report.json") in runs[0]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("command, config", [
        ("topology", "paper_1d.cfg"), ("topology", "paper_2d.cfg"),
        ("disorder", "paper_1d.cfg"), ("circuit", "paper_1d.cfg"), ("circuit", "paper_2d.cfg"),
    ])
    def test_other_subcommand_reruns_are_byte_identical(self, tmp_path, command, config):
        text = (CONFIG_DIR / config).read_text()
        if command == "disorder":
            # the shipped ensemble with fewer samples per point
            assert "samples = 4000" in text
            text = text.replace("samples = 4000", "samples = 100")
        if command == "circuit":
            # the shipped configs have no [circuit] section; add one with
            # every parameter group
            for name, z in (("a.csv", 0.0), ("b.csv", 2e-3)):
                curve = om.WireCurve.circle(1e-3, (0, 0, z))
                np.savetxt(tmp_path / name, curve.points, delimiter=",", header="x_m,y_m,z_m")
            text += ("\n[circuit]\ninductance_h = 3.0e-9\ncapacitance_f = 1.665339e-13\n"
                     "mutual_h = 3.0e-10\nmutual_prime_h = 4.5e-10\ndrum_radius_m = 3.1e-5\n"
                     "film_stress_pa = 8.1e7\nfilm_density_kg_m3 = 2700\n"
                     "loop_csv_a = a.csv\nloop_csv_b = b.csv\nneumann_segments = 200\n")
        cfg = tmp_path / config
        cfg.write_text(text)
        runs = []
        for run in (tmp_path / "a", tmp_path / "b"):
            args = ["--svg"] if command != "circuit" else []
            assert main([command, "--config", str(cfg), "--out", str(run)] + args) == 0
            runs.append({p.relative_to(run): p.read_bytes() for p in run.rglob("*") if p.is_file()})
        assert runs[0] and runs[0] == runs[1]
        if command == "circuit":
            assert "mutual_inductance_h" in json.loads(runs[0][Path("report.json")])

    def test_seed_flag_overrides_config(self, small_cfg, tmp_path):
        noisy = tmp_path / "noisy.cfg"
        noisy.write_text(SMALL_CFG.replace("snr = inf", "snr = 50"))
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["measure-sim", "--config", str(noisy), "--out", str(d1), "--seed", "9"]) == 0
        assert main(["measure-sim", "--config", str(noisy), "--out", str(d2), "--seed", "10"]) == 0
        t1 = np.load(d1 / "traces" / "traces.npy")
        t2 = np.load(d2 / "traces" / "traces.npy")
        assert np.array_equal(t1[0], t2[0]) and not np.array_equal(t1[1], t2[1])


@pytest.mark.parametrize("command, config", [
    ("spectrum", "paper_1d.cfg"), ("spectrum", "paper_2d.cfg"),
    ("measure-sim", "paper_1d.cfg"), ("measure-sim", "paper_2d.cfg"), ("disorder", None),
    ("recover", "paper_1d.cfg"), ("recover", "paper_2d.cfg"),
    ("topology", "paper_1d.cfg"), ("topology", "paper_2d.cfg"),
])
def test_subcommand_does_not_import_scipy(tmp_path, small_cfg, command, config):
    # scipy is imported only where it is needed, such as a degenerate
    # eigenvalue cluster, which neither shipped configuration has; recover
    # runs after measure-sim in the same interpreter
    code = ("import json, sys; from omlattice.cli import main; "
            "code = max(main(args) for args in json.loads(sys.argv[1])); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    cfg = str(small_cfg if config is None else CONFIG_DIR / config)
    out, data = tmp_path / "out", str(tmp_path / "dataset")
    runs = [[command, "--config", cfg, "--out", str(out)]]
    if command == "recover":
        runs = [["measure-sim", "--config", cfg, "--out", data], runs[0] + ["--dataset", data]]
    done = run_python("-c", code, json.dumps(runs))
    assert done.stdout.strip() == "0 []", done.stderr
    if command == "recover":
        assert json.loads((out / "report.json").read_text())["orthogonalized"] is True


def test_upgrade_script_entry_point(small_cfg, tmp_path, save_v2, upgrade_dataset):
    assert main(["measure-sim", "--config", str(small_cfg), "--out", str(tmp_path / "npy")]) == 0
    save_v2(om.MeasurementDataset.load(tmp_path / "npy"), tmp_path / "v2")
    done = run_python(upgrade_dataset.__file__, str(tmp_path / "v2"), str(tmp_path / "v3"))
    assert done.returncode == 0 and done.stdout == done.stderr == ""
    for name in ("manifest.json", "h_true.csv", "traces/traces.npy"):
        assert (tmp_path / "v3" / name).read_bytes() == (tmp_path / "npy" / name).read_bytes()
    # an existing destination, a missing source, a format-3 source, one argument
    for args, message in [(("v2", "v3"), "already exists"), (("none", "a"), "No such file"),
                          (("npy", "b"), "has format 3"), (("v2",), "usage")]:
        done = run_python(upgrade_dataset.__file__, *(str(tmp_path / arg) for arg in args))
        assert done.returncode == 2 and done.stdout == ""
        assert len(done.stderr.strip().splitlines()) == 1 and message in done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["npy", "small.cfg", "v2", "v3"]


class TestCliDisorder:
    def test_trivial_sigma_grid(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(
            "[lattice]\nkind = ssh-chain\nn_cells = 2\ncavity_freq_hz = 7.12e9\n"
            "[couplings]\nj_hz = 470e6\nj_prime_hz = 700e6\n"
            "[disorder]\nsigma_grid = 0\nsamples = 120\nseed = 4\n"
        )
        out = tmp_path / "out"
        assert main(["disorder", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "ensemble.csv").read_text().strip().splitlines()
        assert len(rows) == 2
        values = [float(v) for v in rows[1].split(",")]
        assert values[1] == pytest.approx(1.0, abs=1e-9)  # zeta mean at sigma 0

    def test_inversion_in_manifest(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["disorder", "--config", str(small_cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["samples_per_point"] == 150
        assert "inversion" in manifest
        assert manifest["inversion"]["zeta_measured"] == 0.98


    def test_non_chain_lattice_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "flake.cfg"
        text = (CONFIG_DIR / "paper_2d.cfg").read_text()
        assert "samples = 1000" in text
        cfg.write_text(text.replace("samples = 1000", "samples = 200"))
        out = tmp_path / "out"
        assert main(["disorder", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("configuration error:") and "ssh-chain" in err
        assert not out.exists()


class TestCliCircuit:
    def test_parameter_report(self, tmp_path):
        cfg = tmp_path / "circ.cfg"
        cfg.write_text(
            "[circuit]\ninductance_h = 3.0e-9\ncapacitance_f = 1.665339e-13\n"
            "mutual_h = 3.0e-10\nmutual_prime_h = 4.5e-10\n"
            "drum_radius_m = 3.1e-5\nfilm_stress_pa = 8.1e7\nfilm_density_kg_m3 = 2700\n"
        )
        out = tmp_path / "out"
        assert main(["circuit", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["resonance_freq_hz"] == pytest.approx(7.12e9, rel=1e-3)
        assert report["coupling_rate_hz"] == pytest.approx(
            report["resonance_freq_hz"] * 0.05, rel=1e-9
        )
        assert "passbands_hz" in report
        assert report["drumhead_freq_hz"] == pytest.approx(2.14e6, rel=0.02)

    def test_empty_circuit_section_rejected(self, tmp_path):
        cfg = tmp_path / "circ.cfg"
        cfg.write_text("[circuit]\nneumann_segments = 100\n")
        out = tmp_path / "out"
        assert main(["circuit", "--config", str(cfg), "--out", str(out)]) == 2

    @pytest.mark.parametrize("value", ["1e-200", "1e200"])
    def test_non_finite_result_exits_3_without_outputs(self, tmp_path, capsys, value):
        # L * C underflows to 0 (or overflows), so the resonance frequency
        # would be infinite (or 0); pytest captures warnings, which would be
        # lines of their own on standard error, so here they are errors
        cfg = tmp_path / "circ.cfg"
        cfg.write_text(f"[circuit]\ninductance_h = {value}\ncapacitance_f = {value}\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["circuit", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"numerical failure: L * C = {float(value)} * {float(value)} ")
        assert not out.exists()

    @pytest.mark.parametrize("mutual", ["2e-9", "-1e-9"])
    def test_mutual_inductance_not_below_l_exits_2(self, tmp_path, capsys, mutual):
        cfg = tmp_path / "circ.cfg"
        cfg.write_text(f"[circuit]\ninductance_h = 1e-9\ncapacitance_f = 1e-13\nmutual_h = {mutual}\n")
        out = tmp_path / "out"
        assert main(["circuit", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == ("configuration error: [circuit] mutual_h must be smaller than "
                               f"inductance_h in magnitude, got {float(mutual)} and 1e-09")
        assert not out.exists()

    @pytest.mark.parametrize("row", ["1e-3,1e-3,abc", "1e-3,1e-3,0,0", "1e-3,1e-3"])
    def test_malformed_loop_row_exits_2_naming_the_file_and_line(self, tmp_path, capsys, row):
        for name, z in (("a.csv", 0.0), ("b.csv", 2e-3)):
            curve = om.WireCurve.circle(1e-3, (0, 0, z), n_points=16)
            np.savetxt(tmp_path / name, curve.points, delimiter=",", header="x_m,y_m,z_m")
        lines = (tmp_path / "a.csv").read_text().splitlines()
        lines[5] = row  # line 6 of the file; line 1 is the header
        (tmp_path / "a.csv").write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "circ.cfg"
        cfg.write_text("[circuit]\nloop_csv_a = a.csv\nloop_csv_b = b.csv\n")
        out = tmp_path / "out"
        assert main(["circuit", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"configuration error: {tmp_path / 'a.csv'} line 6: ")
        assert not out.exists()


def test_json_format_flag(small_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(small_cfg), "--out", str(out),
                 "--format", "json"]) == 0
    payload = json.loads((out / "hamiltonian.json").read_text())
    assert len(payload["matrix_hz"]) == 4
    assert len(payload["site_labels"]) == 4


# The options each subcommand takes besides --config, --out and recover's
# required --dataset.
CLI_OPTIONS = {
    "spectrum": {"--format", "--svg"},
    "topology": {"--svg"},
    "measure-sim": {"--seed"},
    "recover": {"--format"},
    "disorder": {"--seed", "--svg"},
    "circuit": set(),
}


@pytest.mark.parametrize("flag", [("--seed", "1"), ("--format", "json"), ("--svg",)],
                         ids=lambda flag: flag[0])
@pytest.mark.parametrize("command", list(CLI_OPTIONS))
def test_subcommand_takes_only_its_own_options(small_cfg, tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    argv = [command, "--config", str(small_cfg), "--out", str(out), *flag]
    if command == "recover":
        dataset = tmp_path / "dataset"
        assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
        argv += ["--dataset", str(dataset)]
    if flag[0] in CLI_OPTIONS[command]:
        assert main(argv) == 0
        assert any(out.iterdir())
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()
