import configparser
import functools
import json
import logging
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
from omlattice import cli
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


def edited_config(tmp_path: Path, section: str, key: str, value: str | None, also=()) -> Path:
    """SMALL_CFG with ``key`` of ``[section]`` set to ``value``, or deleted
    when ``value`` is None, and then each ``(section, key, value)`` edit of
    ``also`` made the same way; a section SMALL_CFG lacks is added."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(SMALL_CFG)
    for section, key, value in ((section, key, value), *also):
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
    # above io.MAX_N_CELLS the dense (2 n_cells)^2 Hamiltonian cannot fit in
    # memory; both are refused before any list of sites is built
    ("spectrum", "lattice", "n_cells", "3000000000"),
    ("spectrum", "lattice", "n_cells", "99999999999999999999"),
    ("spectrum", "lattice", "cavity_freq_hz", "inf"),
    ("spectrum", "lattice", "cavity_freq_hz", "nan"),
    ("spectrum", "lattice", "cavity_freq_hz", "0"),
    # above 1e100 (as p0): at 1e300 recover's Frobenius error would be NaN
    ("spectrum", "lattice", "cavity_freq_hz", "1.01e100"),
    ("measure-sim", "lattice", "cavity_freq_hz", "1e300"),
    ("spectrum", "lattice", "cavity_freqs_hz", "7e9, 7e9, 7e9, 1e300"),
    ("measure-sim", "lattice", "cavity_freqs_hz", "nan"),
    ("spectrum", "couplings", "j_hz", "-1"),
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
    # the weakest drive, drive_flux_max / n_powers, rounds to 0
    ("measure-sim", "measurement", "drive_flux_max", "5e-324"),
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
    # beyond io.MAX_ARRAY_VALUES, one array of that size alone would not fit
    # in a 64-bit address space
    ("measure-sim", "measurement", "samples_per_trace", str(2**44 + 1)),
    ("measure-sim", "measurement", "samples_per_trace", str(10**20)),
    ("measure-sim", "measurement", "n_powers", str(10**14)),
    ("measure-sim", "measurement", "n_powers", str(10**20)),
    ("disorder", "disorder", "samples", str(10**14)),
    ("disorder", "disorder", "samples", str(10**20)),
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


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this omlattice."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=300)


def _locate(manifest: dict, key: str):
    """The container and index of the manifest item that ``key`` names, as
    in ``readouts[0].kappa_tot_hz`` or ``samples[0][0][0]``."""
    *path, last = [int(t[1:-1]) if t.startswith("[") else t
                   for t in re.findall(r"\[\d+\]|[^.\[\]]+", key)]
    return functools.reduce(operator.getitem, path, manifest), last


NAN, INF = float("nan"), float("inf")
# Manifest values outside the model, by case: (key, new value or an edit of
# the old one, part of the message), each an edit of measure-sim's output.
VALUES_OUTSIDE_THE_MODEL = {
    "kappa-tot-negative": ("readouts[0].kappa_tot_hz", -1, "readouts[0]: kappa_tot must be positive"),
    "kappa-tot-nan": ("readouts[3].kappa_tot_hz", NAN, "readouts[3]: kappa_tot must be positive"),
    "kappa-1-too-large": ("readouts[1].kappa_1_hz", 1e9,
                          "readouts[1]: kappa_1 + kappa_2 cannot exceed kappa_tot"),
    "kappa-2-negative": ("readouts[0].kappa_2_hz", -1, "readouts[0]: kappa_tot must be positive and "
                         "finite, kappa_1/kappa_2 >= 0"),
    "kappa-tot-null": ("readouts[0].kappa_tot_hz", None, "'readouts' must be 4 readouts: the keys"),
    "kappa-2-missing": ("readouts[0]", lambda readout: {k: v for k, v in readout.items()
                                                        if k != "kappa_2_hz"},
                        "'readouts' must be 4 readouts: the keys kappa_tot_hz, kappa_1_hz, kappa_2_hz, "
                        "transmittance, which ModeReadout accepts; got [{"),
    "transmittance-negative": ("readouts[0].transmittance", -0.5,
                               "readouts[0]: transmittance must be positive"),
    "transmittance-string": ("readouts[2].transmittance", "x",
                             "'readouts' must be 4 readouts: the keys kappa_tot_hz"),
    "seed-string": ("master_seed", "x", "'master_seed' must be one integer: >= 0; got 'x'"),
    "seed-negative": ("master_seed", -1, "'master_seed' must be one integer: >= 0; got -1"),
    "seed-float": ("master_seed", 1.5, "'master_seed' must be one integer: >= 0; got 1.5"),
    "seed-bool": ("master_seed", True, "'master_seed' must be one integer: >= 0; got True"),
    "seed-null": ("master_seed", None, "'master_seed' must be one integer: >= 0; got None"),
    "seed-list": ("master_seed", [1], "'master_seed' must be one integer: >= 0; got [1]"),
    "labels-integers": ("site_labels", lambda labels: list(range(len(labels))),
                        "'site_labels' must be 4 texts: without ',' or line break; got [0, 1, 2, 3]"),
    "labels-short": ("site_labels", lambda labels: labels[:3], "'site_labels' must be 4 texts"),
    "labels-text": ("site_labels", "abcd",
                    "'site_labels' must be 4 texts: without ',' or line break; got 'abcd'"),
    # one entry of another JSON type, which one np.array call would coerce
    "label-integer": ("site_labels[0]", 7,
                      "'site_labels' must be 4 texts: without ',' or line break; got [7, "),
    "width-bool": ("mech_linewidths_hz[0]", True,
                   "'mech_linewidths_hz' must be 4 numbers: finite >= 0; got [True, "),
    "flux-bool": ("drive_fluxes[1]", True,
                  "'drive_fluxes' must be powers numbers: finite > 0, at least 2; got ["),
    "transmittance-bool": ("readouts[2].transmittance", True,
                           "'readouts' must be 4 readouts: the keys kappa_tot_hz"),
    "samples-bool": ("samples[0][1][2]", True, "'samples' must be 4 × 4 × 5 integers: >= 0"),
    "labels-comma": ("site_labels[1]", "a,b", "got site_labels[1] = 'a,b'"),
    "label-newline": ("site_labels[0]", "a\nb", "got site_labels[0] = 'a\\nb'"),
    "readouts-short": ("readouts", lambda readouts: readouts[:3], "'readouts' must be 4 readouts"),
    "readouts-object": ("readouts", {}, "'readouts' must be 4 readouts: the keys kappa_tot_hz, "
                        "kappa_1_hz, kappa_2_hz, transmittance, which ModeReadout accepts; got {}"),
    "readout-list": ("readouts[0]", lambda readout: list(readout.values()),
                     "'readouts' must be 4 readouts: the keys"),
    "modes-descending": ("mode_freqs_hz", lambda freqs: freqs[::-1],
                         "'mode_freqs_hz' must be n numbers: finite > 0 and non-decreasing; "
                         "got mode_freqs_hz[1] = "),
    "mode-string": ("mode_freqs_hz[0]", "x", "'mode_freqs_hz' must be n numbers"),
    "mode-nan": ("mode_freqs_hz[0]", NAN, "got mode_freqs_hz[0] = nan"),
    "mode-list": ("mode_freqs_hz[0]", [1.0], "'mode_freqs_hz' must be n numbers"),
    "mode-zero": ("mode_freqs_hz[0]", 0, "got mode_freqs_hz[0] = 0.0"),
    "modes-empty": ("mode_freqs_hz", [], "'mode_freqs_hz' must be n numbers: finite > 0 and "
                    "non-decreasing; got []"),
    "mech-negative": ("mech_freqs_hz[0]", -1,
                      "'mech_freqs_hz' must be 4 numbers: finite > 0; got mech_freqs_hz[0] = -1.0"),
    "mech-inf": ("mech_freqs_hz[0]", INF, "'mech_freqs_hz' must be 4 numbers: finite > 0; "
                 "got mech_freqs_hz[0] = inf"),
    # mode_freqs_hz sets the number of sites
    "mech-short": ("mech_freqs_hz", lambda freqs: freqs[:3],
                   "'mech_freqs_hz' must be 4 numbers: finite > 0; "
                   "got [2100000.0, 2150000.0, 2200000.0]"),
    "width-negative": ("mech_linewidths_hz[0]", -1, "got mech_linewidths_hz[0] = -1.0"),
    "widths-strings": ("mech_linewidths_hz", lambda widths: [str(w) for w in widths],
                       "'mech_linewidths_hz' must be 4 numbers: finite >= 0; got ['10.0', "),
    "widths-one": ("mech_linewidths_hz", lambda widths: widths[:1],
                   "'mech_linewidths_hz' must be 4 numbers: finite >= 0; got [10.0]"),
    "flux-string": ("drive_fluxes[0]", "x", "'drive_fluxes' must be powers numbers"),
    "flux-negative": ("drive_fluxes[0]", -1, "got drive_fluxes[0] = -1.0"),
    "flux-nan": ("drive_fluxes[0]", NAN, "got drive_fluxes[0] = nan"),
    "flux-one": ("drive_fluxes", lambda fluxes: fluxes[:1], "finite > 0, at least 2; got "),
    "flux-zero": ("drive_fluxes[0]", 0, "got drive_fluxes[0] = 0.0"),
    "fluxes-empty": ("drive_fluxes", [], "'drive_fluxes' must be powers numbers: finite > 0, "
                     "at least 2; got []"),
    "fluxes-nested": ("drive_fluxes", lambda fluxes: [fluxes],
                      "'drive_fluxes' must be powers numbers"),
    "samples-float": ("samples[0][0][0]", 1.5,
                      "'samples' must be 4 × 4 × 5 integers: >= 0; got [[[1.5, "),
    "samples-ragged": ("samples[0][0]", lambda row: row[:1], "'samples' must be 4 × 4 × 5 integers"),
    "samples-scalar": ("samples", 5, "'samples' must be 4 × 4 × 5 integers: >= 0; got 5"),
    "floor-nan": ("noise_floor", NAN, "'noise_floor' must be one number: finite >= 0; got nan"),
    "floor-negative": ("noise_floor", -1, "'noise_floor' must be one number: finite >= 0; got -1"),
    # a float cannot hold it
    "floor-huge": ("noise_floor", 10**400, "'noise_floor' must be one number: finite >= 0; got 1000"),
    "floor-null": ("noise_floor", None, "'noise_floor' must be one number: finite >= 0; got None"),
    "floor-list": ("noise_floor", [0.1], "'noise_floor' must be one number: finite >= 0; got [0.1]"),
    "gamma-negative": ("true_gamma_eff_hz[1][2][3]", -1.0, "got true_gamma_eff_hz[1, 2, 3] = -1.0"),
    "gamma-inf": ("true_gamma_eff_hz[0][0][0]", INF, "got true_gamma_eff_hz[0, 0, 0] = inf"),
    "gamma-string": ("true_gamma_eff_hz[0][0][0]", "x", "'true_gamma_eff_hz' must be 4 × 4 × 5 "
                     "numbers: finite >= 0, or null; got [[['x', "),
}


def _edit_npy(edit):
    def apply(path):
        np.save(path, edit(np.load(path)))
    return apply


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
# of measure-sim's output, which recover refuses.
MALFORMED_TRACES = {
    "npy-missing": lambda path: path.unlink(),
    "npy-truncated": lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
    "npy-not-an-array": lambda path: path.write_text("time_s,power\n0,1\n"),
    "npy-wrong-dtype": _edit_npy(lambda data: data.astype(np.float32)),
    "npy-wrong-ndim": _edit_npy(lambda data: data.ravel()),
    "npy-zero-dimensional": lambda path: np.save(path, np.float64(1.0)),
    "npy-three-rows": _edit_npy(lambda data: np.vstack((data, data[:1]))),
    "npy-transposed": _edit_npy(lambda data: data.T.copy()),
    "npy-int64": _edit_npy(lambda data: data.astype(np.int64)),
    "npy-complex": _edit_npy(lambda data: data.astype(complex)),
    "npy-structured": lambda path: np.save(path, np.zeros(3, dtype=[("time_s", "f8")])),
    "npy-pickled": lambda path: np.save(path, np.array([np.load(path)], dtype=object),
                                        allow_pickle=True),
    "npy-empty-file": lambda path: path.write_bytes(b""),
    "npy-directory": lambda path: (path.unlink(), path.mkdir()),
    # widths that the manifest's 'samples' do not add up to
    "npy-extra-column": _edit_npy(lambda data: np.hstack((data, data[:, -1:] + 1))),
    "npy-missing-column": _edit_npy(lambda data: data[:, :-1]),
    "npy-no-columns": _edit_npy(lambda data: data[:, :0]),
    "npy-times-not-increasing": _edit_npy(_set_sample(0, 2, 0.0)),
    "npy-repeated-time": _edit_npy(lambda data: _set_sample(0, 2, data[0, 1])(data)),
    "npy-inf-time": _edit_npy(_set_sample(0, 2, np.inf)),
    # an interior time of trace (0, 0, 0) moved a quarter step, still increasing
    "npy-jittered-times": _edit_npy(lambda data: _set_sample(0, 2, data[0, 2] + (data[0, 3] - data[0, 2]) / 4)(data)),
    # in trace (3, 3, 4), the last of the file
    "npy-last-trace-times-not-increasing":
        _edit_npy(lambda data: _set_sample(0, -1, data[0, -2])(data)),
    "npy-negative-power": _edit_npy(_set_sample(1, 5, -1.0)),
    "npy-nan-time": _edit_npy(_set_sample(0, 2, np.nan)),
    "npy-nan-power": _edit_npy(_set_sample(1, 5, np.nan)),
    "npy-one-sample-trace": _one_sample_first_trace,
}


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

    def test_complex_matrix_is_refused_naming_the_file(self, tmp_path):
        # files hold real matrices only; a ribbon Hamiltonian stays complex in memory
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match=r"^m\.csv: the rows are complex; a CSV file holds "
                                             r"real numbers only$"):
            om_io.matrix_to_csv(path, np.array([[1, 2j], [-2j, 4]]), ("a", "b"))
        assert not path.exists()


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

    def test_too_short_trace_degrades_recovery(self, small_cfg, tmp_path, set_trace):
        # a trace of 6 samples cannot be fitted; its pair is regressed on the other powers
        dataset, out = tmp_path / "dataset", tmp_path / "out"
        assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
        ds = om.MeasurementDataset.load(dataset)
        old = ds.traces[(1, 2, 3)]
        set_trace(ds, (1, 2, 3), om.RingdownTrace(old.times[:6], old.powers[:6], old.true_gamma_eff))
        ds.save(tmp_path / "cut")
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(tmp_path / "cut"),
                     "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["fits_failed"] == 1

    def test_null_true_gamma_eff_reads_as_unknown(self, small_cfg, tmp_path):
        # a measured trace has no generator damping rate
        dataset, out = tmp_path / "dataset", tmp_path / "out"
        assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
        manifest = json.loads((dataset / "manifest.json").read_text())
        manifest["true_gamma_eff_hz"][1][2][3] = None
        (dataset / "manifest.json").write_text(json.dumps(manifest))
        ds = om.MeasurementDataset.load(dataset)
        assert np.isnan(ds.true_gamma_eff[1, 2, 3]) and ds.traces[(1, 2, 3)].true_gamma_eff is None
        assert np.isfinite(np.delete(ds.true_gamma_eff.ravel(), 1 * 20 + 2 * 5 + 3)).all()
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fits_failed"] == 0 and report["matches_ground_truth_1e-6"] is True

    @pytest.mark.parametrize("case", list(MALFORMED_TRACES))
    def test_malformed_trace_data_exits_2_naming_the_file(self, small_cfg, tmp_path, capsys, case):
        dataset, out = tmp_path / "dataset", tmp_path / "out"
        assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
        path = dataset / "traces" / "traces.npy"
        MALFORMED_TRACES[case](path)
        capsys.readouterr()
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("text, expected", [
        ("x", "is not a Hermitian matrix below a header of site labels: loadtxt: input contained no "
              "data"),
        ("a,b\n1,2\n", "is not a Hermitian matrix below a header of site labels: matrix must be "
                        "square, got shape (1, 2)"),
        ("a,b\n1,0\n0,1\n", "must hold a finite 4 × 4 matrix, got 2 × 2 with 0 non-finite entries"),
        ("a,b,c,d\n" + "nan,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n",
         "must hold a finite 4 × 4 matrix, got 4 × 4 with 1 non-finite entries"),
        # the <label>_re / <label>_im column pairs of a complex matrix
        ("a_re,a_im,b_re,b_im,c_re,c_im,d_re,d_im\n"
         + "".join(",".join(["0"] * (2 * i) + ["1", "0"] + ["0"] * (6 - 2 * i)) + "\n" for i in range(4)),
         "is not a Hermitian matrix below a header of site labels: matrix must be square, got "
         "shape (4, 8)"),
    ], ids=["no-data", "not-square", "wrong-size", "nan", "complex-columns"])
    @pytest.mark.filterwarnings("error")
    def test_malformed_h_true_exits_2_naming_the_file(self, small_cfg, tmp_path, capsys, text,
                                                      expected):
        dataset, out = tmp_path / "dataset", tmp_path / "out"
        assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
        path = dataset / "h_true.csv"
        path.write_text(text)
        capsys.readouterr()
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: dataset file {path} ") and expected in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("drop, expected", [
        (None, "is from an earlier version (no 'format' key)"),
        ("list", "top level is not an object"),
        ("mode_freqs_hz", "missing key 'mode_freqs_hz'"),
        ("mech_freqs_hz", "missing key 'mech_freqs_hz'"),
        ("mech_linewidths_hz", "missing key 'mech_linewidths_hz'"),
        ("site_labels", "missing key 'site_labels'"),
        ("readouts", "missing key 'readouts'"),
        ("drive_fluxes", "missing key 'drive_fluxes'"),
        ("master_seed", "missing key 'master_seed'"),
        ("true_gamma_eff_hz", "missing key 'true_gamma_eff_hz'"),
        ("noise_floor", "missing key 'noise_floor'"),
        ("json", "not valid JSON"),
        # "=" sets instead of drops
        ("mode_freqs_hz=3", "'mode_freqs_hz' must be n numbers: finite > 0 and non-decreasing; got 3"),
        ("site_labels=5", "'site_labels' must be 4 texts: without ',' or line break; got 5"),
        ("format=4", "unknown format 4"),
        ("format=\"3\"", "unknown format '3'"),
        ("format=3.0", "unknown format 3.0"),
        ("format=true", "unknown format True"),
        ("format=null", "unknown format None"),
        ("samples", "missing key 'samples'"),
        ("samples=[[60]]", "'samples' must be 4 × 4 × 5 integers: >= 0; got [[60]]"),
        ("samples[0][0][0]=-60", "'samples' must be 4 × 4 × 5 integers: >= 0; "
                                 "got samples[0, 0, 0] = -60"),
        ("samples[0][0][0]=59", "add up to 4799"),
        # a length beyond the file's width is refused before the lengths are added
        ("samples[0][0][0]=4611686018427387904", "holds 4800 samples per row, but the trace lengths"),
        # beyond int64
        ("samples[0][0][0]=9223372036854775808", "'samples' must be 4 × 4 × 5 integers: >= 0; "
                                                 "got [[[9223372036854775808, "),
        ("true_gamma_eff_hz=[1.0]", "'true_gamma_eff_hz' must be 4 × 4 × 5 numbers: "
                                    "finite >= 0, or null; got [1.0]"),
        ("noise_floor=\"x\"", "'noise_floor' must be one number: finite >= 0; got 'x'"),
        # lengths that add up, but padding to the longest would take 80 x 4800 samples
        pytest.param(_one_trace_holds_all, "padding its 80 traces to the longest (4800 samples)",
                     id="one-trace-holds-all"),
    ])
    def test_malformed_manifest_exits_2_without_traceback(self, small_cfg, tmp_path, capsys, drop,
                                                          expected):
        dataset, out = tmp_path / "dataset", tmp_path / "out"
        assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
        manifest = json.loads((dataset / "manifest.json").read_text())
        if drop in (None, "json", "list"):
            text = {None: "{}", "json": "{", "list": "[]"}[drop]
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
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("configuration error:") and expected in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, expected", list(VALUES_OUTSIDE_THE_MODEL.values()),
                             ids=list(VALUES_OUTSIDE_THE_MODEL))
    def test_manifest_value_outside_the_model_exits_2_naming_the_file(
            self, small_cfg, tmp_path, capsys, key, value, expected):
        dataset = tmp_path / "dataset"
        assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
        manifest = json.loads((dataset / "manifest.json").read_text())
        container, last = _locate(manifest, key)
        container[last] = value(container[last]) if callable(value) else value
        (dataset / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"configuration error: dataset manifest {dataset / 'manifest.json'}")
        assert expected in err
        assert not out.exists()

    def test_manifest_without_format_names_the_converter(self, small_cfg, tmp_path, capsys):
        # the manifests of earlier versions have no "format" key
        dataset, out = tmp_path / "dataset", tmp_path / "out"
        assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
        manifest = json.loads((dataset / "manifest.json").read_text())
        del manifest["format"]
        (dataset / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"configuration error: dataset manifest {dataset / 'manifest.json'} is from "
                       "an earlier version (no 'format' key); this version reads format 3 only: "
                       "convert it with tools/upgrade_dataset.py of commit eca01cc4fd09\n")
        assert not out.exists()

    def test_non_finite_slopes_exit_3_with_one_line(self, small_cfg, tmp_path, capsys):
        # the optomechanical damping vanishes at this drive, so every slope is
        # gated to zero; pytest captures warnings, which would be lines of
        # their own on standard error, so here they are errors
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
        assert err.startswith("numerical failure: no positive damping-power slope for modes "
                              "[0, 1, 2, 3] and sites [0, 1, 2, 3]; a recovery needs one in every "
                              "mode row and site column")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:fitted ringdown rate is negative")
    def test_recovery_without_a_positive_slope_exits_3(self, tmp_path, capsys):
        # noise buries every ringdown, so no slope passes the gate
        cfg = edited_config(tmp_path, "measurement", "snr", "1e-30")
        dataset, out = tmp_path / "dataset", tmp_path / "out"
        assert main(["measure-sim", "--config", str(cfg), "--out", str(dataset)]) == 0
        capsys.readouterr()
        assert main(["recover", "--config", str(cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: no positive damping-power slope for modes [")
        assert len(err.strip().splitlines()) == 1 and not out.exists()

    def test_warning_before_a_failure_is_one_line(self, tmp_path, capsys):
        # the fits warn of a negative rate, then no slope passes the gate
        cfg = edited_config(tmp_path, "measurement", "snr", "1e-30")
        dataset, out = tmp_path / "dataset", tmp_path / "out"
        assert main(["measure-sim", "--config", str(cfg), "--out", str(dataset)]) == 0
        capsys.readouterr()
        showwarning = warnings.showwarning
        assert main(["recover", "--config", str(cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 3
        warning, failure = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: ")
        assert warning.endswith(": UserWarning: fitted ringdown rate is negative; clipping to 0")
        assert failure.startswith("numerical failure: no positive damping-power slope for modes [")
        assert warnings.showwarning is showwarning
        assert logging.getLogger("py.warnings").handlers == []

    @pytest.mark.parametrize("samples", [1, 2, 3])
    def test_warning_of_a_run_that_succeeds_is_one_line(self, tmp_path, capsys, samples):
        cfg = edited_config(tmp_path, "disorder", "samples", str(samples))
        assert main(["disorder", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        (warning,) = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: ")
        assert warning.endswith(f": UserWarning: {samples} samples per point is below 100; "
                                "percentile bands will be unreliable")

    # with each of these, a sum of squared fluxes or rates in the slope
    # regression leaves float range unless it is scaled
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("section, key, value", [
        ("measurement", "drive_flux_max", "1e160"),
        ("measurement", "drive_flux_max", "1e200"),
        ("measurement", "drive_flux_max", "1.7e308"),
        # the calibrated drive is about 1e-296
        ("mechanics", "g0_hz", "1e150"),
    ], ids=["drive_flux_max=1e160", "drive_flux_max=1e200", "drive_flux_max=1.7e308", "g0_hz=1e150"])
    def test_extreme_drive_round_trips(self, tmp_path, capsys, section, key, value):
        cfg = edited_config(tmp_path, section, key, value)
        dataset, out = tmp_path / "dataset", tmp_path / "out"
        assert main(["measure-sim", "--config", str(cfg), "--out", str(dataset)]) == 0
        assert main(["recover", "--config", str(cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((out / "report.json").read_text())
        assert report["fits_failed"] == 0 and report["matches_ground_truth_1e-6"] is True

    # a numpy warning would be a line of its own on standard error
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("section, key, value, also, got", [
        # the noise floor overflows
        ("measurement", "snr", "5e-324", (),
         "the noise standard deviation p0 / snr = inf and the noise floor of 5 times it must be "
         "finite; got p0 = 1.0, snr = 5e-324"),
        # the damping slopes overflow, refused by the flux calibration
        ("mechanics", "g0_hz", "1e160", (),
         "damping slopes must be finite, got 16 non-finite of 16; check g0 and couplings"),
        # the same at a drive set without calibration, refused with the rates
        ("mechanics", "g0_hz", "1e160", (("measurement", "drive_flux_max", "1e14"),),
         "effective damping rates and 2 pi times them must be finite, got 80 non-finite of 80 at "
         "drive fluxes up to 1e+14"),
        # finite rates whose 2 pi multiple, the traces' decay, overflows
        ("mechanics", "linewidths_hz", "1.7e308", (("measurement", "drive_flux_max", "1e15"),),
         "effective damping rates and 2 pi times them must be finite, got 80 non-finite of 80 at "
         "drive fluxes up to 1e+15"),
        # no intrinsic linewidth calibrates the drive to a flux of 0
        ("mechanics", "linewidths_hz", "0", (),
         "the calibrated drive flux 200 × median linewidth 0 Hz / median positive damping slope "
         "1.06782e-13 Hz s = 0 must be finite and > 0"),
        # a site's slopes underflow to 0: recover would find no positive slope in its column
        ("mechanics", "g0_hz", "1e-200, 10, 10, 10", (),
         "no positive damping-power slope for modes [] and sites [0]; a recovery needs one in every "
         "mode row and site column"),
        # the same at a drive set without calibration
        ("mechanics", "g0_hz", "1e-200, 10, 10, 10", (("measurement", "drive_flux_max", "3e14"),),
         "no positive damping-power slope for modes [] and sites [0]; a recovery needs one in every "
         "mode row and site column"),
        # a mode without input coupling damps no site
        ("readout", "kappa_1_hz", "0, 2.5e5, 2.5e5, 2.5e5", (),
         "no positive damping-power slope for modes [0] and sites []; a recovery needs one in every "
         "mode row and site column"),
    ], ids=["snr", "g0_hz-auto", "g0_hz", "linewidths_hz-overflow", "linewidths_hz-auto",
            "g0_hz-underflow-auto",
            "g0_hz-underflow", "kappa_1_hz-auto"])
    def test_dataset_that_recover_would_refuse_is_not_written(self, tmp_path, capsys, section, key,
                                                              value, also, got):
        cfg = edited_config(tmp_path, section, key, value, also)
        out = tmp_path / "dataset"
        assert main(["measure-sim", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"numerical failure: {got}\n"
        assert not out.exists()

    # recover would find no positive damping slope at such a site, at any drive
    @pytest.mark.parametrize("g0, zero", [("0, 10, 10, 10", [0]), ("10, 10, 10, 0", [3]),
                                          ("0, 10, 0, 10", [0, 2]), ("0", [0, 1, 2, 3])],
                             ids=["one-site", "last-site", "two-sites", "every-site"])
    def test_site_without_optomechanical_coupling_exits_2(self, tmp_path, capsys, g0, zero):
        cfg = edited_config(tmp_path, "mechanics", "g0_hz", g0)
        out = tmp_path / "dataset"
        assert main(["measure-sim", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: [mechanics] g0_hz is 0 at sites {zero}; measure-sim needs it > 0 "
            "at every site, or recover finds no damping slope there\n")
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

    # the largest sample count the key allows: the first array, of 4 values
    # a sample, is larger than the 128 TiB address space of a 64-bit
    # process, so it is refused at once whatever the overcommit policy
    @pytest.mark.parametrize("command, section, key", [
        ("disorder", "disorder", "samples"),
    ])
    def test_size_beyond_memory_exits_3_with_one_line(self, tmp_path, capsys, command, section,
                                                      key):
        cfg = edited_config(tmp_path, section, key, str(om_io.MAX_ARRAY_VALUES))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("numerical failure: Unable to allocate ")
        assert not out.exists()

    # numpy warnings, which a shell would see as lines of their own, are
    # counted with the standard error lines
    @pytest.mark.parametrize("flux", ["auto", "1e15"])
    @pytest.mark.parametrize("section, key, value", [
        ("mechanics", "freqs_hz", "1.7e308"),
        ("mechanics", "linewidths_hz", "1.7e308"),
        ("readout", "kappa_tot_hz", "5e-324"),
        ("readout", "kappa_tot_hz", "1e-300"),
        ("readout", "kappa_tot_hz", "1.7e308"),
    ])
    def test_rates_beyond_float_range_exit_3_with_one_line(self, tmp_path, capsys, section, key, value,
                                                           flux):
        cfg = edited_config(tmp_path, section, key, value, (("measurement", "drive_flux_max", flux),))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["measure-sim", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert err.startswith("numerical failure: ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_memory_error_without_text_says_memory_ran_out(self, small_cfg, tmp_path, capsys,
                                                           monkeypatch):
        def out_of_memory(config, out, **options):
            raise MemoryError

        monkeypatch.setitem(cli.SUBCOMMANDS, "spectrum", (out_of_memory, cli.SUBCOMMANDS["spectrum"][1]))
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(small_cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numerical failure: memory ran out\n"
        assert not out.exists()

    def test_cavity_frequency_at_its_bound_is_recovered(self, tmp_path):
        cfg = edited_config(tmp_path, "lattice", "cavity_freq_hz", "1e100")
        dataset, out = tmp_path / "dataset", tmp_path / "out"
        assert main(["measure-sim", "--config", str(cfg), "--out", str(dataset)]) == 0
        assert main(["recover", "--config", str(cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fits_failed"] == 0 and report["matches_ground_truth_1e-6"]

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


    def test_eigensolver_failures_above_the_cap_exit_3_with_one_line(self, small_cfg, tmp_path,
                                                                     capsys, monkeypatch):
        real, calls = np.linalg.eigh, []

        def eigh(a):
            # the spectrum check of the undisordered chain comes first and
            # passes; every eigensolve of the ensemble fails
            calls.append(a.shape)
            if len(calls) == 1:
                return real(a)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        out = tmp_path / "out"
        assert main(["disorder", "--config", str(small_cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("numerical failure: the eigensolver failed on 150 of 150 samples "
                              "at sigma = 0 (grid point 0), more than the 0.1% ")
        assert not out.exists()

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


    def test_statistics_beyond_float_range_raise_naming_the_sigma_point(self, tmp_path):
        # the sums inside the mean and standard deviation of eigenfrequencies
        # near ±1.7e308 overflow; the CLI refuses such a chain before its
        # ensemble (its spectrum leaves float range), so the ensemble is
        # called directly, with its warnings as errors
        config = om_io.load_config(edited_config(tmp_path, "couplings", "j_hz", "1.7e308"))
        dis = config.disorder
        with warnings.catch_warnings(), pytest.raises(ValueError) as error:
            warnings.simplefilter("error")
            om.disorder.run_ensemble(config.spec, dis["sigma_grid"], dis["samples"], dis["seed"])
        assert str(error.value) == ("the eigenfrequency mean or standard deviation at sigma = 0 "
                                    "(grid point 0) leaves float range")

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would be a line of its own
    def test_non_positive_lc_spectrum_exits_3_with_one_line(self, tmp_path, capsys):
        # couplings far above the cavity frequency put the lowest mode near
        # -1e160 Hz, which spectrum and measure-sim refuse as well
        cfg = edited_config(tmp_path, "couplings", "j_hz", "1e160")
        out = tmp_path / "out"
        assert main(["disorder", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == ("numerical failure: lowest eigenfrequency -1e+160 Hz is not positive; an LC "
                       "lattice has no such mode, so the couplings are too large for the cavity "
                       "frequencies\n")
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

    def test_mutual_prime_not_below_l_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "circ.cfg"
        cfg.write_text("[circuit]\ninductance_h = 1e-9\ncapacitance_f = 1e-13\nmutual_h = 1e-10\n"
                       "mutual_prime_h = 1e300\n")
        out = tmp_path / "out"
        assert main(["circuit", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == ("configuration error: [circuit] mutual_prime_h must be smaller "
                               "than inductance_h in magnitude, got 1e+300 and 1e-09")
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


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would be a line of its own
@pytest.mark.parametrize("command, section, key, value, message", [
    ("circuit", "circuit", "drum_radius_m", "5e-324", "report.json: drumhead_freq_hz is inf"),
], ids=["circuit"])
def test_non_finite_json_value_exits_3_naming_the_file_and_key(tmp_path, capsys, command,
                                                               section, key, value, message):
    cfg = edited_config(tmp_path, section, key, value)
    if command == "circuit":
        cfg.write_text(cfg.read_text() + "film_stress_pa = 8.1e7\nfilm_density_kg_m3 = 2700\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"numerical failure: {message}, which JSON cannot hold\n"
    assert not out.exists()


SPAN_BEYOND_FLOAT_RANGE = ("eigenfrequencies from -1.7e+308 to 1.7e+308 Hz span beyond float range "
                           "(largest |entry| 1.7e+308 Hz)")


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would be a line of its own
@pytest.mark.parametrize("command, key, message", [
    # the bands E±(k) = 2 j2 cos k ± |rho(k)| leave float range at every k
    ("topology", "j2_hz", "rho_curve.csv: row 1, column e_minus_hz is -inf, not a finite number"),
    # so does the span of the chain's eigenfrequencies, which diagonalize refuses
    ("spectrum", "j_hz", SPAN_BEYOND_FLOAT_RANGE),
    ("measure-sim", "j_hz", SPAN_BEYOND_FLOAT_RANGE),
], ids=["topology", "spectrum", "measure-sim"])
def test_coupling_beyond_float_range_exits_3_with_one_line(tmp_path, capsys, command, key,
                                                           message):
    cfg = edited_config(tmp_path, "couplings", key, "1.7e308")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"numerical failure: {message}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would be a line of its own
@pytest.mark.parametrize("command", ["spectrum", "measure-sim"])
def test_negative_eigenfrequency_exits_3_with_one_line(tmp_path, capsys, command):
    # a coupling above the 7.12 GHz cavity frequency pushes the lowest mode below zero
    cfg = edited_config(tmp_path, "couplings", "j_hz", "2e10")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == ("numerical failure: lowest eigenfrequency -1.32331e+10 Hz is not positive; an LC "
                   "lattice has no such mode, so the couplings are too large for the cavity "
                   "frequencies\n")
    assert not out.exists()


def test_json_format_flag(small_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(small_cfg), "--out", str(out),
                 "--format", "json"]) == 0
    payload = json.loads((out / "hamiltonian.json").read_text())
    assert len(payload["matrix_hz"]) == 4
    assert len(payload["site_labels"]) == 4


@pytest.mark.parametrize("config", ["paper_1d.cfg", "paper_2d.cfg"])
def test_json_outputs_hold_the_numbers_of_their_csv_twins(tmp_path, config):
    cfg = str(CONFIG_DIR / config)
    dataset = tmp_path / "dataset"
    assert main(["measure-sim", "--config", cfg, "--out", str(dataset)]) == 0
    for fmt in ("csv", "json"):
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / fmt), "--format", fmt]) == 0
        assert main(["recover", "--config", cfg, "--dataset", str(dataset),
                     "--out", str(tmp_path / fmt), "--format", fmt]) == 0
    csv, js = tmp_path / "csv", tmp_path / "json"

    modes = json.loads((js / "modeshapes.json").read_text())
    assert set(modes) == {"eigenfreqs_hz", "modeshapes"}
    eigenfreqs = np.loadtxt(csv / "eigenfreqs.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.array_equal(modes["eigenfreqs_hz"], eigenfreqs)
    assert np.array_equal(modes["modeshapes"], om_io.matrix_from_csv(csv / "modeshapes.csv")[0])
    for name in ("hamiltonian", "recovered_h"):
        payload = json.loads((js / f"{name}.json").read_text())
        assert set(payload) == {"site_labels", "matrix_hz"}
        matrix, labels = om_io.matrix_from_csv(csv / f"{name}.csv")
        assert tuple(payload["site_labels"]) == labels
        assert np.array_equal(payload["matrix_hz"], matrix)


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
