import json
from pathlib import Path

import numpy as np
import pytest

import omlattice as om
from omlattice import io as om_io
from omlattice.cli import main

CONFIG_DIR = Path(om.__file__).resolve().parent / "configs"

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


def legacy_dataset(config: Path, tmp_path: Path, save_legacy_csv) -> Path:
    """``measure-sim`` output (left in ``tmp_path / "npy"``) rewritten as a
    per-trace CSV dataset."""
    assert main(["measure-sim", "--config", str(config), "--out", str(tmp_path / "npy")]) == 0
    save_legacy_csv(om.MeasurementDataset.load(tmp_path / "npy"), tmp_path / "legacy")
    return tmp_path / "legacy"


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


# Each class of malformed trace data, as an edit of the trace file at ``path``.
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
        assert len(manifest["traces"]) == 4 * 4 * 5
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

    def test_unfittable_legacy_dataset_exits_3_without_traceback(self, small_cfg, tmp_path,
                                                                 capsys, save_legacy_csv):
        dataset, out = legacy_dataset(small_cfg, tmp_path, save_legacy_csv), tmp_path / "out"
        for path in (dataset / "traces").iterdir():
            rows = path.read_text().splitlines()
            path.write_text("\n".join([rows[0]] + [r.split(",")[0] + ",0.5" for r in rows[1:]]))
        capsys.readouterr()
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert "ringdown" in err
        assert not out.exists()

    def test_legacy_dataset_recovers_as_the_new_one(self, small_cfg, tmp_path, save_legacy_csv):
        legacy = legacy_dataset(small_cfg, tmp_path, save_legacy_csv)
        for dataset in (tmp_path / "npy", legacy):
            assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                         "--out", str(dataset.with_name(dataset.name + "-out"))]) == 0
        for name in ("recovered_h.csv", "recovered_h_rotating_frame.csv", "eta_hat.csv",
                     "report.json"):
            assert (tmp_path / "npy-out" / name).read_bytes() == \
                (tmp_path / "legacy-out" / name).read_bytes()

    def test_too_short_legacy_trace_degrades_recovery(self, small_cfg, tmp_path, save_legacy_csv):
        dataset, out = legacy_dataset(small_cfg, tmp_path, save_legacy_csv), tmp_path / "out"
        path = dataset / "traces" / "k01_i02_p03.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:6]) + "\n")
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["fits_failed"] == 1

    @pytest.mark.parametrize("case", list(MALFORMED_TRACES))
    def test_malformed_trace_data_exits_2_naming_the_file(self, small_cfg, tmp_path, capsys,
                                                          save_legacy_csv, case):
        if case.startswith("csv"):
            dataset = legacy_dataset(small_cfg, tmp_path, save_legacy_csv)
            path = dataset / "traces" / "k01_i02_p03.csv"
        else:
            dataset = tmp_path / "dataset"
            assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
            path = dataset / "traces" / "traces.npy"
        MALFORMED_TRACES[case](path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("drop, expected", [
        (None, "missing key 'readouts'"),
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
        ("mode_freqs_hz=3", "'mode_freqs_hz' is not a list"),
    ])
    def test_malformed_manifest_exits_2_without_traceback(self, small_cfg, tmp_path,
                                                          capsys, drop, expected):
        dataset, out = tmp_path / "dataset", tmp_path / "out"
        assert main(["measure-sim", "--config", str(small_cfg), "--out", str(dataset)]) == 0
        manifest = json.loads((dataset / "manifest.json").read_text())
        if drop is None:
            text = "{}"
        elif drop == "json":
            text = "{"
        elif "=" in drop:
            key, value = drop.split("=")
            entry = manifest["traces"][0] if key.startswith("traces[0].") else manifest
            entry[key.split(".")[-1]] = json.loads(value)
            text = json.dumps(manifest)
        elif drop.startswith("traces[0]."):
            del manifest["traces"][0][drop.split(".")[1]]
            text = json.dumps(manifest)
        else:
            del manifest[drop]
            text = json.dumps(manifest)
        (dataset / "manifest.json").write_text(text)
        capsys.readouterr()
        assert main(["recover", "--config", str(small_cfg), "--dataset", str(dataset),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("configuration error:") and expected in err
        assert not out.exists()

    def test_seed_flag_overrides_config(self, small_cfg, tmp_path):
        noisy = tmp_path / "noisy.cfg"
        noisy.write_text(SMALL_CFG.replace("snr = inf", "snr = 50"))
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["measure-sim", "--config", str(noisy), "--out", str(d1), "--seed", "9"]) == 0
        assert main(["measure-sim", "--config", str(noisy), "--out", str(d2), "--seed", "10"]) == 0
        t1 = np.load(d1 / "traces" / "traces.npy")
        t2 = np.load(d2 / "traces" / "traces.npy")
        assert np.array_equal(t1[0], t2[0]) and not np.array_equal(t1[1], t2[1])


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


def test_json_format_flag(small_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(small_cfg), "--out", str(out),
                 "--format", "json"]) == 0
    payload = json.loads((out / "hamiltonian.json").read_text())
    assert len(payload["matrix_hz"]) == 4
    assert len(payload["site_labels"]) == 4
