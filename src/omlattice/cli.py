"""Command-line front end.

Subcommands: ``spectrum``, ``topology``, ``measure-sim``, ``recover``,
``disorder``, ``circuit``.  Each reads an INI configuration (see
:mod:`omlattice.io`), writes data files into ``--out``, and is deterministic
for a fixed (config, seed).  Outputs are staged in a temporary directory and
moved into place only on success, so failures leave no partial files; the
files they replace are moved aside first and put back if any move fails.

Each subcommand takes ``--config``, ``--out`` and only the options it reads
(:data:`SUBCOMMANDS`); any other option is a usage error.

Exit codes: 0 success, 2 usage or configuration error or a missing or
unreadable file (such as a ``--dataset`` directory), 3 numerical failure
(including a dataset none of whose ringdowns could be fitted, a NaN or
infinity that a JSON output cannot hold, and arrays too large for memory).
Failures print one line to standard error; a usage error prints argparse's
usage message.  Each warning, Python's or numpy's, is one line there too,
``warning: <file>:<line>: <category>: <message>``, logged through
:mod:`logging` while :func:`main` runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import circuit as circuit_mod
from . import io as io_mod
from . import svgplot
from .disorder import invert_zeta, run_ensemble
from .experiment import MeasurementDataset, calibrate_drive_flux, recover, simulate_measurement
from .lattice import RibbonOrientation, Topology, _check_lc_spectrum, build_lattice, diagonalize, participation
from .measure import RingdownFitError, SinkhornError
from .topology import (
    GaplessCurveError,
    bulk_bands_ssh,
    edge_prediction_finite,
    ribbon_edge_prediction,
    ssh_bulk_curve,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Ribbon widths matched to the bundled 24-site flake (cells across the flake
# in the corresponding cut direction).
_FLAKE_RIBBON_WIDTHS = {
    RibbonOrientation.ZIGZAG: 4,
    RibbonOrientation.TILTED_ZIGZAG: 4,
    RibbonOrientation.ARMCHAIR: 7,
    RibbonOrientation.TILTED_ARMCHAIR: 7,
}


def _non_finite(payload, key: str = ""):
    """The key (as ``a.b[2]``) and value of the first NaN or infinity in the
    JSON ``payload``, or None."""
    if isinstance(payload, dict):
        items = ((f"{key}.{k}" if key else str(k), v) for k, v in sorted(payload.items()))
    elif isinstance(payload, (list, tuple)):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(payload))
    else:
        return (key, payload) if isinstance(payload, float) and not np.isfinite(payload) else None
    return next(filter(None, (_non_finite(v, k) for k, v in items)), None)


def _write_json(path: Path, payload) -> None:
    """``payload`` as indented JSON; ``ValueError`` naming the file and the key
    of a NaN or infinity, which JSON cannot hold."""
    found = _non_finite(payload)
    if found:
        raise ValueError(f"{path.name}: {found[0]} is {found[1]}, which JSON cannot hold")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)


def _write_hamiltonian(stem: Path, h, fmt: str) -> None:
    """The Hamiltonian ``h`` as ``<stem>.csv``, below a header of its site
    labels, or as ``<stem>.json`` with the keys ``site_labels`` and ``matrix_hz``."""
    if fmt == "json":
        _write_json(stem.with_suffix(".json"),
                    {"site_labels": list(h.site_labels), "matrix_hz": h.matrix.tolist()})
    else:
        io_mod.matrix_to_csv(stem.with_suffix(".csv"), h.matrix, h.site_labels)


def _require(value, what: str):
    if value is None:
        raise io_mod.ConfigError(f"configuration is missing the [{what}] section")
    return value


def cmd_spectrum(config: io_mod.RunConfig, out: Path, fmt: str, svg: bool) -> None:
    spec = _require(config.spec, "lattice")
    h = build_lattice(spec)
    modes = diagonalize(h)
    _check_lc_spectrum(modes)
    eta = participation(modes)

    io_mod.rows_to_csv(
        out / "eigenfreqs.csv", "mode,freq_hz",
        [(k + 1, f) for k, f in enumerate(modes.eigenfreqs)],
    )
    if fmt == "json":
        _write_json(out / "modeshapes.json", {"eigenfreqs_hz": modes.eigenfreqs.tolist(),
                                              "modeshapes": modes.modeshapes.tolist()})
    else:
        io_mod.matrix_to_csv(out / "modeshapes.csv", modes.modeshapes, h.site_labels)
    _write_hamiltonian(out / "hamiltonian", h, fmt)
    io_mod.matrix_to_csv(out / "participation.csv", eta.eta, h.site_labels)

    bands = circuit_mod.passband_edges(float(np.mean(spec.cavity_freqs)), spec.couplings.j,
                                       spec.couplings.j_prime)
    _write_json(out / "passbands.json", {
        "upb_hz": list(bands["upb"]), "lpb_hz": list(bands["lpb"]),
        "n_midgap_modes": int(np.sum(
            (modes.eigenfreqs > bands["lpb"][1]) & (modes.eigenfreqs < bands["upb"][0])
        )),
    })
    if svg:
        idx = np.arange(1, h.n_sites + 1)
        svgplot.line_plot(
            out / "spectrum.svg", idx, [modes.eigenfreqs],
            title="collective mode frequencies", xlabel="mode", ylabel="frequency (Hz)",
        )


def cmd_topology(config: io_mod.RunConfig, out: Path, svg: bool) -> None:
    spec = _require(config.spec, "lattice")
    cp = spec.couplings
    if spec.kind is Topology.SSH_CHAIN:
        curve = ssh_bulk_curve(cp, 1024)
        io_mod.rows_to_csv(
            out / "rho_curve.csv", "k_rad,re_rho_hz,im_rho_hz,e_minus_hz,e_plus_hz",
            np.column_stack([curve.k, curve.rho.real, curve.rho.imag, *bulk_bands_ssh(curve.k, cp)]),
        )
        prediction = edge_prediction_finite(cp, spec.n_sites // 2)
        _write_json(out / "prediction.json", dataclasses.asdict(prediction))
        if svg:
            svgplot.line_plot(
                out / "rho_curve.svg", curve.rho.real, [curve.rho.imag],
                title="bulk off-diagonal element", xlabel="Re rho (Hz)", ylabel="Im rho (Hz)",
            )
    else:
        k_grid = np.linspace(-np.pi, np.pi, 129)
        with open(out / "ribbon_predictions.csv", "w") as fh:
            fh.write("orientation,k_par_rad,width_cells,zak_rad,slope,edge_states,status\n")
            for orientation in RibbonOrientation:
                width = _FLAKE_RIBBON_WIDTHS[orientation]
                predictions = ribbon_edge_prediction(orientation, k_grid, width, cp.j, cp.j_prime)
                for k_par, pred in zip(k_grid, predictions):
                    fh.write(",".join((
                        orientation.value, f"{k_par:.10g}", str(width),
                        "" if pred.zak is None else f"{pred.zak:.10g}",
                        "" if pred.slope_at_kmin is None else f"{pred.slope_at_kmin:.10g}",
                        {True: "1", False: "0", None: ""}[pred.edge_states_exist],
                        pred.status,
                    )) + "\n")


def cmd_measure_sim(config: io_mod.RunConfig, out: Path, seed: int | None) -> None:
    spec = _require(config.spec, "lattice")
    readouts = _require(config.readouts, "readout")
    meas = _require(config.measurement, "measurement")
    zero = [i for i, site in enumerate(spec.sites) if site.g0 == 0]
    if zero:
        raise io_mod.ConfigError(f"[mechanics] g0_hz is 0 at sites {zero}; measure-sim needs it > 0 at "
                                 "every site, or recover finds no damping slope there")
    h = build_lattice(spec)
    master_seed = meas["seed"] if seed is None else seed
    flux_max = meas["drive_flux_max"]
    if flux_max is None:
        flux_max = calibrate_drive_flux(h, spec.sites, readouts)
    fluxes = np.linspace(flux_max / meas["n_powers"], flux_max, meas["n_powers"])
    dataset = simulate_measurement(
        h, spec.sites, readouts, fluxes,
        master_seed=master_seed, snr=meas["snr"], p0=meas["p0"],
        samples_per_trace=meas["samples_per_trace"],
    )
    dataset.save(out)


def cmd_recover(config: io_mod.RunConfig, out: Path, dataset_dir: Path, fmt: str) -> None:
    spec = _require(config.spec, "lattice")
    dataset = MeasurementDataset.load(dataset_dir)
    reference = diagonalize(build_lattice(spec))
    if reference.n_modes != dataset.n_modes:
        raise io_mod.ConfigError(f"configuration {config.path} has {reference.n_modes} sites, but "
                                 f"dataset {dataset_dir} has {dataset.n_modes} modes")
    result = recover(dataset, reference)

    _write_hamiltonian(out / "recovered_h", result.h_hat, fmt)
    rotating = result.h_hat.rotating_frame()
    io_mod.matrix_to_csv(out / "recovered_h_rotating_frame.csv", rotating.matrix, rotating.site_labels)
    io_mod.matrix_to_csv(out / "eta_hat.csv", result.eta_hat.eta, result.h_hat.site_labels)
    report = dict(result.residuals)
    report["iterations_used"] = report["sinkhorn_iterations"]
    if "h_rel_frobenius_error" in report:
        report["matches_ground_truth_1e-6"] = bool(report["h_rel_frobenius_error"] < 1e-6)
    _write_json(out / "report.json", report)


def cmd_disorder(config: io_mod.RunConfig, out: Path, seed: int | None, svg: bool) -> None:
    spec = _require(config.spec, "lattice")
    dis = _require(config.disorder, "disorder")
    if spec.kind is not Topology.SSH_CHAIN:
        raise io_mod.ConfigError(
            f"disorder needs an {Topology.SSH_CHAIN.value} lattice; the hybridization "
            f"factor is defined for chains only, and this config has {spec.kind.value}"
        )
    _check_lc_spectrum(diagonalize(build_lattice(spec)))
    master_seed = dis["seed"] if seed is None else seed
    ensemble = run_ensemble(spec, dis["sigma_grid"], dis["samples"], master_seed)
    io_mod.rows_to_csv(
        out / "ensemble.csv", "sigma,zeta_mean,zeta_p5,zeta_p15,zeta_p85,zeta_p95",
        np.column_stack([ensemble.sigma_grid, ensemble.zeta_mean, ensemble.zeta_p5,
                         ensemble.zeta_p15, ensemble.zeta_p85, ensemble.zeta_p95]),
    )
    freq_rows = np.column_stack([
        ensemble.sigma_grid, ensemble.eigenfreq_mean, ensemble.eigenfreq_std,
    ])
    n = ensemble.eigenfreq_mean.shape[1]
    header = "sigma," + ",".join(f"mean_hz_mode{k + 1}" for k in range(n)) + "," + \
        ",".join(f"std_hz_mode{k + 1}" for k in range(n))
    io_mod.rows_to_csv(out / "eigenfreq_stats.csv", header, freq_rows)
    manifest = {
        "samples_per_point": ensemble.samples_per_point,
        "master_seed": ensemble.master_seed,
        "failed_samples": ensemble.failed_samples,
        "n_sigma": int(ensemble.sigma_grid.size),
    }
    if dis["zeta_measured"] is not None:
        inv = invert_zeta(dis["zeta_measured"], ensemble, dis["confidence"])
        manifest["inversion"] = {
            "zeta_measured": dis["zeta_measured"],
            "confidence": dis["confidence"],
            "sigma_interval": list(inv.interval) if inv.interval else None,
            "diagnostic": inv.diagnostic,
        }
    _write_json(out / "manifest.json", manifest)
    if svg:
        svgplot.line_plot(
            out / "ensemble.svg", ensemble.sigma_grid,
            [ensemble.zeta_mean, ensemble.zeta_p5, ensemble.zeta_p95],
            title="edge hybridization vs disorder", xlabel="relative sigma",
            ylabel="zeta", labels=["mean", "p5", "p95"],
        )


def cmd_circuit(config: io_mod.RunConfig, out: Path) -> None:
    circ = _require(config.circuit, "circuit")
    report: dict = {}
    if circ["inductance_h"] is not None and circ["capacitance_f"] is not None:
        cell = circuit_mod.CircuitCell(circ["inductance_h"], circ["capacitance_f"])
        report["resonance_freq_hz"] = cell.resonance_freq
        if circ["mutual_h"] is not None:
            mutual = circ["mutual_h"]
            f_lo, f_hi = circuit_mod.dimer_eigenfrequencies(cell, mutual)
            report["dimer_freqs_hz"] = [f_lo, f_hi]
            report["coupling_rate_hz"] = circuit_mod.coupling_rate(cell, mutual)
            if circ["mutual_prime_h"] is not None:
                j = report["coupling_rate_hz"]
                jp = circuit_mod.coupling_rate(cell, circ["mutual_prime_h"])
                report["coupling_rate_prime_hz"] = jp
                bands = circuit_mod.passband_edges(cell.resonance_freq, j, jp)
                report["passbands_hz"] = {k: list(v) for k, v in bands.items()}
    drum = (circ["drum_radius_m"], circ["film_stress_pa"], circ["film_density_kg_m3"])
    if None not in drum:
        report["drumhead_freq_hz"] = circuit_mod.drumhead_frequency(*drum)
    if circ["loop_csv_a"] is not None and circ["loop_csv_b"] is not None:
        base = config.path.parent if config.path else Path(".")
        curve_a = circuit_mod.WireCurve.from_csv(base / circ["loop_csv_a"])
        curve_b = circuit_mod.WireCurve.from_csv(base / circ["loop_csv_b"])
        report["mutual_inductance_h"] = circuit_mod.mutual_inductance_neumann(
            curve_a, curve_b, circ["neumann_segments"]
        )
    if not report:
        raise io_mod.ConfigError("[circuit] section holds no computable parameter group")
    _write_json(out / "report.json", report)


def _install(staging: Path, out: Path) -> None:
    """Move every item of ``staging`` into ``out``, all or none: the items of
    ``out`` they replace are first moved aside, and when any move fails the
    items already moved in are removed and every item moved aside is put
    back.  Other items of ``out`` are not touched."""
    items = sorted(staging.iterdir())
    aside = Path(tempfile.mkdtemp(prefix=".omlattice-old-", dir=out.parent))
    replaced, installed = [], []
    try:
        for item in items:
            target = out / item.name
            if target.exists() or target.is_symlink():
                shutil.move(str(target), str(aside / item.name))
                replaced.append(item.name)
        for item in items:
            shutil.move(str(item), str(out / item.name))
            installed.append(item.name)
    except BaseException:
        for name in installed:
            if (out / name).is_dir():
                shutil.rmtree(out / name)
            else:
                (out / name).unlink()
        for name in replaced:
            shutil.move(str(aside / name), str(out / name))
        aside.rmdir()  # left in place, with the old items, if a restore failed
        raise
    shutil.rmtree(aside)


# How each option of a subcommand is declared; ``dest`` is the name of the
# keyword the subcommand's function takes it by.
_OPTIONS = {
    "--format": dict(dest="fmt", choices=("csv", "json"), default="csv"),
    "--svg": dict(action="store_true", help="also emit SVG line plots"),
    "--seed": dict(type=int, default=None),
    "--dataset": dict(dest="dataset_dir", required=True, type=Path),
}

# Each subcommand's function, called as ``function(config, out, **options)``,
# and the options it reads besides --config and --out.  Its subparser has
# exactly these, so any other option is a usage error.
SUBCOMMANDS = {
    "spectrum": (cmd_spectrum, ("--format", "--svg")),
    "topology": (cmd_topology, ("--svg",)),
    "measure-sim": (cmd_measure_sim, ("--seed",)),
    "recover": (cmd_recover, ("--dataset", "--format")),
    "disorder": (cmd_disorder, ("--seed", "--svg")),
    "circuit": (cmd_circuit, ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omlattice",
        description="Coupled optomechanical LC lattice simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", required=True, type=Path)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


class _OneLine(logging.Formatter):
    """The first line of a record: a captured warning without the source
    line that :func:`warnings.formatwarning` puts under it."""

    def format(self, record):
        return super().format(record).split("\n", 1)[0]


def main(argv=None) -> int:
    handler = logging.StreamHandler()  # standard error as it is now
    handler.setFormatter(_OneLine("warning: %(message)s"))
    log = logging.getLogger("py.warnings")
    log.addHandler(handler)
    log.propagate = False
    logging.captureWarnings(True)
    try:
        return _run(argv)
    finally:
        logging.captureWarnings(False)
        log.propagate = True
        log.removeHandler(handler)


def _run(argv) -> int:
    args = vars(build_parser().parse_args(argv))
    command, config_path, out = args.pop("command"), args.pop("config"), args.pop("out")
    try:
        config = io_mod.load_config(config_path)
    except io_mod.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    staging = Path(tempfile.mkdtemp(prefix=".omlattice-", dir=out.parent if out.parent.exists() else None))
    try:
        seed = args.get("seed")
        if seed is not None and seed < 0:
            raise io_mod.ConfigError(f"--seed must be a non-negative integer, got {seed}")
        SUBCOMMANDS[command][0](config, staging, **args)
        out.mkdir(parents=True, exist_ok=True)
        _install(staging, out)
        return EXIT_OK
    except io_mod.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy names the array; a bare MemoryError names nothing
        print(f"numerical failure: {str(exc) or 'memory ran out'}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (np.linalg.LinAlgError, GaplessCurveError, SinkhornError, RingdownFitError,
            ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        shutil.rmtree(staging, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
