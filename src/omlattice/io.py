"""Configuration parsing and file export helpers.

Run configurations are INI-style text files with nested sections; parsing is
strict (unknown sections or keys abort with the offending line).  Matrices
export to CSV with a header row of site labels; complex matrices emit
``<label>_re`` / ``<label>_im`` column pairs.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lattice import Couplings, LatticeSpec, SiteParams, Topology
from .disorder import _BAND_PERCENTILES
from .experiment import ModeReadout


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


def _find_line(path: Path | None, needle: str) -> str:
    if path is None:
        return ""
    try:
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if needle in line:
                return f" ({path.name}:{lineno})"
    except OSError:
        pass
    return ""


MAX_RANGE_STEPS = 10_000  # the most steps a start:stop:step range may take


def _float_list(raw: str, name: str) -> list[float]:
    """The values of the list or ``start:stop:step`` range ``raw`` (``stop``
    included); ``ConfigError`` naming the key ``name`` for a range that is
    not finite, runs backwards or takes more than :data:`MAX_RANGE_STEPS`."""
    if ":" in raw and "," not in raw:
        parts = [float(p) for p in raw.split(":")]
        if len(parts) != 3 or not np.all(np.isfinite(parts)) or parts[2] <= 0 or parts[1] < parts[0]:
            raise ConfigError(f"{name} must be a range start:stop:step of finite numbers with "
                              f"step > 0 and stop >= start, got {raw}")
        start, stop, step = parts
        steps = (stop - start) / step  # inf when the step underflows the span
        if steps > MAX_RANGE_STEPS:
            raise ConfigError(f"{name} range {raw} takes {steps:.3g} steps, more than "
                              f"{MAX_RANGE_STEPS}")
        return [start + k * step for k in range(round(steps) + 1)]
    return [float(p) for p in raw.split(",") if p.strip()]


_SECTION_KEYS = {
    "lattice": {"kind", "n_cells", "cavity_freq_hz", "cavity_freqs_hz"},
    "couplings": {"j_hz", "j_prime_hz", "j2_hz", "j3_hz", "j3_prime_hz"},
    "mechanics": {"freqs_hz", "linewidths_hz", "g0_hz"},
    "readout": {"kappa_tot_hz", "kappa_1_fraction", "kappa_2_fraction",
                "kappa_1_hz", "kappa_2_hz", "transmittance"},
    "measurement": {"n_powers", "drive_flux_max", "snr", "p0", "samples_per_trace", "seed"},
    "disorder": {"sigma_grid", "samples", "seed", "zeta_measured", "confidence"},
    "circuit": {"inductance_h", "capacitance_f", "mutual_h", "mutual_prime_h",
                "drum_radius_m", "film_stress_pa", "film_density_kg_m3",
                "loop_csv_a", "loop_csv_b", "neumann_segments"},
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration document; sections that are absent stay None."""

    spec: LatticeSpec | None
    readouts: tuple[ModeReadout, ...] | None
    measurement: dict | None
    disorder: dict | None
    circuit: dict | None
    path: Path | None


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file (strict: unknown keys abort)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file {path} does not exist")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]{_find_line(path, '[' + section + ']')}")
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]{_find_line(path, key)}"
                )

    try:
        spec = _parse_lattice(parser) if parser.has_section("lattice") else None
        readouts = _parse_readout(parser, spec) if parser.has_section("readout") else None
        measurement = _parse_measurement(parser) if parser.has_section("measurement") else None
        dis = _parse_disorder(parser) if parser.has_section("disorder") else None
        circ = dict(parser["circuit"]) if parser.has_section("circuit") else None
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid configuration {path}: {exc}") from exc
    return RunConfig(spec, readouts, measurement, dis, circ, path)


def _parse_lattice(parser: configparser.ConfigParser) -> LatticeSpec:
    lat = parser["lattice"]
    kinds = [t.value for t in Topology]
    if lat["kind"] not in kinds:
        raise ConfigError(f"[lattice] kind must be one of {', '.join(kinds)}, got {lat['kind']}")
    kind = Topology(lat["kind"])
    if kind is Topology.SSH_CHAIN:
        cells = lat["n_cells"]
        if not (cells.isdecimal() and int(cells) >= 1):
            raise ConfigError(f"[lattice] n_cells must be an integer >= 1, got {cells}")
        n_sites = 2 * int(cells)
    else:
        n_sites = 24
    if "cavity_freqs_hz" in lat:
        cavity = _float_list(lat["cavity_freqs_hz"], "[lattice] cavity_freqs_hz")
        if len(cavity) != n_sites:
            raise ConfigError(f"cavity_freqs_hz must list {n_sites} values")
    else:
        cavity = [float(lat["cavity_freq_hz"])] * n_sites

    cp = parser["couplings"] if parser.has_section("couplings") else {}
    couplings = Couplings(
        j=float(cp.get("j_hz", 0.0)),
        j_prime=float(cp.get("j_prime_hz", 0.0)),
        j2=float(cp.get("j2_hz", 0.0)),
        j3=float(cp.get("j3_hz", 0.0)),
        j3_prime=float(cp.get("j3_prime_hz", 0.0)),
    )

    if parser.has_section("mechanics"):
        mech = parser["mechanics"]
        freqs = _expand(mech["freqs_hz"], n_sites, "[mechanics] freqs_hz")
        widths = _expand(mech["linewidths_hz"], n_sites, "[mechanics] linewidths_hz")
        g0s = _expand(mech.get("g0_hz", "0"), n_sites, "[mechanics] g0_hz")
    else:
        freqs = [1.0] * n_sites  # placeholder mechanics for purely microwave runs
        widths = [0.0] * n_sites
        g0s = [0.0] * n_sites
    cavity_key = "cavity_freqs_hz" if "cavity_freqs_hz" in lat else "cavity_freq_hz"
    for section, key, values, strict in [
        ("lattice", cavity_key, cavity, True), ("mechanics", "freqs_hz", freqs, True),
        ("mechanics", "linewidths_hz", widths, False), ("mechanics", "g0_hz", g0s, False),
    ]:
        v = np.array(values)
        if not np.all(((v > 0) if strict else (v >= 0)) & (v < np.inf)):  # NaN fails both
            raise ConfigError(f"[{section}] {key} must be finite and {'>' if strict else '>='} 0, "
                              f"got {parser[section][key]}")
    sites = tuple(
        SiteParams(cavity_freq=c, mech_freq=f, mech_linewidth=w, g0=g)
        for c, f, w, g in zip(cavity, freqs, widths, g0s)
    )
    return LatticeSpec(kind=kind, n_sites=n_sites, sites=sites, couplings=couplings)


def _expand(raw: str, n: int, name: str) -> list[float]:
    values = _float_list(raw, name)
    if len(values) == 1:
        return values * n
    if len(values) != n:
        raise ConfigError(f"{name} must list 1 or {n} values, got {len(values)}")
    return values


def _parse_readout(parser, spec: LatticeSpec | None) -> tuple[ModeReadout, ...]:
    if spec is None:
        raise ConfigError("[readout] requires a [lattice] section")
    ro = parser["readout"]
    n = spec.n_sites
    kappas = _expand(ro["kappa_tot_hz"], n, "[readout] kappa_tot_hz")
    if "kappa_1_hz" in ro:
        k1 = _expand(ro["kappa_1_hz"], n, "[readout] kappa_1_hz")
    else:
        frac = float(ro.get("kappa_1_fraction", 0.25))
        k1 = [frac * k for k in kappas]
    if "kappa_2_hz" in ro:
        k2 = _expand(ro["kappa_2_hz"], n, "[readout] kappa_2_hz")
    else:
        frac = float(ro.get("kappa_2_fraction", 0.25))
        k2 = [frac * k for k in kappas]
    trans = _expand(ro.get("transmittance", "1.0"), n, "[readout] transmittance")
    return tuple(
        ModeReadout(kappa_tot=k, kappa_1=a, kappa_2=b, transmittance=t)
        for k, a, b, t in zip(kappas, k1, k2, trans)
    )


def _parse_seed(section) -> int:
    seed = int(section.get("seed", 0))
    if seed < 0:
        raise ConfigError(f"[{section.name}] seed must be a non-negative integer, got {seed}")
    return seed


def _parse_measurement(parser) -> dict:
    m = parser["measurement"]
    snr_raw = m.get("snr", "100")
    out = {
        "n_powers": int(m.get("n_powers", 10)),
        "drive_flux_max": None if m.get("drive_flux_max", "auto") == "auto"
        else float(m["drive_flux_max"]),
        "snr": None if snr_raw in ("inf", "none") else float(snr_raw),
        "p0": float(m.get("p0", 1.0)),
        "samples_per_trace": int(m.get("samples_per_trace", 140)),
        "seed": _parse_seed(m),
    }
    flux_max, snr, p0 = out["drive_flux_max"], out["snr"], out["p0"]
    for key, ok, rule in [
        ("n_powers", out["n_powers"] >= 2, "at least 2"),
        ("drive_flux_max", flux_max is None or (np.isfinite(flux_max) and flux_max > 0),
         "finite and > 0, or auto"),
        ("snr", snr is None or snr > 0, "> 0, inf or none"),
        ("p0", np.isfinite(p0) and p0 > 0, "finite and > 0"),
        ("samples_per_trace", out["samples_per_trace"] >= 2, "at least 2"),
    ]:
        if not ok:
            raise ConfigError(f"[measurement] {key} must be {rule}, got {out[key]}")
    return out


def _parse_disorder(parser) -> dict:
    d = parser["disorder"]
    out = {
        "sigma_grid": np.array(_float_list(d["sigma_grid"], "[disorder] sigma_grid")),
        "samples": int(d.get("samples", 4000)),
        "seed": _parse_seed(d),
        "confidence": float(d.get("confidence", 0.9)),
    }
    if "zeta_measured" in d:
        out["zeta_measured"] = float(d["zeta_measured"])
    sigma, zeta = out["sigma_grid"], out.get("zeta_measured", 0.0)
    for key, ok, rule in [
        ("sigma_grid", sigma.size > 0 and bool(np.all(np.isfinite(sigma) & (sigma >= 0))),
         "one or more finite values >= 0"),
        ("samples", out["samples"] >= 1, "at least 1"),
        ("confidence", out["confidence"] in _BAND_PERCENTILES,
         f"one of {sorted(_BAND_PERCENTILES)}"),
        ("zeta_measured", 0.0 <= zeta <= 1.0, "in [0, 1]"),
    ]:
        if not ok:
            raise ConfigError(f"[disorder] {key} must be {rule}, got {d[key]}")
    return out


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def matrix_to_csv(path, matrix: np.ndarray, labels) -> None:
    matrix = np.asarray(matrix)
    labels = list(labels) if labels else [f"site{i + 1}" for i in range(matrix.shape[1])]
    with open(path, "w") as fh:
        if np.iscomplexobj(matrix):
            header = ",".join(f"{lab}_re,{lab}_im" for lab in labels)
            fh.write(header + "\n")
            for row in matrix:
                fh.write(",".join(f"{v.real:.17g},{v.imag:.17g}" for v in row) + "\n")
        else:
            fh.write(",".join(labels) + "\n")
            for row in matrix:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def matrix_from_csv(path) -> tuple[np.ndarray, tuple[str, ...]]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header and header[0].endswith("_re"):
        labels = tuple(h[:-3] for h in header[::2])
        matrix = data[:, 0::2] + 1j * data[:, 1::2]
    else:
        labels = tuple(header)
        matrix = data
    return matrix, labels


def rows_to_csv(path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in np.asarray(rows):
            fh.write(",".join(f"{v:.17g}" for v in np.atleast_1d(row)) + "\n")
