"""The README's "Command line" table lists what the parser accepts, its
"Configuration format" table the keys the configuration reader reads, and
its "Dataset format" table the fields the dataset manifest reader reads.
The package starts threads in one place only, as its README says, and
never imports scipy: numpy is its only runtime dependency.  Output layouts
live in the CLI that writes them.  Its modules
import each other in one direction, and only at module level."""

import argparse
import ast
import re
from pathlib import Path

from omlattice import experiment as om_experiment
from omlattice import io as om_io
from omlattice.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(om_experiment.__file__).resolve().parent


def readme_section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def readme_options() -> dict[str, dict[str, bool]]:
    """Options of each subcommand in the README table, mapped to whether they
    are required (an optional one is written in brackets)."""
    table = {}
    for line in readme_section("Command line").splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        name = re.fullmatch(r"`([a-z-]+)`", cells[0])
        if line.startswith("|") and name:
            table[name.group(1)] = {
                option: not bracket for bracket, option in re.findall(r"`(\[?)(--[a-z-]+)", cells[1])
            }
    return table


def parser_options() -> dict[str, dict[str, bool]]:
    (subparsers,) = (a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
    return {
        name: {option: action.required for action in sub._actions
               if not isinstance(action, argparse._HelpAction)
               for option in action.option_strings}
        for name, sub in subparsers.choices.items()
    }


def test_readme_command_line_table_matches_the_parser():
    assert readme_options() == parser_options()


def readme_config_keys() -> dict[tuple[str, str], tuple[str, str, str]]:
    """Type, default and rule of each (section, key) in the README table."""
    table = {}
    for line in readme_section("Configuration format").splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        section = re.fullmatch(r"`\[([a-z]+)\]`", cells[0])
        if line.startswith("|") and section:
            table[section.group(1), cells[1].strip("`")] = (cells[2], cells[3].strip("`"), cells[4])
    return table


def reader_config_keys() -> dict[tuple[str, str], tuple[str, str, str]]:
    """The same for the key table the configuration reader reads by."""
    def default(key):
        return {om_io._REQUIRED: "required", None: "—"}.get(key.default, key.default)
    return {(section, name): (key.type, default(key), " or ".join((key.rule, *key.words)))
            for section, keys in om_io._KEYS.items() for name, key in keys.items()}


def test_readme_configuration_table_matches_the_key_table():
    assert readme_config_keys() == reader_config_keys()


def readme_manifest_fields() -> dict[str, tuple[str, str, str]]:
    """Type, size and rule of each field in the README table."""
    table = {}
    for line in readme_section("Dataset format").splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        field = re.fullmatch(r"`([a-z_]+)`", cells[0])
        if line.startswith("|") and field:
            table[field.group(1)] = (cells[1], cells[2].strip("`"), cells[3])
    return table


def reader_manifest_fields() -> dict[str, tuple[str, str, str]]:
    """The same for the field table the manifest reader reads by."""
    def size(axes):
        return "—" if not axes else axes[0] if len(axes) == 1 else f"({', '.join(axes)})"
    return {key: (field.type, size(field.size), field.rule)
            for key, field in om_experiment._FIELDS.items()}


def test_readme_dataset_table_matches_the_field_table():
    assert readme_manifest_fields() == reader_manifest_fields()


def imported_modules(path: Path) -> set[str]:
    """The modules a source file imports, by their full names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_only_the_thread_runner_imports_threading():
    # _runtime.on_all_cpus runs every parallel stage
    importers = {path.name for path in PACKAGE.glob("*.py") if "threading" in imported_modules(path)}
    assert importers == {"_runtime.py"}


def test_only_the_cli_and_the_dataset_manifest_import_json():
    # the CLI lays out every output file; experiment reads and writes the dataset manifest
    importers = {path.name for path in PACKAGE.glob("*.py") if "json" in imported_modules(path)}
    assert importers == {"cli.py", "experiment.py"}


def test_no_model_class_formats_its_own_output():
    # the rows and JSON dicts of the output files are built in cli.py
    methods = [f"{name}:{node.name}.{item.name}" for name in ("lattice.py", "topology.py", "disorder.py")
               for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
               if isinstance(node, ast.ClassDef) for item in node.body
               if isinstance(item, ast.FunctionDef) and item.name in ("to_json", "to_rows")]
    assert methods == []


def test_no_module_imports_scipy():
    # numpy is the package's only runtime dependency; scipy is a test extra
    importers = {path.name for path in PACKAGE.glob("*.py")
                 if any(name.split(".")[0] == "scipy" for name in imported_modules(path))}
    assert importers == set()


def test_every_import_is_at_module_level():
    # an import inside a function would hide a cycle between modules
    imports = (ast.Import, ast.ImportFrom)
    below = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for top in ast.parse(path.read_text()).body if not isinstance(top, imports)
             for node in ast.walk(top) if isinstance(node, imports)]
    assert below == []


def package_imports() -> dict[str, set[str]]:
    """The modules of the package each of its modules imports (``from .x
    import`` and ``from . import x``), by their names without ``.py``."""
    graph = {}
    for path in PACKAGE.glob("*.py"):
        graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                graph[path.stem].update([node.module] if node.module else
                                        (alias.name for alias in node.names))
    return graph


def test_package_imports_have_no_cycle():
    # remove, one at a time, the modules that import no module left; a cycle stays behind
    graph = package_imports()
    while leaves := [name for name, imports in graph.items() if not imports & graph.keys()]:
        for name in leaves:
            del graph[name]
    assert graph == {}


def test_runtime_imports_no_package_module_and_disorder_no_measurement():
    # the disorder ensemble shares only the thread runner with the measurement layer
    graph = package_imports()
    assert graph["_runtime"] == set()
    assert imported_modules(PACKAGE / "_runtime.py") <= {"__future__", "os", "threading"}
    assert "measure" not in graph["disorder"]
