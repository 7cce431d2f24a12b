"""The import graph keeps the closed form and the grid oracle apart.

The closed form (spectrum, hft, jacobi) and the oracle check each other, so
neither may import the other; they meet only in tables, checks and cli.
Every import statement counts, including those inside functions and under
TYPE_CHECKING.
"""

import ast
from pathlib import Path

import pytest

import hyiqp
from hyiqp import cli, hft, spectrum

PACKAGE = Path(hyiqp.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

MEETING_POINTS = {"tables", "checks", "cli"}
FORBIDDEN = {
    "spectrum": {"oracle"} | MEETING_POINTS,
    "hft": {"oracle"} | MEETING_POINTS,
    "jacobi": {"oracle"} | MEETING_POINTS,
    # the oracle rests on the shared base only
    "oracle": set(MODULES) - {"oracle", "constants", "errors", "potential"},
}


def package_imports(module: str) -> set[str]:
    """The hyiqp modules that any import statement of ``module`` names."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # hyiqp has no subpackages, so a relative import has level 1
            base = node.module if node.level == 0 else ".".join(filter(None, ("hyiqp", node.module)))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {name.split(".")[1] for name in names if name.startswith("hyiqp.")} & set(MODULES)


def test_the_parser_sees_every_kind_of_import():
    # tables imports the oracle only inside a function and under TYPE_CHECKING
    assert "oracle" in package_imports("tables")
    # cli imports checks inside a function by "from . import checks"
    assert "checks" in package_imports("cli")


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_the_halves_do_not_import_each_other(module):
    assert package_imports(module) & FORBIDDEN[module] == set()


@pytest.mark.parametrize("module, name", [
    (hft, "expectation_report"), (hft, "ReportRow"), (hft, "rel_dev"),
    (spectrum, "count_sign_changes"), (cli, "REPORT_COLUMNS"), (cli, "ReportRow"),
])
def test_moved_names_leave_no_alias(module, name):
    assert not hasattr(module, name)
