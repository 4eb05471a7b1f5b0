"""Every name a quaddyn module imports is used in that module, and no module
imports from the tests.

A function moved to another module (or to a test oracle) tends to leave its
imports behind; this catches them.  The file is parsed, not imported.  The
package's __init__ re-exports names on purpose, and `from __future__`
imports are directives, so both are exempt.  The oracles in tests/ import
quaddyn, never the other way round: an oracle the engine depends on would
check nothing.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quaddyn"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "from dataclasses import dataclass\nimport os.path\nimport math\nprint(math.pi)\n"
    assert unused_imports(source) == [(1, "dataclass"), (2, "os")]


def test_the_modules_are_found():
    assert {"cli.py", "curves.py", "factor.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == [], f"unused imports in {path.name}"


def oracle_imports(source: str) -> list:
    """(line, module) of each import from tests/ or from an *_oracle module."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            parts = [part for part in module.split(".") if part]
            if parts and (parts[0] == "tests" or any(part.endswith("_oracle") for part in parts)):
                out.append((node.lineno, module))
                break
    return out


def test_the_check_finds_an_oracle_import():
    source = ("import math\nfrom factor_oracle import zassenhaus\nimport tests.ff_oracle\n"
              "from tests import helpers\nfrom . import chabauty_oracle\nfrom .factor import _lift\n")
    assert oracle_imports(source) == [(2, "factor_oracle"), (3, "tests.ff_oracle"),
                                      (4, "tests"), (5, ".chabauty_oracle")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_an_oracle(path):
    assert oracle_imports(path.read_text()) == [], f"{path.name} imports from the tests"


def fraction_part_reads(source: str) -> list:
    """(line, text) of each .numerator or .denominator read straight off an .a or .b.

    QuadElem stores the normalized triple (A, B, C); a and b are Fractions
    built from it on every read.  Outside quadfield, code that wants the
    integers reads .triple instead of taking a Fraction apart.
    """
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")
                  and isinstance(node.value, ast.Attribute) and node.value.attr in ("a", "b"))


def test_the_check_finds_a_fraction_taken_apart():
    source = "w = c.a.denominator\nn = q.numerator + c.ab.numerator\nm = (x.b).numerator * c.d\n"
    assert fraction_part_reads(source) == [(1, "c.a.denominator"), (3, "x.b.numerator")]


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "quadfield.py"],
                         ids=lambda path: path.name)
def test_only_quadfield_takes_a_and_b_apart(path):
    assert fraction_part_reads(path.read_text()) == [], f"{path.name} converts a QuadElem by hand"


# each oracle in tests/ and the fast-path names it must not import or read:
# an oracle built on the code it checks would agree with it by construction
ORACLE_FORBIDDEN = {
    "dynatomic_oracle": {"dynatomic", "_xmul", "_xdiv", "_xcompose"},
    "chabauty_oracle": {"DiskMap", "disk_series", "_disk_maps", "_lambda_coefficients",
                        "disk_differentials", "_branch_series", "eval_lambda", "_residue"},
    "ff_oracle": {"_good_reduction", "_norm_form", "_bad_reduction_integer", "_integral_square"},
    "jacobian_oracle": {"_xgcd", "_compose", "_build_w", "_reduce"},
    "polys_oracle": {"_zresultant", "z_gcd", "_integral", "_taylor"},
    "factor_oracle": {"_lift", "_low_degree_factors"},
    "quadfield_oracle": {"_norm", "_add", "_mul", "_inv", "quad_sqrt"},
}


def fast_path_uses(source: str, names) -> list:
    """(line, name) of each `from ... import name` and each `.name` read, for name in names."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out += [(node.lineno, alias.name) for alias in node.names if alias.name in names]
        elif isinstance(node, ast.Attribute) and node.attr in names:
            out.append((node.lineno, node.attr))
    return sorted(out)


def test_the_check_finds_a_fast_path_used_by_an_oracle():
    source = ("from quaddyn.chabauty import TruncSeries, disk_series\n"
              "import quaddyn.chabauty as ch\nx = ch._branch_series(1, ch.integrate)\n"
              "from quaddyn.chabauty import DiskMap as D\ndef disk_differentials(): pass\n")
    assert fast_path_uses(source, ORACLE_FORBIDDEN["chabauty_oracle"]) == [
        (1, "disk_series"), (3, "_branch_series"), (4, "DiskMap")]


@pytest.mark.parametrize("oracle", sorted(ORACLE_FORBIDDEN))
def test_no_oracle_uses_the_fast_path_it_checks(oracle):
    source = (PACKAGE.parent.parent / "tests" / f"{oracle}.py").read_text()
    assert fast_path_uses(source, ORACLE_FORBIDDEN[oracle]) == [], f"{oracle} uses the fast path"


def test_every_forbidden_name_is_defined_in_quaddyn():
    # a renamed fast path would otherwise drop out of the check unnoticed
    defined = {node.name for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set().union(*ORACLE_FORBIDDEN.values()) <= defined


# modules whose import costs a command's start-up more than quaddyn uses of them:
# dataclasses pulls in inspect, ast, dis and tokenize, and importlib.resources
# pathlib, tempfile and urllib; records are namedtuples and data files are opened
# next to the module
START_UP_FORBIDDEN = ("dataclasses", "typing", "importlib.resources")


def start_up_imports(source: str) -> list:
    """(line, module) of each import of a START_UP_FORBIDDEN module or of a name from one."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        hits = [module for module in modules
                if any(module == bad or module.startswith(bad + ".") for bad in START_UP_FORBIDDEN)]
        out += [(node.lineno, hits[0])] if hits else []
    return out


def test_the_check_finds_a_start_up_import():
    source = ("import typing\nfrom dataclasses import dataclass\nfrom importlib import resources\n"
              "import importlib.resources as res\nfrom importlib import import_module\n"
              "from .typing import x\nimport dataclasses_json\n")
    assert start_up_imports(source) == [(1, "typing"), (2, "dataclasses"),
                                        (3, "importlib.resources"), (4, "importlib.resources")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_what_start_up_does_not_need(path):
    assert start_up_imports(path.read_text()) == [], f"{path.name} imports a start-up module"
