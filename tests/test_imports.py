"""Every name a quaddyn module imports is used in that module.

A function moved to another module (or to a test oracle) tends to leave its
imports behind; this catches them.  The file is parsed, not imported.  The
package's __init__ re-exports names on purpose, and `from __future__`
imports are directives, so both are exempt.
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
