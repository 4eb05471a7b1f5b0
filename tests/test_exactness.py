"""No floating point in src/quaddyn: an AST scan of every module.

quaddyn's answers are exact, so its source may hold no float or complex
literal, no call of float(), complex() or round(), and no float-valued name
of math (sqrt, log, exp, floor, ceil, pi, inf, ...) nor any of cmath.  The
integer functions of math (isqrt, gcd, lcm, comb, ...) stay allowed.

The scan reads syntax, not types: it cannot see a true division a / b of
two ints, which gives a float at run time.  That is left to the tests that
pin exact values.
"""

import ast
import math
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quaddyn"

EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}
FLOAT_MATH = {name for name in dir(math) if not name.startswith("_")} - EXACT_MATH
FLOAT_CALLS = {"float", "complex", "round"}

# (file name, line) of a use that is exact after all; none today
ALLOWED: set = set()


def float_uses(source: str) -> list[tuple[int, str]]:
    """(line, what) of every floating-point construct in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, f"{type(node.value).__name__} literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in FLOAT_CALLS):
            found.append((node.lineno, f"{node.func.id}()"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                node.value.id == "cmath" or node.value.id == "math" and node.attr in FLOAT_MATH):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
            names = [a.name for a in node.names if node.module == "cmath" or a.name in FLOAT_MATH]
            found += [(node.lineno, f"from {node.module} import {name}") for name in names]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "import cmath") for a in node.names if a.name == "cmath"]
    return sorted(found)


def test_the_scan_finds_planted_floats():
    planted = ("import cmath\nimport math\nfrom math import isqrt, sqrt\n"
               "x = 0.5\ny = 2j\nz = float(3)\nw = round(x)\nv = math.floor(7)\n"
               "u = math.pi\nt = cmath.exp\ns = math.isqrt(9) + math.gcd(4, 6)\n")
    assert float_uses(planted) == [
        (1, "import cmath"), (3, "from math import sqrt"), (4, "float literal 0.5"),
        (5, "complex literal 2j"), (6, "float()"), (7, "round()"), (8, "math.floor"),
        (9, "math.pi"), (10, "cmath.exp"),
    ]


def test_src_holds_no_floating_point():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(SRC.rglob("*.py"))
             for line, what in float_uses(path.read_text())
             if (path.name, line) not in ALLOWED]
    assert found == []
