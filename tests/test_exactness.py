"""No floating point in src/quaddyn: an AST scan of every module.

quaddyn's answers are exact, so its source may hold no float or complex
literal, no call of float(), complex() or round(), and no float-valued name
of math (sqrt, log, exp, floor, ceil, pi, inf, ...) nor any of cmath.  The
integer functions of math (isqrt, gcd, lcm, comb, ...) stay allowed.

The scan reads syntax, not types, so it cannot tell a true division a / b
of two ints, which gives a float at run time, from one of two Fractions.
So every `/` in src/ is listed in DIVISIONS by module, function and
expression, with the type it divides, and any other one fails.
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


# every true division in src/: (module, function, expression, the type it divides);
# an order3_certify model lives over Q or over K
DIVISIONS = sorted([
    ("curves.py", "RegistryEntry.c_value", "num.eval(x) / den.eval(x)", "QuadElem"),
    ("curves.py", "_quartic_split", "(c + s * total) / (s - s2)", "QuadElem"),
    ("factor.py", "_from_int_poly", "1 / lead", "Fraction"),
    ("jacobian.py", "order3_certify", "(-b_ + sign * root) / (2 * a_)", "Fraction or QuadElem"),
    ("jacobian.py", "order3_certify", "(r1 - W * t) / (2 * v1)", "Fraction or QuadElem"),
    ("jacobian.py", "order3_certify", "t / 2", "Fraction or QuadElem"),
    ("polys.py", "QuadField.inv", "self.one / x", "QuadElem"),
    ("polys.py", "RationalField.inv", "1 / Fraction(x)", "Fraction"),
    ("quadfield.py", "QuadElem.__pow__", "1 / self ** (-k)", "QuadElem"),
    ("quadfield.py", "_Parser.term", "value / rhs", "QuadElem"),
    ("quadfield.py", "quadratic_roots", "(t * t - 4 * n) / d", "Fraction"),
    ("quadfield.py", "quadratic_roots", "-s / 2", "Fraction"),
    ("quadfield.py", "quadratic_roots", "s / 2", "Fraction"),
    ("quadfield.py", "quadratic_roots", "t / 2", "Fraction"),
    ("quadfield.py", "quadratic_roots", "t / 2", "Fraction"),
])


def divisions(source: str) -> list[tuple[str, str]]:
    """(enclosing function, expression) of every a / b and a /= b in source."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                found.append((scope or "<module>", ast.unparse(child)))
            visit(child, inner)

    visit(ast.parse(source), "")
    return sorted(found)


def unlisted_divisions(sources: dict) -> list[str]:
    """Each division in {module: source} beyond DIVISIONS, and each listed one not found."""
    found = sorted((name, *site) for name, source in sources.items()
                   for site in divisions(source))
    listed = [row[:3] for row in DIVISIONS]
    extra = [site for site in found if found.count(site) > listed.count(site)]
    gone = [site for site in listed if listed.count(site) > found.count(site)]
    return [f"unlisted {site}" for site in dict.fromkeys(extra)] + [
        f"listed but gone {site}" for site in dict.fromkeys(gone)]


def test_the_scan_finds_a_planted_int_division():
    planted = "def half(n: int):\n    k = n // 2\n    k /= 3\n    return len(range(n)) / 2\n"
    assert divisions(planted) == [("half", "k /= 3"), ("half", "len(range(n)) / 2")]
    sources = {path.name: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    sources["orbit.py"] += planted
    assert unlisted_divisions(sources) == ["unlisted ('orbit.py', 'half', 'k /= 3')",
                                           "unlisted ('orbit.py', 'half', 'len(range(n)) / 2')"]
    sources["quadfield.py"] = sources["quadfield.py"].replace("value / rhs", "value * rhs")
    assert unlisted_divisions(sources)[-1] == (
        "listed but gone ('quadfield.py', '_Parser.term', 'value / rhs')")


def test_every_true_division_in_src_is_listed():
    sources = {path.name: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    assert unlisted_divisions(sources) == []
