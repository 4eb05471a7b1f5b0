"""parse_elem, which computes on QuadElem alone, against an evaluator of the same trees.

Random expression trees over literals (p/0 included), i, w, sqrt(n), the four
operators and unary signs are rendered to text.  The oracle evaluates each
tree with Fraction for a rational of no field yet and QuadElem operators
otherwise, then ends as parse_elem's rule says: a rational needs an ambient
d, a square or zero d is refused, a rational adapts to d and an element of
another field is refused.  parse_elem must give the same element, or the
same error and message, and never an element with d = 0.  A warm graph op
then runs with Fraction refused outright.
"""

import fractions
import json
import math
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from quaddyn.cli import main
from quaddyn.quadfield import QuadElem, parse_elem

DS = [None, -1, -3, -4, 2, 5, 8, -12, 0, 1, 4, 9]
OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
       "*": lambda a, b: a * b, "/": lambda a, b: a / b}

denominators = st.sampled_from([None, 0, 1, 2, 3, 4, 6, 12])  # None: a literal without "/"
literals = st.tuples(st.just("lit"), st.integers(0, 40), denominators)
radicands = st.one_of(literals, st.tuples(st.just("-"), literals))
leaves = st.one_of(literals, st.sampled_from([("i",), ("w",)]),
                   st.tuples(st.just("sqrt"), radicands))


def extend(trees):
    return st.one_of(
        st.tuples(st.sampled_from(["-", "+"]), trees),
        st.tuples(st.just("sqrt"), trees),
        st.tuples(st.sampled_from(sorted(OPS)), trees, trees),
    )


trees = st.recursive(leaves, extend, max_leaves=10)


def render(tree) -> str:
    kind = tree[0]
    if kind == "lit":
        return str(tree[1]) if tree[2] is None else f"{tree[1]}/{tree[2]}"
    if kind in ("i", "w"):
        return kind
    if kind == "sqrt":
        return f"sqrt({render(tree[1])})"
    if len(tree) == 2:
        return kind + render(tree[1])
    return f"({render(tree[1])} {kind} {render(tree[2])})"


def evaluate(tree):
    """A Fraction (rational, no field yet) or a QuadElem, in the parser's order."""
    kind = tree[0]
    if kind == "lit":
        return Fraction(tree[1], 1 if tree[2] is None else tree[2])
    if kind == "i":
        return QuadElem(0, 1, -1)
    if kind == "w":
        return QuadElem(Fraction(-1, 2), Fraction(1, 2), -3)
    if kind == "sqrt":
        arg = evaluate(tree[1])
        if isinstance(arg, QuadElem):
            if not arg.is_rational():
                raise ValueError("sqrt() argument must be rational")
            arg = arg.a
        if arg.denominator != 1:
            raise ValueError("sqrt() argument must be an integer")
        root = math.isqrt(max(arg.numerator, 0))
        return Fraction(root) if root * root == arg else QuadElem(0, 1, arg.numerator)
    if len(tree) == 2:
        value = evaluate(tree[1])
        return -value if kind == "-" else value
    lhs = evaluate(tree[1])
    return OPS[kind](lhs, evaluate(tree[2]))


def expected(text: str, tree, d):
    try:
        value = evaluate(tree)
        if isinstance(value, Fraction):
            if d is None:
                raise ValueError(f"{text!r} is rational; an ambient d is required")
            return QuadElem(value, 0, d)
        if d is None:
            return value
        field = QuadElem(0, 1, d).d  # refuses a square or zero d
        if value.is_rational():
            return QuadElem(value.a, 0, d)
        if value.d != field:
            raise ValueError(f"element lives in Q(sqrt({value.d})), not Q(sqrt({d}))")
        return value
    except ZeroDivisionError:
        return ZeroDivisionError, "division by zero"
    except ValueError as err:
        return ValueError, str(err)


def outcome(text: str, d):
    try:
        return parse_elem(text, d)
    except (ValueError, ZeroDivisionError) as err:
        return type(err), str(err)


@settings(derandomize=True, database=None, deadline=None, max_examples=1500)
@given(trees, st.sampled_from(DS))
def test_parse_elem_matches_the_two_type_evaluator(tree, d):
    text = render(tree)
    got, want = outcome(text, d), expected(text, tree, d)
    if isinstance(want, QuadElem):
        assert isinstance(got, QuadElem) and got.d != 0, (text, d, got)
        assert (got.triple, got.d) == (want.triple, want.d), (text, d)
    else:
        assert got == want, (text, d)


def test_a_rational_of_no_field_takes_the_field_of_a_rational_from_one():
    """2 + i*i is 1 in Q(i) with the literal on either side, as Fraction + QuadElem gave it."""
    for text in ("2 + i*i", "i*i + 2", "2*(i*i)", "1/(i*i)"):
        value = parse_elem(text)
        assert value.is_rational() and value.d == -1, text


def refuse(*args, **kwargs):
    raise AssertionError("a Fraction was built on the graph path")


def test_a_warm_graph_op_builds_no_fraction(capsys):
    argv = ["graph", "--d", "-1", "--c", "-1/4 + 3/8*i", "--json"]
    assert main(argv) == 0
    warm = capsys.readouterr().out
    with mock.patch.object(fractions.Fraction, "__new__", refuse):
        code = main(argv)
    out = capsys.readouterr()
    assert code == 0 and out.err == "" and out.out == warm
    assert json.loads(warm)["label"] == "10(2,1,1)a"
