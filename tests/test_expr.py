import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferred_choice.expr import (
    MAX_NESTING,
    And,
    Comparison,
    ExprEvalError,
    ExprSyntaxError,
    Not,
    Or,
    evaluate,
    parse,
    render,
    variables,
)
from reference import negate_comparison


def test_parse_simple_comparison():
    assert parse("d_w >= 2") == Comparison("d_w", ">=", 2)


def test_parse_conjunction_with_negation():
    assert parse("a >= 1 && !(b < 3)") == And(
        Comparison("a", ">=", 1), Not(Comparison("b", "<", 3))
    )


def test_parse_eliminates_parentheses():
    assert parse("(((x == 0)))") == Comparison("x", "==", 0)


def test_parse_equality_alias():
    assert parse("x = 5") == Comparison("x", "==", 5)


def test_parse_precedence():
    assert parse("a < 1 || b < 2 && c < 3") == Or(
        Comparison("a", "<", 1),
        And(Comparison("b", "<", 2), Comparison("c", "<", 3)),
    )


@pytest.mark.parametrize(
    "text",
    ["", "x >=", ">= 2", "x @ 1", "x >= 1 &&", "(x >= 1", "x => 1", "1 >= x"],
)
def test_parse_rejects_bad_syntax(text):
    with pytest.raises(ExprSyntaxError):
        parse(text)


@pytest.mark.parametrize(
    "opening, closing", [("(", ")"), ("!", ""), ("x < 1 && ", ""), ("x < 1 || ", "")]
)
def test_parse_bounds_nesting(opening, closing):
    """Each copy of ``opening`` opens one level: parentheses and negations
    nest, and each operator of a chain adds a level to the tree."""
    parse(opening * MAX_NESTING + "x < 1" + closing * MAX_NESTING)
    with pytest.raises(ExprSyntaxError) as excinfo:
        parse(opening * 5000 + "x < 1" + closing * 5000)
    # at the operator of the first copy past the bound
    operator = opening.split()[-1]
    assert excinfo.value.position == MAX_NESTING * len(opening) + opening.index(operator)


def test_parse_bounds_tree_height_across_parentheses():
    """Parentheses build no node, so a chain inside them and the chain it
    opens stack up in one tree, and the bound counts both."""
    inner = "(" + " && ".join(["x < 1"] * 51) + ")"  # 50 levels
    deepest = parse(inner + " && x < 1" * 50)
    assert evaluate(deepest, {"x": 0}) is True
    with pytest.raises(ExprSyntaxError) as excinfo:
        parse(inner + " && x < 1" * 51)
    assert excinfo.value.position == len(inner + " && x < 1" * 50) + 1


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as excinfo:
        parse("abc @ 1")
    assert excinfo.value.position == 4


def test_eval_threshold_condition():
    condition = parse("d_w >= 2")
    assert evaluate(condition, {"d_w": 1}) is False
    assert evaluate(condition, {"d_w": 2}) is True


def test_eval_equality():
    assert evaluate(parse("x == 0"), {"x": 0}) is True


def test_eval_missing_variable():
    with pytest.raises(ExprEvalError):
        evaluate(parse("x >= 1"), {"y": 3})


def test_variables():
    assert variables(parse("d_w >= 2")) == {"d_w"}
    assert variables(parse("a >= 1 && b < 3")) == {"a", "b"}
    assert variables(parse("!(a >= 1 || a < 0)")) == {"a"}


identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)
comparisons = st.builds(
    Comparison,
    identifiers,
    st.sampled_from(["<", "<=", "==", "!=", ">=", ">"]),
    st.integers(0, 2**64 - 1),
)
expressions = st.recursive(
    comparisons,
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(expressions)
def test_render_parse_round_trip(expr):
    assert parse(render(expr)) == expr


@settings(max_examples=200, deadline=None)
@given(expressions)
def test_hash_is_kept_and_agrees_with_equality(expr):
    """A node hashes alike every time, an equal tree built apart hashes
    alike, and the two are interchangeable as dictionary keys."""
    rebuilt = parse(render(expr))
    assert hash(expr) == hash(expr) == hash(rebuilt)
    assert rebuilt == expr and {expr: 1}[rebuilt] == 1


def test_pickled_node_hashes_in_another_process():
    """A process with another string-hash seed finds an unpickled node
    among the nodes it builds itself."""
    node = parse("x >= 3 && !(y < 2)")
    hash(node)
    script = (
        "import pickle, sys\n"
        "from deferred_choice.expr import parse\n"
        "node = pickle.loads(sys.stdin.buffer.read())\n"
        "assert {parse('x >= 3 && !(y < 2)'): 1}[node] == 1\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    subprocess.run(
        [sys.executable, "-c", script], input=pickle.dumps(node), env=env, check=True, timeout=60
    )


def test_fresh_imports_leave_nothing_alive():
    """Importing the package afresh, as each benchmark set-up does, frees
    the previous copy: nothing outside it, such as the ``typing`` cache of
    a ``Union`` alias, keeps its classes alive."""
    script = (
        "import gc, importlib, sys\n"
        "counts = []\n"
        "for _ in range(20):\n"
        "    for name in [n for n in sys.modules if n.startswith('deferred_choice')]:\n"
        "        del sys.modules[name]\n"
        "    importlib.import_module('deferred_choice.experiments')\n"
        "    gc.collect()\n"
        "    counts.append(len(gc.get_objects()))\n"
        "print(counts[4], counts[19])\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, timeout=60,
        capture_output=True, text=True,
    )
    after_5, after_20 = map(int, done.stdout.split())
    assert after_20 == after_5


@st.composite
def expr_with_valuation(draw):
    expr = draw(expressions)
    valuation = {name: draw(st.integers(0, 2**64 - 1)) for name in variables(expr)}
    return expr, valuation


@settings(max_examples=200, deadline=None)
@given(expr_with_valuation())
def test_de_morgan(case):
    expr, valuation = case
    if not isinstance(expr, And):
        expr = And(expr, Not(expr))
        valuation = dict(valuation)
    lhs = Not(expr)
    rhs = Or(Not(expr.left), Not(expr.right))
    assert evaluate(lhs, valuation) == evaluate(rhs, valuation)


@settings(max_examples=200, deadline=None)
@given(
    identifiers,
    st.sampled_from(["<", "<=", "==", "!=", ">=", ">"]),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
)
def test_comparison_negation(name, op, constant, value):
    comparison = Comparison(name, op, constant)
    valuation = {name: value}
    assert evaluate(Not(comparison), valuation) == evaluate(
        negate_comparison(comparison), valuation
    )


def test_evaluation_does_not_mutate_inputs():
    expr = parse("a >= 1 && b < 3")
    valuation = {"a": 1, "b": 2}
    evaluate(expr, valuation)
    assert valuation == {"a": 1, "b": 2}
