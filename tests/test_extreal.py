"""The boundary contract of R ∪ {−∞}: one IEEE −∞, no +inf, no NaN."""

import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import equiosc as eq
from equiosc.errors import EquioscError, SchemaError
from equiosc.extreal import NEG_INFINITY, as_extreal, is_neg_infinity

finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)


def test_singleton_identity():
    """There is one −∞: the IEEE float, which survives pickling as itself."""
    assert type(NEG_INFINITY) is float
    assert NEG_INFINITY == float("-inf") == -math.inf == np.float64("-inf")
    assert as_extreal(float("-inf")) == NEG_INFINITY
    assert type(as_extreal(np.float64("-inf"))) is float
    assert pickle.loads(pickle.dumps(NEG_INFINITY)) == NEG_INFINITY
    assert is_neg_infinity(np.float64("-inf")) and not is_neg_infinity(None)


def test_rejects_plus_inf_and_nan():
    for bad in (float("inf"), float("nan"), np.float64("inf")):
        with pytest.raises(SchemaError) as info:
            as_extreal(bad)
        # SchemaError is both a package error and a ValueError
        assert isinstance(info.value, EquioscError) and isinstance(info.value, ValueError)


def test_no_accidental_arithmetic():
    """Arithmetic that stays in R ∪ {−∞} never produces +inf or NaN."""
    for x in (0.0, -1.0, 1.0, 8.99e307, -8.99e307):
        for v in (NEG_INFINITY + x, x + NEG_INFINITY, 2.5 * NEG_INFINITY, NEG_INFINITY - x):
            assert v == NEG_INFINITY
    assert max(NEG_INFINITY, -1e308) == -1e308
    assert min(NEG_INFINITY, 1e308) == NEG_INFINITY


@given(finite)
def test_ordering_below_every_float(x):
    assert NEG_INFINITY < x
    assert x > NEG_INFINITY
    assert not NEG_INFINITY > x
    assert NEG_INFINITY <= x
    assert NEG_INFINITY != x


@given(finite, st.floats(min_value=1e-300, max_value=1e300))
def test_absorption(x, c):
    """−∞ absorbs sums with finite values and positive scalings."""
    for v in (NEG_INFINITY + x, x + NEG_INFINITY, sum([x, NEG_INFINITY, x]), c * NEG_INFINITY):
        assert v == NEG_INFINITY
        assert not math.isnan(v)
    assert as_extreal(NEG_INFINITY + x) == NEG_INFINITY


def _singular_problem():
    # a −∞ gap in the field on [0.3, 0.5], and a node at 0.1
    doc = {
        "n": 1,
        "r": [1.0],
        "kernel": {"variant": "Log"},
        "field": {
            "pieces": [
                {"lo": 0.0, "hi": 0.3, "formula": {"kind": "Constant", "c": 0.0}},
                {"lo": 0.3, "hi": 0.5, "formula": {"kind": "NegInfinity"}},
                {"lo": 0.5, "hi": 1.0, "formula": {"kind": "Constant", "c": 0.0}},
            ]
        },
    }
    return eq.problem_from_json(doc)


def _assert_plain_neg_inf(v):
    assert type(v) is float
    assert v == NEG_INFINITY


def test_public_returns_are_plain_float_neg_infinity():
    problem = _singular_problem()
    _assert_plain_neg_inf(eq.kernel_eval(eq.Log(), 0.0))
    _assert_plain_neg_inf(eq.field_eval(problem.field, 0.4))
    _assert_plain_neg_inf(problem.field.value(0.4))
    _assert_plain_neg_inf(eq.eval_f(problem, (0.1,), 0.1))
    _assert_plain_neg_inf(eq.eval_F(problem, (0.1,), 0.4))
    # the degenerate interval [0, 0] of a singular kernel has maximum −∞
    _, v = eq.maximize_on_interval(problem, (0.0,), 0)
    _assert_plain_neg_inf(v)
    maxima = eq.interval_maxima(problem, (0.0,))
    _assert_plain_neg_inf(maxima.m[0])
    _assert_plain_neg_inf(maxima.m_under)
    assert not maxima.finite

    # a converged solve has finite maxima only, as plain floats too
    report = eq.solve_equioscillation(problem)
    assert all(type(v) is float for v in report.maxima.m)
    assert type(report.value) is float


def test_one_neg_infinity_definition():
    """−∞ is defined once, in extreal.py; the tagged sentinel and its helpers stay gone."""
    src = Path(eq.__file__).parent
    float_neg_inf = re.compile(r"""float\(\s*["']-inf(inity)?["']\s*\)""", re.IGNORECASE)
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name != "extreal.py":
            assert float_neg_inf.search(text) is None, f"{path.name} defines its own -inf"
        for name in ("_NegInfinityType", "_is_minf"):
            assert name not in text, f"{path.name} mentions {name}"
