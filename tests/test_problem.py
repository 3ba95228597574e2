import json

import numpy as np
import pytest

import equiosc as eq
from equiosc.fields import NegInfinityPiece, Piece, PiecewiseField


def test_node_system_validation():
    ns = eq.NodeSystem((0.2, 0.8))
    assert ns.strict()
    assert ns.with_sentinels() == (0.0, 0.2, 0.8, 1.0)
    assert not eq.NodeSystem((0.3, 0.3)).strict()
    assert not eq.NodeSystem((0.0, 0.5)).strict()
    with pytest.raises(eq.PreconditionError):
        eq.NodeSystem((0.8, 0.2))
    with pytest.raises(eq.PreconditionError):
        eq.NodeSystem((-0.1,))
    for nodes in (("0.3",), (True,), None, ()):
        with pytest.raises(eq.PreconditionError):
            eq.NodeSystem(nodes)


def test_problem_validation():
    with pytest.raises(eq.SchemaError):
        eq.Problem(2, (1.0,), eq.Log(), eq.constant_field(0.0))
    with pytest.raises(eq.SchemaError):
        eq.Problem(1, (-1.0,), eq.Log(), eq.constant_field(0.0))
    # a kernel or field that is not a library object fails at construction, not in a solve
    with pytest.raises(eq.SchemaError):
        eq.Problem(1, (1.0,), None, eq.constant_field(0.0))
    with pytest.raises(eq.SchemaError):
        eq.Problem(1, (1.0,), eq.Log(), None)


def test_problem_rejects_inadmissible_field():
    sparse = PiecewiseField(
        (Piece(0.0, 1.0, NegInfinityPiece()),),
        ((0.0, 0.0), (0.5, 0.0), (1.0, 0.0)),
    )
    eq.Problem(1, (1.0,), eq.Log(), sparse)  # count 2 > 1: fine
    with pytest.raises(eq.AdmissibilityError):
        eq.Problem(2, (1.0, 1.0), eq.Log(), sparse)


def test_json_roundtrip_field_by_field(tmp_path):
    problem = eq.Problem(
        2,
        (1.0, 2.0),
        eq.Regularized(eq.CappedLog(0.25), 0.5),
        eq.sqrt_affine_field(8.0, -1.0, 1.0),
    )
    doc = eq.problem_to_json(problem)
    assert set(doc) == {"n", "r", "kernel", "field"}
    assert set(doc["kernel"]) == {"variant", "params"}
    assert set(doc["field"]) == {"pieces", "point_values"}
    assert set(doc["field"]["pieces"][0]) == {"lo", "hi", "formula"}
    again = eq.problem_from_json(json.loads(json.dumps(doc)))
    assert again == problem

    path = tmp_path / "problem.json"
    eq.dump_problem(problem, path)
    assert eq.load_problem(path) == problem


def test_malformed_json():
    with pytest.raises(eq.SchemaError):
        eq.problem_from_json({"n": 1, "r": [1.0]})
    with pytest.raises(eq.SchemaError):
        eq.problem_from_json(
            {
                "n": 1,
                "r": [1.0],
                "kernel": {"variant": "Nope", "params": {}},
                "field": {"pieces": [{"lo": 0.0, "hi": 1.0, "formula": {"kind": "Constant", "c": 0}}]},
            }
        )


def _problem_doc(n, r):
    return {
        "n": n,
        "r": list(r),
        "kernel": {"variant": "Log", "params": {}},
        "field": eq.field_to_json(eq.constant_field(0.0)),
    }


# r has the length that truncating or coercing n would give
@pytest.mark.parametrize(
    "n, r",
    [(2.7, (1.0, 1.0)), (True, (1.0,)), ("2", (1.0, 1.0)), (2.0, (1.0, 1.0)), (1, (True,)), (1, ("1.5",))],
)
def test_n_is_not_truncated_or_coerced(n, r):
    with pytest.raises(eq.SchemaError):
        eq.problem_from_json(_problem_doc(n, r))
    with pytest.raises(eq.SchemaError):
        eq.Problem(n, r, eq.Log(), eq.constant_field(0.0))


@pytest.mark.parametrize("n", [2, np.int64(2), np.int32(2)])
def test_integer_n_is_accepted(n):
    problem = eq.Problem(n, (1.0, 1.0), eq.Log(), eq.constant_field(0.0))
    assert problem.n == 2 and type(problem.n) is int
    assert eq.problem_from_json(_problem_doc(n, (1.0, 1.0))) == problem
