import json
import os

import numpy as np
import pytest

import equiosc as eq
from equiosc.fields import NegInfinityPiece, Piece, PiecewiseField, affine_transport, formula_from_json
from equiosc.kernels import kernel_from_json


def test_node_system_validation():
    ns = eq.NodeSystem((0.2, 0.8))
    assert ns.strict()
    assert ns.with_sentinels() == (0.0, 0.2, 0.8, 1.0)
    assert list(ns) == [0.2, 0.8] and len(ns) == 2
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
    with pytest.raises(eq.SchemaError):
        eq.Problem(0, (1.0,), eq.Log(), eq.constant_field(0.0))
    with pytest.raises(eq.SchemaError):
        eq.Problem(1, (1.0,), eq.Log(), eq.constant_field(0.0, domain=(0.0, 2.0)))
    with pytest.raises(eq.PreconditionError):
        eq.Problem(1, (1.0,), eq.Log(), eq.constant_field(0.0)).node_system((0.3, 0.6))


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


_CONSTANT_PIECE = {"lo": 0.0, "hi": 1.0, "formula": {"kind": "Constant", "c": 0.0}}


# a document's keys are its constructor's arguments: each row holds one key the constructor does not take
@pytest.mark.parametrize(
    "read, doc",
    [
        (kernel_from_json, {"variant": "Log", "params": {"a": 0.3}}),
        (kernel_from_json, {"variant": "CappedLog", "params": {"a": 0.3, "eta": 2}}),
        (formula_from_json, {"kind": "Constant", "c": 1.0, "value": 5}),
        (eq.field_from_json, {"pieces": [_CONSTANT_PIECE], "point_values": [], "domain": [0, 2]}),
        (eq.field_from_json, {"pieces": [{**_CONSTANT_PIECE, "closed": True}]}),
        (
            eq.problem_from_json,
            {
                "n": 1,
                "r": [1.0],
                "kernel": {"variant": "Log", "params": {}},
                "field": {"pieces": [_CONSTANT_PIECE]},
                "tol": 1e-9,
            },
        ),
    ],
    ids=["Log-a", "CappedLog-eta", "Constant-value", "field-domain", "piece-closed", "problem-tol"],
)
def test_a_key_the_constructor_does_not_take_is_a_schema_error(read, doc):
    with pytest.raises(eq.SchemaError, match="unknown key"):
        read(doc)


@pytest.mark.parametrize("read, doc", [(eq.problem_from_json, []), (eq.field_from_json, None)])
def test_a_document_that_is_not_a_json_object_is_a_schema_error(read, doc):
    with pytest.raises(eq.SchemaError, match="must be a JSON object"):
        read(doc)


def test_loaders_pass_constructor_errors_through():
    doc = _problem_doc(2, (1.0, 1.0))
    minus_inf = {"lo": 0.0, "hi": 1.0, "formula": {"kind": "NegInfinity"}}
    doc["field"] = {"pieces": [minus_inf], "point_values": [[0.5, 0.0]]}  # finite at one point, and n = 2
    with pytest.raises(eq.AdmissibilityError):
        eq.problem_from_json(doc)


def test_a_file_that_is_not_utf8_is_a_schema_error(tmp_path):
    path = tmp_path / "problem.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(eq.SchemaError, match="invalid JSON"):
        eq.load_problem(path)


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
    [
        (2.7, (1.0, 1.0)),
        (True, (1.0,)),
        ("2", (1.0, 1.0)),
        (2.0, (1.0, 1.0)),
        (1, (True,)),
        (1, ("1.5",)),
        (1, (10**400,)),  # an int too large for a float
    ],
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


# each row passes None where a library object belongs: an argument named `problem`
# or the perturbation sampler's kernel is a precondition, any other a schema mismatch
_X, _Y = (0.3,), (0.6,)
_NOT_LIBRARY_OBJECTS = {
    "interval_maxima": (lambda: eq.interval_maxima(None, _X), eq.PreconditionError),
    "difference": (lambda: eq.difference(None, _X), eq.PreconditionError),
    "eval_f": (lambda: eq.eval_f(None, _X, 0.5), eq.PreconditionError),
    "eval_F": (lambda: eq.eval_F(None, _X, 0.5), eq.PreconditionError),
    "eval_F_grid": (lambda: eq.eval_F_grid(None, _X, np.linspace(0.0, 1.0, 3)), eq.PreconditionError),
    "maximize_on_interval": (lambda: eq.maximize_on_interval(None, _X, 0), eq.PreconditionError),
    "in_regularity_set": (lambda: eq.in_regularity_set(None, _X), eq.PreconditionError),
    "solve_difference": (lambda: eq.solve_difference(None, (0.0,)), eq.PreconditionError),
    "solve_equioscillation": (lambda: eq.solve_equioscillation(None), eq.PreconditionError),
    "sandwich_check": (lambda: eq.sandwich_check(None, _X, 0.0), eq.PreconditionError),
    "check_intertwining": (lambda: eq.check_intertwining(None, _X, _Y), eq.PreconditionError),
    "perturb_partition": (
        lambda: eq.perturb_partition(None, _X, eq.PartitionSpec(("I", "J")), 0.01), eq.PreconditionError
    ),
    "perturb_partition-partition": (  # raised AttributeError
        lambda: eq.perturb_partition(eq.Problem(1, (1.0,), eq.Log(), eq.constant_field(0.0)), _X, None, 0.01),
        eq.PreconditionError,
    ),
    "sample_regular_nodes": (lambda: eq.sample_regular_nodes(None, np.random.default_rng(0)), eq.PreconditionError),
    "check_strict_majorization_excluded": (
        lambda: eq.check_strict_majorization_excluded(None, 2), eq.PreconditionError
    ),
    "check_interval_perturbation": (
        lambda: eq.check_interval_perturbation(None, 0.1, 0.3, 0.6, 0.9, 1.0, 1.0), eq.PreconditionError
    ),
    "kernel_eval": (lambda: eq.kernel_eval(None, 0.5), eq.SchemaError),
    "kernel_values": (lambda: eq.kernel_values(None, np.array([0.5])), eq.SchemaError),
    "kernel_classify": (lambda: eq.kernel_classify(None), eq.SchemaError),
    "field_admissible": (lambda: eq.field_admissible(None, 1), eq.SchemaError),
    "singularity_set": (lambda: eq.singularity_set(None), eq.SchemaError),
    "field_eval": (lambda: eq.field_eval(None, 0.5), eq.SchemaError),
    "field_to_json": (lambda: eq.field_to_json(None), eq.SchemaError),
    "affine_transport": (lambda: affine_transport(None), eq.SchemaError),
    "problem_to_json": (lambda: eq.problem_to_json(None), eq.SchemaError),
    "dump_problem": (lambda: eq.dump_problem(None, os.devnull), eq.SchemaError),
}


@pytest.mark.parametrize("name", list(_NOT_LIBRARY_OBJECTS))
def test_arguments_that_are_not_library_objects_raise_typed_errors(name):
    call, error = _NOT_LIBRARY_OBJECTS[name]
    with pytest.raises(error):
        call()


def test_dump_problem_checks_the_problem_before_writing(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text("kept\n")
    with pytest.raises(eq.SchemaError):
        eq.dump_problem(None, path)
    assert path.read_text() == "kept\n"
