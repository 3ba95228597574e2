import math

import pytest

import equiosc as eq
from equiosc.catalog import EXAMPLE_IDS, build_problem, closed_forms, run_reference_check


@pytest.mark.parametrize("key", EXAMPLE_IDS)
def test_reference_checks_pass(key):
    report = run_reference_check(key, fast=True)
    assert report.ok(1e-6), report.rows


def test_build_problem_flags():
    assert not build_problem("singularity_5_1").kernel.flags().singular
    assert not build_problem("monotonicity_5_2").kernel.flags().monotone_M
    strictness = build_problem("strictness_5_3").kernel.flags()
    assert strictness.monotone_M and not strictness.strictly_monotone_SM
    tent = build_problem("nonmonotone_5_4").kernel.flags()
    assert tent.singular and not tent.monotone_M and tent.strictly_concave


def test_closed_forms_strictness():
    forms = closed_forms("strictness_5_3")
    assert forms["equioscillation"] == pytest.approx(1.0 - 0.25 / math.e)
    assert forms["m0"](0.5) == 0.0
    assert forms["m1"](0.5) == 1.0
    assert forms["m1"](1.0 - 0.25 / math.e) == pytest.approx(0.0, abs=1e-15)
    # a node at an end leaves one interval a single point, where the kernel is −∞
    problem = build_problem("strictness_5_3")
    assert forms["m0"](0.0) == eq.interval_maxima(problem, (0.0,)).m[0] == -math.inf
    assert forms["m1"](1.0) == eq.interval_maxima(problem, (1.0,)).m[1] == -math.inf


def test_closed_forms_tent_branch_equality():
    forms = closed_forms("nonmonotone_5_4")
    d0 = forms["delta0"]
    assert abs(forms["m_mid"](d0) - forms["m_side"](d0, 0.55)) <= 1e-12
    assert forms["m_side"](0.4, 0.45) is None  # the boundary is nearer than δ + 1/10


@pytest.mark.parametrize("a, delta", [(0.55, 0.42), (0.56, 0.43), (0.52, 0.41)])
def test_closed_forms_tent_far_side_branch(a, delta):
    """δ + 1/10 > 1/2: the side maximum is log((100/9)(1/2 − δ)²), off the centre the reference check uses."""
    forms = closed_forms("nonmonotone_5_4")
    assert delta + 0.1 > 0.5 and a >= delta + 0.1
    m0 = eq.interval_maxima(build_problem("nonmonotone_5_4"), (a - delta, a + delta)).m[0]
    assert abs(forms["m_side"](delta, a) - m0) <= 1e-12


def test_closed_forms_chebyshev():
    forms = closed_forms("classical_chebyshev", n=2)
    assert forms["nodes"][0] == pytest.approx(0.14644660940672624)
    assert forms["value"] == pytest.approx(math.log(0.125))


@pytest.mark.parametrize("n", [600, 1024])
def test_closed_forms_chebyshev_at_large_n(n):
    # log(2·4⁻ⁿ) raised a bare ValueError once 4⁻ⁿ underflowed to 0 (n ≥ 538)
    forms = closed_forms("classical_chebyshev", n=n)
    assert forms["value"] == pytest.approx((1 - 2 * n) * math.log(2.0), rel=1e-15)
    assert len(forms["nodes"]) == n and build_problem("classical_chebyshev", n=n).n == n


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_problem("singularity_5_1", n=7, bogus=1),
        lambda: build_problem("strictness_5_3", n=2),
        lambda: closed_forms("classical_chebyshev", n=2, a=0.3),
        lambda: closed_forms("figure1_quartics", n=4),
        lambda: run_reference_check("singularity_5_1", fast=True, n=3),
    ],
    ids=["build-unknown", "build-strictness-n", "forms-chebyshev-a", "forms-quartics-n", "check-n"],
)
def test_parameters_an_example_does_not_take_are_refused(call):
    # each was dropped silently
    with pytest.raises(eq.SchemaError, match="takes"):
        call()


@pytest.mark.parametrize(
    "key, params",
    [("strictness_5_3", {"a": 0.9}), ("classical_chebyshev", {"n": 0}), ("classical_chebyshev", {"n": -3})],
    ids=["strictness-a", "chebyshev-n0", "chebyshev-negative-n"],
)
def test_closed_forms_refuses_what_build_problem_refuses(key, params):
    # closed_forms returned a maximin segment with lo > hi, and values for no nodes
    with pytest.raises(eq.SchemaError):
        build_problem(key, **params)
    with pytest.raises(eq.SchemaError):
        closed_forms(key, **params)


@pytest.mark.parametrize("key", ["singularity_5_1", "classical_chebyshev"])
@pytest.mark.parametrize("seed", [-1, "x", 1.5])
def test_reference_checks_refuse_a_seed_that_is_not_a_count(key, seed):
    # singularity_5_1 raised numpy's ValueError or TypeError; the other examples ignored the seed
    with pytest.raises(eq.SchemaError):
        run_reference_check(key, fast=True, seed=seed)


def test_unknown_key():
    with pytest.raises(eq.SchemaError):
        build_problem("nope")
    with pytest.raises(eq.SchemaError):
        run_reference_check("nope")


def test_strictness_parameter_validation():
    with pytest.raises(eq.SchemaError):
        build_problem("strictness_5_3", a=0.9)
    with pytest.raises(eq.SchemaError):
        build_problem("strictness_5_3", b=0.5)
    with pytest.raises(eq.SchemaError):
        build_problem("strictness_5_3", a="0.25")
