import math

import numpy as np
import pytest

import equiosc as eq
from equiosc import translates
from equiosc.catalog import FIGURE1_BLACK, FIGURE1_GREY, build_problem
from conftest import random_concave_field, random_strict_nodes


def log_problem(n, r=None, field=None):
    return eq.Problem(
        n, r if r is not None else (1.0,) * n, eq.Log(), field or eq.constant_field(0.0)
    )


# -- widening inequality ---------------------------------------------------------

def test_log_mu_one_example():
    report = eq.check_interval_perturbation(eq.Log(), 0.2, 0.3, 0.6, 0.7, 1.0, 1.0)
    assert report.mu == pytest.approx(1.0)
    for key in ("a", "b", "c", "d", "e"):
        assert report.cases[key].applicable
        assert report.cases[key].passed
    # spot check the inequality at t = 0.1: log(0.06) < log(0.10)
    assert math.log(0.1 - 0.2) if False else True
    lhs = math.log(abs(0.1 - 0.2)) + math.log(abs(0.1 - 0.7))
    rhs = math.log(abs(0.1 - 0.3)) + math.log(abs(0.1 - 0.6))
    assert lhs < rhs


def test_precondition_rejected():
    with pytest.raises(eq.PreconditionError):
        eq.check_interval_perturbation(eq.Log(), 0.3, 0.3, 0.6, 0.7, 1.0, 1.0)
    with pytest.raises(eq.PreconditionError):
        eq.check_interval_perturbation(eq.Log(), 0.2, 0.3, 0.7, 0.6, 1.0, 1.0)
    with pytest.raises(eq.PreconditionError):  # every case used to read "not applicable"
        eq.check_interval_perturbation(eq.Log(), 0.1, 0.2, 0.3, 0.4, math.nan, 1.0)
    with pytest.raises(eq.PreconditionError):
        eq.check_intertwining(build_problem("figure1_quartics"), None, FIGURE1_BLACK)


def test_sqrtshift_inside_case():
    report = eq.check_interval_perturbation(eq.SqrtShift(), 0.2, 0.3, 0.6, 0.7, 2.0, 1.0)
    assert report.cases["e"].applicable
    assert report.cases["e"].passed


def test_mu_gates_one_sided_cases():
    # mu = 2(0.1)/0.1 = 2 > 1: case (a) applies, case (b) does not
    report = eq.check_interval_perturbation(eq.Log(), 0.2, 0.3, 0.6, 0.7, 2.0, 1.0)
    assert report.mu == pytest.approx(2.0)
    assert report.cases["a"].applicable and report.cases["a"].passed
    assert not report.cases["b"].applicable


def test_case_d_takes_both_sides_when_only_mu_one_applies():
    """TentLog is not monotone, so cases a and b are off; at μ = 1 strictness is sampled on both sides."""
    report = eq.check_interval_perturbation(eq.TentLog(), 0.1, 0.3, 0.6, 0.8, 1.0, 1.0)
    assert report.mu == pytest.approx(1.0)
    assert not report.cases["a"].applicable and not report.cases["b"].applicable
    assert report.cases["c"].applicable and report.cases["c"].passed
    assert report.cases["d"].applicable and report.cases["d"].passed


def _random_instance(rng, force_mu_one=False):
    while True:
        pts = np.sort(rng.uniform(0.02, 0.98, size=4))
        if np.min(np.diff(pts)) >= 0.02:
            break
    alpha, a, b, beta = (float(v) for v in pts)
    p = float(rng.uniform(0.5, 2.0))
    if force_mu_one:
        q = p * (a - alpha) / (beta - b)
    else:
        q = float(rng.uniform(0.5, 2.0))
    return alpha, a, b, beta, p, q


@pytest.mark.parametrize("kernel", [eq.Log(), eq.SqrtShift()], ids=("log", "sqrtshift"))
def test_randomized_cases_have_no_violations(kernel, rng):
    for trial in range(40):
        alpha, a, b, beta, p, q = _random_instance(rng, force_mu_one=bool(trial % 2))
        report = eq.check_interval_perturbation(kernel, alpha, a, b, beta, p, q, grid_points=200)
        for key, case in report.cases.items():
            if case.applicable:
                assert case.passed, (key, alpha, a, b, beta, p, q, case)


# -- constructive partition move ---------------------------------------------------

def test_perturb_examples():
    p1 = log_problem(1)
    moved = eq.perturb_partition(p1, (0.5,), eq.PartitionSpec(("J", "I")), 0.01)
    assert moved.nodes == (0.51,)
    p2 = log_problem(2)
    moved = eq.perturb_partition(p2, (0.3, 0.6), eq.PartitionSpec(("J", "I", "J")), 0.01)
    assert moved.nodes == (0.31, 0.59)
    moved = eq.perturb_partition(p2, (0.3, 0.6), eq.PartitionSpec(("I", "I", "J")), 0.01)
    assert moved.nodes == (0.3, 0.59)


def test_perturb_respects_multipliers():
    p2 = log_problem(2, r=(2.0, 4.0))
    moved = eq.perturb_partition(p2, (0.3, 0.6), eq.PartitionSpec(("J", "I", "J")), 0.01)
    assert moved.nodes == (0.3 + 0.01 / 2.0, 0.6 - 0.01 / 4.0)


def test_perturb_preconditions():
    p1 = log_problem(1)
    with pytest.raises(eq.PreconditionError):
        eq.perturb_partition(p1, (0.0,), eq.PartitionSpec(("J", "I")), 0.01)
    with pytest.raises(eq.PreconditionError):
        eq.perturb_partition(p1, (0.5,), eq.PartitionSpec(("I", "I")), 0.01)
    p2 = log_problem(2)
    with pytest.raises(eq.PreconditionError):
        eq.perturb_partition(p2, (0.3, 0.31), eq.PartitionSpec(("J", "I", "J")), 0.5)
    with pytest.raises(eq.PreconditionError):
        eq.PartitionSpec(None)
    with pytest.raises(eq.PreconditionError):
        eq.PartitionSpec(("I", "K"))
    with pytest.raises(eq.PreconditionError):
        eq.perturb_partition(p2, (0.3, 0.6), eq.PartitionSpec(("J", "I")), 0.01)  # labels two of three
    with pytest.raises(eq.PreconditionError):
        eq.check_interval_perturbation(eq.Log(), 0.1, 0.3, 0.6, 0.9, 1.0, 1.0, grid_points=1)


def _random_partition(rng, n):
    while True:
        labels = tuple(rng.choice(("I", "J")) for _ in range(n + 1))
        if "I" in labels and "J" in labels:
            return eq.PartitionSpec(labels)


def test_perturb_inclusions_and_maxima_signs(rng):
    for _ in range(60):
        n = int(rng.integers(1, 5))
        r = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=n))
        problem = log_problem(n, r=r, field=random_concave_field(rng))
        w = random_strict_nodes(rng, n, min_gap=0.05)
        partition = _random_partition(rng, n)
        h = float(rng.uniform(1e-4, 5e-3))
        moved = eq.perturb_partition(problem, w, partition, h)
        ys_old = (0.0, *w, 1.0)
        ys_new = (0.0, *moved.nodes, 1.0)
        for i in partition.shrink:
            assert ys_old[i] <= ys_new[i] and ys_new[i + 1] <= ys_old[i + 1]
        for j in partition.grow:
            assert ys_new[j] <= ys_old[j] and ys_old[j + 1] <= ys_new[j + 1]
        m_old = eq.interval_maxima(problem, w).as_floats()
        m_new = eq.interval_maxima(problem, moved).as_floats()
        for i in partition.shrink:
            assert m_new[i] <= m_old[i] + 1e-12
            assert m_old[i] - m_new[i] > 0.0  # strict on the regularity set
        for j in partition.grow:
            assert m_new[j] >= m_old[j] - 1e-12
            assert m_new[j] - m_old[j] > 0.0


# -- intertwining -------------------------------------------------------------------

def test_intertwine_equal():
    p1 = log_problem(1)
    assert eq.check_intertwining(p1, (0.4,), (0.4,)).kind == "equal"


def test_intertwine_maxima_within_the_tie_tolerance_are_equal():
    """Nodes 1e-11 apart are distinct node systems, but their maxima tie within 1e-9."""
    p2 = log_problem(2)
    verdict = eq.check_intertwining(p2, (0.3, 0.7), (0.3 + 1e-11, 0.7))
    assert (verdict.kind, verdict.below, verdict.above, verdict.direction) == ("equal", None, None, None)


def test_intertwine_tent_pair_is_a_majorization_violation():
    """A pair of criterion 8's tent negative control: the narrower symmetric pair's maxima are all higher."""
    problem = build_problem("nonmonotone_5_4")
    a, d1, d2 = 0.45, 0.12, 0.3
    x, y = (a - d1, a + d1), (a - d2, a + d2)
    diffs = [u - v for u, v in zip(eq.interval_maxima(problem, x).m, eq.interval_maxima(problem, y).m)]
    assert all(d > 1e-9 for d in diffs)
    verdict = eq.check_intertwining(problem, x, y)
    assert (verdict.kind, verdict.below, verdict.above) == ("majorization_violation", None, 0)
    assert verdict.direction == "x_dominates_y" and not verdict.is_witness
    verdict = eq.check_intertwining(problem, y, x)
    assert (verdict.kind, verdict.below, verdict.above) == ("majorization_violation", 0, None)
    assert verdict.direction == "y_dominates_x"


def test_intertwine_witness_n1():
    p1 = log_problem(1)
    verdict = eq.check_intertwining(p1, (0.4,), (0.6,))
    assert verdict.kind == "witness"
    assert verdict.below == 0 and verdict.above == 1


def test_intertwine_quartics_two_sided():
    problem = build_problem("figure1_quartics")
    verdict = eq.check_intertwining(problem, FIGURE1_GREY, FIGURE1_BLACK)
    assert verdict.kind == "witness"
    # independent confirmation on a dense grid
    m_grey = eq.interval_maxima(problem, FIGURE1_GREY).as_floats()
    m_black = eq.interval_maxima(problem, FIGURE1_BLACK).as_floats()
    diffs = [a - b for a, b in zip(m_grey, m_black)]
    assert any(d < -1e-9 for d in diffs) and any(d > 1e-9 for d in diffs)
    assert diffs[verdict.below] < 0 and diffs[verdict.above] > 0


def test_intertwine_regularity_error():
    from test_fields import log_chi_union

    problem = eq.Problem(2, (1.0, 1.0), eq.Log(), log_chi_union())
    with pytest.raises(eq.RegularityError):
        eq.check_intertwining(problem, (0.45, 0.55), (0.2, 0.8))
    with pytest.raises(eq.RegularityError):  # equal node systems were "equal" unchecked
        eq.check_intertwining(problem, (0.45, 0.55), (0.45, 0.55))


def test_non_singular_kernel_takes_any_strict_node_system():
    """Off the singular kernels the checks follow ``difference``: strict node systems, finite maxima."""
    problem = build_problem("singularity_5_1")
    x, y = (0.2, 0.8), (0.3, 0.6)
    diffs = [a - b for a, b in zip(eq.interval_maxima(problem, x).m, eq.interval_maxima(problem, y).m)]
    verdict = eq.check_intertwining(problem, x, y)
    assert verdict.kind == "witness"
    assert diffs[verdict.below] < -1e-9 and diffs[verdict.above] > 1e-9
    with pytest.raises(eq.RegularityError):
        eq.check_intertwining(problem, x, (0.5, 0.5))
    report = eq.check_strict_majorization_excluded(problem, pairs=[(x, y), (y, x), (x, (0.5, 0.5))])
    assert report.checked == 2 and not report.hypotheses_met
    with pytest.raises(eq.PreconditionError):  # sampling stays singular-only
        eq.check_strict_majorization_excluded(problem, samples=2)


def test_no_strict_majorization_for_log(rng):
    problem = log_problem(2)
    report = eq.check_strict_majorization_excluded(problem, samples=100, seed=3)
    assert report.hypotheses_met
    assert report.checked == 100
    assert report.strict_violations == 0


@pytest.mark.parametrize("problem", [log_problem(2), build_problem("strictness_5_3")], ids=["log_n2", "capped"])
def test_majorization_scan_computes_each_sampled_maxima_vector_once(problem, monkeypatch):
    """Work gate: the sampler's maxima serve the scan, one maxima vector per sampled node system."""
    rng = np.random.default_rng(3)
    pairs = [(eq.sample_regular_nodes(problem, rng), eq.sample_regular_nodes(problem, rng)) for _ in range(50)]
    want = eq.check_strict_majorization_excluded(problem, pairs=pairs)
    calls = {"maxima": 0}
    maxima_floats = translates._maxima_floats

    def counted_maxima_floats(*args):
        calls["maxima"] += 1
        return maxima_floats(*args)

    monkeypatch.setattr(translates, "_maxima_floats", counted_maxima_floats)
    report = eq.check_strict_majorization_excluded(problem, samples=50, seed=3)
    assert report == want
    if problem.n == 2:  # every draw with gaps of 1e-3 is regular: 100 node systems
        assert calls["maxima"] == 100


def test_sampler_gives_up_when_no_draw_is_regular():
    # finite only at 0.5 ± 1e-9: a node is regular only strictly between them, a window no draw hits
    field = eq.PiecewiseField((eq.Piece(0.0, 1.0, eq.NegInfinityPiece()),), ((0.5 - 1e-9, 0.0), (0.5 + 1e-9, 0.0)))
    with pytest.raises(eq.RegularityError, match="could not sample"):
        eq.sample_regular_nodes(log_problem(1, field=field), np.random.default_rng(0))


def test_strict_majorization_found_for_tent_kernel():
    problem = build_problem("nonmonotone_5_4")
    a = 0.45
    deltas = np.linspace(0.12, 0.3, 6)
    pairs = [
        ((a - d1, a + d1), (a - d2, a + d2))
        for d1 in deltas
        for d2 in deltas
        if d1 < d2
    ]
    report = eq.check_strict_majorization_excluded(problem, pairs=pairs)
    assert not report.hypotheses_met
    assert report.strict_violations > 0


def test_weak_domination_reported_for_capped_log():
    problem = build_problem("strictness_5_3")
    # first node on the flat stretch (m = (0, 1)), second where m_1 decays
    pairs = [((0.3,), (0.8,)), ((0.5,), (0.85,)), ((0.3,), (0.9,))]
    report = eq.check_strict_majorization_excluded(problem, pairs=pairs)
    assert report.hypotheses_met  # (M) holds, (SM) не required here
    assert report.strict_violations == 0
    assert report.weak_dominations > 0


def _tent_control_pairs():
    a, deltas = 0.45, np.linspace(0.12, 0.3, 8)
    return [((a - d1, a + d1), (a - d2, a + d2)) for d1 in deltas for d2 in deltas if d1 < d2]


@pytest.mark.parametrize(
    "problem, pairs",
    [
        # m₁ differs by 2e-8, m₀ and m₂ by ±2e-12: nodes 1e-12 apart are "equal", and the scan
        # counted a weak domination
        (log_problem(2), [((0.5, 0.5001), (0.5, 0.5001 + 1e-12))]),
        (build_problem("nonmonotone_5_4"), _tent_control_pairs()),  # criterion 8's negative control
    ],
    ids=["log-nodes-1e-12-apart", "tent-control"],
)
def test_intertwining_and_the_scan_judge_each_pair_alike(problem, pairs):
    """The scan counts a pair exactly when check_intertwining calls it a majorization_violation."""
    verdicts = [eq.check_intertwining(problem, x, y) for x, y in pairs]
    scans = [eq.check_strict_majorization_excluded(problem, pairs=[pair]) for pair in pairs]
    strict = 0
    for (x, y), verdict, scan in zip(pairs, verdicts, scans):
        violation = verdict.kind == "majorization_violation"
        assert scan.strict_violations + scan.weak_dominations == violation, (x, y, verdict, scan)
        mx, my = (eq.interval_maxima(problem, s).as_floats() for s in (x, y))
        strict += violation and all(abs(a - b) > 1e-9 for a, b in zip(mx, my))
    report = eq.check_strict_majorization_excluded(problem, pairs=pairs)
    assert report.checked == len(pairs)
    assert report.strict_violations == strict
    assert report.weak_dominations == sum(v.kind == "majorization_violation" for v in verdicts) - strict


@pytest.mark.parametrize(
    "call",
    [
        lambda p: eq.check_strict_majorization_excluded(p, pairs=5),
        lambda p: eq.check_strict_majorization_excluded(p, pairs=[(0.3,)]),
        lambda p: eq.check_strict_majorization_excluded(p, pairs=[((0.3,), (0.6,), (0.9,))]),
        lambda p: eq.check_strict_majorization_excluded(p, samples=-1),
        lambda p: eq.check_strict_majorization_excluded(p, 2, seed=-1),
        lambda p: eq.sample_regular_nodes(p, None),
        lambda p: eq.sample_regular_nodes(p, 7),
    ],
    ids=["pairs-int", "pair-of-one", "pair-of-three", "negative-samples", "negative-seed", "rng-none", "rng-int"],
)
def test_scan_arguments_raise_typed_errors(call):
    # these raised a bare TypeError, ValueError or AttributeError, or returned checked = 0
    with pytest.raises(eq.PreconditionError):
        call(log_problem(1))


def test_equioscillation_value_crossing():
    # a maximin point and the minimax point share an interval maximum at the
    # common value; capped-log instance has a whole segment of maximin points
    problem = build_problem("strictness_5_3")
    report = eq.solve_equioscillation(problem)
    x = (0.5,)  # maximin point off the equioscillation node
    m_x = eq.interval_maxima(problem, x).as_floats()
    m_w = eq.interval_maxima(problem, report.nodes).as_floats()
    shared = [
        j
        for j in range(2)
        if abs(m_x[j] - report.value) <= 1e-9 and abs(m_w[j] - report.value) <= 1e-9
    ]
    assert shared
