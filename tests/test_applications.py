import math
from bisect import bisect_right

import numpy as np
import pytest

import equiosc as eq
from equiosc import applications
from equiosc.fields import Constant, Indicator, NegInfinityPiece, Piece, PiecewiseField
from golden_reference import (
    LOG_DERIVATIVES,
    LOG_SCALAR,
    golden_max,
    pin_key,
    reference_inner_candidates,
    reference_inner_restricted,
    reference_maximize,
    reference_pinned_restricted,
    reference_restricted_constant,
)

SQRT3_HALF = 0.8660254037844386
SEED_UNION = eq.IntervalUnion(((0.0, 0.4), (0.6, 1.0)))


def ones_weight(domain=(0.0, 1.0)):
    return eq.constant_field(1.0, domain=domain)


# -- independent brute-force oracles (kept separate from the search code) -------

def brute_union_constant(E, restricted: bool, points: int = 4001):
    """1-D exhaustive minimization of max_{t in E} |t − x| over node positions."""
    T = np.concatenate([np.linspace(a, b, points) for a, b in E.components])
    if restricted:
        X = T
    else:
        A, B = E.hull
        X = np.linspace(A, B, points)
    best_x, best_v = None, math.inf
    for x in X:
        v = float(np.max(np.abs(T - x)))
        if v < best_v:
            best_x, best_v = float(x), v
    return best_x, best_v


# -- scalar reference for the extremal-product maxima ------------------------------
# The maximizer the union and Bojanov paths used before they were routed through
# translates, kept verbatim (with the shared golden-section search) as a
# differential reference, but for its piece rule: a segment [c, d] takes the
# field piece from c on, as the library's searches do.

_NEG_INF = float("-inf")


def reference_log_objective_max(nodes, r, logw, lo, hi, xtol=1e-12):
    """(t*, max) of log w(t) + Σ r_j log|t − x_j| over [lo, hi]."""
    inner = sorted(
        set(tau for tau in logw.interior_knots() if lo < tau < hi)
        | set(x for x in nodes if lo < x < hi)
    )
    cuts = [lo, *inner, hi]
    log = math.log
    terms = tuple(zip(nodes, r))

    def log_prod(t):
        s = 0.0
        for x, rj in terms:
            d = abs(t - x)
            if d == 0.0:
                return _NEG_INF
            s += rj * log(d)
        return s

    candidates = []
    points = sorted(set(cuts) | {t for t in logw.override_points() if lo <= t <= hi})
    for tau in points:
        fv = logw._value_float(tau)
        lp = log_prod(tau)
        candidates.append((tau, _NEG_INF if _NEG_INF in (fv, lp) else fv + lp))
    for c, d in zip(cuts, cuts[1:]):
        if d - c <= 1e-13:
            continue
        piece = logw.pieces[bisect_right(logw.knots(), c) - 1]
        if isinstance(piece.formula, NegInfinityPiece):
            continue
        fval = piece.formula._value

        def g(t):
            fv = fval(t)
            if fv == _NEG_INF:
                return _NEG_INF
            lp = log_prod(t)
            if lp == _NEG_INF:
                return _NEG_INF
            return fv + lp

        candidates.append(golden_max(g, c, d, xtol))
    candidates.sort(key=lambda p: p[0])
    best_t, best_v = None, _NEG_INF
    for t, v in candidates:
        if v > best_v:
            best_t, best_v = t, v
    return best_t, best_v


REFERENCE_WEIGHTS = {
    "constant": eq.constant_field(2.5),
    "sqrt_affine": eq.sqrt_affine_field(2.0, 1.0, 0.0),
    "indicator_with_zeros": PiecewiseField(
        (
            Piece(0.0, 0.3, Constant(1.0)),
            Piece(0.3, 0.5, Constant(0.0)),
            Piece(0.5, 1.0, Indicator(2.0)),
        )
    ),
}


def assert_log_close(value, log_reference):
    if log_reference == _NEG_INF:
        assert value == 0.0
    else:
        assert abs(math.log(value) - log_reference) <= 1e-12


@pytest.mark.parametrize("name", list(REFERENCE_WEIGHTS))
def test_gap_maxima_match_reference_maximizer(name, rng):
    weight = REFERENCE_WEIGHTS[name]
    logw = eq.log_of_weight_field(weight)
    E = eq.IntervalUnion(((0.0, 0.35), (0.55, 1.0)))
    draws = [((0.32, 0.45), (1.0, 1.5))]  # [0.32, 0.45] sits in the zero stretch
    for n in (1, 2, 3):
        for _ in range(8):
            x = tuple(float(v) for v in np.sort(rng.uniform(0.0, 1.0, size=n)))
            draws.append((x, tuple(float(v) for v in rng.uniform(0.5, 2.0, size=n))))
    minus_inf_gaps = 0
    for x, r in draws:
        ys = (0.0, *x, 1.0)
        for (lo, hi), got in zip(zip(ys, ys[1:]), eq.gap_interval_maxima(x, r, weight)):
            _, want = reference_log_objective_max(x, r, logw, lo, hi)
            assert_log_close(got, want)
            minus_inf_gaps += want == _NEG_INF
        for union in (None, E):
            intervals = union.components if union else (weight.domain,)
            want = max(reference_log_objective_max(x, r, logw, lo, hi)[1] for lo, hi in intervals)
            assert_log_close(eq.gap_norm(x, r, weight, union), want)
    assert (minus_inf_gaps > 0) == (name == "indicator_with_zeros")


def test_gap_eval_examples():
    w = ones_weight()
    assert eq.gap_eval((0.5,), (1.0,), w, 0.75) == pytest.approx(0.25)
    assert eq.gap_eval((0.5,), (2.0,), w, 0.0) == pytest.approx(0.25)
    assert eq.gap_eval((0.146447, 0.853553), (1.0, 1.0), w, 0.0) == pytest.approx(
        0.125, abs=1e-6
    )
    with pytest.raises(eq.DomainError):
        eq.gap_eval((0.5,), (1.0,), w, 1.5)


def test_gap_norm_refuses_a_union_past_the_weight_domain():
    # the last piece's formula was evaluated past the domain: 2.4 at t = 1.5
    steps = PiecewiseField((Piece(0.0, 0.5, Constant(1.0)), Piece(0.5, 1.0, Constant(2.0))))
    for components in (((0.2, 1.5),), ((-0.5, 0.1), (0.2, 0.9)), ((0.5, 2.0),)):
        for weight in (steps, ones_weight()):
            with pytest.raises(eq.DomainError):
                eq.gap_norm((0.3,), (1.0,), weight, eq.IntervalUnion(components))
    assert eq.gap_norm((0.3,), (1.0,), steps, eq.IntervalUnion(((0.0, 1.0),))) == pytest.approx(1.4)


def test_gap_maxima_of_degenerate_intervals_are_zero():
    """A node at a, a node at b and a repeated node cut three one-point intervals, each a node: 0.0 there."""
    weight = eq.sqrt_affine_field(1.0, 1.0, -1.0, domain=(-1.0, 2.0))
    x, r = (2.0, 0.25, -1.0, 0.25), (1.0, 2.0, 0.5, 1.5)
    maxima = eq.gap_interval_maxima(x, r, weight)
    ys = (-1.0, *sorted(x), 2.0)
    degenerate = [j for j, (lo, hi) in enumerate(zip(ys, ys[1:])) if lo == hi]
    assert degenerate == [0, 2, 4]
    for j in degenerate:
        assert maxima[j].hex() == (0.0).hex() == eq.gap_eval(x, r, weight, ys[j]).hex()
    assert all(maxima[j] > 0.0 for j in (1, 3))


def test_solve_bojanov_unit_interval():
    gap = eq.GapProblem((0.0, 1.0), (1.0, 1.0), ones_weight())
    sol = eq.solve_bojanov(gap, tol=1e-10)
    assert sol.nodes[0] == pytest.approx(0.14644660940672624, abs=1e-8)
    assert sol.nodes[1] == pytest.approx(0.8535533905932737, abs=1e-8)
    assert sol.norm == pytest.approx(0.125, abs=1e-8)
    assert sol.interlaces


def test_solve_bojanov_even_exponent():
    gap = eq.GapProblem((0.0, 1.0), (2.0,), ones_weight())
    sol = eq.solve_bojanov(gap, tol=1e-10)
    assert sol.nodes[0] == pytest.approx(0.5, abs=1e-8)
    assert sol.norm == pytest.approx(0.25, abs=1e-8)


def test_solve_bojanov_shifted_interval():
    gap = eq.GapProblem((-1.0, 1.0), (1.0,) * 3, ones_weight(domain=(-1.0, 1.0)))
    sol = eq.solve_bojanov(gap, tol=1e-10)
    want = (-SQRT3_HALF, 0.0, SQRT3_HALF)
    for got, ref in zip(sol.nodes, want):
        assert got == pytest.approx(ref, abs=1e-8)
    assert sol.norm == pytest.approx(0.25, abs=1e-8)
    a, b = gap.interval
    assert a < sol.nodes[0] and sol.nodes[-1] < b


def test_bojanov_certificate_and_bracketing(rng):
    gap = eq.GapProblem((0.0, 1.0), (1.0, 1.5), ones_weight())
    sol = eq.solve_bojanov(gap, tol=1e-11)
    # equioscillation certificate at the extremal points
    for t in sol.extremal_points:
        value = eq.gap_eval(sol.nodes, gap.exponents, gap.weight, t)
        assert value == pytest.approx(sol.norm, rel=1e-8)
    # interval-maxima bracketing for any other admissible node system
    for _ in range(5):
        x = tuple(sorted(rng.uniform(0.05, 0.95, size=2)))
        if max(abs(a - b) for a, b in zip(x, sol.nodes)) < 1e-3:
            continue
        maxima = eq.gap_interval_maxima(x, gap.exponents, gap.weight)
        assert min(maxima) < sol.norm < max(maxima)


def test_verify_signed_equioscillation_classic():
    gap = eq.GapProblem((0.0, 1.0), (1.0, 1.0), ones_weight())
    sol = eq.solve_bojanov(gap, tol=1e-11)
    assert eq.verify_signed_equioscillation(
        sol.nodes, (1, 1), sol.extremal_points, gap.weight
    )


def test_verify_signed_equioscillation_even_multiplicity():
    gap = eq.GapProblem((0.0, 1.0), (2.0,), ones_weight())
    sol = eq.solve_bojanov(gap, tol=1e-11)
    # signs are (+, +): even multiplicity keeps the sign across the node
    assert eq.verify_signed_equioscillation(
        sol.nodes, (2,), sol.extremal_points, gap.weight
    )
    t0, t1 = sol.extremal_points
    x = sol.nodes[0]
    assert (t0 - x) ** 2 > 0 and (t1 - x) ** 2 > 0


def test_verify_signed_equioscillation_mixed():
    gap = eq.GapProblem((-1.0, 1.0), (1.0, 2.0), ones_weight(domain=(-1.0, 1.0)))
    sol = eq.solve_bojanov(gap, tol=1e-11)
    assert eq.verify_signed_equioscillation(
        sol.nodes, (1, 2), sol.extremal_points, gap.weight
    )


def test_verify_signed_preconditions():
    w = ones_weight()
    with pytest.raises(eq.PreconditionError):
        eq.verify_signed_equioscillation((0.5,), (1.5,), (0.0, 1.0), w)
    with pytest.raises(eq.PreconditionError):
        eq.verify_signed_equioscillation((0.5,), (1,), (0.6, 1.0), w)
    for nodes, nu, points in ((None, (1,), (0.1, 0.9)), ((0.5,), None, (0.1, 0.9)), ((0.5,), (1,), None)):
        with pytest.raises(eq.PreconditionError):
            eq.verify_signed_equioscillation(nodes, nu, points, w)


def test_verify_signed_equioscillation_at_chebyshev_t2():
    nodes, w = (0.5 - math.sqrt(2.0) / 4.0, 0.5 + math.sqrt(2.0) / 4.0), ones_weight()
    assert eq.verify_signed_equioscillation(nodes, (1, 1), (0.0, 0.5, 1.0), w)
    assert not eq.verify_signed_equioscillation(nodes, (1, 1), (0.0, 0.4, 1.0), w)  # |T(0.4)| < ‖T‖
    assert not eq.verify_signed_equioscillation(nodes, (1, 1), (0.0, 0.5, 1.0), eq.constant_field(0.0))  # ‖T‖ = 0
    with pytest.raises(eq.PreconditionError):
        eq.verify_signed_equioscillation(nodes, (1, 0), (0.0, 0.5, 1.0), w)
    with pytest.raises(eq.PreconditionError):
        eq.verify_signed_equioscillation(nodes, (1, 1), (0.0, 1.0), w)


def test_unrestricted_seed_instance():
    C, nodes = eq.unrestricted_constant(SEED_UNION, (1.0,))
    brute_x, brute_v = brute_union_constant(SEED_UNION, restricted=False)
    assert C == pytest.approx(0.5, abs=1e-6)
    assert nodes[0] == pytest.approx(0.5, abs=1e-6)
    assert C == pytest.approx(brute_v, abs=1e-3)
    assert nodes[0] == pytest.approx(brute_x, abs=1e-3)


def test_unrestricted_single_component_reduces_to_interval_solve():
    E = eq.IntervalUnion(((0.0, 1.0),))
    C, nodes = eq.unrestricted_constant(E, (1.0, 1.0))
    gap = eq.GapProblem((0.0, 1.0), (1.0, 1.0), ones_weight())
    sol = eq.solve_bojanov(gap)
    assert C == pytest.approx(sol.norm, abs=1e-9)
    for a, b in zip(nodes, sol.nodes):
        assert a == pytest.approx(b, abs=1e-7)


def _step_weight(knot):
    """w = 1 on [0.4, knot], 3 on [knot, 0.8] and 1 on [0.8, 1]."""
    return PiecewiseField(
        (Piece(0.4, knot, Constant(1.0)), Piece(knot, 0.8, Constant(3.0)), Piece(0.8, 1.0, Constant(1.0))),
        domain=(0.4, 1.0),
    )


@pytest.mark.parametrize("knot", [0.5, 0.7])
def test_union_field_keeps_the_weight_on_a_one_float_segment_past_a_knot(knot):
    """E's first component ends one float past the knot: log w there is log 3 (it read log 1)."""
    logw = eq.log_of_weight_field(_step_weight(knot))
    end = math.nextafter(knot, 1.0)
    masked = applications._masked_log_field(logw, eq.IntervalUnion(((0.4, end), (0.9, 1.0))))
    for t in (knot, end):
        assert masked.value(t) == logw.value(t) == math.log(3.0)


@pytest.mark.parametrize("end", [math.nextafter(0.5, 1.0), 0.5000001])
def test_unrestricted_constant_of_a_component_ending_one_float_past_a_knot(end):
    """The gap norm at the returned nodes is C: it read C = 0.3 at node 0.7, where the norm is 0.6."""
    weight = _step_weight(0.5)
    E = eq.IntervalUnion(((0.4, end), (0.9, 1.0)))
    C, nodes = eq.unrestricted_constant(E, (1.0,), weight)
    assert C == pytest.approx(eq.gap_norm(nodes, (1.0,), weight, E), rel=1e-9)
    assert C == pytest.approx(0.375, rel=1e-6)


def test_snap_examples():
    assert eq.snap_to_E((0.5,), SEED_UNION) == (0.4,)  # tie goes left
    assert eq.snap_to_E((0.45, 0.7), SEED_UNION) == (0.4, 0.7)
    assert eq.snap_to_E((0.3,), SEED_UNION) == (0.3,)
    with pytest.raises(eq.PreconditionError):
        eq.snap_to_E((1.5,), SEED_UNION)
    with pytest.raises(eq.PreconditionError):
        eq.snap_to_E(None, SEED_UNION)


def test_restricted_seed_instance():
    R, nodes = eq.restricted_constant(SEED_UNION, (1.0,))
    _, brute_v = brute_union_constant(SEED_UNION, restricted=True)
    assert R == pytest.approx(0.6, abs=1e-6)
    assert nodes[0] in (pytest.approx(0.4, abs=1e-6), pytest.approx(0.6, abs=1e-6))
    assert R == pytest.approx(brute_v, abs=1e-3)
    assert SEED_UNION.contains(nodes[0])


def _seeded_union(rng, k):
    while True:
        cuts = np.sort(rng.uniform(0.0, 1.0, size=2 * k))
        if np.min(np.diff(cuts)) >= 0.06:
            return eq.IntervalUnion(tuple(zip(cuts[0::2], cuts[1::2])))


# a zero stretch [0.7, 0.8] inside the component [0.55, 1] and a point value 10 at 0.56,
# which the restricted optimum must keep down with a node pinned at 0.35
SPIKED_WEIGHT = PiecewiseField(
    (
        Piece(0.0, 0.7, Constant(1.0)),
        Piece(0.7, 0.8, Constant(0.0)),
        Piece(0.8, 1.0, Indicator(2.0)),
    ),
    ((0.56, 10.0),),
)
SPIKED_UNION = eq.IntervalUnion(((0.0, 0.35), (0.55, 1.0)))


def test_restricted_never_above_the_candidate_grid(rng):
    """Differential test against the candidate-grid search the solves replaced."""
    cases = [
        (_seeded_union(rng, k), r, None)
        for k in (2, 3)
        for r in ((1.0,), (2.0, 1.0), (1.5, 0.5, 1.0))
    ]
    cases.append((SPIKED_UNION, (2.0, 1.0), SPIKED_WEIGHT))
    for E, r, weight in cases:
        report = eq.compare_constants(E, r, weight)
        R, nodes = report["R"], report["nodes_restricted"]
        grid_R, _ = reference_restricted_constant(E, r, weight, snap_seed=report["nodes_snapped"])
        assert R <= grid_R * (1.0 + 1e-12)
        assert R <= report["snap_norm"] * (1.0 + 1e-12)
        assert all(E.contains(x) for x in nodes)
        w = weight if weight is not None else eq.constant_field(1.0, domain=E.hull)
        assert eq.gap_norm(nodes, r, w, E) == pytest.approx(R, rel=1e-12)


def test_restricted_below_the_grid_with_unequal_exponents():
    E = eq.IntervalUnion(((0.0, 0.3), (0.45, 0.55), (0.7, 1.0)))
    R, nodes = eq.restricted_constant(E, (1.5, 0.5, 1.0))
    assert R == pytest.approx(0.0378209, abs=1e-7)  # the candidate grid gave 0.0379286
    for got, want in zip(nodes, (0.14447, 0.55, 0.92875)):
        assert got == pytest.approx(want, abs=1e-5)


def test_pinned_field_adds_the_translates_to_pieces_and_point_values():
    pins = ((2.0, 0.35), (0.5, 0.55))
    union = applications._UnionField(SPIKED_UNION, SPIKED_WEIGHT)
    problem, A, width = applications._union_problem(union, (1.0,), pins), union.A, union.width
    for t in (0.1, 0.3, 0.35, 0.5, 0.55, 0.56, 0.6, 0.75, 0.9, 1.0):
        w = SPIKED_WEIGHT.value(t) if SPIKED_UNION.contains(t) else 0.0
        prod = w * math.prod(abs((t - e) / width) ** rj for rj, e in pins)
        got = problem.field.value((t - A) / width)
        if prod == 0.0:
            assert got == -math.inf
        else:
            assert got == pytest.approx(math.log(prod), abs=1e-12)


@pytest.mark.parametrize(
    "pins, closed",
    [
        ((), (False, False)),
        (((1.0, 0.4),), (True, False)),
        (((1.0, 0.6),), (False, True)),
        (((1.0, 0.4), (2.0, 0.6)), (True, True)),
    ],
)
def test_pinned_field_minus_infinity_set_is_closed_at_its_pins(pins, closed):
    # the gap (0.4, 0.6) is −∞; a pin on a gap end makes that end −∞ too
    field = applications._union_problem(applications._UnionField(SEED_UNION, None), (1.0,), pins).field
    assert eq.singularity_set(field) == (eq.SingularSegment(0.4, 0.6, *closed),)
    assert field.finiteness_count() == math.inf


def two_symmetric_intervals(a, n):
    """E = [0, (1−a)/2] ∪ [(1+a)/2, 1], its constant for n nodes and its nodes, n even.

    The minimizer is the Chebyshev polynomial of degree n/2 composed with a
    quadratic: C = 2·((1 − a²)/16)^{n/2}, nodes (1 ± u_k)/2 with
    u_k² = ((1 − a²)·cos((2k − 1)π/n) + 1 + a²)/2.
    """
    E = eq.IntervalUnion(((0.0, (1.0 - a) / 2), ((1.0 + a) / 2, 1.0)))
    us = [
        math.sqrt(((1 - a * a) * math.cos((2 * k - 1) * math.pi / n) + 1 + a * a) / 2)
        for k in range(1, n // 2 + 1)
    ]
    return E, 2.0 * ((1 - a * a) / 16) ** (n / 2), sorted((1 + s * u) / 2 for u in us for s in (-1, 1))


@pytest.mark.parametrize("a", [0.2, 0.5])
@pytest.mark.parametrize("n", range(2, 17, 2))
def test_unrestricted_constant_of_two_symmetric_intervals(a, n):
    E, C, nodes = two_symmetric_intervals(a, n)
    got, got_nodes = eq.unrestricted_constant(E, (1.0,) * n)
    assert got == pytest.approx(C, rel=1e-12)
    assert got_nodes == pytest.approx(nodes, abs=1e-12)
    if n <= 4:  # every node lies in E, so R = C; the restricted search takes n ≤ 4
        R, R_nodes = eq.restricted_constant(E, (1.0,) * n)
        assert R == pytest.approx(C, rel=1e-12)
        assert R_nodes == pytest.approx(nodes, abs=1e-12)


def _counted_solves(monkeypatch):
    calls = []
    solve = applications.solve_equioscillation

    def counted_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(applications, "solve_equioscillation", counted_solve)
    return calls


def _unpruned_solves(E, r):
    """C(2k+n−3, n−1): the distinct pinned solves of n equal exponents without pruning."""
    return math.comb(2 * E.k + len(r) - 3, len(r) - 1)


def test_restricted_solve_count(monkeypatch):
    """Work gate: one solve, where the search without pruning takes C(2k+n−3, n−1).

    With k = 3 components there are 2k − 2 = 4 inner endpoints, so n = 2
    equal exponents would take C(3, 0) + C(4, 1) = C(5, 1) = 5 solves. The
    unpinned nodes lie in E, so the unpinned candidate's value is its own lb
    and every candidate with one pinned node is skipped; the candidate grid
    ranked up to 8,000 node systems per assignment and round.
    """
    calls = _counted_solves(monkeypatch)
    E = eq.IntervalUnion(((0.0, 0.25), (0.4, 0.6), (0.8, 1.0)))
    R, nodes = eq.restricted_constant(E, (1.0, 1.0))
    assert len(calls) == 1 <= _unpruned_solves(E, (1.0, 1.0))
    assert R == pytest.approx(0.125, abs=1e-9)
    assert nodes[0] == pytest.approx(0.146447, abs=1e-6)
    assert nodes[1] == pytest.approx(0.853553, abs=1e-6)


@pytest.mark.parametrize(
    "components, solves",
    [
        (((0.0, 1.0),), 1),
        (((0.0, 0.45), (0.6, 1.0)), 3),
        (((0.0, 0.25), (0.4, 0.6), (0.8, 1.0)), 1),
    ],
)
def test_restricted_solve_count_with_three_nodes(components, solves, monkeypatch):
    """Work gate: n = 3 equal exponents take 1, 3 and 1 of the C(2k+n−3, n−1) = 1, 6 and 15 solves at k = 1, 2, 3."""
    calls = _counted_solves(monkeypatch)
    E = eq.IntervalUnion(components)
    eq.restricted_constant(E, (1.0, 1.0, 1.0))
    assert len(calls) == solves <= _unpruned_solves(E, (1.0, 1.0, 1.0))


@pytest.mark.parametrize(
    "search, components, r, solves",
    [
        (eq.compare_constants, SEED_UNION.components, (1.0, 1.0, 1.0), 3),
        (eq.restricted_constant, ((0.0, 0.3), (0.45, 0.55), (0.7, 1.0)), (1.5, 0.5, 1.0), 13),
    ],
)
def test_partly_pruned_solve_count(search, components, r, solves, monkeypatch):
    """Work gate where the unpinned nodes leave E, so pruning skips only some pin sets.

    Without pruning these take 6 and 43 solves; unequal exponents can exceed C(2k+n−3, n−1).
    """
    calls = _counted_solves(monkeypatch)
    E = eq.IntervalUnion(components)
    search(E, r)
    assert len(calls) == solves <= _unpruned_solves(E, r)


def test_restricted_matches_the_all_endpoint_search(rng):
    """Differential test: leaving the hull ends unpinned keeps (R, nodes) exactly."""
    cases = [
        (_seeded_union(rng, k), r, None)
        for k in (1, 2, 3)
        for r in ((1.0,), (1.0, 1.0), (2.0, 1.0), (1.0, 1.0, 1.0), (1.5, 0.5, 1.0))
    ]
    cases.append((SPIKED_UNION, (2.0, 1.0), SPIKED_WEIGHT))
    cases.append((SPIKED_UNION, (1.0, 1.0, 1.0), SPIKED_WEIGHT))
    for E, r, weight in cases:
        assert eq.restricted_constant(E, r, weight) == reference_pinned_restricted(E, r, weight, 1e-9)
        report = eq.compare_constants(E, r, weight)
        want = reference_pinned_restricted(E, r, weight, 1e-9, unpinned=report["nodes_unrestricted"])
        assert (report["R"], report["nodes_restricted"]) == want


def test_pruned_search_matches_the_unpruned_one(rng):
    """Differential test: skipping ruled-out pin sets keeps (R, nodes) exactly, with and without the unpinned nodes."""
    cases = [
        (_seeded_union(rng, k), r, None)
        for k in (2, 3)
        for r in ((1.0, 2.0, 1.0), (2.0, 1.0, 1.0), (0.5, 1.5, 0.5))
    ]
    cases.append((SPIKED_UNION, (1.0, 1.0, 2.0), SPIKED_WEIGHT))  # the optimum pins a node at 0.55
    for E, r, weight in cases:
        union = applications._UnionField(E, weight)
        assert eq.restricted_constant(E, r, weight) == reference_inner_restricted(union, r, 1e-9)
        report = eq.compare_constants(E, r, weight)
        want = reference_inner_restricted(union, r, 1e-9, unpinned=report["nodes_unrestricted"])
        assert (report["R"], report["nodes_restricted"]) == want


def test_pruned_search_skips_only_candidates_a_solved_bound_rules_out(rng, monkeypatch):
    """Soundness of the branch and bound, candidate by candidate.

    The solves and the exact evaluations the search makes are recorded. Every
    candidate of the unpruned search that never reached ``_log_max`` was
    skipped; its exact value must be at least the returned R, and a sub-key
    (one pinned index un-pinned) must justify the skip: it was never solved,
    its own candidate was kept (its value is then the key's lb, at least the
    best value kept before), or its lb (the solve's value on the
    ``_log_max`` scale) reaches log R.
    """
    solved, evaluated = {}, set()
    solve, log_max = applications._UnionField.solve, applications._log_max

    def recorded_solve(self, r, tol, pins=()):
        value, nodes = solve(self, r, tol, pins)
        solved[(pins, tuple(r))] = value
        return value, nodes

    def recorded_log_max(logw, terms, intervals):
        evaluated.add(tuple(x for _, x in terms))
        return log_max(logw, terms, intervals)

    monkeypatch.setattr(applications._UnionField, "solve", recorded_solve)
    monkeypatch.setattr(applications, "_log_max", recorded_log_max)
    cases = [
        (_seeded_union(rng, k), r, None)
        for k in (2, 3)
        for r in ((1.0, 2.0, 1.0), (2.0, 1.0, 1.0), (0.5, 1.5, 0.5))
    ]
    cases.append((SPIKED_UNION, (1.0, 1.0, 2.0), SPIKED_WEIGHT))
    skipped = 0
    for E, r, weight in cases:
        union = applications._UnionField(E, weight)
        shift = sum(r) * math.log(union.width)
        for with_unpinned in (False, True):
            solved.clear()
            evaluated.clear()
            if with_unpinned:
                report = eq.compare_constants(E, r, weight)
                R, unpinned = report["R"], report["nodes_unrestricted"]
            else:
                (R, _), unpinned = eq.restricted_constant(E, r, weight), None
            lbs, visited = {k: v + shift for k, v in solved.items()}, set(evaluated)
            candidates = list(reference_inner_candidates(union, r, 1e-9, unpinned))
            log_R = min(val for _, _, val, _ in candidates)
            assert math.exp(log_R) == R
            kept = {pin_key(r, pinned, ends) for pinned, ends, _, nodes in candidates if nodes in visited}
            for pinned, ends, val, nodes in candidates:
                if nodes in visited:
                    continue
                skipped += 1
                assert val >= log_R, (E, r, pinned, ends)
                subkeys = [
                    pin_key(r, pinned[:q] + pinned[q + 1:], ends[:q] + ends[q + 1:]) for q in range(len(pinned))
                ]
                assert any(k not in lbs or k in kept or lbs[k] >= log_R for k in subkeys), (E, r, pinned, ends)
    assert skipped > 0


def test_union_maxima_are_bit_identical_to_per_interval_set_up(rng):
    """``_log_max`` and ``gap_interval_maxima`` set up once per node vector give what one set-up per interval gave."""
    cases = [(_seeded_union(rng, 2 + i % 2), None) for i in range(12)]
    cases.append((SPIKED_UNION, SPIKED_WEIGHT))
    for E, weight in cases:
        weight = weight if weight is not None else eq.constant_field(1.0, domain=E.hull)
        logw = eq.log_of_weight_field(weight)
        a, b = E.hull
        for n in (1, 2, 3):
            r = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=n))
            x = [float(v) for v in rng.uniform(a, b, size=n)]
            x[0] = E.components[0][1]  # a node on an inner endpoint, as the restricted search pins them
            terms = tuple(zip(r, x))
            want = max(
                reference_maximize(logw, LOG_SCALAR, LOG_DERIVATIVES, terms, lo, hi, True)[1] for lo, hi in E.components
            )
            assert applications._log_max(logw, terms, E.components).hex() == want.hex()
            ys = (a, *sorted(x), b)
            for lo, hi, got in zip(ys, ys[1:], eq.gap_interval_maxima(x, r, weight)):
                _, v = reference_maximize(logw, LOG_SCALAR, LOG_DERIVATIVES, terms, lo, hi, True)
                assert got.hex() == math.exp(v).hex()


def test_restricted_no_gap_equals_unrestricted():
    E = eq.IntervalUnion(((0.0, 1.0),))
    C, _ = eq.unrestricted_constant(E, (1.0, 1.0))
    R, _ = eq.restricted_constant(E, (1.0, 1.0))
    assert R == pytest.approx(C, rel=1e-6)


def test_bound_factor_values():
    assert eq.union_bound_factor(2, (1.0, 1.0, 1.0)) == pytest.approx(2.0)
    assert eq.union_bound_factor(3, (1.0, 1.0)) == pytest.approx(4.0)
    assert eq.union_bound_factor(2, (2.0, 1.0)) == pytest.approx(4.0)


@pytest.mark.parametrize("k", [0, -3])
def test_bound_factor_needs_a_component(k):
    # a union has k >= 1 components; k <= 0 used to give the factor 1.0
    with pytest.raises(eq.SchemaError):
        eq.union_bound_factor(k, (1.0, 1.0))


def test_compare_constants_seed():
    report = eq.compare_constants(SEED_UNION, (1.0,))
    assert report["C"] == pytest.approx(0.5, abs=1e-6)
    assert report["R"] == pytest.approx(0.6, abs=1e-6)
    assert report["bound"] == pytest.approx(2.0)
    assert report["lower_ok"] and report["upper_ok"] and report["snap_ok"]
    assert report["snap_norm"] <= report["bound"] * report["C"] + 1e-9


@pytest.mark.filterwarnings("error")
def test_narrow_hulls_are_solved_without_a_warning():
    """No minimizer has a node at a hull end; an absolute 1e-9 test warned on every hull this narrow."""
    C, nodes = eq.unrestricted_constant(eq.IntervalUnion(((0.0, 1e-9),)), (1.0, 1.0))
    assert C == pytest.approx(1.25e-19, rel=1e-9)
    assert nodes == pytest.approx((1e-9 * (0.5 - 0.5**1.5), 1e-9 * (0.5 + 0.5**1.5)), rel=1e-9)
    E = eq.IntervalUnion(tuple((1e-9 * a, 1e-9 * b) for a, b in SEED_UNION.components))
    report = eq.compare_constants(E, (1.0,))
    assert report["C"] == pytest.approx(5e-10, rel=1e-9)
    assert report["R"] == pytest.approx(6e-10, rel=1e-9)
    assert report["lower_ok"] and report["upper_ok"] and report["snap_ok"]


@pytest.mark.parametrize(
    "width, fractions, n",
    [
        (1e3, ((0.0, 1.0),), 3),  # one component: bound 1 and R = C, but R reads one ulp (3.7e-9) above C
        (1e3, ((0.0, 0.4), (0.6, 1.0)), 4),
        (1e4, ((0.0, 1.0),), 4),
        (1e4, ((0.0, 0.3), (0.45, 0.6), (0.8, 1.0)), 3),
    ],
)
def test_compare_constants_verdicts_hold_on_wide_hulls(width, fractions, n):
    """C ≤ R ≤ bound·C and snap ≤ bound·C hold to a relative slack: C, R and the snapped norm grow like width^Σr."""
    E = eq.IntervalUnion(tuple((a * width, b * width) for a, b in fractions))
    report = eq.compare_constants(E, (1.0,) * n)
    assert report["lower_ok"] and report["upper_ok"] and report["snap_ok"], report


def test_compare_constants_three_components(monkeypatch):
    calls = _counted_solves(monkeypatch)
    E = eq.IntervalUnion(((0.0, 0.25), (0.4, 0.6), (0.8, 1.0)))
    report = eq.compare_constants(E, (1.0, 1.0))
    # work gate: the restricted search reuses the unrestricted solve as its unpinned candidate,
    # whose nodes lie in E, so it skips every pinned candidate
    assert len(calls) == 1 <= _unpruned_solves(E, (1.0, 1.0))
    assert report["lower_ok"] and report["upper_ok"] and report["snap_ok"]
    assert report["bound"] == pytest.approx(4.0)
    assert all(E.contains(x) for x in report["nodes_restricted"])
    assert (report["C"], report["nodes_unrestricted"]) == eq.unrestricted_constant(E, (1.0, 1.0))
    assert (report["R"], report["nodes_restricted"]) == eq.restricted_constant(E, (1.0, 1.0))


def test_union_validation():
    with pytest.raises(eq.SchemaError):
        eq.IntervalUnion(((0.0, 0.5), (0.5, 1.0)))  # touching components
    with pytest.raises(eq.SchemaError):
        eq.IntervalUnion(((0.5, 0.4),))
    with pytest.raises(eq.SchemaError):
        eq.IntervalUnion(((False, "0.4"),))
    with pytest.raises(eq.SchemaError):
        eq.IntervalUnion(())
    with pytest.raises(eq.SchemaError):
        eq.unrestricted_constant(SEED_UNION, (1.0,), ones_weight((0.0, 2.0)))  # not on the hull
    for components in (None, ((0.0, 1.0, 2.0),), ((0.0,),), (0.0, 1.0)):
        with pytest.raises(eq.SchemaError):
            eq.IntervalUnion(components)
    with pytest.raises(eq.BudgetError):
        eq.restricted_constant(SEED_UNION, (1.0,) * 5)
    # unions and weights must be library objects
    for call in (
        lambda: eq.restricted_constant(None, (1,)),
        lambda: eq.unrestricted_constant(None, (1,)),
        lambda: eq.compare_constants(SEED_UNION, (1,), "x"),
        lambda: eq.snap_to_E((0.5,), None),
        lambda: eq.gap_norm((0.5,), (1,), ones_weight(), "x"),
        lambda: eq.solve_bojanov(None),
        lambda: eq.GapProblem((0.0, 1.0), (1.0,), None),
    ):
        with pytest.raises(eq.SchemaError):
            call()


def test_compare_constants_checks_the_budget_before_any_solve(monkeypatch):
    calls = _counted_solves(monkeypatch)
    with pytest.raises(eq.BudgetError):
        eq.compare_constants(SEED_UNION, (1.0,) * 5)
    assert calls == []


def test_gap_problem_validation():
    with pytest.raises(eq.SchemaError):
        eq.GapProblem((1.0, 0.0), (1.0,), ones_weight())
    with pytest.raises(eq.SchemaError):
        eq.GapProblem((0.0, 1.0), (-2.0,), ones_weight())
    with pytest.raises(eq.SchemaError):
        eq.GapProblem((0.0, 1.0, 2.0), (1.0,), ones_weight())
    with pytest.raises(eq.SchemaError):
        eq.GapProblem((0.0, 2.0), (1.0,), ones_weight())  # weight not on the interval
    with pytest.raises(eq.SchemaError):
        eq.gap_eval((0.5,), (1.0,), eq.constant_field(-1.0), 0.25)


@pytest.mark.parametrize("r", [(), ("1",), (True,), (math.nan,), (-1.0,), (0.0,), (math.inf,), 1.0, "1"])
def test_union_functions_reject_bad_exponents_before_any_solve(r, monkeypatch):
    calls = _counted_solves(monkeypatch)
    for call in (
        lambda: eq.restricted_constant(SEED_UNION, r),
        lambda: eq.unrestricted_constant(SEED_UNION, r),
        lambda: eq.compare_constants(SEED_UNION, r),
        lambda: eq.union_bound_factor(2, r),
    ):
        with pytest.raises(eq.SchemaError):
            call()
    assert calls == []


@pytest.mark.parametrize("fn", [eq.gap_norm, eq.gap_interval_maxima, lambda x, r, w: eq.gap_eval(x, r, w, 0.25)])
def test_gap_functions_validate_nodes_and_exponents(fn):
    w = ones_weight()
    assert fn((0.5,), (1,), w) == fn((0.5,), (1.0,), w)  # an int exponent is a real
    for nodes, r in (((0.5, 0.6), (1.0,)), ((0.5,), (1.0, 1.0)), ((1.5,), (1.0,)), ((math.nan,), (1.0,)), (None, (1.0,))):
        with pytest.raises(eq.PreconditionError):
            fn(nodes, r, w)
    for r in ((-1.0,), (math.nan,), ("1",), (True,)):
        with pytest.raises(eq.SchemaError):
            fn((0.5,), r, w)
    with pytest.raises(eq.SchemaError):
        fn((0.5,), (1,), None)  # the weight must be a field
