import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import equiosc as eq
from equiosc.extreal import NEG_INFINITY, is_neg_infinity
from equiosc.fields import (
    Constant,
    Indicator,
    LogOfWeight,
    NegInfinityPiece,
    Piece,
    PiecewiseField,
    SqrtAffine,
    formula_from_json,
    log_of_weight_field,
)
from golden_reference import UnmergedField

B = 0.955671


def chi_field(b=B):
    """Characteristic function of [b, 1] as a field on [0, 1]."""
    return PiecewiseField((Piece(0.0, b, Constant(0.0)), Piece(b, 1.0, Indicator(1.0))))


def log_chi_union():
    """log of the characteristic function of [0, 0.4] ∪ [0.6, 1]."""
    return PiecewiseField(
        (
            Piece(0.0, 0.4, Constant(0.0)),
            Piece(0.4, 0.6, NegInfinityPiece()),
            Piece(0.6, 1.0, Constant(0.0)),
        )
    )


def points_only_field(points):
    """Field that is −∞ except at finitely many override points (value 0)."""
    return PiecewiseField(
        (Piece(0.0, 1.0, NegInfinityPiece()),),
        tuple((t, 0.0) for t in points),
    )


def split_field(formulas, point_values=()):
    """Equal-width pieces on [0, 1] carrying the given formulas in order."""
    m = len(formulas)
    return PiecewiseField(
        tuple(Piece(i / m, (i + 1) / m, f) for i, f in enumerate(formulas)), point_values
    )


def test_eval_examples():
    assert eq.field_eval(eq.constant_field(0.0), 0.3) == 0.0
    assert eq.field_eval(chi_field(), 0.96) == 1.0
    assert is_neg_infinity(eq.field_eval(log_chi_union(), 0.5))


def test_usc_value_at_jump_is_max_of_limits():
    f = chi_field()
    assert eq.field_eval(f, B) == 1.0
    g = log_chi_union()
    assert eq.field_eval(g, 0.4) == 0.0
    assert eq.field_eval(g, 0.6) == 0.0


def test_point_override_spikes_up():
    f = PiecewiseField(
        (Piece(0.0, 1.0, Constant(0.0)),),
        ((0.5, 2.0),),
    )
    assert eq.field_eval(f, 0.5) == 2.0
    assert eq.field_eval(f, 0.5 + 1e-9) == 0.0


def test_usc_at_all_breakpoints(rng):
    # jump fields: the sampled one-sided limits at tau ± 1e-9 stay below the value
    for f in (chi_field(), log_chi_union()):
        for tau in f.knots():
            value = f._value_float(tau)
            for side in (-1e-9, 1e-9):
                t = tau + side
                if 0.0 <= t <= 1.0:
                    assert value >= f._value_float(t) - 1e-9


def test_usc_exact_one_sided_limits():
    # the stored breakpoint value equals the max of the exact one-sided piece
    # limits and any override (sqrt pieces have vertical tangents, so exact
    # limits are the right check there)
    fields = [chi_field(), log_chi_union(), eq.sqrt_affine_field(8.0, -1.0, 1.0)]
    for f in fields:
        for tau in f.knots():
            value = f._value_float(tau)
            limits = [p.formula._value(tau) for p in f.pieces_at(tau)]
            override = dict(f.point_values).get(tau)
            if override is not None:
                limits.append(float(override))
            assert value == max(limits)


def test_domain_error():
    with pytest.raises(eq.DomainError):
        eq.field_eval(eq.constant_field(0.0), 1.5)
    for ts in ([math.nan], [0.5, math.nan], [-0.5, math.nan]):
        with pytest.raises(eq.DomainError):
            eq.constant_field(0.0).values(np.array(ts))


def test_admissible_examples():
    assert eq.field_admissible(eq.constant_field(0.0), 7)
    three_points = points_only_field((0.0, 0.5, 1.0))
    assert not eq.field_admissible(three_points, 2)  # count = 1/2 + 1 + 1/2 = 2
    assert eq.field_admissible(three_points, 1)


def test_admissible_interior_points_count_fully():
    f = points_only_field((0.25, 0.5, 0.75))
    assert eq.field_admissible(f, 2)
    assert not eq.field_admissible(f, 3)


def test_singularity_set_examples():
    assert eq.singularity_set(eq.constant_field(0.0)) == ()
    assert eq.singularity_set(chi_field()) == ()
    segs = eq.singularity_set(log_chi_union())
    assert len(segs) == 1
    seg = segs[0]
    assert (seg.lo, seg.hi) == (0.4, 0.6)
    assert not seg.lo_closed and not seg.hi_closed


def test_singularity_set_closed_end_at_domain_boundary():
    f = PiecewiseField(
        (Piece(0.0, 0.3, NegInfinityPiece()), Piece(0.3, 1.0, Constant(0.0)))
    )
    (seg,) = eq.singularity_set(f)
    assert seg.lo == 0.0 and seg.lo_closed
    assert seg.hi == 0.3 and not seg.hi_closed


def test_singularity_set_merges_across_minus_inf_junction():
    f = PiecewiseField(
        (
            Piece(0.0, 0.2, Constant(0.0)),
            Piece(0.2, 0.5, NegInfinityPiece()),
            Piece(0.5, 0.8, NegInfinityPiece()),
            Piece(0.8, 1.0, Constant(1.0)),
        )
    )
    (seg,) = eq.singularity_set(f)
    assert (seg.lo, seg.hi) == (0.2, 0.8)


def dotted_minus_infinity():
    """−∞ on [0, 1] but for the value 0 at 0.2, 0.5 and 0.8."""
    return PiecewiseField((Piece(0.0, 1.0, NegInfinityPiece()),), ((0.2, 0.0), (0.5, 0.0), (0.8, 0.0)))


def test_finite_overrides_inside_a_minus_infinity_piece_split_its_segment():
    assert eq.singularity_set(dotted_minus_infinity()) == (
        eq.SingularSegment(0.0, 0.2, True, False),
        eq.SingularSegment(0.2, 0.5, False, False),
        eq.SingularSegment(0.5, 0.8, False, False),
        eq.SingularSegment(0.8, 1.0, False, True),
    )
    # a −∞ override splits nothing
    f = PiecewiseField((Piece(0.0, 1.0, NegInfinityPiece()),), ((0.5, NEG_INFINITY),))
    assert eq.singularity_set(f) == (eq.SingularSegment(0.0, 1.0, True, True),)


def test_singularity_isolated_point_from_log_weight():
    weight = eq.sqrt_affine_field(1.0, 1.0, 0.0)  # sqrt(t), zero at t = 0
    logw = log_of_weight_field(weight)
    (seg,) = eq.singularity_set(logw)
    assert seg.is_point and seg.lo == 0.0


def test_log_of_weight_matches_pointwise(rng):
    weight = chi_field()
    logw = log_of_weight_field(weight)
    for t in rng.uniform(0.0, 1.0, size=50):
        w = float(eq.field_eval(weight, float(t)))
        lv = eq.field_eval(logw, float(t))
        if w <= 0.0:
            assert is_neg_infinity(lv)
        else:
            assert float(lv) == pytest.approx(math.log(w))


def test_only_a_zero_weight_level_becomes_minus_infinity():
    for level in (Constant, Indicator):
        zero = PiecewiseField((Piece(0.0, 0.5, level(0.0)), Piece(0.5, 1.0, Constant(1.0))))
        logw = log_of_weight_field(zero)
        assert isinstance(logw.pieces[0].formula, NegInfinityPiece)
        assert logw.value(0.25) == NEG_INFINITY and logw.value(0.75) == 0.0
        negative = PiecewiseField((Piece(0.0, 0.5, level(-1.0)), Piece(0.5, 1.0, Constant(1.0))))
        with pytest.raises(eq.SchemaError):
            log_of_weight_field(negative)
        with pytest.raises(eq.SchemaError):
            eq.gap_norm((0.5,), (1.0,), negative)
        with pytest.raises(eq.SchemaError):
            eq.solve_bojanov(eq.GapProblem((0.0, 1.0), (1.0,), negative))
    negative_point = PiecewiseField((Piece(0.0, 1.0, Constant(1.0)),), ((0.5, -2.0),))
    with pytest.raises(eq.SchemaError):
        log_of_weight_field(negative_point)


def test_vectorized_values_respect_usc():
    f = chi_field()
    ts = np.array([0.0, 0.5, B, 0.99, 1.0])
    np.testing.assert_allclose(f.values(ts), [0.0, 0.0, 1.0, 1.0, 1.0])
    g = log_chi_union()
    vals = g.values(np.array([0.4, 0.5, 0.6]))
    assert vals[0] == 0.0 and vals[2] == 0.0 and vals[1] == -math.inf


def test_validation_errors():
    with pytest.raises(eq.SchemaError):
        PiecewiseField((Piece(0.0, 0.5, Constant(0.0)),))  # does not cover [0, 1]
    with pytest.raises(eq.SchemaError):
        PiecewiseField(
            (Piece(0.0, 0.5, Constant(0.0)), Piece(0.6, 1.0, Constant(0.0)))
        )  # gap
    with pytest.raises(eq.SchemaError):
        Constant(float("inf"))
    with pytest.raises(eq.SchemaError):
        Constant("3")
    # constructors store floats, so no evaluation converts them again
    assert type(eq.Constant(3).c) is float
    assert type(eq.Piece(0, 1, eq.Constant(0.0)).lo) is float
    for bad in (float("nan"), float("inf")):
        with pytest.raises(eq.SchemaError):
            PiecewiseField((Piece(0.0, 1.0, Constant(0.0)),), ((0.5, bad),))
    for point_values in (None, (0.5,), ((0.5, 1.0, 2.0),)):
        with pytest.raises(eq.SchemaError):
            PiecewiseField((Piece(0.0, 1.0, Constant(0.0)),), point_values)
    with pytest.raises(eq.SchemaError):
        PiecewiseField(None)
    with pytest.raises(eq.SchemaError):
        Piece(0, 1, "x")  # not a formula
    with pytest.raises(eq.SchemaError):
        PiecewiseField(((0.0, 1.0, Constant(0.0)),))  # a tuple, not a Piece
    with pytest.raises(eq.SchemaError):
        LogOfWeight("x")  # not a weight formula
    for intervals in (None, [(0.2, 0.4, 0.6)], [0.2]):
        with pytest.raises(eq.SchemaError):
            eq.indicator_field(intervals)
    with pytest.raises(eq.SchemaError):
        eq.constant_field(0.0, domain=(0.0, 1.0, 2.0))
    for make in (
        lambda d: eq.constant_field(0.0, domain=d),
        lambda d: eq.sqrt_affine_field(2.0, 1.0, 0.0, domain=d),
        lambda d: eq.indicator_field([(0.2, 0.4)], domain=d),
    ):
        with pytest.raises(eq.SchemaError):
            make(None)
    for n in ("2", True, 2.5, 0):
        with pytest.raises(eq.SchemaError):
            eq.field_admissible(eq.constant_field(0.0), n)
    with pytest.raises(eq.SchemaError):
        log_of_weight_field(None)


ALL_FORMULAS = [
    Constant(-0.5),
    NegInfinityPiece(),
    Indicator(2.0),
    SqrtAffine(8.0, -1.0, 1.0),
    LogOfWeight(Constant(2.0)),
    LogOfWeight(SqrtAffine(1.0, 1.0, 0.0)),
]


@pytest.mark.parametrize("formula", ALL_FORMULAS, ids=repr)
def test_formula_json_roundtrip(formula):
    doc = formula.to_json()
    assert doc["kind"] == formula.kind
    assert formula_from_json(json.loads(json.dumps(doc))) == formula


def test_nested_formula_is_its_own_document():
    doc = LogOfWeight(SqrtAffine(1.0, 1.0, 0.0)).to_json()
    assert doc == {"kind": "LogOfWeight", "weight": {"kind": "SqrtAffine", "c": 1.0, "s": 1.0, "t0": 0.0}}


def test_every_exported_formula_kind_is_readable():
    from equiosc.fields import _FORMULAS

    exported = {c for c in vars(eq).values() if isinstance(c, type) and issubclass(c, eq.Formula) and c.kind}
    assert exported == set(_FORMULAS.values()) == {type(f) for f in ALL_FORMULAS}
    assert all(_FORMULAS[c.kind] is c for c in exported)


def test_json_roundtrip():
    merged = (
        split_field([Constant(0.3)] * 5),
        split_field([Constant(0.3)] * 4, ((0.5, 2.0),)),
        split_field([NegInfinityPiece(), NegInfinityPiece(), Indicator(1.0), Indicator(1.0)]),
    )
    for f in (chi_field(), log_chi_union(), eq.sqrt_affine_field(8.0, -1.0, 1.0), *merged):
        doc = eq.field_to_json(f)
        assert len(doc["pieces"]) == len(f.pieces)  # the merged pieces are written
        again = eq.field_from_json(doc)
        assert again == f


@pytest.mark.parametrize(
    "doc",
    [
        {"pieces": [{"lo": 0.0, "hi": 1.0, "formula": {"kind": "Constant", "c": "abc"}}]},
        {"pieces": [{"lo": "x", "hi": 1.0, "formula": {"kind": "Constant", "c": 0.0}}]},
        {"pieces": [{"lo": 0.0, "hi": 1.0, "formula": {"kind": "Constant"}}]},
        {
            "pieces": [{"lo": 0.0, "hi": 1.0, "formula": {"kind": "Constant", "c": 0.0}}],
            "point_values": [[0.5, "high"]],
        },
        {
            "pieces": [{"lo": 0.0, "hi": 1.0, "formula": {"kind": "Constant", "c": 0.0}}],
            "point_values": [[0.5]],
        },
        {"kind": "Constant"},
        {"kind": "Constant", "c": "abc"},
        {
            "pieces": [{"lo": 0.0, "hi": 1.0, "formula": {"kind": "Constant", "c": 0.0}}],
            "point_values": [[0.5, float("nan")]],
        },
        {
            "pieces": [{"lo": 0.0, "hi": 1.0, "formula": {"kind": "Constant", "c": 0.0}}],
            "point_values": [[0.5, float("inf")]],
        },
        {"kind": "Constant", "c": "3"},
        {"pieces": [{"lo": 0.0, "hi": 1.0, "formula": {"kind": "Constant", "c": "3"}}]},
        {"kind": "Indicator", "value": 1.0, "c": 1.0},
        {"kind": "LogOfWeight", "weight": {"kind": "Constant", "c": 1.0, "s": 1.0}},
        {"kind": "LogOfWeight", "weight": "Constant"},
        {"kind": "Sine"},
        {"pieces": [{"lo": 0.0, "hi": 1.0}]},
        {"pieces": [{"lo": 0.0, "hi": 1.0, "formula": {"kind": "Constant", "c": 0.0}}], "point_values": None},
        {"pieces": [{"lo": 0.0, "hi": 1.0, "formula": {"kind": "Constant", "c": 0.0}}], "point_values": [[None, 0.0]]},
        {"pieces": [{"lo": 0.0, "hi": 1.0, "formula": {"kind": "Constant", "c": 0.0}}], "point_values": [0.5]},
        {"point_values": []},
    ],
)
def test_malformed_json_raises_schema_error(doc):
    # field documents, then formula documents read directly
    parse = formula_from_json if "kind" in doc else eq.field_from_json
    with pytest.raises(eq.SchemaError):
        parse(doc)


def _scan_pieces_at(field, t):
    return tuple(p for p in field.pieces if p.lo <= t <= p.hi)


def _scan_piece_over(field, lo, hi):
    mid = 0.5 * (lo + hi)
    for p in field.pieces:
        if p.lo <= mid <= p.hi:
            return p
    return None


def _scan_value(field, t):
    best = float("-inf")
    for p in _scan_pieces_at(field, t):
        best = max(best, p.formula._value(t))
    for tau, v in field.point_values:
        if tau == t:
            best = max(best, float("-inf") if is_neg_infinity(v) else float(v))
    return best


def test_piece_lookup_matches_linear_scan(rng):
    for _ in range(40):
        m = int(rng.integers(1, 40))
        knots = [0.0, *np.sort(rng.uniform(0.0, 1.0, m - 1)).tolist(), 1.0]
        formulas = [Constant(float(rng.uniform(-2.0, 2.0))), Indicator(1.5), NegInfinityPiece()]
        pieces = tuple(
            Piece(lo, hi, formulas[int(rng.integers(0, 3))]) for lo, hi in zip(knots, knots[1:])
        )
        overrides = tuple(
            (float(t), NEG_INFINITY if rng.uniform() < 0.3 else float(rng.uniform(-1.0, 3.0)))
            for t in rng.choice(knots, size=min(3, len(knots)), replace=False)
        )
        field = PiecewiseField(pieces, overrides)
        between = [0.5 * (a + b) for a, b in zip(knots, knots[1:])]
        outside = [-0.5, -1e-300, 1.0 + 1e-15, 2.0, float("nan")]
        for t in knots + between + rng.uniform(0.0, 1.0, 20).tolist() + outside:
            assert field.pieces_at(t) == _scan_pieces_at(field, t)
            if 0.0 <= t <= 1.0:
                assert field._value_float(t) == _scan_value(field, t)
        spans = list(zip(knots, knots[1:])) + [(knots[i], knots[i]) for i in range(len(knots))]
        spans += [tuple(sorted(rng.uniform(0.0, 1.0, 2).tolist())) for _ in range(10)]
        for lo, hi in spans:
            assert field.piece_over(lo, hi) is _scan_piece_over(field, lo, hi)
        for lo, hi in [(-1.0, -0.5), (1.5, 2.0), (float("nan"), 0.5)]:
            assert _scan_piece_over(field, lo, hi) is None
            with pytest.raises(eq.DomainError):
                field.piece_over(lo, hi)


# -- merging equal adjacent pieces ----------------------------------------------

def test_equal_constant_pieces_merge_into_one():
    field = split_field([Constant(0.3)] * 200)
    assert field.pieces == (Piece(0.0, 1.0, Constant(0.3)),)
    assert field.knots() == (0.0, 1.0) and field.interior_knots() == ()
    assert field.value(0.5) == 0.3 and field.value(1.0) == 0.3


def test_override_on_a_shared_knot_blocks_that_merge():
    field = split_field([Constant(0.3)] * 4, ((0.5, 2.0), (0.6, NEG_INFINITY)))
    assert [(p.lo, p.hi) for p in field.pieces] == [(0.0, 0.5), (0.5, 1.0)]
    assert field.value(0.5) == 2.0 and field.value(0.25) == 0.3
    assert field.value(0.6) == 0.3  # an override below the piece value changes nothing


def test_unequal_or_non_concave_pieces_stay_apart():
    convex = SqrtAffine(-0.5, 1.0, 0.0)  # −0.5·√t is convex: scanned, never merged
    assert not convex.concave
    assert len(split_field([convex] * 3).pieces) == 3
    # equal levels in different formula kinds are different formulas
    assert len(split_field([Constant(0.3), Indicator(0.3)] * 2).pieces) == 4
    assert len(split_field([SqrtAffine(0.5, 1.0, 0.0)] * 3).pieces) == 1


def test_minus_infinity_runs_merge_with_the_same_singular_set():
    field = split_field(
        [Constant(0.0), NegInfinityPiece(), NegInfinityPiece(), NegInfinityPiece(), Constant(1.0)]
    )
    assert [(p.lo, p.hi) for p in field.pieces] == [(0.0, 0.2), (0.2, 0.8), (0.8, 1.0)]
    assert field.singular_segments() == (eq.SingularSegment(0.2, 0.8, False, False),)
    assert field.finiteness_count() == math.inf
    dotted = split_field([NegInfinityPiece()] * 4, ((0.5, 0.0), (1.0, 0.0)))
    assert [(p.lo, p.hi) for p in dotted.pieces] == [(0.0, 0.5), (0.5, 1.0)]
    assert dotted.singular_segments() == (
        eq.SingularSegment(0.0, 0.5, True, False),
        eq.SingularSegment(0.5, 1.0, False, False),
    )
    assert dotted.finiteness_count() == 1.5
    assert split_field([NegInfinityPiece()] * 4).singular_segments() == (
        eq.SingularSegment(0.0, 1.0, True, True),
    )


_FORMULAS = (
    Constant(0.3),
    Indicator(0.3),
    Constant(-1.0),
    NegInfinityPiece(),
    SqrtAffine(1.5, 1.0, 0.0),
    SqrtAffine(-0.5, 1.0, 0.0),
    LogOfWeight(SqrtAffine(2.0, -1.0, 1.0)),
)
_unit = st.floats(0.0, 1.0)


@st.composite
def repeated_formula_fields(draw, pool=_FORMULAS):
    """(pieces, overrides, probe points): a few formulas drawn with repeats over random knots."""
    inner = sorted(draw(st.lists(st.floats(0.01, 0.99), max_size=10, unique=True)))
    knots = [0.0, *inner, 1.0]
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    formulas = draw(st.lists(st.sampled_from(chosen), min_size=len(knots) - 1, max_size=len(knots) - 1))
    pieces = tuple(Piece(lo, hi, f) for lo, hi, f in zip(knots, knots[1:], formulas))
    overrides = draw(
        st.lists(
            st.tuples(st.sampled_from(knots) | _unit, st.sampled_from([NEG_INFINITY, -2.0, 0.3, 5.0])),
            max_size=3,
            unique_by=lambda tv: tv[0],
        )
    )
    probes = knots + draw(st.lists(_unit, max_size=10))
    return pieces, tuple(overrides), probes


@given(repeated_formula_fields())
def test_merged_field_evaluates_as_the_unmerged_one(drawn):
    pieces, overrides, probes = drawn
    merged, reference = PiecewiseField(pieces, overrides), UnmergedField(pieces, overrides)
    assert len(merged.pieces) <= len(pieces)
    for t in probes:
        assert merged.value(t) == reference.value(t), t
    np.testing.assert_array_equal(merged.values(np.array(probes)), reference.values(np.array(probes)))


@given(
    repeated_formula_fields(pool=(Constant(0.3), Constant(-1.0), Constant(0.7))),
    st.lists(st.floats(0.02, 0.98), min_size=1, max_size=3, unique=True),
)
def test_merged_field_maxima_match_an_unmergeable_twin(drawn, nodes):
    """Interval maxima agree with the same levels on alternating Constant / Indicator pieces."""
    pieces, overrides, _ = drawn
    twin = tuple(
        Piece(p.lo, p.hi, Indicator(p.formula.c) if i % 2 else p.formula) for i, p in enumerate(pieces)
    )
    assert len(PiecewiseField(twin, overrides).pieces) == len(pieces)
    nodes = sorted(nodes)
    n = len(nodes)
    got, want = (
        eq.interval_maxima(eq.Problem(n, (1.0,) * n, eq.Log(), PiecewiseField(ps, overrides)), nodes)
        for ps in (pieces, twin)
    )
    for m, w in zip(got.as_floats(), want.as_floats()):
        assert m == w or abs(m - w) <= 1e-12 * max(1.0, abs(w)), (m, w)


CONCAVE_FORMULAS = {
    "Constant": (Constant(0.7), (0.0, 1.0)),
    "Indicator": (Indicator(-1.5), (0.0, 1.0)),
    "SqrtAffine up": (SqrtAffine(2.5, 1.0, 0.0), (0.0, 1.0)),
    "SqrtAffine down": (SqrtAffine(0.5, -3.0, 1.0), (0.0, 1.0)),
    "LogOfWeight Constant": (LogOfWeight(Constant(2.0)), (0.0, 1.0)),
    "LogOfWeight Indicator": (LogOfWeight(Indicator(0.5)), (0.0, 1.0)),
    "LogOfWeight SqrtAffine": (LogOfWeight(SqrtAffine(1.5, 2.0, 0.1)), (0.1, 1.0)),
}


@pytest.mark.parametrize("formula, span", CONCAVE_FORMULAS.values(), ids=CONCAVE_FORMULAS.keys())
def test_formula_derivatives_match_central_differences(formula, span):
    """(f′, f″) of each concave formula: f′ against a central difference of the value, f″ of f′."""
    assert formula.concave
    rng = np.random.default_rng(23)
    h = 1e-6
    lo, hi = span
    for t in map(float, rng.uniform(lo + 0.01, hi - 0.01, size=200)):
        d1, d2 = formula._derivatives(t)
        central1 = (formula._value(t + h) - formula._value(t - h)) / (2.0 * h)
        central2 = (formula._derivatives(t + h)[0] - formula._derivatives(t - h)[0]) / (2.0 * h)
        # the central quotients' truncation, h²/6 times the next derivative, is far below these bounds
        assert abs(d1 - central1) <= 1e-8 * max(1.0, abs(d1)), t
        assert abs(d2 - central2) <= 1e-6 * max(1.0, abs(d2)), t
    if isinstance(formula, (Constant, Indicator)):
        assert formula._derivatives(0.5) == (0.0, 0.0)


def test_formula_derivatives_at_a_zero_of_the_weight_do_not_raise():
    """A SqrtAffine piece may reach 1e-12 past its zero: there the slope is infinite, with the sign of c·s.

    It points into the support where c > 0, and out of it on a convex piece
    (c < 0). A zero weight under LogOfWeight is −∞, and its slope is taken as 0.
    """
    assert SqrtAffine(1.0, 1.0, 5e-13)._derivatives(1e-13) == (math.inf, 0.0)
    assert SqrtAffine(2.0, -1.0, 0.5)._derivatives(0.5) == (-math.inf, 0.0)
    assert SqrtAffine(-1.0, 1.0, 0.0)._derivatives(0.0) == (-math.inf, 0.0)
    assert SqrtAffine(-2.0, -1.0, 0.5)._derivatives(0.5) == (math.inf, 0.0)
    assert LogOfWeight(Constant(0.0))._derivatives(0.3) == (0.0, 0.0)
    assert LogOfWeight(SqrtAffine(1.0, 1.0, 5e-13))._derivatives(1e-13) == (0.0, 0.0)
