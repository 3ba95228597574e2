"""Piecewise-defined external field functions.

A field is an upper semicontinuous function J: [lo, hi] → R ∪ {−∞} stored as
an ordered list of closed-form pieces plus optional isolated point overrides.
The value at a breakpoint is the maximum of the one-sided piece limits and any
override there, which makes every constructible field usc by definition.

Pieces are found by knot index alone: piece i spans [knots[i], knots[i+1]],
a point t takes the piece from t on (and, at a knot, the piece ending there
too), and a segment [c, d] between two cuts takes the piece it starts in,
the piece from c on. The maxima searches and the union mask of
``applications`` cut segments so, and a segment one float wide beside a
knot takes the formula of the piece it lies in.

The closed-form family (constants, indicator levels, c·sqrt(s(t−t0)), logs of
such non-negative weights, identically −∞ stretches) is small on purpose:
breakpoints are exact, so per-piece maximization and singularity-set geometry
are sound. Arbitrary callables are not accepted.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, SchemaError
from .extreal import NEG_INFINITY, ExtReal, _arguments, _count, _from_document, _instance, _real, _reals
from .extreal import _sequence, _tagged, _to_document, as_extreal, is_neg_infinity

__all__ = [
    "Constant",
    "Formula",
    "Indicator",
    "LogOfWeight",
    "NegInfinityPiece",
    "Piece",
    "PiecewiseField",
    "SingularSegment",
    "SqrtAffine",
    "constant_field",
    "field_admissible",
    "field_eval",
    "field_from_json",
    "field_to_json",
    "indicator_field",
    "log_of_weight_field",
    "singularity_set",
    "sqrt_affine_field",
]

_EPS_DOMAIN = 1e-12


class Formula:
    """One closed-form branch of a piecewise field."""

    kind: str = ""

    def _value(self, t: float) -> float:
        raise NotImplementedError

    def _derivatives(self, t: float) -> tuple[float, float]:
        """(f′(t), f″(t)) inside the branch's domain: the field's part of the slope search on a piece."""
        raise NotImplementedError

    @property
    def concave(self) -> bool:
        """Whether this branch is concave on any interval inside its domain."""
        raise NotImplementedError

    def _validate_on(self, lo: float, hi: float) -> None:
        """Reject pieces whose formula is undefined somewhere on [lo, hi]."""

    def _neg_inf_on(self, lo: float, hi: float) -> tuple[str, tuple[float, ...]]:
        """(“all” | “points” | “none”, zero locations) for the −∞ set on [lo, hi]."""
        return ("none", ())

    def to_json(self) -> dict:
        """``kind`` and the constructor's arguments by name; a nested formula is written as its own document."""
        return {"kind": self.kind, **_to_document(self, Formula, Formula.to_json)}


@dataclass(frozen=True)
class Constant(Formula):
    c: float
    kind = "Constant"

    def __post_init__(self):
        object.__setattr__(self, "c", _real(self.c, "Constant level"))

    def _value(self, t):
        return self.c

    def _values(self, t):
        return np.full(np.shape(t), self.c)

    def _derivatives(self, t):
        return 0.0, 0.0

    @property
    def concave(self):
        return True


@dataclass(frozen=True)
class NegInfinityPiece(Formula):
    kind = "NegInfinity"

    def _value(self, t):
        return NEG_INFINITY

    def _values(self, t):
        return np.full(np.shape(t), NEG_INFINITY)

    @property
    def concave(self):
        return True

    def _neg_inf_on(self, lo, hi):
        return ("all", ())


@dataclass(frozen=True)
class Indicator(Formula):
    """A constant level carried by an indicator-style jump piece."""

    value: float
    kind = "Indicator"

    def __post_init__(self):
        object.__setattr__(self, "value", _real(self.value, "Indicator level"))

    def _value(self, t):
        return self.value

    def _values(self, t):
        return np.full(np.shape(t), self.value)

    def _derivatives(self, t):
        return 0.0, 0.0

    @property
    def concave(self):
        return True


@dataclass(frozen=True)
class SqrtAffine(Formula):
    """c · sqrt(s·(t − t0)); requires s·(t − t0) ≥ 0 on the hosting piece."""

    c: float
    s: float
    t0: float
    kind = "SqrtAffine"

    def __post_init__(self):
        for name in ("c", "s", "t0"):
            object.__setattr__(self, name, _real(getattr(self, name), f"SqrtAffine parameter {name}"))
        if self.s == 0.0:
            raise SchemaError("SqrtAffine slope s must be non-zero")

    def _arg(self, t: float) -> float:
        return self.s * (t - self.t0)

    def _value(self, t):
        arg = self._arg(t)
        if arg < 0.0:
            if arg < -_EPS_DOMAIN:
                raise DomainError("sqrt argument negative inside a SqrtAffine piece")
            arg = 0.0
        return self.c * math.sqrt(arg)

    def _values(self, t):
        arg = self.s * (np.asarray(t, dtype=float) - self.t0)
        return self.c * np.sqrt(np.maximum(arg, 0.0))

    def _derivatives(self, t):
        arg = self._arg(t)
        if arg <= 0.0:  # at the zero, or in the domain slack past it: the slope is ±∞ along c·s
            return (math.copysign(math.inf, self.c * self.s) if self.c else 0.0), 0.0
        d1 = 0.5 * self.c * self.s / math.sqrt(arg)
        return d1, -0.5 * d1 * self.s / arg

    @property
    def concave(self):
        return self.c >= 0.0

    def _validate_on(self, lo, hi):
        if min(self._arg(lo), self._arg(hi)) < -_EPS_DOMAIN:
            raise SchemaError("SqrtAffine piece extends past the zero of its argument")


@dataclass(frozen=True)
class LogOfWeight(Formula):
    """log of a non-negative closed-form weight; −∞ exactly at the weight's zeros."""

    weight: Formula
    kind = "LogOfWeight"

    def __post_init__(self):
        weight = _instance(self.weight, Formula, "LogOfWeight weight")
        if isinstance(weight, (NegInfinityPiece, LogOfWeight)):
            raise SchemaError("LogOfWeight expects a plain non-negative weight formula")

    def _value(self, t):
        w = self.weight._value(t)
        if w <= 0.0:
            if w < -_EPS_DOMAIN:
                raise DomainError("negative weight under LogOfWeight")
            return NEG_INFINITY
        return math.log(w)

    def _values(self, t):
        w = self.weight._values(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(np.maximum(w, 0.0))
        return out

    def _derivatives(self, t):
        w = self.weight._value(t)
        if w <= 0.0:  # a zero of the weight, where the value is −∞
            return 0.0, 0.0
        d1, d2 = self.weight._derivatives(t)
        return d1 / w, (d2 - d1 * d1 / w) / w

    @property
    def concave(self):
        # log of the supported weight branches (positive constants/indicator
        # levels, non-negative sqrt-affine arcs) is concave.
        return self.weight.concave

    def _validate_on(self, lo, hi):
        self.weight._validate_on(lo, hi)
        for t in (lo, hi):
            w = self.weight._value(t)
            if w < -_EPS_DOMAIN:
                raise SchemaError("weight under LogOfWeight must be non-negative")

    def _neg_inf_on(self, lo, hi):
        w = self.weight
        if isinstance(w, Constant) and w.c <= 0.0:
            return ("all", ())
        if isinstance(w, Indicator) and w.value <= 0.0:
            return ("all", ())
        if isinstance(w, SqrtAffine):
            if w.c == 0.0:
                return ("all", ())
            if lo <= w.t0 <= hi:
                return ("points", (w.t0,))
        return ("none", ())


# every concrete kind, by name: a formula the library writes is one it can read
_FORMULAS = {f.kind: f for f in (Constant, NegInfinityPiece, Indicator, SqrtAffine, LogOfWeight)}


def formula_from_json(doc: dict) -> Formula:
    """The formula ``{"kind": …, …}`` names; its other keys are the constructor's arguments."""
    cls = _tagged(_FORMULAS, doc, "kind", "formula")
    return _from_document(cls, doc, formula_from_json, tag="kind")


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    formula: Formula

    def __post_init__(self):
        lo, hi = _real(self.lo, "piece end lo"), _real(self.hi, "piece end hi")
        if not lo < hi:
            raise SchemaError(f"piece needs lo < hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        _instance(self.formula, Formula, "piece formula")._validate_on(lo, hi)


@dataclass(frozen=True)
class SingularSegment:
    """One maximal component of the −∞ set, with endpoint membership flags."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class PiecewiseField:
    """Upper semicontinuous field on a closed interval, as contiguous pieces.

    Adjacent pieces with one concave formula and no override on their shared
    knot are stored merged, as one piece.
    """

    pieces: tuple[Piece, ...]
    point_values: tuple[tuple[float, ExtReal], ...] = ()
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        lo, hi = ends = _domain(self.domain)
        object.__setattr__(self, "domain", ends)
        pieces = [_instance(p, Piece, "piece") for p in _sequence(self.pieces, "pieces")]
        if not pieces:
            raise SchemaError("field needs at least one piece")
        if pieces[0].lo != lo or pieces[-1].hi != hi:
            raise SchemaError("pieces must cover the domain exactly")
        for left, right in zip(pieces, pieces[1:]):
            if left.hi != right.lo:
                raise SchemaError("pieces must be contiguous without gaps or overlaps")
        cleaned = []
        for pair in _sequence(self.point_values, "point overrides"):
            pair = _sequence(pair, "point override")
            if len(pair) != 2:
                raise SchemaError(f"point overrides must be pairs (t, value), got {pair!r}")
            t, v = pair
            t = _real(t, "point override location")
            if not (lo <= t <= hi):
                raise SchemaError("point override outside the domain")
            cleaned.append((t, as_extreal(v)))
        cleaned.sort(key=lambda p: p[0])
        overrides = dict(cleaned)
        if len(overrides) != len(cleaned):
            raise SchemaError("duplicate point overrides")
        object.__setattr__(self, "point_values", tuple(cleaned))
        object.__setattr__(self, "_overrides", overrides)
        # the usc value at a knot between equal pieces is the formula's own, so
        # merging them changes no value and spares each interval maximum a piece;
        # non-concave pieces stay apart, since each is scanned at fixed resolution
        merged = [pieces[0]]
        for p in pieces[1:]:
            last = merged[-1]
            if p.formula == last.formula and p.formula.concave and p.lo not in overrides:
                merged[-1] = Piece(last.lo, p.hi, p.formula)
            else:
                merged.append(p)
        object.__setattr__(self, "pieces", tuple(merged))
        # piece i spans [_knots[i], _knots[i + 1]]; lookups bisect this tuple
        object.__setattr__(self, "_knots", (merged[0].lo, *(p.hi for p in merged)))

    # -- geometry ----------------------------------------------------------
    def knots(self) -> tuple[float, ...]:
        """All piece boundaries, domain endpoints included."""
        return self._knots

    def interior_knots(self) -> tuple[float, ...]:
        return tuple(p.hi for p in self.pieces[:-1])

    def override_points(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.point_values)

    # -- evaluation ---------------------------------------------------------
    def _value_float(self, t: float) -> float:
        """The usc value at t: the largest of the piece from t on, the piece ending at t and t's override."""
        knots, pieces = self._knots, self.pieces
        i = bisect_right(knots, t) - 1  # knots[i] <= t < knots[i + 1]; i = len(pieces) at hi, past it and at NaN
        best = NEG_INFINITY
        if i > 0 and t == knots[i]:
            best = pieces[i - 1].formula._value(t)
        if 0 <= i < len(pieces):
            v = pieces[i].formula._value(t)
            if v > best:
                best = v
        ov = self._overrides.get(t, NEG_INFINITY)
        return ov if ov > best else best

    def value(self, t: float) -> ExtReal:
        t = _real(t, "field argument", DomainError)
        lo, hi = self.domain
        if t < lo or t > hi:
            raise DomainError(f"field argument {t!r} outside [{lo}, {hi}]")
        return as_extreal(self._value_float(t))

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized usc evaluation; −∞ appears as IEEE -inf."""
        ts = np.asarray(ts, dtype=float)
        lo, hi = self.domain
        if ts.size and not (lo <= ts.min() and ts.max() <= hi):  # False for NaN too
            raise DomainError("field argument outside the domain")
        out = np.full(ts.shape, NEG_INFINITY)
        for p in self.pieces:
            mask = (ts >= p.lo) & (ts <= p.hi)
            if mask.any():
                out[mask] = np.maximum(out[mask], p.formula._values(ts[mask]))
        for tau, ov in self.point_values:
            mask = ts == tau
            if mask.any():
                out[mask] = np.maximum(out[mask], ov)
        return out

    # -- structure ----------------------------------------------------------
    def singular_segments(self) -> tuple[SingularSegment, ...]:
        cores: list[tuple[float, float]] = []
        candidate_points: list[float] = []
        for p in self.pieces:
            mode, pts = p.formula._neg_inf_on(p.lo, p.hi)
            if mode == "all":
                cores.append((p.lo, p.hi))
            elif mode == "points":
                candidate_points.extend(pts)

        def minus_inf_at(t: float) -> bool:
            return self._value_float(t) == NEG_INFINITY

        merged: list[list[float]] = []
        for lo, hi in sorted(cores):
            if merged and merged[-1][1] == lo and minus_inf_at(lo):
                merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        # a finite override strictly inside a core splits it, open on both sides there
        segments = []
        for lo, hi in merged:
            ends = [lo, *(t for t, v in self.point_values if lo < t < hi and v > NEG_INFINITY), hi]
            for c, d in zip(ends, ends[1:]):
                segments.append(SingularSegment(c, d, c == lo and minus_inf_at(c), d == hi and minus_inf_at(d)))
        for t in sorted(set(candidate_points)):
            if not minus_inf_at(t):
                continue
            if any(seg.lo <= t <= seg.hi for seg in segments):
                continue
            segments.append(SingularSegment(t, t, True, True))
        segments.sort(key=lambda s: (s.lo, s.hi))
        return tuple(segments)

    def finiteness_count(self) -> float:
        """Weighted count of finiteness points (endpoints weigh 1/2); may be inf."""
        for p in self.pieces:
            mode, _ = p.formula._neg_inf_on(p.lo, p.hi)
            if mode != "all":
                return math.inf
        lo, hi = self.domain
        count = 0.0
        candidates = set(self.knots()) | set(self.override_points())
        for t in candidates:
            if self._value_float(t) > NEG_INFINITY:
                count += 0.5 if t in (lo, hi) else 1.0
        return count


# -- module-level operations -------------------------------------------------

def field_eval(field: PiecewiseField, t: float) -> ExtReal:
    return _instance(field, PiecewiseField, "field").value(t)


def field_admissible(field: PiecewiseField, n: int) -> bool:
    """True iff the weighted count of finiteness points exceeds n."""
    if _count(n, "n") < 1:
        raise SchemaError("n must be a positive integer")
    return _instance(field, PiecewiseField, "field").finiteness_count() > n


def singularity_set(field: PiecewiseField) -> tuple[SingularSegment, ...]:
    return _instance(field, PiecewiseField, "field").singular_segments()


# -- constructors -------------------------------------------------------------

def _domain(domain) -> tuple[float, float]:
    """domain as floats if it is a non-degenerate pair (lo, hi) of finite reals, else SchemaError."""
    ends = _reals(domain, "domain end")
    if len(ends) != 2 or not ends[0] < ends[1]:
        raise SchemaError(f"field domain must be a non-degenerate pair (lo, hi), got {domain!r}")
    return ends


def constant_field(c: float, domain=(0.0, 1.0)) -> PiecewiseField:
    lo, hi = domain = _domain(domain)
    return PiecewiseField((Piece(lo, hi, Constant(c)),), domain=domain)


def sqrt_affine_field(c: float, s: float, t0: float, domain=(0.0, 1.0)) -> PiecewiseField:
    lo, hi = domain = _domain(domain)
    return PiecewiseField((Piece(lo, hi, SqrtAffine(c, s, t0)),), domain=domain)


def indicator_field(
    intervals: Sequence[tuple[float, float]],
    inside: float = 1.0,
    outside: float = 0.0,
    domain=(0.0, 1.0),
) -> PiecewiseField:
    """Field equal to `inside` on the given closed intervals, `outside` elsewhere.

    Both levels are finite reals (``None`` raises SchemaError). For −∞
    outside, build the weight with outside = 0 and take
    :func:`log_of_weight_field` of it.
    """
    lo, hi = domain = _domain(domain)
    pieces: list[Piece] = []
    cursor = lo
    spans = sorted(_reals(ab, "interval end") for ab in _sequence(intervals, "intervals"))
    for span in spans:
        if len(span) != 2:
            raise SchemaError(f"each interval must be a pair (a, b), got {span!r}")
        a, b = span
        if a < cursor - 1e-15:
            raise SchemaError("indicator intervals must be disjoint and sorted")
        if a > cursor:
            pieces.append(Piece(cursor, a, Constant(outside)))
        pieces.append(Piece(max(a, cursor), b, Indicator(inside)))
        cursor = b
    if cursor < hi:
        pieces.append(Piece(cursor, hi, Constant(outside)))
    return PiecewiseField(tuple(pieces), domain=domain)


def log_of_weight_field(weight: PiecewiseField) -> PiecewiseField:
    """log ∘ weight, piece by piece; zero-weight stretches become −∞ pieces.

    Negative levels and point values are not weights: they raise SchemaError.
    """
    pieces = []
    for p in _instance(weight, PiecewiseField, "weight").pieces:
        f = p.formula
        if isinstance(f, NegInfinityPiece):
            raise SchemaError("weights take values in [0, ∞); −∞ pieces are not weights")
        if isinstance(f, LogOfWeight):
            raise SchemaError("weight already contains logs; expected plain weight pieces")
        log_f = LogOfWeight(f)
        if isinstance(f, (Constant, Indicator)):
            level = f.c if isinstance(f, Constant) else f.value
            if level < 0.0:
                raise SchemaError(f"weight level {level!r} is negative")
            if level == 0.0:
                log_f = NegInfinityPiece()
        pieces.append(Piece(p.lo, p.hi, log_f))
    if any(v < 0.0 for _, v in weight.point_values):
        raise SchemaError("weight point values must be non-negative")
    point_values = tuple(
        (t, math.log(v) if v > 0.0 else NEG_INFINITY) for t, v in weight.point_values
    )
    return PiecewiseField(tuple(pieces), point_values, domain=weight.domain)


def affine_transport(field: PiecewiseField, a: float, width: float) -> PiecewiseField:
    """Pull a field on [a, a+width] back to [0, 1] via t = a + width·u."""
    _instance(field, PiecewiseField, "field")
    if width <= 0.0:
        raise SchemaError("affine transport needs positive width")

    def move_formula(f: Formula) -> Formula:
        if isinstance(f, SqrtAffine):
            return SqrtAffine(f.c, f.s * width, (f.t0 - a) / width)
        if isinstance(f, LogOfWeight):
            return LogOfWeight(move_formula(f.weight))
        return f

    def move_point(t: float) -> float:
        return (t - a) / width

    ends = (0.0, *(move_point(t) for t in field.interior_knots()), 1.0)  # an exact cover of [0, 1]
    pieces = tuple(Piece(c, d, move_formula(p.formula)) for c, d, p in zip(ends, ends[1:], field.pieces))
    point_values = tuple((move_point(t), v) for t, v in field.point_values)
    return PiecewiseField(pieces, point_values)


# -- JSON ---------------------------------------------------------------------

def field_to_json(field: PiecewiseField) -> dict:
    _instance(field, PiecewiseField, "field")
    return {
        "pieces": [_to_document(p, Formula, Formula.to_json) for p in field.pieces],
        "point_values": [
            [t, None if is_neg_infinity(v) else v] for t, v in field.point_values
        ],
    }


def field_from_json(doc: dict, domain=(0.0, 1.0)) -> PiecewiseField:
    """The field on ``domain`` whose pieces and point values a document holds; ``null`` is −∞."""
    doc = _arguments(doc, PiecewiseField, given=("domain",))
    pieces = [_from_document(Piece, p, formula_from_json) for p in _sequence(doc["pieces"], "pieces")]
    point_values = [  # a null value is −∞; a null location stays None, for _real to refuse
        [NEG_INFINITY if i and v is None else v for i, v in enumerate(_sequence(pair, "point override"))]
        for pair in _sequence(doc.get("point_values", ()), "point overrides")
    ]
    return PiecewiseField(pieces, point_values, domain=domain)
