import gc
import json
import math
import weakref

import numpy as np
import pytest

import equiosc as eq
from equiosc.extreal import NEG_INFINITY, is_neg_infinity
from equiosc.kernels import KernelSpec, scalar_fn
from golden_reference import kernel_sum, slope_sum

ALL_KERNELS = [
    eq.Log(),
    eq.CappedLog(0.25),
    eq.SqrtShift(),
    eq.TentLog(),
    eq.CappedLogPlusQuadratic(0.1),
    eq.Regularized(eq.CappedLog(0.25), 0.5),
    eq.Regularized(eq.Log(), 0.1),
]


def test_eval_examples():
    assert eq.kernel_eval(eq.Log(), 1.0) == 0.0
    assert eq.kernel_eval(eq.CappedLog(0.25), 0.25) == 0.0
    assert eq.kernel_eval(eq.TentLog(), 0.1) == 0.0
    assert is_neg_infinity(eq.kernel_eval(eq.Log(), 0.0))


def test_eval_limit_values_at_endpoints():
    assert eq.kernel_eval(eq.Log(), -1.0) == 0.0
    assert eq.kernel_eval(eq.SqrtShift(), 1.0) == pytest.approx(math.sqrt(5.0))
    assert is_neg_infinity(eq.kernel_eval(eq.TentLog(), 1.0))
    assert eq.kernel_eval(eq.CappedLogPlusQuadratic(0.1), 1.0) == pytest.approx(-1.0)


def test_domain_error():
    with pytest.raises(eq.DomainError):
        eq.kernel_eval(eq.Log(), 1.0000001)
    with pytest.raises(eq.DomainError):
        eq.kernel_values(eq.Log(), np.array([0.5, -1.5]))
    with pytest.raises(eq.DomainError):
        eq.kernel_values(eq.Log(), np.array([0.5, math.nan]))
    for not_reals in ("abc", [0.5, "x"]):
        with pytest.raises(eq.DomainError):
            eq.kernel_values(eq.Log(), not_reals)


@pytest.mark.parametrize(
    "kernel, singular, monotone, strictly_monotone, strictly_concave",
    [
        (eq.Log(), True, True, True, True),
        (eq.CappedLog(0.25), True, True, False, False),
        (eq.SqrtShift(), False, True, True, True),
        (eq.TentLog(), True, False, False, True),
        (eq.CappedLogPlusQuadratic(0.1), True, False, False, True),
        (eq.Regularized(eq.CappedLog(0.25), 0.5), True, True, True, True),
        (eq.Regularized(eq.TentLog(), 0.5), True, False, False, True),
    ],
)
def test_classify(kernel, singular, monotone, strictly_monotone, strictly_concave):
    flags = eq.kernel_classify(kernel)
    assert flags.singular == singular
    assert flags.monotone_M == monotone
    assert flags.strictly_monotone_SM == strictly_monotone
    assert flags.strictly_concave == strictly_concave
    if flags.strictly_monotone_SM:
        assert flags.monotone_M


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.variant + str(k.params()))
def test_concavity_on_both_halves(kernel, rng):
    k = scalar_fn(kernel)
    for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
        for _ in range(1000):
            t1, t2, t3 = np.sort(rng.uniform(lo + 1e-9, hi - 1e-9, size=3))
            if t3 - t1 < 1e-12:
                continue
            lam = (t3 - t2) / (t3 - t1)
            v1, v2, v3 = k(float(t1)), k(float(t2)), k(float(t3))
            if -math.inf in (v1, v3):
                continue
            assert v2 >= lam * v1 + (1 - lam) * v3 - 1e-12


def test_matching_limits_at_zero():
    for kernel in ALL_KERNELS:
        k = scalar_fn(kernel)
        left = k(-1e-12)
        right = k(1e-12)
        if left == -math.inf or right == -math.inf:
            assert left == right == -math.inf or abs(left - right) < 1e-6
        else:
            assert left == pytest.approx(right, abs=1e-9)


def test_regularized_is_exact_shift(rng):
    base = eq.CappedLog(0.3)
    eta = 0.37
    reg = eq.Regularized(base, eta)
    kb, kr = scalar_fn(base), scalar_fn(reg)
    for t in rng.uniform(-1.0, 1.0, size=100):
        t = float(t)
        vb = kb(t)
        vr = kr(t)
        if vb == -math.inf:
            assert vr == -math.inf
        else:
            assert abs(vr - (vb + eta * math.sqrt(abs(t)))) <= 1e-15


def test_vectorized_matches_scalar(rng):
    ts = rng.uniform(-1.0, 1.0, size=64)
    for kernel in ALL_KERNELS:
        k = scalar_fn(kernel)
        vec = eq.kernel_values(kernel, ts)
        for t, v in zip(ts, vec):
            assert v == pytest.approx(k(float(t)), abs=1e-14) or (
                v == -math.inf and k(float(t)) == -math.inf
            )


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: repr(k))
def test_compiled_sum_is_bit_identical_to_the_per_term_loop(kernel):
    rng = np.random.default_rng(11)
    for n in range(1, 17):
        ys = [float(v) for v in rng.uniform(0.0, 1.0, size=n)]
        terms = tuple(zip((float(v) for v in rng.uniform(0.5, 2.0, size=n)), ys))
        kinks = [y + s for y in ys for k in kernel._kinks for s in (k, -k)]
        ts = [0.0, 1.0, *ys, *(t for t in kinks if 0.0 <= t <= 1.0), *map(float, rng.uniform(0.0, 1.0, size=8))]
        ksum = kernel._build_sum(terms)
        for t in ts:
            assert ksum(t).hex() == kernel_sum(scalar_fn(kernel), terms, t).hex(), (n, t)
        if kernel.flags().singular:
            assert all(ksum(y) == NEG_INFINITY for y in ys)


def _log_sum_cases(rng, n):
    """Random and Chebyshev nodes on [0, 1] for n translates, with three equal exponents."""
    chebyshev = [0.5 * (1.0 + math.cos((2 * j - 1) * math.pi / (2 * n))) for j in range(n, 0, -1)]
    for ys in (sorted(map(float, rng.uniform(0.0, 1.0, size=n))), chebyshev):
        for r in (1.0, 0.7, 3.0):
            yield r, ys


def _scalar_sums(ksum):
    """ts ↦ [ksum(t) for t in ts]."""
    return lambda ts: [ksum(t) for t in ts]


def _batch_sums(kernel_sum_batch, terms):
    """ts ↦ a batch kernel sum at ts, one row of points beside the node row of ``terms``."""
    r, nodes = [r for r, _ in terms], np.array([[y for _, y in terms]])

    def sums(ts):
        with np.errstate(divide="ignore"):
            return [float(v) for v in kernel_sum_batch(r, np.array([ts], dtype=float), nodes)[0]]

    return sums


# terms ↦ ts ↦ sums: Log's by its run rule, and the per-term loop each departs from, on both paths
LOG_SUMS = {
    "scalar": (
        lambda terms: _scalar_sums(eq.Log()._build_sum(terms)),
        lambda terms: _scalar_sums(lambda t: kernel_sum(scalar_fn(eq.Log()), terms, t)),
    ),
    "batch": (
        lambda terms: _batch_sums(eq.Log()._sum_batch, terms),
        lambda terms: _batch_sums(lambda *args: KernelSpec._sum_batch(eq.Log(), *args), terms),
    ),
}


@pytest.mark.parametrize("path", LOG_SUMS)
def test_equal_exponent_log_sum_is_within_n_ulps_of_the_per_term_loop(path):
    """One log per run of equal exponents moves the sum by rounding only.

    A run of m factors, each at most 1 in modulus, rounds its product to
    within (m − 1)·ε/2 relative, so r·log|p| moves by at most r·(m − 1)·ε/2;
    every term is ≤ 0, so each sum's own rounding is about n·ε/2·|S|. Both
    fit in n·ε·(r + |S|), ε = 2⁻⁵², at points clear of the nodes and within
    1e-13 and 1e-9 of them, for n = 1 … 64 (two runs past 32).
    """
    rng = np.random.default_rng(5)
    build, per_term = LOG_SUMS[path]
    eps = math.ulp(1.0)
    for n in range(1, 65):
        for r, ys in _log_sum_cases(rng, n):
            terms = tuple((r, y) for y in ys)
            near = [y + d for y in ys for d in (-1e-13, 1e-9) if 0.0 <= y + d <= 1.0]
            ts = [0.0, 1.0, *map(float, rng.uniform(0.0, 1.0, size=8)), *near]
            for t, got, want in zip(ts, build(terms)(ts), per_term(terms)(ts)):
                assert abs(got - want) <= n * eps * (r + abs(want)), (n, r, t)


@pytest.mark.parametrize("path", LOG_SUMS)
def test_equal_exponent_log_sum_is_minus_infinity_at_every_node(path):
    rng = np.random.default_rng(6)
    build, _ = LOG_SUMS[path]
    for n in range(1, 65):
        for r, ys in _log_sum_cases(rng, n):
            assert all(v == NEG_INFINITY for v in build(tuple((r, y) for y in ys))(ys)), (n, r)


@pytest.mark.parametrize("path", LOG_SUMS)
def test_a_log_run_whose_product_underflows_takes_the_per_term_loop(path):
    """32 nodes within 1e-11 of t: their product underflows, so the sum is the per-term loop's, bit for bit."""
    t = 0.5
    ys = [t + s * k * 3e-13 for k in range(1, 17) for s in (1.0, -1.0)]
    assert max(abs(t - y) for y in ys) <= 1e-11 and math.prod(t - y for y in ys) == 0.0
    terms = tuple((1.0, y) for y in ys)
    build, per_term = LOG_SUMS[path]
    (got,), (want,) = build(terms)([t]), per_term(terms)([t])
    assert want > NEG_INFINITY
    assert got.hex() == want.hex()


def test_batch_log_sum_takes_the_per_term_loop_only_where_a_run_underflows():
    """One row of points beside 32 nodes clustered at 0.5: an underflowing run off the nodes, a node, and clear points.

    Only the element whose run underflows takes the per-term loop, bit for
    bit; the node is −∞, and the clear points keep the run rule, within
    n ulps of the loop as in the scalar sum.
    """
    ys = [0.5 + s * k * 3e-13 for k in range(1, 17) for s in (1.0, -1.0)]
    nodes, r = np.array([ys]), [1.0] * len(ys)
    T = np.array([[0.0, 0.5, ys[3], 0.25, 1.0]])
    with np.errstate(divide="ignore"):
        got = eq.Log()._sum_batch(r, T, nodes)[0]
        loop = KernelSpec._sum_batch(eq.Log(), r, T, nodes)[0]
    assert got[1] > NEG_INFINITY and got[1].hex() == loop[1].hex()
    assert got[2] == NEG_INFINITY
    for k in (0, 3, 4):
        assert abs(got[k] - loop[k]) <= len(ys) * math.ulp(1.0) * (1.0 + abs(loop[k]))


def test_a_solved_kernel_is_not_kept_alive():
    """No cache of scalar evaluators holds on to a kernel after its last solve."""
    # an a no other test uses: a cache would hold the first equal kernel, not this one
    kernel = eq.CappedLog(0.0432)
    ref = weakref.ref(kernel)
    eq.solve_equioscillation(eq.Problem(2, (1.0, 1.0), kernel, eq.constant_field(0.0)))
    eq.kernel_eval(kernel, 0.5)
    del kernel
    gc.collect()
    assert ref() is None


def test_json_roundtrip():
    from equiosc.kernels import kernel_from_json, kernel_to_json

    nested = eq.Regularized(eq.Regularized(eq.CappedLog(0.2), 0.3), 1.0)
    for kernel in (*ALL_KERNELS, nested):
        assert kernel_from_json(json.loads(json.dumps(kernel_to_json(kernel)))) == kernel
    capped = {"variant": "CappedLog", "params": {"a": 0.2}}
    inner = {"variant": "Regularized", "params": {"base": capped, "eta": 0.3}}
    assert kernel_to_json(nested) == {"variant": "Regularized", "params": {"base": inner, "eta": 1.0}}
    assert kernel_from_json({"variant": "Log"}) == eq.Log()  # params default to {}
    with pytest.raises(eq.SchemaError):
        kernel_from_json({"variant": "Cubic", "params": {}})


def test_every_exported_kernel_variant_is_readable():
    from equiosc.kernels import _KERNELS

    exported = {
        c for c in vars(eq).values() if isinstance(c, type) and issubclass(c, eq.KernelSpec) and c.variant
    }
    assert exported == set(_KERNELS.values())
    assert all(_KERNELS[c.variant] is c for c in exported)


@pytest.mark.parametrize(
    "doc",
    [
        {"variant": "CappedLog", "params": {}},
        {"variant": "CappedLog", "params": {"a": "abc"}},
        {"variant": "CappedLogPlusQuadratic"},
        {"variant": "Regularized", "params": {"base": {"variant": "Log"}}},
        {"variant": "Regularized", "params": {"eta": 0.5}},
        {"variant": "Regularized", "params": {"base": {"variant": "CappedLog"}, "eta": 0.5}},
        {"variant": "CappedLog", "params": {"a": "0.2"}},
        {"variant": "Log", "params": {}, "eta": 0.5},
        {"variant": "Regularized", "params": {"base": {"variant": "Log", "params": {"a": 0.3}}, "eta": 0.5}},
        {"variant": "Regularized", "params": {"base": "Log", "eta": 0.5}},
        {"variant": ["Log"]},
        {"params": {}},
        "Log",
    ],
)
def test_malformed_json_raises_schema_error(doc):
    from equiosc.kernels import kernel_from_json

    with pytest.raises(eq.SchemaError):
        kernel_from_json(doc)


def test_invalid_params():
    with pytest.raises(eq.SchemaError):
        eq.CappedLog(1.5)
    with pytest.raises(eq.SchemaError):
        eq.Regularized(eq.Log(), -1.0)
    with pytest.raises(eq.SchemaError):
        eq.CappedLog("0.2")
    with pytest.raises(eq.SchemaError):
        eq.Regularized(eq.Log(), True)
    assert type(eq.CappedLog(np.float32(0.25)).a) is float


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: repr(k))
def test_slope_matches_central_difference(kernel):
    rng = np.random.default_rng(7)
    f = scalar_fn(kernel)
    h = 1e-6
    u = rng.uniform(-0.98, 0.98, size=400)
    far = np.abs(u) > 10 * h
    for kink in kernel._kinks:
        far &= np.abs(np.abs(u) - kink) > 10 * h
    u = u[far]
    slopes = kernel._slope(u)
    for v, slope in zip(u, slopes):
        v = float(v)
        central = (f(v + h) - f(v - h)) / (2.0 * h)
        # the truncation error of the central quotient is h²·K‴/6, K‴ ~ 2/u³ near 0
        assert abs(slope - central) <= 1e-6 * max(1.0, abs(central)) + h * h / abs(v) ** 3


def _off_nodes_and_kinks(kernel, ys, ts, gap=1e-2):
    """The points t that stay ``gap`` from every node y, kink y ± κ and |t − y| = 0.98."""
    keep = []
    for t in ts:
        u = np.abs(t - np.asarray(ys))
        clear = np.all(u > gap) and np.all(u < 0.98)
        for kink in kernel._kinks:
            clear = clear and np.all(np.abs(u - kink) > gap)
        if clear:
            keep.append(float(t))
    return keep


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: repr(k))
def test_slope_sum_matches_the_kernel_slope(kernel):
    """(Σ r K′, Σ r K″): the first against Σ r·_slope, the second against a central difference of it."""
    rng = np.random.default_rng(13)
    h = 1e-6
    checked = 0
    for n in range(1, 9):
        ys = rng.uniform(0.0, 1.0, size=n)
        r = rng.uniform(0.5, 2.0, size=n)
        slope_of = kernel._build_slope_sum(tuple(zip(map(float, r), map(float, ys))))
        for t in _off_nodes_and_kinks(kernel, ys, rng.uniform(0.0, 1.0, size=40)):
            d1, d2 = slope_of(t)
            terms = r * kernel._slope(t - ys)
            assert abs(d1 - terms.sum()) <= 1e-14 * np.abs(terms).sum(), (n, t)
            central = (r * (kernel._slope(t + h - ys) - kernel._slope(t - h - ys))).sum() / (2.0 * h)
            # the central quotient's truncation is h²·|Σ r K⁗|/6, with |K⁗| ≤ 6/u⁴ for the log terms
            truncation = h * h * 4.0 * (r / np.abs(t - ys) ** 4).sum()
            assert abs(d2 - central) <= 1e-8 * max(1.0, abs(central)) + truncation, (n, t)
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: repr(k))
def test_compiled_slope_sum_is_bit_identical_to_the_per_term_loop(kernel):
    """Every compiled slope sum is the per-term loop over the scalar (K′, K″): random, unit and equal exponents."""
    rng = np.random.default_rng(17)
    kd = kernel._build_derivatives()
    for n in range(1, 17):
        ys = rng.uniform(0.0, 1.0, size=n)
        for r in (rng.uniform(0.5, 2.0, size=n), np.ones(n), np.full(n, 3.0)):
            terms = tuple(zip(map(float, r), map(float, ys)))
            slope_of = kernel._build_slope_sum(terms)
            for t in _off_nodes_and_kinks(kernel, ys, rng.uniform(0.0, 1.0, size=8), gap=1e-9):
                assert [v.hex() for v in slope_of(t)] == [v.hex() for v in slope_sum(kd, terms, t)], (n, t)
