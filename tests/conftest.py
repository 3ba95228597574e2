"""Shared generators for randomized suites (seeded, deterministic)."""

import numpy as np
import pytest
from hypothesis import settings

import equiosc as eq

# property tests draw the same examples on every run, with no per-example time limit
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_concave_field(rng: np.random.Generator) -> eq.PiecewiseField:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return eq.constant_field(float(rng.uniform(-2.0, 2.0)))
    if kind == 1:
        return eq.sqrt_affine_field(float(rng.uniform(0.5, 4.0)), 1.0, 0.0)
    return eq.sqrt_affine_field(float(rng.uniform(0.5, 4.0)), -1.0, 1.0)


def random_sm_kernel(rng: np.random.Generator) -> eq.KernelSpec:
    """A random kernel that is singular and strictly monotone."""
    if rng.uniform() < 0.5:
        return eq.Log()
    return eq.Regularized(eq.CappedLog(float(rng.uniform(0.1, 0.5))), float(rng.uniform(0.3, 1.5)))


def random_sm_problem(rng: np.random.Generator, n: int) -> eq.Problem:
    r = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=n))
    return eq.Problem(n, r, random_sm_kernel(rng), random_concave_field(rng))


def random_strict_nodes(rng: np.random.Generator, n: int, min_gap: float = 0.02):
    while True:
        draw = np.sort(rng.uniform(min_gap, 1.0 - min_gap, size=n))
        gaps = np.diff(np.concatenate([[0.0], draw, [1.0]]))
        if np.min(gaps) >= min_gap:
            return tuple(float(v) for v in draw)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
