"""The bulk exponential-sum kernel against compensated term-by-term sums."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sectorlab._kernels import ERROR_BOUND, geometric_weighted_sums


def fsum_oracle(phases, weights, k):
    angles = k * np.asarray(phases, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    return complex(math.fsum(w * np.cos(angles)), math.fsum(w * np.sin(angles)))


def check_against_oracle(phases, weights, k_max):
    phases = np.asarray(phases, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    out = geometric_weighted_sums(phases, weights, k_max)
    assert out.shape == (k_max + 1,)
    assert out[0].imag == 0.0
    assert out[0].real == math.fsum(weights)
    mass = math.fsum(np.abs(weights))
    moment = math.fsum(np.abs(weights * phases))
    for k in range(1, k_max + 1):
        # the kernel's documented bound, plus one more phase rounding for
        # the oracle's own k * phi
        bound = ERROR_BOUND * mass + k * 2.0**-51 * moment
        assert abs(out[k] - fsum_oracle(phases, weights, k)) <= bound, k


@settings(max_examples=60, deadline=None)
@given(
    points=st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(-5.0, 5.0)), max_size=40),
    k_max=st.integers(0, 64),
)
@example(points=[], k_max=0)
@example(points=[], k_max=1)
@example(points=[], k_max=64)
@example(points=[(0.7, 1.5)], k_max=0)
@example(points=[(0.7, 1.5)], k_max=1)
@example(points=[(-3.1, 2.0)], k_max=64)
@example(points=[(1e-300, 1.0), (-1e-12, 2.0), (5e-324, -1.0)], k_max=64)
@example(points=[(2.0 * math.pi, 1.0), (7.5, -0.5), (-19.0, 3.0), (13.0, 1.0)], k_max=63)
@example(points=[(0.1, 1.0), (0.2, -1.0), (-0.3, 0.5), (4.0, -2.0)], k_max=31)
def test_kernel_matches_fsum_oracle(points, k_max):
    phases = [p for p, _ in points]
    weights = [w for _, w in points]
    check_against_oracle(phases, weights, k_max)


def test_kernel_random_point_sets():
    rng = np.random.default_rng(20261018)
    for n in (1, 17, 500):
        phases = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, n)
        weights = rng.standard_normal(n)
        for k_max in (1, 20, 64):
            check_against_oracle(phases, weights, k_max)


def test_kernel_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        geometric_weighted_sums(np.zeros(3), np.zeros(2), 4)
    with pytest.raises(ValueError):
        geometric_weighted_sums(np.zeros((2, 2)), np.zeros((2, 2)), 4)
