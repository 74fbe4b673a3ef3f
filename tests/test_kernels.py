"""The kernels against exact oracles: exact_sum bit for bit with math.fsum,
the bulk exponential-sum kernel within its error bound of the exactly
rounded term sums, and the unit power sums bit for bit with math.fsum over
their terms formed in Python floats."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import running_power_sums
from sectorlab._kernels import (_SUM_BLOCK, ERROR_BOUND, exact_sum, geometric_weighted_sums,
                                 unit_power_sums)


def exact_oracle(phases, weights, k):
    """sum_n w_n exp(i k phi_n) with the products w_n cos(k phi_n) and
    w_n sin(k phi_n) summed exactly as fractions and rounded once."""
    angles = k * np.asarray(phases, dtype=np.float64)
    w = [Fraction(x) for x in np.asarray(weights, dtype=np.float64).tolist()]

    def rounded(parts):
        return float(sum((wn * Fraction(c) for wn, c in zip(w, parts.tolist())), Fraction(0)))

    return complex(rounded(np.cos(angles)), rounded(np.sin(angles)))


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
        assert abs(out[k] - exact_oracle(phases, weights, k)) <= bound, k


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
@example(points=[(0.0, 2.2250738585e-313)], k_max=2)  # subnormal weights alone
# each product rounds up to one subnormal ulp, their exact sum rounds to one
@example(points=[(1.0, 5e-324)] * 2, k_max=1)
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


# ------------------------------------------------------------- exact_sum

def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def check_exact(values):
    values = np.asarray(values, dtype=np.float64)
    before = values.copy()
    # bytes, not ==, so that 0.0 and -0.0 differ and NaN equals itself
    assert bits(exact_sum(values)) == bits(math.fsum(values.tolist()))
    assert np.array_equal(values, before, equal_nan=True)


def scaled(mantissas, exponents):
    return [math.ldexp(m, e) for m, e in zip(mantissas, exponents)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-2.0, 2.0), st.integers(-1074, 300)), max_size=300))
@example([(1.0, 0), (1.0, -53), (1.0, -106)])
@example([(1.0, 300), (-1.0, 300), (1.0, -1074)])
def test_exact_sum_matches_fsum_bitwise(terms):
    check_exact(scaled(*zip(*terms)) if terms else [])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=50),
       st.integers(-1074, 0), st.randoms(use_true_random=False))
def test_exact_sum_exact_cancellation(xs, e, rnd):
    # x and -x cancel exactly; only the tiny residue (and its
    # rounding-sensitive companions) survives
    values = xs + [-x for x in xs] + [math.ldexp(1.0, e), 1.0, 2.0**-53, 2.0**-106]
    rnd.shuffle(values)
    check_exact(values)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-(2**52) + 1, 2**52 - 1), max_size=200))
def test_exact_sum_subnormals_only(units):
    check_exact([math.ldexp(u, -1074) for u in units])


@pytest.mark.parametrize("n", [0, 1, _SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1, 3 * _SUM_BLOCK])
def test_exact_sum_block_edges(n):
    rng = np.random.default_rng(n)
    wide = rng.standard_normal(n) * np.exp2(rng.integers(-1074, 300, n).astype(float))
    check_exact(wide)
    check_exact(np.cos(rng.uniform(0.0, 1e4, n)))
    # one block cancels another's leading bits
    check_exact(np.concatenate([wide[: n // 2], -wide[: n // 2][::-1], [2.0**-1000]]))


@pytest.mark.parametrize("values", [
    [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0], [math.inf], [-math.inf, 1.0],
    [math.nan], [1.0, math.nan, 2.0], [2.0**960, -(2.0**960), 1.0],
])
def test_exact_sum_special_values(values):
    check_exact(values)


@pytest.mark.parametrize("values, error", [
    ([math.inf, -math.inf], ValueError),
    ([1e308, 1e308], OverflowError),
])
def test_exact_sum_raises_as_fsum(values, error):
    with pytest.raises(error):
        math.fsum(values)
    with pytest.raises(error):
        exact_sum(np.array(values))


# ------------------------------------------------------- unit_power_sums

@pytest.mark.parametrize("n", [0, 1, 5, 2 * _SUM_BLOCK + 77])
def test_unit_power_sums_pinned_to_fsum_over_python_floats(n):
    # exactly rounded sums of the running-power terms, across block edges
    rng = np.random.default_rng(n)
    angles = rng.uniform(0.0, math.pi / 2, n)
    out = unit_power_sums(angles, 4.0, 8)
    assert out.shape == (9,) and out[0] == n
    for k, want in enumerate(running_power_sums(4.0 * angles, 8), start=1):
        assert (out[k].real.hex(), out[k].imag.hex()) == (want.real.hex(), want.imag.hex()), k


def test_unit_power_sums_first_mode_sums_cos_and_sin():
    angles = np.random.default_rng(1).uniform(-20.0, 20.0, _SUM_BLOCK + 3)
    out = unit_power_sums(angles, 0.75, 1)
    phases = 0.75 * angles
    assert out[1] == complex(math.fsum(np.cos(phases)), math.fsum(np.sin(phases)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_unit_power_sums_rejects_bad_angles():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            unit_power_sums(np.array([0.1, bad]), 1.0, 2)
    with pytest.raises(ValueError):
        unit_power_sums(np.zeros((2, 2)), 1.0, 2)
