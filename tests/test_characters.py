"""Hecke characters xi_k and the weighted character sums S_k."""

import cmath
import math

import numpy as np
import pytest

from helpers import (MEMORY_GATE_SIZE, lambda_entries, power_sum_allowance, small_blocks,
                     traced_peak, ulps_apart, whole_column_spread, whole_column_weights)
from sectorlab import characters
from sectorlab.characters import (
    character_sum,
    character_sum_table,
    weyl_sum,
    weyl_sums,
    xi,
)
from sectorlab.errors import BadInput
from sectorlab.ideals import _ideal_arrays, _lambda_arrays
from sectorlab.windows import custom_window, mollifier_eval, plateau_plus


def bump_on_1_2():
    """Reference bump supported on [1, 2]: the mollifier rescaled."""
    return custom_window(lambda u: mollifier_eval(2.0 * (np.asarray(u) - 1.5)),
                         lo=1.0, hi=2.0)


# -------------------------------------------------------------------- xi

def test_xi_at_ramified_generator():
    for k in range(-6, 7):
        got = xi(1, 1, k)
        assert abs(got - (-1.0) ** k) < 1e-12


def test_xi_k_zero_is_one():
    assert xi(3, 2, 0) == 1.0 + 0.0j
    assert xi(1, 0, 0) == 1.0 + 0.0j


def test_xi_unit_modulus():
    for a, b in ((1, 2), (3, 0), (5, 12), (20, 21), (1, 1)):
        for k in (1, 2, 9):
            assert ulps_apart(abs(xi(a, b, k)), 1.0) <= 4.0


def _xi_budget(k: int) -> float:
    # 8 ulp measured at the phase scale: the trig argument 4 k atan2 can
    # reach 4 k pi, and e^{i phi} inherits the representation error of phi
    return 8.0 * math.ulp(4.0 * abs(k) * math.pi)


def test_xi_associate_invariance():
    # i*(1 + 2i) = -2 + i generates the same ideal
    for k in (1, 2, 5):
        z1, z2 = xi(1, 2, k), xi(-2, 1, k)
        assert abs(z1 - z2) <= _xi_budget(k)
    # all four associates at a bigger generator
    a, b = 20, 21
    want = xi(a, b, 3)
    for _ in range(3):
        a, b = -b, a
        assert abs(xi(a, b, 3) - want) <= _xi_budget(3)


def test_xi_multiplicative():
    pairs = [((2, 1), (3, 2)), ((1, 2), (1, 4)), ((4, 1), (5, 2))]
    for (a, b), (c, d) in pairs:
        for k in (1, 2, 3):
            prod = (a * c - b * d, a * d + b * c)
            direct = xi(*prod, k)
            split = xi(a, b, k) * xi(c, d, k)
            assert abs(direct - split) <= _xi_budget(k)


def test_xi_rejects_zero():
    with pytest.raises(BadInput):
        xi(0, 0, 1)


# ---------------------------------------------------------- character_sum

def test_character_sum_k_zero_real():
    phi = bump_on_1_2()
    X = 50.0
    got = character_sum(0, X, phi)
    assert got.imag == 0.0
    want = math.fsum(
        phi(e.norm / X) * e.weight for e in lambda_entries(0, 150)
    )
    assert got.real == pytest.approx(want, rel=1e-13)


def test_character_sum_direct_oracle_at_x_50():
    phi = bump_on_1_2()
    X = 50.0
    for k in (1, 2, 5):
        want = 0j
        for e in lambda_entries(0, 150):
            want += phi(e.norm / X) * e.weight * cmath.exp(4j * k * e.theta)
        got = character_sum(k, X, phi)
        assert abs(got - want) < 1e-10


def test_character_sum_negative_k_is_conjugate():
    phi = plateau_plus(core=(1.0, 2.0), eps=0.05)
    for k in (1, 3, 8):
        plus = character_sum(k, 500.0, phi)
        minus = character_sum(-k, 500.0, phi)
        assert minus == plus.conjugate()


def test_character_sum_bounded_by_zero_mode():
    phi = plateau_plus(core=(1.0, 2.0), eps=0.05)
    s0 = character_sum(0, 2000.0, phi).real
    for k in (1, 2, 7, 19):
        assert abs(character_sum(k, 2000.0, phi)) <= s0 * (1.0 + 1e-12)


def test_character_sum_partition_additivity():
    # split Phi at an interior point into complementary half-open pieces;
    # the weighted entries then split exactly
    phi = plateau_plus(core=(1.0, 2.0), eps=0.05)
    cut = 1.6
    low = custom_window(
        lambda u: phi(np.asarray(u)) * (np.asarray(u) < cut), lo=phi.lo, hi=cut)
    high = custom_window(
        lambda u: phi(np.asarray(u)) * (np.asarray(u) >= cut), lo=cut, hi=phi.hi)
    X = 1500.0
    for k in (0, 1, 4):
        whole = character_sum(k, X, phi)
        parts = character_sum(k, X, low) + character_sum(k, X, high)
        assert abs(whole - parts) <= 1e-12 * max(1.0, abs(whole))


def test_character_sum_variants_and_validation():
    # S_0 carries every prime power, so it exceeds the sum over the prime rows
    phi = plateau_plus(core=(1.0, 2.0), eps=0.05)
    powers = character_sum(0, 300.0, phi).real
    primes = math.fsum(phi(e.norm / 300.0) * e.weight for e in lambda_entries(0, 615) if e.r == 1)
    assert powers > primes > 0.0
    with pytest.raises(BadInput):
        character_sum(1, 1.0, phi)


# ------------------------------------------------------------- sum table

def test_table_matches_single_sums():
    phi = plateau_plus(core=(1.0, 2.0), eps=0.05)
    X = 800.0
    table = character_sum_table(X, 64, phi)
    scale = abs(table[0])
    for k in (0, 1, 2, 7, 33, 64):
        assert abs(table[k] - character_sum(k, X, phi)) <= 1e-11 * scale


def test_table_zero_mode_exactly_real():
    table = character_sum_table(200.0, 8, plateau_plus(core=(1.0, 2.0), eps=0.05))
    assert table[0].imag == 0.0


def test_table_is_read_only_and_k_max_checked():
    # S_0..S_kmax is a plain read-only array, like the c_k vector
    table = character_sum_table(100.0, 4, plateau_plus(core=(1.0, 2.0), eps=0.05))
    assert table.shape == (5,) and table.dtype == np.complex128
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[1] = 0.0
    with pytest.raises(BadInput):
        character_sum_table(100.0, -2, plateau_plus(core=(1.0, 2.0), eps=0.05))


# -------------------------------------------------------------- weyl_sum

def test_weyl_sum_hand_computed_window():
    # ideals in (1, 10]: ramified (1,1), split (2,1) and (1,2), inert (3,0)
    want = (cmath.exp(4j * math.atan2(1, 1))
            + cmath.exp(4j * math.atan2(1, 2))
            + cmath.exp(4j * math.atan2(2, 1))
            + cmath.exp(0j))
    assert abs(weyl_sum(1, 1, 10) - want) < 1e-12


def test_weyl_sum_conjugate_pair():
    for k in (1, 2, 5):
        assert weyl_sum(-k, 1, 5000) == weyl_sum(k, 1, 5000).conjugate()


def test_weyl_sum_rejects_k_zero():
    with pytest.raises(BadInput):
        weyl_sum(0, 1, 100)


def test_weyl_sum_decay_at_scale():
    n = _ideal_arrays(10**6, 2 * 10**6, True)[0].size
    assert abs(weyl_sum(1, 10**6, 2 * 10**6)) / n < 0.05


def test_weyl_equidistribution_trend():
    # normalized |W_k| over dyadic windows (X, 2X]; individual k values
    # wander at the noise floor, so the asserted readings are the
    # endpoint decay per k and strict decay of the worst k per row
    ladder = (10**3, 10**4, 10**5, 10**6)
    rows = []
    for X in ladder:
        n = _ideal_arrays(X, 2 * X, True)[0].size
        rows.append([abs(weyl_sum(k, X, 2 * X)) / n for k in (1, 2, 3)])
    for j in range(3):
        assert rows[-1][j] < rows[0][j]
    worst = [max(r) for r in rows]
    assert all(a > b for a, b in zip(worst, worst[1:]))


def test_weyl_sum_pinned_to_fsum_over_python_floats():
    # the sums are exactly rounded: the same cos/sin arrays summed by
    # math.fsum one Python float at a time give the same bits
    thetas = _ideal_arrays(1, 10**5, True)[2]
    for k in range(1, 9):
        angles = (4.0 * k) * thetas
        want = complex(math.fsum(np.cos(angles).tolist()), math.fsum(np.sin(angles).tolist()))
        got = weyl_sum(k, 1, 10**5)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), k


# ------------------------------------------------------------- weyl_sums

def two_route_bound(count: int, k: int) -> float:
    """|weyl_sums - weyl_sum| at mode k over count ideals, derived from the
    two error notes: the angle route rounds 4 k theta <= 2 pi k once and cos
    and sin one ulp each, the power route's terms are within 6 k u of
    exp(4 i k theta), and each exactly rounded sum of |W| <= count adds u."""
    return count * (k * (2.0 * math.pi + 6.0) + 5.0) * 2.0**-53


@pytest.mark.parametrize("split_only", [False, True])
def test_weyl_sums_first_mode_is_weyl_sum_bitwise(split_only):
    sums = weyl_sums(8, 1, 10**5, not split_only)
    assert sums[0] == _ideal_arrays(1, 10**5, not split_only)[0].size
    assert sums[1] == weyl_sum(1, 1, 10**5, not split_only)


@pytest.mark.parametrize("X", [10**4, 10**5])
def test_weyl_sums_two_route_gate(X):
    sums = weyl_sums(8, 1, X)
    count = int(sums[0].real)
    for k in range(1, 9):
        assert abs(sums[k] - weyl_sum(k, 1, X)) <= two_route_bound(count, k), k
    # a single term moved by 1e-10 would show
    assert two_route_bound(count, 1) < 1e-10


def test_weyl_sums_two_route_gate_at_a_high_mode():
    k = 10**4
    sums = weyl_sums(k, 1, 1000)
    count = int(sums[0].real)
    assert abs(sums[k] - weyl_sum(k, 1, 1000)) <= two_route_bound(count, k)


@pytest.mark.parametrize("blocks", ["module", "small"])
def test_memory_gate_weyl_sums(monkeypatch, blocks):
    # beyond the cached enumeration, a few summation blocks however many
    # ideals there are
    thetas = _ideal_arrays(1, MEMORY_GATE_SIZE, True)[2]
    if blocks == "small":
        small_blocks(monkeypatch)
    _, peak = traced_peak(weyl_sums, 8, 1, MEMORY_GATE_SIZE)
    assert peak <= power_sum_allowance(8), (peak, thetas.nbytes)
    if blocks == "small":
        # one array the length of the angles would not fit
        assert power_sum_allowance(8) < thetas.nbytes


# ------------------------------------------------ blocked weights and spread

def plateau_1_2():
    return plateau_plus(core=(1.0, 2.0), eps=0.05)


@pytest.mark.parametrize("X, block, phi", [
    (1e6, None, plateau_1_2),  # the module's block, several of them
    (1e4, 7, plateau_1_2),  # a small block that leaves a partial one
    (2.0, 7, lambda: plateau_plus(core=(0.2, 0.3), eps=0.05)),  # no entries
    # weights below 2^-500, so the S_k spread lifts them by 2^1000
    (1e5, 1000, lambda: custom_window(lambda u: 2.0**-600 * mollifier_eval(2.0 * u - 3.0),
                                      lo=1.0, hi=2.0)),
])
def test_blocked_weights_and_spread_match_whole_column_bytes(monkeypatch, X, block, phi):
    if block is not None:
        monkeypatch.setattr(characters, "_BLOCK", block)
    phi = phi()
    thetas, weights = characters._weighted_entries(X, phi)
    want = whole_column_weights(X, phi)
    assert weights.tobytes() == want.tobytes()
    if X == 1e6:
        assert weights.size >= 3 * characters._BLOCK
    if X == 2.0:
        assert weights.size == 0
    table = character_sum_table(X, 1024, phi)
    assert table.tobytes() == whole_column_spread(4.0 * thetas, want, 1024).tobytes()


def test_memory_gate_weighted_entries(monkeypatch):
    # on a built prime-power table the call holds its weights column and,
    # besides it, Phi's scratch over one _BLOCK of rows (about 10 float64 per
    # row, 12 allowed); 64 KiB covers numpy's small allocations
    phi = plateau_1_2()
    X = float(MEMORY_GATE_SIZE)
    table = _lambda_arrays(*characters._norm_window(X, phi))
    monkeypatch.setattr(characters, "_lambda_arrays", lambda *window: table)
    monkeypatch.setattr(characters, "_BLOCK", 1 << 10)
    (_, weights), peak = traced_peak(characters._weighted_entries, X, phi)
    allowance = 12 * 8 * characters._BLOCK + (1 << 16)
    assert allowance < weights.nbytes  # one column of scratch would not fit
    assert peak <= weights.nbytes + allowance, (peak, weights.nbytes)
