"""Acceptance gate: one test per criterion, each printing a verdict line.

Every criterion is checked at its stated tolerance, and where one is
stated, its runtime budget; the verdict lines carry the measured values
so a transcript of this module doubles as the acceptance report.  The
module starts with cold caches so each criterion pays its own cost.
"""

import math
import time

import numpy as np

from helpers import brute_cornacchia, brute_gaussian_ideals, brute_primes, ideal_rows
from sectorlab import ideals as ideals_mod
from sectorlab.characters import character_sum
from sectorlab.cli import main
from sectorlab.ideals import _ideal_arrays, cornacchia, sieve_rational_primes
from sectorlab.realquad import equidistribution_report_real
from sectorlab.sectors import forbidden_region_check, sector_count, sector_scan
from sectorlab.variance import (
    mean_formula,
    psi_eval,
    psi_spectrum,
    variance_direct,
    variance_parseval,
    variance_sweep,
)
from sectorlab.windows import (
    HALF_PI,
    fourier_coefficient,
    mollifier_window,
    plateau_minus,
    plateau_plus,
)

ideals_mod._ideal_arrays.cache_clear()

BUMP = mollifier_window()
PHI = plateau_plus(core=(1.0, 2.0), eps=0.05)

_SWEEP: dict = {}


def full_sweep():
    """The criterion-7 sweep, shared with criterion 8."""
    if "reports" not in _SWEEP:
        start = time.perf_counter()
        _SWEEP["reports"] = variance_sweep()
        _SWEEP["elapsed"] = time.perf_counter() - start
    return _SWEEP["reports"], _SWEEP["elapsed"]


def announce(capsys, num, ok, detail, elapsed, budget=None):
    if budget is not None:
        ok = ok and elapsed < budget
        stamp = f"{elapsed:.1f}s / budget {budget:.0f}s"
    else:
        stamp = f"{elapsed:.1f}s"
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {detail}  [{stamp}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_enumeration_oracle(capsys):
    start = time.perf_counter()
    got = {(norm, a, b) for _, a, b, norm, _, _ in ideal_rows(1, 10**4)}
    want = brute_gaussian_ideals(1, 10**4)
    elapsed = time.perf_counter() - start
    announce(
        capsys, 1, got == want,
        f"enumeration equals the 2D lattice scan on (1, 1e4]: {len(got)} ideals",
        elapsed, 5.0,
    )


def test_criterion_02_cornacchia_oracle(capsys):
    start = time.perf_counter()
    split = [p for p in brute_primes(10**4 - 1) if p % 4 == 1]
    mismatches = sum(1 for p in split if cornacchia(p) != brute_cornacchia(p))
    elapsed = time.perf_counter() - start
    announce(
        capsys, 2, mismatches == 0,
        f"cornacchia equals the brute (a odd, b even) solution for all "
        f"{len(split)} primes p = 1 mod 4 below 1e4, {mismatches} mismatches",
        elapsed, 1.0,
    )


def test_criterion_03_conjugate_angles(capsys):
    start = time.perf_counter()
    a, b, thetas = _ideal_arrays(1, 10**6, False)
    norms = a.astype(np.int64)**2 + b.astype(np.int64)**2
    paired = norms.size > 0 and norms.size % 2 == 0 and bool(np.all(norms[0::2] == norms[1::2]))
    worst = float(np.max(np.abs(thetas[0::2] + thetas[1::2] - HALF_PI)))
    elapsed = time.perf_counter() - start
    announce(
        capsys, 3, paired and worst <= 1e-12,
        f"conjugate angles of {norms.size // 2} split p < 1e6 sum to pi/2, "
        f"worst |error| {worst:.2e} vs 1e-12",
        elapsed, 30.0,
    )


def test_criterion_04_parseval_cross_validation(capsys):
    start = time.perf_counter()
    parts, ok = [], True
    for X, K in ((1e4, 8.0), (1e5, 32.0)):
        vd = variance_direct(K, X, BUMP, PHI)
        vp = variance_parseval(psi_spectrum(K, X, BUMP, PHI))
        rel = abs(vd - vp) / vd
        ok = ok and rel < 1e-6
        parts.append(f"(X={X:g}, K={K:g}) rel {rel:.2e}")
    elapsed = time.perf_counter() - start
    announce(
        capsys, 4, ok,
        "variance_direct vs variance_parseval < 1e-6: " + ", ".join(parts),
        elapsed, 60.0,
    )


def test_criterion_05_synthesis_check(capsys):
    start = time.perf_counter()
    spectrum = psi_spectrum(8.0, 1e4, BUMP, PHI)
    rng = np.random.default_rng(20260814)
    worst = max(
        abs(psi_eval(theta, 8.0, 1e4, BUMP, PHI) - spectrum.synthesize(theta))
        for theta in rng.uniform(0.0, HALF_PI, 64)
    )
    elapsed = time.perf_counter() - start
    announce(
        capsys, 5, worst <= 1e-8 * spectrum.mean,
        f"spectrum synthesis vs direct eval at 64 angles (X=1e4, K=8): "
        f"worst {worst:.2e} vs 1e-8 mean = {1e-8 * spectrum.mean:.2e}",
        elapsed, 30.0,
    )


def test_criterion_06_mean_formula(capsys):
    start = time.perf_counter()
    phi = plateau_plus(core=(1.0, 2.0), eps=0.2)
    gaps = {}
    for X in (1e4, 1e5, 1e6):
        K = X**0.3
        # the zero spectral mode equals the grid mean exactly (trapezoid
        # exactness, established in the variance tests), so the full
        # spectrum is not needed here
        grid_mean = fourier_coefficient(BUMP, K, 0).real * character_sum(0, X, phi).real
        predicted = mean_formula(K, X, BUMP, phi)
        gaps[X] = abs(grid_mean - predicted) / predicted
    ok = gaps[1e5] <= 0.10 and gaps[1e6] <= 0.05 and gaps[1e4] > gaps[1e5] > gaps[1e6]
    elapsed = time.perf_counter() - start
    announce(
        capsys, 6, ok,
        "mean gap |grid - formula|/formula at K=X^0.3: "
        + " > ".join(f"X=1e{round(math.log10(X))}: {gaps[X]:.3e}" for X in (1e4, 1e5, 1e6))
        + " (caps 10% at 1e5, 5% at 1e6)",
        elapsed,
    )


def test_criterion_07_variance_ratio_decay(capsys):
    reports, elapsed = full_sweep()
    by_tau = {}
    for r in reports:
        by_tau.setdefault(r.tau, []).append(r.ratio)
    parts, ok = [], True
    for tau in (0.2, 0.4, 0.55):
        seq = by_tau[tau]
        ok = ok and seq[0] > seq[1] > seq[2]
        parts.append(f"tau={tau:g}: " + " > ".join(f"{v:.3e}" for v in seq))
    announce(
        capsys, 7, ok,
        "Var/mean^2 strictly decreasing along X in {1e4, 1e5, 1e6} -- " + "; ".join(parts),
        elapsed, 600.0,
    )


def test_criterion_08_prime_power_gap_decay(capsys):
    reports, _ = full_sweep()
    start = time.perf_counter()
    seq = [r.prime_power_gap / r.mean_empirical**2 for r in reports if r.tau == 0.4]
    ok = len(seq) == 3 and seq[0] > seq[1] > seq[2]
    elapsed = time.perf_counter() - start
    announce(
        capsys, 8, ok,
        "prime_power_gap/mean^2 at tau=0.4 (from the criterion-7 sweep): "
        + " > ".join(f"{v:.3e}" for v in seq),
        elapsed,
    )


def test_criterion_09_almost_all_sectors(capsys):
    start = time.perf_counter()
    fracs = {}
    for X in (10**4, 10**5, 10**6):
        fracs[X] = sector_scan(X, 0.3, 1024, deltas=(0.5,)).exceptional_fraction[0.5]
    zero = sector_scan(10**5, 0.0, 1024, deltas=(0.5,)).exceptional_fraction[0.5]
    ok = fracs[10**4] >= fracs[10**5] >= fracs[10**6] and zero == 0.0
    elapsed = time.perf_counter() - start
    announce(
        capsys, 9, ok,
        "exceptional_fraction(0.5) at rho=0.3, grid 1024: "
        + " >= ".join(f"{fracs[X]:.4f}" for X in (10**4, 10**5, 10**6))
        + f"; rho=0 gives {zero}",
        elapsed,
    )


def test_criterion_09_companion_can_fail():
    # criterion 9's fractions at rho=0.3 are all 0.0, so its ordering cannot
    # fail; at rho=0.6 narrow sectors do deviate, and the fraction must fall
    # strictly (measured 0.1230 > 0.0479 > 0.0117; rho=0.5 is not monotone)
    fracs = [sector_scan(X, 0.6, 1024, deltas=(0.5,)).exceptional_fraction[0.5]
             for X in (10**4, 10**5, 10**6)]
    assert fracs[0] > fracs[1] > fracs[2] and fracs[0] > 0.0, fracs


def test_criterion_10_forbidden_region(capsys):
    start = time.perf_counter()
    angle = forbidden_region_check(10**6)
    bound = 1.0 / (2.0 * 10**3)
    elapsed = time.perf_counter() - start
    announce(
        capsys, 10, angle > bound,
        f"smallest positive angle over norms <= 1e6 is {angle:.6e} > 1/(2 sqrt(1e6)) = {bound:.1e}",
        elapsed, 30.0,
    )


def test_criterion_11_unsmoothing_bracket(capsys):
    start = time.perf_counter()
    X, K, eps = 10**5, 50.0, 0.05
    gamma = HALF_PI / K
    f_plus = plateau_plus(core=(0.0, 1.0), eps=eps)
    f_minus = plateau_minus(core=(0.0, 1.0), eps=eps)
    phi_plus = plateau_plus(core=(1.0, 2.0), eps=eps)
    phi_minus = plateau_minus(core=(1.0, 2.0), eps=eps)
    upper_div = math.log(X * (1.0 - eps))
    lower_div = math.log(2 * X * (1.0 + eps))
    held = 0
    for j in range(128):
        beta = j * HALF_PI / 128
        sharp = sector_count(beta, gamma, X, 2 * X)
        upper = psi_eval(beta, K, X, f_plus, phi_plus) / upper_div
        lower = psi_eval(beta, K, X, f_minus, phi_minus) / lower_div
        held += bool(lower <= sharp <= upper)
    elapsed = time.perf_counter() - start
    announce(
        capsys, 11, held == 128,
        f"plateau-smoothed counts bracket the sharp sector count at "
        f"X=1e5, K=50, eps=0.05 for {held}/128 offsets",
        elapsed,
    )


def test_criterion_12_real_quadratic(capsys):
    start = time.perf_counter()
    mags, reports = {}, {}
    for limit in (10**3, 10**4, 10**5):
        reports[limit] = equidistribution_report_real(limit, 3)
        mags[limit] = [abs(reports[limit].weyl[k]) for k in (1, 2, 3)]
    top = reports[10**5]
    verified = all(a * a - 2 * b * b == sign * p for p, a, b, sign in zip(
        top.p.tolist(), top.a.tolist(), top.b.tolist(), top.sign.tolist()))
    split_count = sum(1 for p in sieve_rational_primes(10**5) if p % 8 in (1, 7))
    complete = top.ideal_count == 2 * split_count
    endpoint = all(mags[10**5][k] < mags[10**3][k] for k in range(3))
    peak = max(mags[10**5]) < max(mags[10**4]) < max(mags[10**3])
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        for limit in (10**3, 10**4, 10**5):
            print(
                "    weyl magnitudes at limit=1e%d: %s"
                % (round(math.log10(limit)),
                   "  ".join(f"|W_{k + 1}|={v:.6f}" for k, v in enumerate(mags[limit]))),
                flush=True,
            )
    announce(
        capsys, 12, verified and complete and endpoint and peak,
        f"norm equation verified exactly for all {top.ideal_count} ideals "
        f"(2 x {split_count} split p <= 1e5); Weyl modes k=1..3 decay "
        f"endpoint-wise and the worst mode decays strictly "
        f"(per-step per-mode order is sample noise, see decision ledger)",
        elapsed, 60.0,
    )


def test_criterion_13_determinism(capsys, tmp_path):
    start = time.perf_counter()
    commands = {
        "sieve": ["sieve", "--max", "1e4"],
        "sectors": ["sectors", "--x", "1e4", "--rho", "0.3", "--grid", "512"],
        "weyl": ["weyl", "--x", "1e4", "--kmax", "8"],
        "variance": ["variance", "--x-list", "1e4", "--tau", "0.4"],
        "realquad": ["realquad", "--limit", "1e4", "--kmax", "3"],
        "forbidden": ["forbidden", "--max", "1e5"],
    }
    parts, ok = [], True
    for name, args in commands.items():
        first, second = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        good = main(args + ["--out", str(first)]) == 0
        good = main(args + ["--out", str(second)]) == 0 and good
        files = sorted(p.name for p in first.iterdir()) if good else []
        good = good and files == sorted(p.name for p in second.iterdir())
        good = good and all(
            (first / n).read_bytes() == (second / n).read_bytes() for n in files
        )
        ok = ok and good
        parts.append(f"{name}={'identical' if good else 'DIFFERS'}")
    elapsed = time.perf_counter() - start
    announce(
        capsys, 13, ok,
        "byte-identical reruns of every subcommand -- " + ", ".join(parts),
        elapsed,
    )
