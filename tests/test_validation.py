"""Every public function checks its arguments on entry: typed errors, never hangs."""

import contextlib
import inspect
import math
import signal
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import constant_window
import sectorlab
from sectorlab import characters as characters_mod
from sectorlab import ideals as ideals_mod
from sectorlab import realquad as realquad_mod
from sectorlab import reports as reports_mod
from sectorlab import sectors as sectors_mod
from sectorlab import variance as variance_mod
from sectorlab.cli import main
from sectorlab.errors import (
    GRID_CAP,
    KMAX_CAP,
    MAX_GRID,
    MAX_KMAX,
    MAX_PIT_NORM,
    MAX_SIZE,
    BadInput,
    SectorLabError,
    check_int,
    check_real,
)

BUDGET_S = 5.0
# 10**400 is an int past the float range, 10**5000 one past Python's int-to-str
# digit limit; a complex value must raise BadInput, since converting it to a
# float would keep its real part and answer for that
COMPLEX = (np.complex128(4 + 1j), np.array([1j, 2.0]))
BAD = (math.nan, math.inf, -math.inf, -1, 0, 2.5, 1e30, 10**400, 10**5000) + COMPLEX

F = sectorlab.mollifier_window()
PHI = sectorlab.plateau_plus(core=(1.0, 2.0), eps=0.05)

# argument roles: each numeric argument name with a small valid value; the
# fuzz replaces one of them at a time by a bad value
NUMERIC = {
    "limit": 100, "norm_min": 0, "norm_max": 100, "X": 1000, "p": 17, "n": 4,
    "a": 0, "b": 1, "k": 1, "k_max": 4, "K": 4.0, "grid_size": 64,
    "theta": 0.3, "beta": 0.1, "gamma": 0.2, "rho": 0.3, "eps": 0.1, "x": 0.5,
    "xi": 0.5, "lo": -1.0, "hi": 1.0,
}
# sequences of numbers: the bad value goes in as an element
SEQUENCES = {
    "core": lambda v: (v, 1.0), "deltas": lambda v: (v,),
    "x_list": lambda v: (v,), "tau_list": lambda v: (v,),
}
# whole values of a sequence argument that are not a flat sequence of numbers
# (a pair, for core); each must raise BadInput before any element is used
BAD_SEQUENCES = {
    "core": (None, 1.0, (0.0, 1.0, 2.0), ((0.0, 1.0),), (0.0, "x")),
    "deltas": (None, 0.3, ((0.5,),), (0.5, "x")),
    "x_list": (None, 1000, ((1000,),), (1000, "x")),
    "tau_list": (None, 0.3, ((0.2,),), (0.2, "x")),
}
VALID_SEQUENCES = {"core": (0.0, 1.0), "deltas": (0.5,), "x_list": (1000,), "tau_list": (0.2,)}
# arguments that are objects, held fixed
OBJECTS = {
    "f": F, "phi": PHI, "base": F, "window": PHI,
    "evaluator": sectorlab.mollifier_eval,
    "spectrum": sectorlab.psi_spectrum(4.0, 1000, F, PHI),
}

FUNCTIONS = sorted(name for name in sectorlab.__all__
                   if inspect.isfunction(getattr(sectorlab, name)))
# the functions with no number among their arguments
UNFUZZED = ("mollifier_window", "variance_parseval")


def _fuzzed(name):
    """The parameters of a public function that the fuzz varies, and its valid call."""
    params = [p for p in inspect.signature(getattr(sectorlab, name)).parameters.values()
              if p.name in NUMERIC or p.name in SEQUENCES or p.name in OBJECTS
              or p.default is inspect.Parameter.empty]
    valid = {p.name: NUMERIC.get(p.name, VALID_SEQUENCES.get(p.name, OBJECTS.get(p.name)))
             for p in params}
    return [p.name for p in params if p.name not in OBJECTS], valid


class _OverBudget(Exception):
    pass


@contextlib.contextmanager
def _time_limit(seconds=BUDGET_S):
    """Raise _OverBudget in the block after seconds, so a hang fails instead of stalling."""
    def expire(signum, frame):
        raise _OverBudget

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < seconds


def _returns_or_raises_typed(call):
    with _time_limit():
        try:
            call()
        except SectorLabError:
            pass


def test_every_public_function_is_in_the_roles_table():
    assert len(FUNCTIONS) > 30
    for name in FUNCTIONS:
        varied, valid = _fuzzed(name)
        missing = [param for param, value in valid.items() if value is None]
        assert not missing, (name, missing)
        assert bool(varied) == (name not in UNFUZZED), name


@pytest.mark.filterwarnings("ignore::sectorlab.errors.AliasingRisk")
@pytest.mark.parametrize("name", FUNCTIONS)
def test_valid_roles_pass_the_checks(name):
    # the table's values get past every check, so in the fuzz the bad value
    # is what a raise answers
    _, valid = _fuzzed(name)
    with _time_limit():
        getattr(sectorlab, name)(**{k: v for k, v in valid.items() if v is not None})


@pytest.mark.filterwarnings("ignore::sectorlab.errors.AliasingRisk")
@pytest.mark.parametrize("name", [name for name in FUNCTIONS if name not in UNFUZZED])
def test_fuzz_public_function(name):
    # each case is (argument, value, whether only BadInput will do)
    varied, valid = _fuzzed(name)
    cases = [(param, SEQUENCES[param](bad) if param in SEQUENCES else bad,
              any(bad is c for c in COMPLEX)) for param in varied for bad in BAD]
    cases += [(param, whole, True) for param in varied for whole in BAD_SEQUENCES.get(param, ())]
    probed = set()

    @settings(max_examples=len(cases), deadline=None, database=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    @given(case=st.sampled_from(cases))
    def probe(case):
        probed.add(id(case))
        param, value, strict = case
        kwargs = {k: v for k, v in valid.items() if v is not None}
        kwargs[param] = value
        func = getattr(sectorlab, name)
        if strict:
            with _time_limit(), pytest.raises(BadInput):
                func(**kwargs)
        else:
            _returns_or_raises_typed(lambda: func(**kwargs))

    probe()
    assert len(probed) == len(cases), "the fuzz skipped a case"


# windows that break the smoothed layer, as bumps on [-1, 1] and cutoffs on
# [1, 2]; the fuzz swaps each into one window argument at a time
BAD_WINDOWS = {
    role: [constant_window(value, *support) for value in (0.0, math.nan, math.inf, 1e308)]
    for role, support in (("f", (-1.0, 1.0)), ("base", (-1.0, 1.0)),
                          ("window", (-1.0, 1.0)), ("phi", (1.0, 2.0)))
}
WINDOWED = [name for name in FUNCTIONS
            if BAD_WINDOWS.keys() & inspect.signature(getattr(sectorlab, name)).parameters.keys()]


@pytest.mark.filterwarnings("ignore::sectorlab.errors.AliasingRisk")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", WINDOWED)
def test_fuzz_window_arguments(name):
    _, valid = _fuzzed(name)
    for param in BAD_WINDOWS.keys() & valid.keys():
        for window in BAD_WINDOWS[param]:
            kwargs = {k: v for k, v in valid.items() if v is not None}
            kwargs[param] = window
            _returns_or_raises_typed(lambda: getattr(sectorlab, name)(**kwargs))


ACCEPTANCE_CALLS = {
    "character_sum_table k_max 2.5": lambda: sectorlab.character_sum_table(1e4, 2.5, PHI),
    "character_sum_table k_max nan": lambda: sectorlab.character_sum_table(1e4, math.nan, PHI),
    "report k_max 2.5": lambda: sectorlab.equidistribution_report_real(1000, 2.5),
    "report limit nan": lambda: sectorlab.equidistribution_report_real(math.nan, 4),
    "sieve nan": lambda: sectorlab.sieve_rational_primes(math.nan),
    "sieve inf": lambda: sectorlab.sieve_rational_primes(math.inf),
    "sector_count inf": lambda: sectorlab.sector_count(0.1, 0.2, 0, norm_max=math.inf),
    "sector_scan grid nan": lambda: sectorlab.sector_scan(1000, 0.3, grid_size=math.nan),
    "discrepancy nan": lambda: sectorlab.discrepancy(0, math.nan),
    "forbidden inf": lambda: sectorlab.forbidden_region_check(math.inf),
    "weyl_sum nan": lambda: sectorlab.weyl_sum(1, 0, math.nan),
    "weyl_sum k 2.5": lambda: sectorlab.weyl_sum(2.5, 0, 1000),
    "weyl_sums nan": lambda: sectorlab.weyl_sums(4, 0, math.nan),
    "weyl_sums k_max 2.5": lambda: sectorlab.weyl_sums(2.5, 0, 1000),
    # a cutoff's support end takes the enumeration to X phi.hi
    "character_sum support end 1e300": lambda: sectorlab.character_sum(
        1, 1e9, sectorlab.custom_window(sectorlab.mollifier_eval, 0.5, 1e300)),
    "character_sum support end 1e12": lambda: sectorlab.character_sum(
        1, 1e6, sectorlab.custom_window(sectorlab.mollifier_eval, 0.5, 1e12)),
    "character_sum reach 5.12e11": lambda: sectorlab.character_sum(
        1, 1e9, sectorlab.custom_window(sectorlab.mollifier_eval, 0.5, 512.0)),
    "xi k 2.5": lambda: sectorlab.xi(1, 2, 2.5),
    "character_sum k 2.5": lambda: sectorlab.character_sum(2.5, 1e4, PHI),
    "psi_grid grid 1e30": lambda: sectorlab.psi_grid(4.0, 1e3, F, PHI, grid_size=1e30),
    "psi_grid grid nan": lambda: sectorlab.psi_grid(4.0, 1e3, F, PHI, grid_size=math.nan),
    "psi_grid grid 2.5": lambda: sectorlab.psi_grid(4.0, 1e3, F, PHI, grid_size=2.5),
    "variance_direct grid nan":
        lambda: sectorlab.variance_direct(4.0, 1e3, F, PHI, grid_size=math.nan),
    "bulk k_max -1": lambda: sectorlab.fourier_coefficients_bulk(F, 4, -1),
    "bulk k_max 2.5": lambda: sectorlab.fourier_coefficients_bulk(F, 4, 2.5),
    "cornacchia nan": lambda: sectorlab.cornacchia(math.nan),
    "cornacchia inf": lambda: sectorlab.cornacchia(math.inf),
    "sqrt_mod nan": lambda: sectorlab.sqrt_mod(math.nan, 13),
    "sqrt_mod inf": lambda: sectorlab.sqrt_mod(4, math.inf),
    "solve_norm_equation nan": lambda: sectorlab.solve_norm_equation(math.nan),
    "solve_norm_equation inf": lambda: sectorlab.solve_norm_equation(math.inf),
    "ideal_arrays inf": lambda: ideals_mod._ideal_arrays(0, math.inf, True),
    # a window past MAX_NORM would overflow the packed sort key and the int32 legs
    "ideal_arrays past MAX_NORM": lambda: ideals_mod._ideal_arrays(10**14, 10**14 + 10**4, True),
    "lambda_arrays inf": lambda: ideals_mod._lambda_arrays(0, math.inf),
    "expected_count nan": lambda: sectorlab.expected_count(0.2, 0, math.nan),
    "expected_count pit reversed": lambda: sectorlab.expected_count(0.2, 100, 10, mode="pit"),
    # past the float range: float(norm_max) would raise an untyped OverflowError
    "expected_count pit 1e400": lambda: sectorlab.expected_count(0.2, 0, 10**400, mode="pit"),
    "expected_count pit past MAX_PIT_NORM":
        lambda: sectorlab.expected_count(0.2, 0, MAX_PIT_NORM + 1, mode="pit"),
    # a complex value converted to float keeps its real part, with a ComplexWarning
    "periodized_eval complex theta":
        lambda: sectorlab.periodized_eval(F, 4.0, np.array([1j, 2.0])),
    "psi_grid complex K": lambda: sectorlab.psi_grid(np.complex128(4 + 1j), 1e3, F, PHI, 64),
    "synthesize complex theta": lambda: OBJECTS["spectrum"].synthesize(np.array([0.3 + 1j])),
    # synthesize checks its angles whole, before converting them
    "synthesize string angle": lambda: OBJECTS["spectrum"].synthesize([0.1, "x"]),
}


@pytest.mark.parametrize("name", sorted(ACCEPTANCE_CALLS))
def test_bad_argument_raises_bad_input_at_once(name):
    with _time_limit(), pytest.raises(BadInput):
        ACCEPTANCE_CALLS[name]()


def test_pit_mode_has_no_size_ceiling():
    # pit mode enumerates nothing, so its window may pass MAX_SIZE
    assert sectorlab.expected_count(0.2, 0, 1e10, mode="pit") > 0.0


@pytest.mark.parametrize("call", [
    lambda: sectorlab.sqrt_mod(8, 9), lambda: sectorlab.sqrt_mod(1, 9),
    lambda: sectorlab.sqrt_mod(-1, 25), lambda: sectorlab.sqrt_mod(4, 21),
    lambda: sectorlab.sqrt_mod(2, 2**64 + 13),
    lambda: sectorlab.cornacchia(9), lambda: sectorlab.cornacchia(25),
    lambda: sectorlab.cornacchia(65), lambda: sectorlab.cornacchia(21),
    lambda: sectorlab.cornacchia(45), lambda: sectorlab.cornacchia(85),
    lambda: sectorlab.solve_norm_equation(25), lambda: sectorlab.solve_norm_equation(2**64 + 1),
], ids=["sqrt_mod(8,9)", "sqrt_mod(1,9)", "sqrt_mod(-1,25)", "sqrt_mod(4,21)",
        "sqrt_mod(2,2^64+13)", "cornacchia(9)", "cornacchia(25)", "cornacchia(65)",
        "cornacchia(21)", "cornacchia(45)", "cornacchia(85)", "solve_norm_equation(25)",
        "solve_norm_equation(2^64+1)"])
def test_composite_or_out_of_range_modulus_is_bad_input(call):
    # the non-residue search of Tonelli-Shanks never ends on some composites,
    # and Cornacchia's descent fails on others: both take primes below 2^64
    with _time_limit(), pytest.raises(BadInput):
        call()


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_is_bad_input_on_both_routes(theta):
    spectrum = sectorlab.psi_spectrum(4.0, 1000, F, PHI)
    for call in (lambda: sectorlab.psi_eval(theta, 4.0, 1000, F, PHI),
                 lambda: sectorlab.periodized_eval(F, 4.0, np.array([0.1, theta])),
                 lambda: spectrum.synthesize(theta),
                 lambda: spectrum.synthesize(np.array([[0.1, theta]]))):
        with pytest.raises(BadInput):
            call()


@pytest.mark.parametrize("value, want", [
    (7, 7), (np.int64(7), 7), (7.0, 7), (1e6, 10**6), (np.float32(3.0), 3),
])
def test_check_int_accepts_integral_numbers(value, want):
    got = check_int("n", value, 0, 10**6)
    assert got == want and type(got) is int


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, "7", None, 1j, 10**6 + 1, -1])
def test_check_int_rejects(value):
    with pytest.raises(BadInput):
        check_int("n", value, 0, 10**6)


@pytest.mark.parametrize("ends, lo_ok, hi_ok", [
    ("[]", True, True), ("[)", True, False), ("(]", False, True), ("()", False, False),
])
def test_check_real_brackets(ends, lo_ok, hi_ok):
    for value, ok in ((0.0, lo_ok), (1.0, hi_ok), (0.5, True), (-0.1, False), (1.1, False)):
        if ok:
            assert check_real("x", value, 0.0, 1.0, ends) == value
        else:
            with pytest.raises(BadInput):
                check_real("x", value, 0.0, 1.0, ends)


def test_check_real_arrays_and_error_type():
    arr = np.array([[0.0, 0.5], [1.0, 0.25]])
    assert check_real("x", arr, 0.0, 1.0) is not None
    assert check_real("x", np.empty(0), 0.0, 1.0, "()").size == 0
    with pytest.raises(sectorlab.BadSector):
        check_real("x", [0.5, math.nan], error=sectorlab.BadSector)
    with pytest.raises(BadInput, match="size ceiling"):
        check_real("x", 2.0, 0.0, 1.0)


class _Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise _Reached


@pytest.mark.parametrize("argv, target", [
    (["sieve", "--max", "1e9"], (reports_mod, "_ideal_arrays")),
    (["sectors", "--x", "1e9", "--rho", "0.3", "--grid", str(MAX_GRID)],
     (sectors_mod, "_ideal_arrays")),
    (["forbidden", "--max", "1e9"], (sectors_mod, "_ideal_arrays")),
    (["weyl", "--x", "1e9", "--kmax", str(MAX_KMAX)], (characters_mod, "_ideal_arrays")),
    (["realquad", "--limit", "1e9", "--kmax", str(MAX_KMAX)], (realquad_mod, "_split_generators")),
    (["variance", "--x-list", "1e9", "--tau", "0.2"], (variance_mod, "psi_spectrum")),
])
def test_cli_accepts_every_size_at_its_ceiling(tmp_path, monkeypatch, argv, target):
    # the checks pass at the ceiling and the work starts; it is cut short here
    monkeypatch.setattr(*target, _reached)
    with pytest.raises(_Reached):
        main(argv + ["--out", str(tmp_path)])


@pytest.mark.parametrize("eps", [0.05, 0.49])
def test_cli_cutoff_reaches_below_the_norm_ceiling(eps):
    # variance at X = MAX_SIZE enumerates to X phi.hi, 2.05e9 for the default
    # shoulder and below 2.5e9 for any shoulder the CLI accepts
    phi = sectorlab.plateau_plus(core=(1.0, 2.0), eps=eps)
    assert characters_mod._norm_window(MAX_SIZE, phi)[1] == math.floor(MAX_SIZE * (2.0 + eps))


def test_ceilings_relate_as_documented():
    # the default grid factor 4 at the largest certified power of two
    assert GRID_CAP == 4 * (1 << (KMAX_CAP.bit_length() - 1))
    assert MAX_KMAX <= KMAX_CAP and MAX_GRID <= GRID_CAP and MAX_SIZE == 10**9
