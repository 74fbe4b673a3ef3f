"""End-to-end tests of the command-line surface and its exit-code contract."""

import argparse
import json
import math
import os
import subprocess
import sys
import time

import pytest

from helpers import child_env
from sectorlab.cli import _int_literal, build_parser, main
from sectorlab.errors import MAX_SIZE, InvariantViolation


def data_rows(path):
    lines = path.read_text().splitlines()
    return [ln for ln in lines if ln and not ln.startswith("#")]


# ------------------------------------------------------------ subcommands

def test_sieve_writes_ideal_csv(tmp_path, capsys):
    assert main(["sieve", "--max", "300", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {tmp_path / 'ideals.csv'}" in out
    text = (tmp_path / "ideals.csv").read_text()
    assert text.startswith("# sectorlab-ideals-v1 sectorlab=")
    assert data_rows(tmp_path / "ideals.csv")[0] == "p,a,b,norm,splitting,theta"


def test_sectors_scan_row_count(tmp_path):
    assert main(["sectors", "--x", "1e4", "--rho", "0.3", "--grid", "512",
                 "--out", str(tmp_path)]) == 0
    rows = data_rows(tmp_path / "sectors.csv")
    assert rows[0] == "beta,count,expected,deviation"
    assert len(rows) == 1 + 512
    summary = json.loads((tmp_path / "sectors.json").read_text())
    assert summary["grid_size"] == 512
    assert summary["format_version"] == "sectorlab-sectors-v1"


def test_weyl_command(tmp_path):
    assert main(["weyl", "--x", "2000", "--kmax", "4", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "weyl.json").read_text())
    assert sorted(payload["sums"]) == ["1", "2", "3", "4"]
    assert payload["ideal_count"] > 0
    for cell in payload["sums"].values():
        assert cell["normalized"] <= 1.0


def test_variance_command(tmp_path):
    assert main(["variance", "--x-list", "500", "--x-list", "1000",
                 "--tau", "0.3", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "variance.json").read_text())
    assert len(payload["cells"]) == 2
    for cell in payload["cells"]:
        assert cell["certificate"]["certified"] is True
    assert (tmp_path / "variance.csv").exists()


def test_realquad_command(tmp_path):
    assert main(["realquad", "--limit", "500", "--kmax", "3",
                 "--out", str(tmp_path)]) == 0
    rows = data_rows(tmp_path / "realquad.csv")
    assert rows[0] == "p,a,b,sign,t"
    payload = json.loads((tmp_path / "realquad.json").read_text())
    assert payload["weyl"]["0"] == 1.0


def test_forbidden_command(tmp_path):
    assert main(["forbidden", "--max", "5000", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "forbidden.json").read_text())
    assert payload["min_angle"] > 0.0


def test_forbidden_writes_the_checked_bound(tmp_path):
    # at 5579, 0.5 / n ** 0.5 and 1 / (2 sqrt n) differ in the last bit; the
    # file must carry the bound that forbidden_region_check compared against
    bound = 1.0 / (2.0 * math.sqrt(5579))
    assert 0.5 / 5579 ** 0.5 != bound
    assert main(["forbidden", "--max", "5579", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "forbidden.json").read_text())
    assert payload["exclusion_bound"] == bound


# ------------------------------------------------------------ exit codes

def test_invalid_rho_exits_2(tmp_path, capsys):
    rc = main(["sectors", "--x", "100", "--rho", "1.5", "--out", str(tmp_path)])
    assert rc == 2
    assert "invalid parameters" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["nan", "-1", "inf"])
def test_sectors_rejects_bad_delta_before_work(tmp_path, capsys, delta):
    out = tmp_path / "out"
    assert main(["sectors", "--x", "100", "--rho", "0.3", "--delta", delta,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid parameters" in err and "delta" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_bad_kmax_exits_2(tmp_path):
    assert main(["weyl", "--x", "100", "--kmax", "0", "--out", str(tmp_path)]) == 2


def test_realquad_high_modes_exit_0(tmp_path):
    # the conjugate-cancellation gate allows for phase rounding growing with k
    assert main(["realquad", "--limit", "100", "--kmax", "2000", "--out", str(tmp_path)]) == 0


def test_bad_limit_exits_2(tmp_path):
    assert main(["realquad", "--limit", "5", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("args", [["--x", "1"], ["--x", "4", "--split-only"]])
def test_weyl_over_no_ideals_exits_2(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert main(["weyl", *args, "--kmax", "1", "--out", str(out)]) == 2
    assert "no prime ideals" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["sieve", "--max", "1e30"],
    ["sectors", "--x", "1e30", "--rho", "0.3"],
    ["forbidden", "--max", "1e30"],
    ["weyl", "--x", "1e30"],
    ["realquad", "--limit", "1e12"],
    ["variance", "--x-list", "1e4", "--x-list", str(MAX_SIZE + 1), "--tau", "0.01"],
    # an integer literal past the float range
    ["variance", "--x-list", "1" + "0" * 400, "--tau", "0.2"],
    # --split-only reaches the library on sectors (sieve and weyl have their
    # own --split-only tests) ...
    ["sectors", "--x", "1e30", "--rho", "0.3", "--split-only"],
    # ... and argparse refuses it on the three subcommands that never read
    # it, as it refuses a grid option on variance, whose grid is always 4 k_max
    ["forbidden", "--max", "1e30", "--split-only"],
    ["variance", "--x-list", "1e4", "--tau", "0.01", "--split-only"],
    ["realquad", "--limit", "1e12", "--split-only"],
    ["variance", "--x-list", "1e4", "--tau", "0.2", "--grid-factor", "4"],
    # and the sweep's cutoff is fixed, so variance refuses a shoulder width
    ["variance", "--x-list", "1e4", "--tau", "0.2", "--eps", "0.1"],
])
def test_size_above_ceiling_exits_2_before_work(tmp_path, capsys, args):
    # without the ceiling each of these enumerates for hours
    out = tmp_path / "out"
    start = time.perf_counter()
    refused = [a for a in args if a in ("--split-only", "--grid-factor", "--eps")
               and args[0] in ("variance", "realquad", "forbidden")]
    try:
        code = main(args + ["--out", str(out)])
    except SystemExit as exc:  # argparse refused an option
        code = exc.code
    assert code == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert (f"unrecognized arguments: {refused[0]}" if refused else "size ceiling") in err
    assert not out.exists()


def _integer_option_cases():
    """argv giving each integer option of each subcommand a huge value, small values elsewhere.

    Every option typed int or _int_literal gets 10**15, and the
    _int_literal ones also get inf; required options get 100 (0.3 if
    float-typed), so the value under test is the only large input.
    """
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, sub in subparsers.choices.items():
        required = [arg for a in sub._actions if a.required
                    for arg in (a.option_strings[0], "0.3" if a.type is float else "100")]
        for action in sub._actions:
            if action.type in (int, _int_literal):
                values = (str(10**15), "inf") if action.type is _int_literal else (str(10**15),)
                for value in values:
                    yield [command, *required, action.option_strings[0], value]


def test_every_integer_option_rejects_huge_values_before_work(tmp_path, capsys):
    # every integer option, including one added later, must refuse a huge
    # value up front; one without a ceiling crashes, hangs or runs past 5 s
    cases = list(_integer_option_cases())
    assert ["sectors", "--x", "100", "--rho", "0.3", "--grid", str(10**15)] in cases
    assert ["variance", "--x-list", str(10**15)] in cases
    for argv in cases:
        out = tmp_path / "-".join(argv)
        start = time.perf_counter()
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse refused the literal
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2, argv
        assert time.perf_counter() - start < 5.0, argv
        assert "invalid parameters" in err or "error: argument" in err, (argv, err)
        assert "Traceback" not in err, argv
        assert not out.exists(), argv


@pytest.mark.parametrize("tau", ["0.6", "0.55"])
def test_uncertified_cutoff_exits_3_before_work(tmp_path, capsys, tau):
    # at X = 1e8 the mollifier has no three passing octaves up to KMAX_CAP;
    # the walk runs before any enumeration, so nothing is written
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["variance", "--x-list", "1e8", "--tau", tau, "--out", str(out)]) == 3
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("numerical guarantee failed: no certified spectral cutoff"), err
    assert not out.exists()


def test_failed_run_leaves_no_output_directory(tmp_path, monkeypatch):
    def fail(*args):
        raise InvariantViolation("forced enumeration failure")

    monkeypatch.setattr("sectorlab.reports._ideal_arrays", fail)
    out = tmp_path / "out"
    assert main(["sieve", "--max", "300", "--out", str(out)]) == 3
    assert not out.exists()


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["nope"])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_fractional_literal_rejected():
    with pytest.raises(SystemExit) as info:
        main(["sieve", "--max", "10.5"])
    assert info.value.code == 2


# ------------------------------------------------------------ argument forms

def test_scientific_notation_matches_plain(tmp_path):
    for sci, plain, names in (
        (["sieve", "--max", "1e3"], ["sieve", "--max", "1000"], ("ideals.csv",)),
        (["sectors", "--x", "1e3", "--rho", "0.3", "--grid", "5e2"],
         ["sectors", "--x", "1000", "--rho", "0.3", "--grid", "500"],
         ("sectors.csv", "sectors.json")),
        (["weyl", "--x", "1000", "--kmax", "8e0"], ["weyl", "--x", "1000", "--kmax", "8"],
         ("weyl.json",)),
        (["realquad", "--limit", "300", "--kmax", "8e0"],
         ["realquad", "--limit", "300", "--kmax", "8"], ("realquad.csv", "realquad.json")),
        (["variance", "--x-list", "4e2", "--tau", "0.3"],
         ["variance", "--x-list", "400", "--tau", "0.3"],
         ("variance.csv", "variance.json")),
    ):
        a, b = tmp_path / ("sci-" + sci[0]), tmp_path / ("plain-" + sci[0])
        assert main(sci + ["--out", str(a)]) == 0, sci
        assert main(plain + ["--out", str(b)]) == 0, plain
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_split_only_drops_nonsplit_rows(tmp_path):
    a, b = tmp_path / "all", tmp_path / "split"
    main(["sieve", "--max", "100", "--out", str(a)])
    main(["sieve", "--max", "100", "--split-only", "--out", str(b)])
    assert "inert" in (a / "ideals.csv").read_text()
    text = (b / "ideals.csv").read_text()
    assert "inert" not in text and "ramified" not in text


def test_unset_options_take_the_library_defaults(tmp_path):
    # the CLI passes only the options given, so these are variance_sweep's
    # and sector_scan's own defaults
    assert main(["variance", "--x-list", "400", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "variance.json").read_text())
    assert summary["format_version"] == "sectorlab-variance-v3"
    cells = summary["cells"]
    assert [cell["tau"] for cell in cells] == [0.2, 0.4, 0.55]
    for cell in cells:
        assert cell["phi"]["eps"] == 0.05
        assert cell["grid_size"] == 4 * cell["k_max"]
        # no key that only ever held a constant
        assert "variant" not in cell
        assert "quad_tol" not in cell["f"] and "quad_tol" not in cell["phi"]
    assert main(["sectors", "--x", "1000", "--rho", "0.3", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "sectors.json").read_text())
    assert sorted(map(float, summary["exceptional_fraction"])) == [0.1, 0.25, 0.5]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("sectorlab ")


# ------------------------------------------------------------ determinism

def test_reruns_are_byte_identical(tmp_path):
    for args, names in (
        (["sectors", "--x", "3000", "--rho", "0.25", "--grid", "64"],
         ("sectors.csv", "sectors.json")),
        (["realquad", "--limit", "300", "--kmax", "3"],
         ("realquad.csv", "realquad.json")),
        (["variance", "--x-list", "400", "--tau", "0.3"],
         ("variance.csv", "variance.json")),
    ):
        a, b = tmp_path / (args[0] + "1"), tmp_path / (args[0] + "2")
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()


def test_variance_bytes_independent_of_thread_count(tmp_path):
    # native pools are sized when numpy loads, and sectorlab keeps a preset
    # count, so each thread count needs its own process
    pools = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in pools}
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "sectorlab", "variance", "--x-list", "1e4",
             "--tau", "0.4", "--out", str(tmp_path / threads)],
            capture_output=True, text=True,
            env=child_env({**env, **dict.fromkeys(pools, threads)}),
        )
        assert proc.returncode == 0, proc.stderr
    for name in ("variance.json", "variance.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_import_pins_thread_pools_unless_preset():
    code = ("import os, sectorlab; print(' '.join(os.environ[v] for v in "
            "('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')))")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    for preset, expected in (({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "3"}, "1 3 1")):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=child_env({**env, **preset}))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected


def test_cli_import_loads_no_hashlib():
    # no window is fingerprinted, so nothing loads hashlib and its libcrypto
    code = "import sys, sectorlab.cli; print('hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ------------------------------------------------------------ entry point

def test_module_invocation(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sectorlab", "--version"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("sectorlab ")
    proc = subprocess.run(
        [sys.executable, "-m", "sectorlab", "sieve", "--max", "50",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert (tmp_path / "ideals.csv").exists()
