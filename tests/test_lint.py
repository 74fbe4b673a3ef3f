"""Source rules that every module of the package keeps."""

import ast
import importlib
import inspect
import textwrap
from pathlib import Path

import numpy as np

import sectorlab
from sectorlab import _kernels, ideals, realquad, reports, sectors, variance, windows

MODULES = sorted(Path(sectorlab.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # a broken invariant must raise a typed SectorLabError (exit 3); an
    # assert statement is stripped under python -O and then checks nothing
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert MODULES and not found, found


def _fsum_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fsum":
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from (node.lineno for alias in node.names if alias.name == "fsum")


def test_math_fsum_only_in_kernels():
    # one summation routine: _kernels.exact_sum rounds exactly like math.fsum
    # without a Python float per element; only it may fall back to fsum
    found = [
        f"{path.name}:{line}"
        for path in MODULES if path.name != "_kernels.py"
        for line in _fsum_calls(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, found


def _unused_imports(tree):
    """Names that module-level imports bind and the module never loads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(name, line) for name, line in bound.items() if name not in loaded]


def test_no_unused_imports():
    # an import nothing reads is left over from deleted code; __init__.py
    # imports to re-export, so it is exempt
    found = [
        f"{path.name}:{line} {name}"
        for path in MODULES if path.name != "__init__.py"
        for name, line in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, found


def _function_level_imports(tree):
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield node.lineno, func.name


def test_no_function_level_imports():
    # every import sits at module level, where the unused-import lint sees it
    # and a reader finds a module's dependencies in one place
    found = sorted({
        (path.name, line, name)
        for path in MODULES
        for line, name in _function_level_imports(ast.parse(path.read_text(), filename=str(path)))
    })
    assert MODULES and not found, [f"{path}:{line} in {name}" for path, line, name in found]


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _caches(path):
    """Cache decorators and module-level dicts named *cache* in one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list):
            yield node.lineno, node.name
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        value = getattr(node, "value", None)
        is_dict = isinstance(value, (ast.Dict, ast.DictComp)) or (
            isinstance(value, ast.Call) and _decorator_name(value) in ("dict", "defaultdict"))
        for target in targets:
            if is_dict and isinstance(target, ast.Name) and "cache" in target.id.lower():
                yield node.lineno, target.id


def test_one_cache():
    # the enumeration ideals._ideal_arrays is the package's only cache, so
    # memory that outlives a call sits in one bounded place and every other
    # array helper is a pure function of its arguments
    found = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        for line, name in _caches(path)
        if (path.name, name) != ("ideals.py", "_ideal_arrays")
    ]
    assert not found, found


_SORTS = {"sort", "argsort", "lexsort"}


def test_one_lattice_order():
    # ideals._lattice_scan returns its points in prime order, so its one sort
    # of packed keys is the package's only ordering of lattice points; the
    # Z[i] enumeration and the Z[sqrt 2] generators take that order as it is
    for func in (ideals._ideal_arrays.__wrapped__, realquad._split_generators):
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        assert not _SORTS & set(_called_names(tree)), func.__name__
    found = {
        (path.name, node.name)
        for path in MODULES if path.name in ("ideals.py", "realquad.py")
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.FunctionDef) and _SORTS & set(_called_names(node))
    }
    assert found == {("ideals.py", "_lattice_scan")}, found


def test_one_smoothed_row_order():
    # characters._weighted_entries sorts the prime-power rows by (theta,
    # norm), and _power_part_grid its power rows by the same key; the
    # scatter and the S_k spread take that order as it is
    for func in (variance._scatter_grid, _kernels.geometric_weighted_sums):
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        assert not _SORTS & set(_called_names(tree)), func.__name__
    found = {
        (path.name, node.name)
        for path in MODULES if path.name in ("characters.py", "variance.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and _SORTS & set(_called_names(node))
    }
    assert found == {("characters.py", "_weighted_entries"),
                     ("variance.py", "_power_part_grid")}, found


def _traced_targets():
    """(module, function) pairs that perfbench/tracing.py wraps, read with ast."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPANS", "_COUNTERS") for t in node.targets):
            for entry in node.value.elts:
                yield tuple(ast.literal_eval(e) for e in entry.elts[:2])


def _traced_arguments():
    """(function, index, name) for each _arg(args, kwargs, index, name) call in
    perfbench/tracing.py, with function the sectorlab function whose call the
    hook or counter reads, as "module.function"; read with ast."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    body = ast.parse(path.read_text(), filename=str(path)).body
    tables = {t.id: node.value for node in body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    spans = {}  # span name -> traced functions
    for entry in tables["SPANS"].elts:
        module, func, span = (ast.literal_eval(e) for e in entry.elts)
        spans.setdefault(span, []).append(f"{module}.{func}")
    spans["reports.write"] = [f"reports.{name}" for name in sorted(vars(reports))
                              if name.startswith("write_")]
    readers = {}  # hook or counter function -> traced functions
    for span, hooks in zip(tables["_HOOKS"].keys, tables["_HOOKS"].values):
        for hook in hooks.elts:
            if isinstance(hook, ast.Name):
                readers.setdefault(hook.id, []).extend(spans[ast.literal_eval(span)])
    for entry in tables["_COUNTERS"].elts:
        module, func = (ast.literal_eval(e) for e in entry.elts[:2])
        readers.setdefault(entry.elts[3].id, []).append(f"{module}.{func}")
    for node in body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                index, name = (ast.literal_eval(a) for a in call.args[2:])
                for target in readers.get(node.name, [None]):
                    yield target, index, name


def test_traced_entry_points_exist():
    # the benchmark's per-layer metrics come from wrapping these functions;
    # a renamed one is reported as absent (null), so the rename must show here
    targets = list(_traced_targets())
    missing = [f"{module}.{func}" for module, func in targets
               if not hasattr(importlib.import_module(f"sectorlab.{module}"), func)]
    assert targets and not missing, missing
    # the hooks read some arguments by position when the call passes them so:
    # a moved argument would be read wrongly, so its position must show here
    checked, moved = set(), []
    for target, index, name in _traced_arguments():
        assert target is not None, f"no traced function reads _arg {index} {name!r}"
        module, func = target.split(".")
        params = list(inspect.signature(getattr(
            importlib.import_module(f"sectorlab.{module}"), func)).parameters)
        if params[index:index + 1] != [name]:
            moved.append(f"{target}: {name!r} is not argument {index} of {params}")
        checked.add((func if module != "reports" else "write_*", index, name))
    assert not moved, moved
    assert checked == {
        ("character_sum_table", 1, "k_max"),
        ("_scatter_grid", 0, "thetas"), ("_scatter_grid", 2, "K"),
        ("_scatter_grid", 3, "f"), ("_scatter_grid", 4, "grid_size"),
        ("geometric_weighted_sums", 0, "phases"), ("geometric_weighted_sums", 2, "k_max"),
        ("write_*", 0, "path"),
    }, checked


def test_traced_results_carry_what_the_hooks_read():
    # the after-hooks read results too: _enumerated and _entries take
    # result[0].size of the two table builders as their row count, _sectors
    # .grid_size and _realquad .ideal_count (_written reads only its path
    # argument).  A hook that raises fails the benchmark's traced pass, so
    # each result is checked here on a tiny window
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    hooks = next(node.value for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "_HOOKS")
    after = {ast.literal_eval(span): pair.elts[1].id for span, pair in zip(hooks.keys, hooks.values)
             if isinstance(pair.elts[1], ast.Name)}
    assert after == {"ideals.enum": "_enumerated", "ideals.lambda": "_entries",
                     "sectors.scan": "_sectors", "realquad.report": "_realquad",
                     "reports.write": "_written"}, after
    for table in (ideals._ideal_arrays(0, 100, True), ideals._lambda_arrays(0, 100)):
        columns = [col for col in table if isinstance(col, np.ndarray)]
        assert len(columns) == 3 and table[0].ndim == 1, table
        assert {col.shape for col in columns} == {table[0].shape}, table
    assert isinstance(sectors.sector_scan(100, 0.3, 8).grid_size, int)
    assert isinstance(realquad.equidistribution_report_real(100, 2).ideal_count, int)


_BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "linalg"}


def _blas_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            yield from ((node.lineno, a.name) for a in node.names
                        if a.name in _BLAS_NAMES or "linalg" in node.module)


def test_no_blas_calls():
    # README promises that no BLAS call is made: results then do not depend
    # on the BLAS build or its thread count
    found = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        for line, name in _blas_calls(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, found


def _ceiling_names(tree):
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and (
                    target.id.startswith("MAX_") or target.id.endswith("_CAP")):
                yield node.lineno, target.id


def test_ceilings_live_in_errors():
    # every size ceiling is assigned once, in errors.py, next to the checks
    # that apply it; other modules import it from there
    found = [(path.name, line, name)
             for path in MODULES
             for line, name in _ceiling_names(ast.parse(path.read_text(), filename=str(path)))]
    elsewhere = [f"{path}:{line} {name}" for path, line, name in found if path != "errors.py"]
    names = [name for _, _, name in found]
    assert not elsewhere, elsewhere
    assert len(names) == len(set(names)) >= 6, names


def _called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_report_writers_are_called_from_cli():
    # perfbench times every reports.write_* callable as a reports.write span,
    # so a helper named write_* would count as a writer: each must be one
    # that the CLI calls
    writers = {name for name in dir(reports)
               if name.startswith("write_") and callable(getattr(reports, name))}
    cli = Path(sectorlab.__file__).parent / "cli.py"
    called = set(_called_names(ast.parse(cli.read_text(), filename=str(cli))))
    assert writers and not writers - called, sorted(writers - called)


def _reached_names(func, seen=None):
    """Names and attributes the source of func loads, and, transitively, those
    of every package function it names."""
    seen = set() if seen is None else seen
    if func in seen:
        return set()
    seen.add(func)
    names = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(func)))):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
            target = func.__globals__.get(node.id)
            if inspect.isfunction(target) and target.__module__.startswith("sectorlab"):
                names |= _reached_names(target, seen)
    return names


def test_one_byte_path():
    # every report file is opened by reports._create, as bytes, and every CSV
    # writer formats its rows through reports._dump_rows
    opened = {path.name: list(_called_names(ast.parse(path.read_text(), filename=str(path))))
              .count("open") for path in MODULES}
    create = _called_names(ast.parse(textwrap.dedent(inspect.getsource(reports._create))))
    assert sum(opened.values()) == opened["reports.py"] == list(create).count("open") == 1, opened
    writers = [getattr(reports, name) for name in dir(reports)
               if name.startswith("write_") and name.endswith("_csv")]
    assert len(writers) == 4
    assert all("_dump_rows" in _reached_names(w) for w in writers), writers


_SPECTRAL_NAMES = {"fft", "geometric_weighted_sums", "character_sum_table",
                   "fourier_coefficients_bulk", "psi_spectrum"}


def test_direct_and_synthesis_routes_stay_independent():
    # the route gaps compare two computations of psi; each must reach none of
    # the other's kernels, or a fault shared by both would cancel in the gap
    for func in (variance._scatter_grid, variance.psi_grid, variance._power_part_grid):
        reached = _reached_names(func) & _SPECTRAL_NAMES
        assert not reached, (func.__name__, sorted(reached))
    assert "_scatter_grid" not in _reached_names(variance.PsiSpectrum.synthesize)
    # the walk sees through calls: psi_grid reaches the scatter, and the
    # spectrum reaches its kernels through character_sum_table
    assert "_scatter_grid" in _reached_names(variance.psi_grid)
    assert {"character_sum_table", "geometric_weighted_sums"} <= _reached_names(
        variance.psi_spectrum)
    # the gridded kernel serves S_k alone: c_k has one sampler, with exact phases
    assert "geometric_weighted_sums" not in _reached_names(windows.fourier_coefficients_bulk)


def test_one_exact_product():
    # Veltkamp's split serves Dekker's product alone, and every midpoint phase,
    # the single sample's and the c_k vector's chirp, is reduced mod 1 by the
    # one primitive _turns on that product
    def calls_split(func):
        return any(isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "split"
            or getattr(node.func, "attr", None) == "split"
            and getattr(node.func.value, "id", None) == "_kernels") for node in ast.walk(func))

    callers = {
        (path.name, node.name)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and calls_split(node)
    }
    assert callers == {("_kernels.py", "two_product")}, callers
    for func in (windows.fourier_hat, windows.fourier_coefficients_bulk):
        assert "_turns" in _reached_names(func), func.__name__
