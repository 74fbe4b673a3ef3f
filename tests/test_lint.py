"""Source rules that every module of the package keeps."""

import ast
import importlib
from pathlib import Path

import sectorlab

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
    # array helper is a pure function of its arguments; cached_property is
    # per-object laziness, not a cache, and is allowed
    found = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        for line, name in _caches(path)
        if (path.name, name) != ("ideals.py", "_ideal_arrays")
    ]
    assert not found, found


def _traced_targets():
    """(module, function) pairs that perfbench/tracing.py wraps, read with ast."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPANS", "_COUNTERS") for t in node.targets):
            for entry in node.value.elts:
                yield tuple(ast.literal_eval(e) for e in entry.elts[:2])


def test_traced_entry_points_exist():
    # the benchmark's per-layer metrics come from wrapping these functions;
    # a renamed one is reported as absent (null), so the rename must show here
    targets = list(_traced_targets())
    missing = [f"{module}.{func}" for module, func in targets
               if not hasattr(importlib.import_module(f"sectorlab.{module}"), func)]
    assert targets and not missing, missing


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
