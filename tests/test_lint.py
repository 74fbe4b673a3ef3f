"""Source rules that every module of the package keeps."""

import ast
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
