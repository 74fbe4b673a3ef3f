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
