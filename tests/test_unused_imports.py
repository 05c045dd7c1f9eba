"""Every name a `contestq` module imports is used in that module.

The package's `__init__.py` imports names to re-export them and is not
checked.  A name imported under `TYPE_CHECKING` for a string annotation
such as `"ContestGame"` counts as used.  `from __future__` imports are
directives, not names.
"""

import ast
from pathlib import Path

import pytest

import contestq

MODULES = sorted(path for path in Path(contestq.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def imported_names(tree):
    """{bound name: line} for every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree):
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Names the module reads, in code and in string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_check_sees_an_unused_import_and_a_string_annotation():
    tree = ast.parse("from typing import TYPE_CHECKING, Optional\n"
                     "import os.path\n"
                     "if TYPE_CHECKING:\n"
                     "    from .game import ContestGame\n"
                     "def f(game: 'Optional[ContestGame]') -> None:\n"
                     "    pass\n")
    used = used_names(tree)
    assert [name for name in imported_names(tree) if name not in used] == ["os"]
