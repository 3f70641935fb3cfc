"""The package runs on Python 3.10, the oldest version pyproject.toml allows.

``ast.parse`` with ``feature_version=(3, 10)`` refuses the grammar added
later (``except*``, type parameter lists, the ``type`` statement, ...).  It
does not check library calls, so a second check walks each module's tree
for two standard-library additions of Python 3.11 that the grammar allows:
a ``strict_mode=`` keyword (``binascii.a2b_base64``) and the ``tomllib``
module.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "streamgate").glob("*.py"))


def _newer_than_3_10(tree: ast.AST) -> list[str]:
    """Each ``strict_mode=`` keyword argument and ``tomllib`` import in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "strict_mode":
            found.append(f"line {node.lineno}: strict_mode= (Python 3.11)")
        modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                   else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(name.partition(".")[0] == "tomllib" for name in modules):
            found.append(f"line {node.lineno}: tomllib (Python 3.11)")
    return found


def test_the_floor_is_the_one_pyproject_promises():
    # read with a pattern: tomllib arrived in Python 3.11
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r'^requires-python = "(.*)"$', text, re.M) == [">=3.10"]
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_uses_no_standard_library_newer_than_3_10(path):
    assert _newer_than_3_10(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_library_check_refuses_each_3_11_use():
    source = ("import tomllib\nimport tomllib as t, os\nfrom tomllib import loads\n"
              "binascii.a2b_base64(line, strict_mode=True)\nimport tomllibx\n")
    assert [entry.split(":")[0] for entry in _newer_than_3_10(ast.parse(source))] == [
        "line 1", "line 2", "line 3", "line 4"]
