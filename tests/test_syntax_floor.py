"""The package runs on Python 3.10, the oldest version pyproject.toml allows.

``ast.parse`` with ``feature_version=(3, 10)`` refuses the grammar added
later (``except*``, type parameter lists, the ``type`` statement, ...).  It
does not check library calls, so a second check walks each module's tree
for standard-library additions of Python 3.11 and 3.12 that the grammar
allows: a ``strict_mode=`` keyword (``binascii.a2b_base64``), the
``tomllib`` module, and the names in ``NEWER_NAMES``: read as an
attribute of their module (``math.exp2``), imported from it, or, for the
builtin exception groups, named.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "streamgate").glob("*.py"))

# names Python 3.11 or 3.12 added to modules that 3.10 has, and to the builtins
NEWER_NAMES = {
    "math": {"exp2", "cbrt", "sumprod"}, "datetime": {"UTC"}, "enum": {"StrEnum"},
    "hashlib": {"file_digest"}, "contextlib": {"chdir"}, "operator": {"call"},
    "itertools": {"batched"}, "asyncio": {"TaskGroup", "timeout"},
    "typing": {"Self", "Never", "assert_never"},
    "builtins": {"ExceptionGroup", "BaseExceptionGroup"}}


def _newer_than_3_10(tree: ast.AST) -> list[str]:
    """Each use in ``tree`` of the standard library newer than Python 3.10:
    a ``strict_mode=`` keyword argument, a ``tomllib`` import, and a name
    of ``NEWER_NAMES`` read from its module, imported from it, or, for a
    builtin, named."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "strict_mode":
            found.append(f"line {node.lineno}: strict_mode= (Python 3.11)")
        modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                   else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(name.partition(".")[0] == "tomllib" for name in modules):
            found.append(f"line {node.lineno}: tomllib (Python 3.11)")
        if isinstance(node, ast.ImportFrom):
            uses = [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            uses = [(node.value.id, node.attr)]
        elif isinstance(node, ast.Name):
            uses = [("builtins", node.id)]
        else:
            uses = []
        found += [f"line {node.lineno}: {module}.{name} (Python 3.11 or later)"
                  for module, name in uses if name in NEWER_NAMES.get(module, ())]
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
    refused = [
        "import tomllib", "import tomllib as t, os", "from tomllib import loads",
        "binascii.a2b_base64(line, strict_mode=True)",
        "math.exp2(3.0)", "math.cbrt(8.0)", "math.sumprod(a, b)", "datetime.UTC",
        "enum.StrEnum", "hashlib.file_digest(fh, 'sha256')", "contextlib.chdir(path)",
        "operator.call(f)", "itertools.batched(xs, 2)", "asyncio.TaskGroup()",
        "asyncio.timeout(1.0)", "x: typing.Self", "x: typing.Never", "typing.assert_never(x)",
        "from math import exp2, log", "from math import cbrt", "from math import sumprod",
        "from datetime import UTC", "from enum import StrEnum",
        "from hashlib import file_digest", "from contextlib import chdir",
        "from operator import call", "from itertools import batched",
        "from asyncio import TaskGroup", "from asyncio import timeout",
        "from typing import Self", "from typing import Never",
        "from typing import assert_never", "raise ExceptionGroup('x', [])",
        "isinstance(exc, BaseExceptionGroup)"]
    allowed = ["import tomllibx", "math.exp(2.0)", "from math import log", "m.exp2",
               "numpy.call(f)", "datetime.timezone.utc", "from typing import Any",
               "Self = 1", "ExceptionGroups = []", "exc.ExceptionGroup"]
    found = _newer_than_3_10(ast.parse("\n".join(refused + allowed)))
    assert sorted(int(entry.split(":")[0][5:]) for entry in found) == list(
        range(1, len(refused) + 1))
