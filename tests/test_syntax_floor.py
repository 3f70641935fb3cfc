"""The package parses as Python 3.10, the oldest version pyproject.toml allows.

``ast.parse`` with ``feature_version=(3, 10)`` refuses the grammar added
later (``except*``, type parameter lists, the ``type`` statement, ...).  It
does not check library calls, such as a keyword argument a later Python
added to a standard function.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "streamgate").glob("*.py"))


def test_the_floor_is_the_one_pyproject_promises():
    # read with a pattern: tomllib arrived in Python 3.11
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r'^requires-python = "(.*)"$', text, re.M) == [">=3.10"]
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
