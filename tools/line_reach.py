"""Which statements of ``src/streamgate`` tier-1 and the workloads reach.

    python3 tools/line_reach.py [--root CHECKOUT]

Runs, in this one process and under a ``sys.settrace`` line tracer limited
to ``CHECKOUT/src/streamgate/`` (default: this repository):

* tier-1, as ``pytest -q --continue-on-collection-errors`` from the
  checkout's root (through ``pytest.main``);
* one untimed pass of each workload of ``perfbench/workloads.py``
  (imported, never edited) at its fixed sizes, on seed 1.

Every module's source is read before the run starts, so an edit made
during the run shifts no reported line.  Then it prints, per module,
``wc -l``, the code lines (not blank, comment or docstring, found with
``ast`` and ``tokenize``) and each statement that neither tier-1 nor a
workload reached, and a total line.  Each unreached statement is marked
by kind: ``raise`` (a refusal), ``fail`` (a ``return False, ...``
that reports a failed check), ``main`` (under ``if __name__ ==
"__main__"``) or ``OTHER``.

It cannot see code that runs in another process: the subprocesses of
``tests/test_demos.py``, ``tests/test_lazy_import.py`` and the kill test
of ``tests/test_cli.py``, and the ``simulate --threads`` workers.  A statement reached only there is listed
as unreached.  Exit code: 0, or 1 when tier-1 or a workload pass failed.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tempfile
import tokenize
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str, tree: ast.Module) -> int:
    """Lines holding a token other than a comment, outside docstrings."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(tree))


def _is_main_guard(node: ast.stmt) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name) and node.test.left.id == "__name__")


def kind(node: ast.stmt, main_lines: set[int]) -> str:
    """What an unreached statement is: a refusal, a failed check's report,
    the ``__main__`` guard's body, or something else."""
    if isinstance(node, ast.Raise):
        return "raise"
    value = node.value if isinstance(node, ast.Return) else None
    if (isinstance(value, ast.Tuple) and value.elts and isinstance(value.elts[0], ast.Constant)
            and value.elts[0].value is False):
        return "fail"
    return "main" if node.lineno in main_lines else "OTHER"


def statements(tree: ast.Module):
    """(statement, its header lines) for each statement that runs code: a
    compound statement's header ends where its first inner statement starts.
    Docstrings, ``global`` and ``nonlocal`` run nothing."""
    docs = docstring_lines(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if node.lineno in docs:
            continue
        inner = [child.lineno for child in ast.iter_child_nodes(node)
                 if isinstance(child, ast.stmt)]
        last = min(inner) - 1 if inner else node.end_lineno
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # decorators run first, on their own lines
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
        else:
            first = node.lineno
        yield node, range(first, max(first, last) + 1)


class LineTracer:
    """Records (file, line) of every line event in files under ``prefix``."""

    def __init__(self, prefix: str) -> None:
        self.prefix, self.hits = prefix, set()
        self._wanted: dict = {}

    def _global(self, frame, event, arg):
        code = frame.f_code
        wanted = self._wanted.get(code)
        if wanted is None:
            wanted = self._wanted[code] = code.co_filename.startswith(self.prefix)
        return self._local if wanted else None

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def start(self) -> None:
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(None)


def run_tests(root: Path) -> int:
    import pytest

    return int(pytest.main([str(root / "tests"), "-q", "--continue-on-collection-errors",
                            "-p", "no:cacheprovider", f"--rootdir={root}"]))


SEED = 1


def run_workloads() -> int:
    """One untimed pass of each workload on ``SEED``; the number of failed
    operations."""
    import workloads
    from tracing import NullTracer

    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name, cls in workloads.WORKLOADS.items():
            extra = {"workdir": workdir} if cls is workloads.DetectCli else {}
            work = cls(SEED, **extra)
            work.prepare()
            ledger = workloads.Ledger()
            work.run_pass(ledger, {}, NullTracer(), lambda: None)
            if hasattr(work, "cleanup"):
                work.cleanup()
            print(f"line_reach: workload {name}: {ledger.attempted} operations, "
                  f"{ledger.failed} failed {ledger.notes}", flush=True)
            failed += ledger.failed
    return failed


def report(sources: dict, hits: set) -> None:
    """Print the counts and unreached statements of ``sources``, each
    module's path mapped to its text as read before the run."""
    total_wc = total_code = 0
    total_kinds: Counter = Counter()
    for path, source in sources.items():
        tree = ast.parse(source)
        main_lines = {line for node in ast.walk(tree) if _is_main_guard(node)
                      for line in range(node.body[0].lineno, node.end_lineno + 1)}
        reached = {line for name, line in hits if name == str(path)}
        missed = sorted(((lines.start, kind(node, main_lines)) for node, lines in statements(tree)
                         if not reached.intersection(lines)))
        wc, code = source.count("\n"), code_lines(source, tree)
        kinds = Counter(mark for _, mark in missed)
        print(f"{path.name}: {wc} lines, {code} code lines, {len(missed)} statements "
              f"unreached {dict(sorted(kinds.items()))}")
        text = source.splitlines()
        for line, mark in missed:
            print(f"  {path.name}:{line} [{mark}] {text[line - 1].strip()}")
        total_wc, total_code = total_wc + wc, total_code + code
        total_kinds += kinds
    print(f"total: {total_wc} lines, {total_code} code lines, "
          f"{sum(total_kinds.values())} statements unreached {dict(sorted(total_kinds.items()))}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path, default=REPO, help="checkout to trace")
    args = ap.parse_args()
    root = args.root.resolve()
    package = root / "src" / "streamgate"
    # this checkout's package and benchmark, before anything imports them
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    os.chdir(root)
    sources = {path: path.read_text() for path in sorted(package.glob("*.py"))}
    tracer = LineTracer(str(package) + os.sep)
    tracer.start()
    try:
        tests_exit = run_tests(root)
        failed = run_workloads()
    finally:
        tracer.stop()
    print(f"line_reach: tier-1 exit {tests_exit}; not seen: the subprocesses of "
          f"test_demos, test_lazy_import and the test_cli kill test, and simulate "
          f"--threads workers")
    report(sources, tracer.hits)
    return 1 if tests_exit or failed else 0


if __name__ == "__main__":
    sys.exit(main())
