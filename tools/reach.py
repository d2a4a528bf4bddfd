"""Reach report: every statement of the package that the tests never run.

    python tools/reach.py [extra pytest args]

Runs pytest in this process under sys.settrace, recording the lines run
in src/dyckframes only, then prints each statement of the package that
no line event reached.  A statement that compiles to no bytecode (a bare
annotation, a docstring, global) is skipped, since it can raise no
event.  A reason in REASONS is keyed by file, enclosing function and
statement text, not by line, so an edit elsewhere in the file leaves it
standing; it says how many statements with that key stay unreached.
Each unreached statement is printed with its reason; the exit code is
0 when every unreached statement has one and 1 when one does not, or
when a reason's count is not the number of unreached statements with
its key, as when its statement is gone or the tests now reach it (the
list is stale).  Code that runs only in a subprocess is never traced.

By default the two stream tests and acceptance criterion 4 are
deselected: under tracing they take minutes and reach nothing new.
Tracing slows the package several times over, so the tests in UNTRACED,
whose wall-clock bounds cannot hold under it, are left out of the traced
run and run in a second pytest run without the tracer.  Both exit codes
are printed, and either run failing makes the exit code 1 too.  The
whole run takes about two minutes on a 2-vCPU host.  Standard library
and pytest only; not part of the tier-1 suite.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dyckframes"

DESELECT = (
    "tests/test_cli.py::TestEnumerate::test_csv_rows_stream",
    "tests/test_cli.py::TestEnumerate::test_json_rows_stream",
    "tests/test_acceptance.py::test_criterion_4_decider_agreement_sweep",
)
UNTRACED = ("tests/test_counting.py::TestFrameSum::test_matches_transfer_dp_up_to_n_24",)

_SUBPROCESS = "the module runs only under python -m, which the tests start as subprocesses"
# (file, enclosing function or "" at module level, the statement's lines
# stripped and joined by spaces): (how many such statements stay
# unreached, why no test reaches them).
REASONS = {
    ("__main__.py", "", "from .cli import main"): (1, _SUBPROCESS),
    ("__main__.py", "", "raise SystemExit(main())"): (1, _SUBPROCESS),
    (
        "frames.py",
        "canonical_representative",
        'raise NotAdmissible(f"not reducible to the null frame: {frame.counts!r}")',
    ): (1, "a guard: every validated Frame reduces to (1,)"),
    ("frames.py", "consequences_hold", "return False"): (3, "only a false theorem reaches them"),
}


def _code_lines(code) -> set[int]:
    """Every line that code or a code object nested in it has bytecode on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(source: str, filename: str) -> list[tuple[int, str, range]]:
    """(first line, enclosing function, lines) of each statement with bytecode.

    The enclosing function is a dotted name such as Frame.parse, or ""
    at module level.  A decorated statement starts at its first
    decorator.  A compound statement's lines are its header only, up to
    the start of its body, so that a run of the body does not count as a
    run of the header.
    """
    bytecode = _code_lines(compile(source, filename, "exec"))
    found = []

    def start(node: ast.stmt) -> int:
        return min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])

    def visit(parent: ast.AST, scope: str) -> None:
        for node in ast.iter_child_nodes(parent):
            inner = scope
            if isinstance(node, ast.stmt):
                first = start(node)
                body = getattr(node, "body", None)
                last = start(body[0]) - 1 if body else node.end_lineno
                lines = range(first, max(first, last) + 1)
                if bytecode.intersection(lines):
                    found.append((node.lineno, scope, lines))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{node.name}" if scope else node.name
            visit(node, inner)

    visit(ast.parse(source, filename), "")
    return sorted(found, key=lambda item: item[0])


def keyed_statements(path: Path) -> list[tuple[int, tuple[str, str, str], range]]:
    """(first line, REASONS key, lines) of each statement with bytecode in path."""
    source = path.read_text()
    text = source.splitlines()
    return [
        (lineno, (path.name, scope, " ".join(text[i - 1].strip() for i in lines)), lines)
        for lineno, scope, lines in _statements(source, str(path))
    ]


def _trace(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with args; return its exit code and the lines run per file."""
    prefix = str(PACKAGE) + os.sep
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local
        return None

    sys.settrace(calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), seen


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    options = ["-q", "-p", "no:cacheprovider"]
    args = [*options, "tests"]
    args += [f"--deselect={test}" for test in (*DESELECT, *UNTRACED)] + argv
    code, seen = _trace(args)
    untraced = int(pytest.main([*options, *UNTRACED]))
    unexplained = 0
    unreached = dict.fromkeys(REASONS, 0)
    for path in sorted(PACKAGE.glob("*.py")):
        ran = seen.get(str(path), set())
        for lineno, key, lines in keyed_statements(path):
            if not ran.isdisjoint(lines):
                continue
            _, reason = REASONS.get(key, (0, None))
            if reason is None:
                unexplained += 1
            else:
                unreached[key] += 1
            print(f"{path.name}:{lineno}  {key[2]}")
            print(f"    {reason or 'NO REASON'}")
    stale = 0
    for (name, scope, statement), (expected, reason) in REASONS.items():
        found = unreached[name, scope, statement]
        if found != expected:  # the statement is gone, reached, or repeated
            print(f"stale reason  {name} {scope or '<module>'}: {statement!r}: "
                  f"{found} unreached, not {expected}: {reason}")
            stale += 1
    print(f"pytest exited {code}; {unexplained} unreached without a reason, {stale} stale")
    print(f"untraced pytest exited {untraced}")
    return 1 if unexplained or stale or code or untraced else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
