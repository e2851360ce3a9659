"""List the statements of src/darboux that a pytest run never executes.

    python tools/untested_lines.py [pytest arguments]

Run from the repository root.  It puts this checkout's ``src`` first on
``sys.path``, runs pytest in its own process (default arguments: the tier-1
suite, ``-q tests``) under a ``sys.settrace`` line tracer on the package's
files, and then prints one line per statement no test reached, as
``path:line: source``, and their count.  A statement is a simple statement
or the header of a compound one (its decorators and ``def``/``class`` line,
an ``if``/``while`` test, an ``except`` clause); it has run when any of its
lines was traced.  Subprocesses (the demos) are not traced.  Only the
standard library and pytest are used; a traced tier-1 run takes a few
minutes.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "darboux"


def _code_lines(code) -> set[int]:
    """Lines holding bytecode in a code object and those nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(source: str) -> list[tuple[int, int]]:
    """(first, last) line of each statement unit of a module: simple
    statements whole, compound statements and except clauses by header."""
    units = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.stmt, ast.ExceptHandler)):
            body = getattr(node, "body", None)
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            last = body[0].lineno - 1 if body else node.end_lineno
            units.append((first, max(first, last)))
    return sorted(units)


class UntestedLines:
    """The tracer and the pytest plugin that reports what it did not see."""

    def __init__(self):
        self.files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
        self.seen = {name: set() for name in self.files}

    def trace(self, frame, event, arg):
        seen = self.seen.get(frame.f_code.co_filename)
        if seen is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        seen.add(frame.f_lineno)
        return line

    def untested(self) -> list[str]:
        out = []
        for name, path in self.files.items():
            source = path.read_text()
            executable = _code_lines(compile(source, name, "exec"))
            lines = source.splitlines()
            for first, last in _statements(source):
                span = set(range(first, last + 1))
                if span & executable and not span & self.seen[name]:
                    out.append(f"{path.relative_to(PACKAGE.parents[1])}:{first}: "
                               f"{lines[first - 1].strip()}")
        return out

    def pytest_terminal_summary(self, terminalreporter):
        untested = self.untested()
        terminalreporter.section("statements no test executed")
        for entry in untested:
            terminalreporter.write_line(entry)
        terminalreporter.write_line(f"{len(untested)} statements untested")


def main(args: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    plugin = UntestedLines()
    sys.settrace(plugin.trace)
    threading.settrace(plugin.trace)
    try:
        return int(pytest.main(args or ["-q", "tests"], plugins=[plugin]))
    finally:
        sys.settrace(None)
        threading.settrace(None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
