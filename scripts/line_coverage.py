#!/usr/bin/env python3
"""Report the source lines that a pytest run never executes.

Runs pytest in-process, with the arguments given after ``--``, under a
``sys.settrace`` tracer that follows only the files under one source
directory. Prints each executable line of those files that never ran, as
``path:line: text``, then a count. A line is executable when a code object
of its file (the module's or a nested one's) maps an instruction to it.
Code run in a subprocess is not traced.

Usage: python scripts/line_coverage.py [--source src/mapproj] [-- PYTEST ARGS...]
Example: PYTHONPATH=src python scripts/line_coverage.py -- -q -p no:cacheprovider tests
"""

import argparse
import os
import sys
import threading
from pathlib import Path

import pytest


def executable_lines(path: Path) -> set[int]:
    """The line numbers of a file's code objects, nested ones included."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def run_traced(source: Path, pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run in each file under ``source``."""
    prefix = str(source.resolve()) + os.sep
    ran: dict[str, set[int] | None] = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ran:
            inside = os.path.realpath(name).startswith(prefix)
            ran[name] = set() if inside else None
        lines = ran[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict[str, set[int]] = {}
    for name, lines in ran.items():
        if lines is not None:
            by_path.setdefault(os.path.realpath(name), set()).update(lines)
    return int(code), by_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--source", default="src/mapproj", type=Path,
                        help="directory whose .py files are traced (default: src/mapproj)")
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    args = parser.parse_args(argv)
    code, ran = run_traced(args.source, args.pytest_args)
    missed = total = 0
    for path in sorted(args.source.rglob("*.py")):
        lines = executable_lines(path)
        text = path.read_text(encoding="utf-8").splitlines()
        never = sorted(lines - ran.get(os.path.realpath(path), set()))
        total += len(lines)
        missed += len(never)
        for line in never:
            print(f"{path}:{line}: {text[line - 1].strip()}")
    print(f"{missed} of {total} executable lines under {args.source} never ran")
    return code


if __name__ == "__main__":
    sys.exit(main())
