"""Line census: the function-body lines of src/superflows that the test suite never runs.

    python tests/line_census.py

Runs the test suite in this interpreter under sys.settrace and reads every
function-body line of the package from code.co_lines() of the functions
compiled from its source files; the lines of comprehensions, generator
expressions and lambdas count for the function around them.  Each unrun line
is keyed by its file, its function's qualified name and its stripped source
text, never by line number, so an edit elsewhere does not move the key.
tests/unrun_lines.txt lists the lines allowed to stay unrun, one per line, as

    file | function | source | reason

The census fails (exit 1) on an unrun line that is not listed, printed in
that form with a reason left to fill in, and on a listed line that now runs,
so the list only shrinks.  It also fails when the suite fails.  The
tracemalloc cases of test_checks_hold_no_sample_list are left out: the
tracer allocates inside their measured window.  They run untraced with the
rest of the suite.  Line tables differ between CPython versions; the one
list holds on 3.11, 3.12 and 3.13, the versions that CI runs this under.
"""

from __future__ import annotations

import inspect
import sys
import threading
from collections import Counter
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "superflows"
LISTED = Path(__file__).with_name("unrun_lines.txt")
UNTRACEABLE = "test_checks_hold_no_sample_list"


def body_lines() -> dict:
    """{(path, line): qualified function name} over every function body of the package."""
    lines = {}

    def walk(code: CodeType, path: str, prefix: str, owner: str | None):
        for const in code.co_consts:
            if not isinstance(const, CodeType):
                continue
            if const.co_name.startswith("<") and owner is not None:
                name = owner  # a comprehension, generator expression or lambda inside a function
            else:
                name = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                for _, _, line in const.co_lines():
                    if line is not None and (line != const.co_firstlineno or name == owner):
                        lines.setdefault((path, line), name)
                walk(const, path, name + ".<locals>.", name)
            else:
                walk(const, path, name + ".", None)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), str(path), "", None)
    return lines


def run_traced() -> tuple[int, set]:
    """The suite's exit code and every (path, line) of the package that ran."""
    package = str(PACKAGE)
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    threading.settrace(enter)
    sys.settrace(enter)
    try:
        code = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                            "-k", f"not {UNTRACEABLE}"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def entry(path: str, name: str, line: int) -> tuple[str, str, str]:
    text = Path(path).read_text().splitlines()[line - 1].strip()
    return Path(path).name, name, text


def read_listed() -> Counter:
    listed = Counter()
    for number, raw in enumerate(LISTED.read_text().splitlines(), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = [f.strip() for f in raw.split(" | ")]
        if len(fields) != 4 or not fields[3]:
            sys.exit(f"{LISTED.name}:{number}: want 'file | function | source | reason'")
        listed[tuple(fields[:3])] += 1
    return listed


def main() -> int:
    code, ran = run_traced()
    lines = body_lines()
    unrun = Counter(entry(path, name, line)
                    for (path, line), name in sorted(lines.items()) if (path, line) not in ran)
    listed = read_listed()
    new, stale = unrun - listed, listed - unrun
    for key in new.elements():
        print("unrun, not listed: " + " | ".join(key) + " | ?")
    for key in stale.elements():
        print("listed, but ran:   " + " | ".join(key))
    print(f"census: {sum(unrun.values())} of {len(lines)} function-body lines unrun, "
          f"{sum(new.values())} not listed, {sum(stale.values())} listed but ran; "
          f"suite exit {code}")
    return int(bool(code or new or stale))


if __name__ == "__main__":
    sys.exit(main())
