"""List the statements of ``src/mwslice`` that the tier-1 suite never runs.

Usage, from anywhere::

    python tools/untraced.py [pytest arguments]

The suite runs in this process through ``pytest.main`` (from the repository
root, so with its ``testpaths``) under a ``sys.settrace`` line tracer, with
the package imported from ``src``.  Afterwards every statement of the package
that has bytecode but never fired a line event is printed as
``path:line: text``, in file order; the exit status is pytest's.  Commands
that tests start in a subprocess are not traced.  The statements that only
such a process reaches, read from the AST (all of ``__main__.py`` and the
body of each ``if __name__ == "__main__":``), are printed apart, on one
last ``subprocess only:`` line.  Hypothesis runs derandomized, so the
list does not change between runs of one tree.  The tracer stops tracing a code object
once every line of it has run, which keeps the run to a few times the
untraced suite.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mwslice"
PREFIX = str(PACKAGE) + os.sep


def _code_lines(code) -> set[int]:
    """The lines that hold instructions of this code object, nested ones excluded."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)  # the def line belongs to the enclosing scope
    return lines


class LineTracer:
    """Records (file, line) for each line event in the package's frames."""

    def __init__(self) -> None:
        self.seen: set[tuple[str, int]] = set()
        self._unseen: dict = {}  # code object -> its lines not yet run

    def _global(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PREFIX):
            return None
        unseen = self._unseen.get(code)
        if unseen is None:
            unseen = self._unseen[code] = _code_lines(code)
        return self._local if unseen else None

    def _local(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            self.seen.add((code.co_filename, frame.f_lineno))
            unseen = self._unseen[code]
            unseen.discard(frame.f_lineno)
            if not unseen:
                return None
        return self._local

    def start(self) -> None:
        sys.settrace(self._global)  # the suite runs in this one thread

    def stop(self) -> None:
        sys.settrace(None)


def _all_code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _all_code_lines(const)
    return lines


def _head(node: ast.stmt) -> range:
    """The lines of a statement outside its nested blocks: decorators and header."""
    first = min([d.lineno for d in getattr(node, "decorator_list", ())] + [node.lineno])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and body[0].lineno > node.lineno:
        return range(first, body[0].lineno)
    return range(first, node.end_lineno + 1)


def untraced(path: Path, seen: set[tuple[str, int]]) -> list[tuple[int, str]]:
    """(line, text) of each statement in the file with bytecode that never ran."""
    source = path.read_text(encoding="utf-8")
    executable = _all_code_lines(compile(source, str(path), "exec"))
    ran = {line for name, line in seen if name == str(path)}
    text = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            head = set(_head(node))
            if head & executable and not head & ran:
                out.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(out)


def script_lines(path: Path) -> set[int]:
    """The first lines of the statements that run only when the file runs as a
    script: every one of ``__main__.py``, and those under ``if __name__ == "__main__":``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.name == "__main__.py":
        blocks = tree.body
    else:
        blocks = [stmt for node in tree.body if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "__name__ == '__main__'" for stmt in node.body]
    return {node.lineno for block in blocks for node in ast.walk(block) if isinstance(node, ast.stmt)}


class _TraceProfile:
    """Hypothesis without a deadline, which the tracer's slowdown would break,
    and with fixed examples, so that two runs list the same statements."""

    @staticmethod
    def pytest_configure(config) -> None:
        from hypothesis import settings

        settings.register_profile("untraced", deadline=None, derandomize=True)
        settings.load_profile("untraced")


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    tracer = LineTracer()
    tracer.start()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv], plugins=[_TraceProfile()])
    finally:
        tracer.stop()
    subprocess_only = []
    for path in sorted(PACKAGE.glob("*.py")):
        script = script_lines(path)
        for line, text in untraced(path, tracer.seen):
            where = f"{path.relative_to(ROOT)}:{line}"
            if line in script:
                subprocess_only.append(where)
            else:
                print(f"{where}: {text}")
    if subprocess_only:
        print("subprocess only:", " ".join(subprocess_only))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
