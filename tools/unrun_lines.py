"""List the statements of the ``idxlab`` package that a pytest run never runs.

    python3 tools/unrun_lines.py [pytest arguments]

runs pytest in this process with the given arguments (all of them go to
pytest; the script has no options of its own) under a `sys.settrace` line
tracer that records only the files of ``src/idxlab``. Threads started during
the run are traced as well (`threading.settrace`). The worker processes of a
process pool are not: a line that only a worker runs, such as a replication
of ``run_experiment(jobs=2)``, is reported as never run.

For each function, in file and line order, it prints one row
``<file>:<function>: <lines>`` with the first line of each statement that
never ran; a docstring is not a statement here. Statements of a class body
are listed under the class, and module-level ones under ``<module>``. A
statement ran when a line of its own span ran: for a compound statement
(``if``, ``for``, ``def``, ...) its header, from its first decorator to the
line before its body. The last row counts the statements that never ran.

``tools/unrun_lines.txt`` lists, each with its reason, the statements that a
run over tier-1 with ``--hypothesis-seed=0`` leaves unrun.
"""

import ast
import os
import pathlib
import sys
import threading

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "idxlab"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_docstring(node, parent) -> bool:
    return (
        isinstance(parent, (ast.Module, *_SCOPES))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _span(node) -> range:
    """The lines whose execution shows that statement ``node`` ran."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    last = node.end_lineno
    body = getattr(node, "body", None)
    if body:  # a compound statement: its header
        last = max(node.lineno, body[0].lineno - 1)
    return range(first, last + 1)


def statements(source: str) -> list:
    """(function, span) of each statement of ``source``, in line order,
    docstrings left out; ``function`` is the qualified name of the innermost
    function or class around the statement, or ``<module>``."""
    out = []

    def visit(parent, scope):
        for child in ast.iter_child_nodes(parent):
            inner = scope
            if isinstance(child, ast.stmt) and not _is_docstring(child, parent):
                out.append((scope, _span(child)))
            if isinstance(child, _SCOPES):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return sorted(out, key=lambda row: row[1].start)


def unrun(source: str, ran) -> list:
    """(function, [first lines]) for each function of ``source`` with a
    statement none of whose span is in the line set ``ran``."""
    by_function = {}
    for function, span in statements(source):
        if not any(line in ran for line in span):
            by_function.setdefault(function, []).append(span.start)
    return list(by_function.items())


class LineTracer:
    """The lines run in each file of ``files``, by absolute path."""

    def __init__(self, files):
        self.ran = {path: set() for path in files}
        self._wanted = {}  # co_filename -> its line set, or None

    def _lines_of(self, filename):
        if filename not in self._wanted:
            self._wanted[filename] = self.ran.get(os.path.realpath(filename))
        return self._wanted[filename]

    def __call__(self, frame, event, arg):
        lines = self._lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local


def main(argv) -> int:
    import pytest

    files = sorted(str(path) for path in PACKAGE.glob("*.py"))
    # read before the run: a file edited while pytest runs would otherwise
    # be matched against lines traced in its older text
    sources = {
        path: pathlib.Path(path).read_text(encoding="utf-8") for path in files
    }
    tracer = LineTracer(files)
    sys.path.insert(0, str(SRC))  # import the package whose files are traced
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path, source in sources.items():
        name = os.path.relpath(path, SRC.parent)
        for function, lines in unrun(source, tracer.ran[path]):
            total += len(lines)
            print(f"{name}:{function}: {' '.join(map(str, lines))}")
    print(f"{total} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
