"""The unrun-statement report of tools/unrun_lines.py, on a small source
with a known set of lines that ran."""

import importlib.util
import os
import sys

REPORTER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "unrun_lines.py",
)

SOURCE = '''"""A module docstring."""

import os


def f(x):
    """A docstring is never a statement."""
    if x:
        return 1
    return (
        2
    )


@staticmethod
def g():
    pass


class A:
    """A class docstring."""

    limit = 3

    def m(self):
        def inner():
            return 0

        return inner
'''


def load_reporter():
    spec = importlib.util.spec_from_file_location("unrun_lines", REPORTER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_statement_of_a_source_that_never_ran_is_reported():
    assert load_reporter().unrun(SOURCE, set()) == [
        ("<module>", [3, 6, 15, 20]),
        ("f", [8, 9, 10]),
        ("g", [17]),
        ("A", [23, 25]),
        ("A.m", [26, 29]),
        ("A.m.inner", [27]),
    ]


def test_a_statement_ran_when_a_line_of_its_own_span_ran():
    # the import and the defs ran, the decorator line stands for g's def,
    # f ran with x false (its return's second line is in its span), the
    # class body ran, and m was never called
    ran = {3, 6, 8, 11, 15, 20, 23, 25}
    assert load_reporter().unrun(SOURCE, ran) == [
        ("f", [9]),
        ("g", [17]),
        ("A.m", [26, 29]),
        ("A.m.inner", [27]),
    ]


def test_a_body_line_does_not_count_for_its_header():
    # line 9 is the body of the if on line 8, not part of the if's span
    reported = dict(load_reporter().unrun(SOURCE, {9}))
    assert reported["f"] == [8, 10]


def test_the_tracer_records_lines_of_the_traced_files_only(tmp_path):
    reporter = load_reporter()
    path = tmp_path.resolve() / "traced.py"
    path.write_text("def f(x):\n    if x:\n        return 1\n    return 2\n")
    namespace = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    tracer = reporter.LineTracer([str(path)])
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        namespace["f"](False)
    finally:
        sys.settrace(previous)
    assert tracer.ran == {str(path): {2, 4}}
    assert reporter.unrun(path.read_text(), tracer.ran[str(path)]) == [
        ("<module>", [1]),
        ("f", [3]),
    ]


LISTED_PATH = os.path.join(os.path.dirname(REPORTER_PATH), "unrun_lines.txt")


def listed_rows() -> list:
    """(file, function, [lines], reason) of each row of the checked-in list
    of statements that tier-1 leaves unrun."""
    rows = []
    with open(LISTED_PATH, encoding="utf-8") as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                row, _, reason = line.partition("  # ")
                path, function, lines = row.split(":")
                rows.append((path, function, [int(n) for n in lines.split()], reason))
    return rows


def test_every_listed_unrun_line_starts_a_statement_of_its_function():
    reporter = load_reporter()
    root = os.path.dirname(os.path.dirname(REPORTER_PATH))
    rows = listed_rows()
    assert rows
    for path, function, lines, reason in rows:
        assert reason.strip(), path
        with open(os.path.join(root, path), encoding="utf-8") as f:
            starts = {
                (scope, span.start) for scope, span in reporter.statements(f.read())
            }
        for line in lines:
            assert (function, line) in starts, f"{path}:{function}: {line}"
