"""The code-only line counter in tools/code_lines.py, which tracks the size
of the package: what it skips and what it counts."""

import importlib.util
import os

COUNTER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "code_lines.py",
)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment leaves the line counted

# a comment line


class A:
    """A class docstring."""

    def f(self):
        """A function docstring
        over two lines."""
        text = """a string that is
        not a docstring"""
        return text


def g():
    return (
        1
    )
'''


def load_counter():
    spec = importlib.util.spec_from_file_location("code_lines", COUNTER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # import, class, def f, the two-line string, return, def g, and the
    # three lines of g's return
    assert load_counter().code_lines(SOURCE) == 10


def test_code_lines_counts_a_string_statement_after_the_first():
    source = 'def f():\n    x = 1\n    """not a\n    docstring"""\n'
    assert load_counter().code_lines(source) == 4
