"""Count the code-only lines of the ``idxlab`` package.

A line counts when a token other than a comment or a line break lies on it
and it is not part of a docstring (the first statement of a module, class or
function body, when that statement is a string). A multi-line string that
is not a docstring counts every line it spans.

    python3 tools/code_lines.py

prints one ``<lines>  <module>`` row per module of ``src/idxlab`` and their
total.
"""

import ast
import io
import pathlib
import sys
import tokenize

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code-only lines of the Python ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "idxlab"
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.stem}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
