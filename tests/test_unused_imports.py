"""No `idxlab` module but the package's `__init__` imports a name it never
uses, except the few that the benchmark tracer (perfbench/tracer.py) patches
by module attribute and no code calls through that module. Nor does any file
of the tests, the tools or the demos.

The check needs no linter: it reads each module's syntax tree, where a name
counts as used when it is read anywhere in the module.
"""

import ast
import pathlib

import idxlab

PACKAGE = pathlib.Path(idxlab.__file__).parent
ROOT = PACKAGE.parent.parent
OTHER_TREES = ("tests", "tools", "demos")

# (module, name): imported only so that the tracer can patch it there
TRACER_ONLY = {
    ("tuner", "correct_plan"),
    ("tuner", "encode_operator"),
    ("correction", "combined_uncertainty"),
}


def imported_and_unused(path):
    """The names ``path`` imports, and those of them it never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return imported, imported - read


def modules() -> dict:
    """Each checked file by name: a package module (but `__init__`) by its
    stem, any other file by its path from the repository root."""
    found = {p.stem: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    for tree in OTHER_TREES:
        for path in (ROOT / tree).glob("*.py"):
            found[path.relative_to(ROOT).as_posix()] = path
    return dict(sorted(found.items()))


def test_no_module_imports_a_name_it_never_uses():
    unused = set()
    for module, path in modules().items():
        unused |= {(module, name) for name in imported_and_unused(path)[1]}
    assert unused <= TRACER_ONLY, sorted(unused - TRACER_ONLY)


def test_every_tracer_only_import_is_still_imported_and_unused():
    found = {module: imported_and_unused(path) for module, path in modules().items()}
    for module, name in sorted(TRACER_ONLY):
        imported, unused = found[module]
        assert name in imported, (module, name)
        assert name in unused, (module, name)
