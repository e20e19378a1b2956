"""No `idxlab` module but the package's `__init__` imports a name it never
uses, except the few that the benchmark tracer (perfbench/tracer.py) patches
by module attribute and no code calls through that module.

The check needs no linter: it reads each module's syntax tree, where a name
counts as used when it is read anywhere in the module.
"""

import ast
import pathlib

import idxlab

PACKAGE = pathlib.Path(idxlab.__file__).parent

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


def modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def test_no_module_imports_a_name_it_never_uses():
    unused = set()
    for path in modules():
        unused |= {(path.stem, name) for name in imported_and_unused(path)[1]}
    assert unused <= TRACER_ONLY, sorted(unused - TRACER_ONLY)


def test_every_tracer_only_import_is_still_imported_and_unused():
    found = {path.stem: imported_and_unused(path) for path in modules()}
    for module, name in sorted(TRACER_ONLY):
        imported, unused = found[module]
        assert name in imported, (module, name)
        assert name in unused, (module, name)
