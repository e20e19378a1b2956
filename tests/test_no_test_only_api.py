"""Every top-level function, class and method in `idxlab` is read somewhere
outside the tests: elsewhere in the package, in the demos, or in the
benchmark (perfbench). Public API that only tests call is dead weight, so
the few exceptions are listed by name and must stay exactly those.

The check needs no linter: it reads syntax trees, where a definition counts
as read when its name is loaded, as a plain name or as an attribute, anywhere
but inside its own body. Methods match by name alone, so a method shares its
reads with every attribute of that name. Dunder methods are called by Python
itself and are not checked.
"""

import ast
import collections
import pathlib

import idxlab

PACKAGE = pathlib.Path(idxlab.__file__).parent
ROOT = PACKAGE.parent.parent
READERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# read only by tests today
TEST_ONLY = {
    # acceptance criteria 5 and 6 read these
    "plan.PlanNode.clone",
    "correction.PlanCorrection.corrected_leaf_count",
    "tuner.OnlineTuner.model_for",
    # the per-kind training loss of the planned round diagnostics will read it
    "costmodel.CostMultiplierModel.loss_and_gradients",
}


def loaded_names(node) -> collections.Counter:
    """How often each name is read under ``node``, as a name or an attribute."""
    reads = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            reads[sub.attr] += 1
    return reads


def definitions(tree, module):
    """(qualified name, name, node) of each top-level function and class of
    ``tree`` and each method of its classes, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def unread_definitions() -> set:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    reads = collections.Counter()
    for tree in trees.values():
        reads += loaded_names(tree)
    for path in READERS:
        reads += loaded_names(ast.parse(path.read_text()))
    return {
        qualified
        for module, tree in trees.items()
        for qualified, name, node in definitions(tree, module)
        if reads[name] <= loaded_names(node)[name]
    }


def test_readers_are_found():
    assert len(READERS) > 5 and all(p.exists() for p in READERS)


def test_no_definition_is_read_only_by_tests():
    unread = unread_definitions()
    assert unread <= TEST_ONLY, sorted(unread - TEST_ONLY)


def test_every_listed_exception_is_still_read_only_by_tests():
    unread = unread_definitions()
    assert TEST_ONLY <= unread, sorted(TEST_ONLY - unread)
