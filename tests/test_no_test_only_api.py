"""Every top-level function, class and method in `idxlab` is read somewhere
outside the tests: elsewhere in the package, in the demos, or in the
benchmark (perfbench). Public API that only tests call is dead weight, so
the few exceptions are listed by name and must stay exactly those.

The check needs no linter: it reads syntax trees, where a definition counts
as read when its name is loaded, as a plain name or as an attribute, anywhere
but inside its own body. Methods match by name alone, so a method shares its
reads with every attribute of that name. Dunder methods are called by Python
itself and are not checked.

Nor is a knob that only tests turn: every parameter with a default of an
`idxlab` function, method or ``__init__`` must be set, by position or by
keyword, by some call outside the tests (a recursive call counts), or be
listed with a reason. A call matches by the function's name, or the class's
for an ``__init__``; a ``*`` or ``**`` argument sets every parameter it can
reach.
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

# defaulted parameters that only tests set
TEST_ONLY_PARAMETERS = {
    # tests build ground truths with chosen hidden factors
    "simulator.make_ground_truth(choices)",
    # tests apply several corrections to one plan through one ledger
    "correction.update_cost(ledger)",
    # gradient checks with dropout on
    "costmodel.CostMultiplierModel.loss_and_gradients(drop_rng)",
    # the console script reads sys.argv; tests pass their own arguments
    "cli.main(argv)",
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


def definitions(tree, module, inits=False):
    """(qualified name, name, node) of each top-level function and class of
    ``tree`` and each method of its classes, dunders left out; with
    ``inits``, each ``__init__`` too, under its class's name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__" and inits:
                    yield f"{module}.{node.name}.__init__", node.name, item
                elif not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def package_trees() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def unread_definitions() -> set:
    trees = package_trees()
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


def calls(tree) -> list:
    """(called name, call node) of each call under ``tree`` whose callee is a
    plain name or an attribute."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                out.append((node.func.id, node))
            elif isinstance(node.func, ast.Attribute):
                out.append((node.func.attr, node))
    return out


def sets(call, position, name) -> bool:
    """Whether ``call`` sets the parameter ``name``, the ``position``-th one
    a caller passes (None when it can be set by keyword only)."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > position


def defaulted_parameters(node):
    """(name, position a caller passes it at, or None) of each parameter of
    the function ``node`` that has a default; a method's ``self`` is not
    passed."""
    args = node.args
    positional = args.posonlyargs + args.args
    shift = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - shift
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def unset_parameters() -> set:
    """``module.function(parameter)`` of each defaulted parameter that no
    call outside the tests sets."""
    trees = package_trees()
    readers = list(trees.values()) + [ast.parse(p.read_text()) for p in READERS]
    by_name = collections.defaultdict(list)
    for tree in readers:
        for called, call in calls(tree):
            by_name[called].append(call)
    unset = set()
    for module, tree in trees.items():
        for qualified, name, node in definitions(tree, module, inits=True):
            if not isinstance(node, ast.FunctionDef):
                continue
            for param, position in defaulted_parameters(node):
                if not any(sets(c, position, param) for c in by_name[name]):
                    label = qualified.removesuffix(".__init__")
                    unset.add(f"{label}({param})")
    return unset


def test_readers_are_found():
    assert len(READERS) > 5 and all(p.exists() for p in READERS)


def test_no_definition_is_read_only_by_tests():
    unread = unread_definitions()
    assert unread <= TEST_ONLY, sorted(unread - TEST_ONLY)


def test_every_listed_exception_is_still_read_only_by_tests():
    unread = unread_definitions()
    assert TEST_ONLY <= unread, sorted(TEST_ONLY - unread)


def test_no_parameter_is_set_only_by_tests():
    unset = unset_parameters()
    assert unset <= TEST_ONLY_PARAMETERS, sorted(unset - TEST_ONLY_PARAMETERS)


def test_every_listed_parameter_is_still_set_only_by_tests():
    unset = unset_parameters()
    assert TEST_ONLY_PARAMETERS <= unset, sorted(TEST_ONLY_PARAMETERS - unset)
