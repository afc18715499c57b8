"""The package keeps only what a command runs: every public name of src/asreg2
has a caller in src/asreg2 itself.  A name that only a test calls lives in
that test module (as an oracle or a helper), and other tests import it from
there.  Every invariant of the pair (S, G) reads S off its CyclicGroupAction,
so no function takes both."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "asreg2"

# public names kept for the benchmark harness, which reads them from outside
ALLOWED = {
    # perfbench/tracer.py:51 patches LambdaElement.__mul__ to count Lambda products
    "LambdaElement",
    # perfbench/tracer.py:37 reads the conductor of a product's operands
    "Cyclotomic.conductor",
    # perfbench/tracer.py:46,47 patch Echelon.add and Echelon.residue, so linalg
    # stays in the package with no production caller; the class stays whole,
    # and its rank is what the tests' eliminations read
    "Echelon",
    "Echelon.rank",
}
# perfbench/worker.py:258 reports rationals.BACKEND with every run
ALLOWED_ASSIGNMENTS = {"BACKEND"}


def _is_public(name):
    return not name.startswith("_")


def _definitions(tree):
    """(qualified name, bare name, node) of each public top-level function or
    class and each public method of a top-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _is_public(node.name):
            out.append((node.name, node.name, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _is_public(item.name):
                    out.append(("%s.%s" % (node.name, item.name), item.name, item))
    return out


def _assignments(tree):
    """(name, name, node) of each public module-level assignment: aliases
    and constants."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        out += [(t.id, t.id, node) for t in targets
                if isinstance(t, ast.Name) and _is_public(t.id)]
    return out


def _references(tree):
    """(bare name, node) of each Name, Attribute and import alias in tree."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            refs += [(alias.name, node) for alias in node.names]
    return refs


def unreferenced_public_names(src=SRC, definitions=_definitions):
    """The public names of src (its __init__.py left out), as listed by
    definitions, that no code of src outside their own body and outside
    __init__.py refers to."""
    modules = {}
    for path in sorted(src.glob("*.py")):
        if path.name != "__init__.py":
            modules[path.name] = ast.parse(path.read_text(encoding="utf-8"))
    refs = [(name, path, node) for path, tree in modules.items()
            for name, node in _references(tree)]
    missing = []
    for path, tree in modules.items():
        for qualified, name, node in definitions(tree):
            lo, hi = node.lineno, node.end_lineno
            if not any(ref == name and not (where == path and lo <= n.lineno <= hi)
                       for ref, where, n in refs):
                missing.append(qualified)
    return missing


def test_every_public_src_name_has_a_production_caller():
    unreferenced = unreferenced_public_names()
    missing = [name for name in unreferenced if name not in ALLOWED]
    assert missing == [], "public names with no caller in src/asreg2: %s" % ", ".join(missing)
    # an allowed name that gained a caller in src/asreg2 needs no allowance
    assert ALLOWED <= set(unreferenced)


def test_every_public_assignment_has_a_reader():
    unreferenced = unreferenced_public_names(definitions=_assignments)
    missing = [name for name in unreferenced if name not in ALLOWED_ASSIGNMENTS]
    assert missing == [], "public assignments with no reader in src/asreg2: %s" % ", ".join(missing)
    assert ALLOWED_ASSIGNMENTS <= set(unreferenced)


def test_no_function_takes_both_spec_and_action():
    both = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if {"spec", "action"} <= params:
                    both.append("%s:%s" % (path.name, node.name))
    assert both == [], "functions taking spec beside the action: %s" % ", ".join(both)
