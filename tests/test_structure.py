"""Guards on the package's structure, read from the source without running it."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# what oracles may take from the closed-form path's modules: the registry's
# `proposed` entry and the complex route of X(z)/z
ORACLE_IMPORTS = {
    "closedform": {"SequenceTable", "eval_sequence", "invert"},
    "pfe": {"_divided_by_z", "complex_pfe_over_z", "principal_parts"},
}


def test_oracles_import_only_their_own_route():
    tree = ast.parse((ROOT / "src/zinv/oracles.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = {alias.name for alias in node.names}
            if node.module is None:  # from . import module
                assert not names & ORACLE_IMPORTS.keys(), names
            elif node.module in ORACLE_IMPORTS:
                assert names <= ORACLE_IMPORTS[node.module], (node.module, names)


def test_pfe_imports_only_errors_and_polynomial():
    # the real route stands on exact polynomial arithmetic, not on the factoring
    tree = ast.parse((ROOT / "src/zinv/pfe.py").read_text())
    modules = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert modules == {"errors", "polynomial"}


def test_closedform_imports_no_private_name_from_pfe():
    tree = ast.parse((ROOT / "src/zinv/closedform.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "pfe":
            assert not [a.name for a in node.names if a.name.startswith("_")]


def test_only_real_pfe_builds_the_closed_form():
    # the expansion and the closed form are one record, with one home
    builders = set()
    for path in sorted((ROOT / "src/zinv").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if isinstance(node, ast.Call) and name == "ClosedFormExpr":
                    builders.add((path.stem, getattr(top, "name", None)))
    assert builders == {("pfe", "real_pfe")}


# what identities may take from the package: the sweep checks the closed
# form, so it shares no code with it beyond the table type
IDENTITY_IMPORTS = {"closedform": {"SequenceTable"}, "errors": {"ConjugateSymmetryError"}}


def test_identities_import_only_the_table_type():
    tree = ast.parse((ROOT / "src/zinv/identities.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = {alias.name for alias in node.names}
            assert node.module in IDENTITY_IMPORTS, (node.module, names)
            assert names <= IDENTITY_IMPORTS[node.module], (node.module, names)


def test_float_range_rule_only_in_term_col_and_sum():
    # the formula bodies are plain arithmetic: only a term's column and the
    # sum check the float range and name what overflowed
    tree = ast.parse((ROOT / "src/zinv/closedform.py").read_text())
    owners = set()
    for top in tree.body:
        for node in ast.walk(top):
            calls_finite = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_finite"
            message = isinstance(node, ast.Constant) and "overflows a float" in str(node.value)
            if calls_finite or message:
                owners.add(getattr(top, "name", None))
    assert owners == {"_term_col", "_sum"}


def test_closedform_evaluation_rounds_only_in_sum():
    # eval_sequence and what it calls compute in the arithmetic of the terms'
    # data: no float literal, and float() only in _sum, which rounds each value
    # once; isinstance(v, float) tests are not conversions
    tree = ast.parse((ROOT / "src/zinv/closedform.py").read_text())
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    body, todo = set(), ["eval_sequence"]
    while todo:
        name = todo.pop()
        if name not in body:
            body.add(name)
            todo += [n.id for n in ast.walk(funcs[name]) if isinstance(n, ast.Name) and n.id in funcs]
    assert {"_s0", "_pair_chunks", "_real_pole_col", "_term_col", "_sum"} <= body
    literals, converters = set(), set()
    for name in body:
        tested = {
            id(t) for n in ast.walk(funcs[name])
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "isinstance"
            for t in ast.walk(n.args[1])
        }
        for n in ast.walk(funcs[name]):
            if isinstance(n, ast.Constant) and isinstance(n.value, float):
                literals.add(name)
            if isinstance(n, ast.Name) and n.id == "float" and id(n) not in tested:
                converters.add(name)
    assert (literals, converters) == (set(), {"_sum"})


def test_traced_layer_functions_exist():
    # bench/spans.py wraps these by name; a rename must fail here, not only
    # in a traced bench run
    tree = ast.parse((ROOT / "bench/spans.py").read_text())
    (layers,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in node.targets)
    )
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"zinv.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"zinv.{layer}.{name}"
