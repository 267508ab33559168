"""Static checks on the source tree.

Every module-level name of the package is used somewhere in the package,
or is public and exported in ``ellipsum.__all__``, so a helper whose last
caller goes is deleted with it, and one that only tests call lives in the
tests; the test oracles import nothing from the package they check; no
module imports numpy, and none reads mpmath's raw parts, imports mpmath or
calls it; the tests of ellipsum.wide import no mpmath either; and E takes
no truncation policy: the scalar type alone picks its method.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ellipsum"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _bound_names(statements):
    """Names a block of module-level statements defines (imports excluded),
    looking into loops and conditionals but not into functions or classes."""
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    yield sub.id
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _bound_names(getattr(node, field, []))


def _used_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_module_name_is_used():
    trees = {path.name: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        used.update(_used_names(tree))
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in set(_bound_names(tree.body))
                    if name.startswith("_") and not name.startswith("__")
                    and name not in used)
    assert unused == []


def _exported(tree: ast.Module) -> list:
    """The names a module's ``__all__`` lists."""
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"]]
    return ast.literal_eval(value)


def test_every_public_module_name_is_used():
    """A public name counts as used when the package reads it or
    ``ellipsum.__all__`` lists it; a test's read does not count, nor does an
    import."""
    trees = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    used = set(_exported(trees["__init__"]))
    for tree in trees.values():
        used.update(_used_names(tree))
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in set(_bound_names(tree.body))
                    if not name.startswith("_") and name not in used)
    assert unused == []


def _imports(tree: ast.Module):
    """(top-level module name, line) of every import in a tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield (node.module or "").split(".")[0], node.lineno


def test_oracles_import_nothing_from_the_package():
    imported = [name for name, _ in _imports(_parse(ROOT / "tests" / "oracles.py"))]
    assert "ellipsum" not in imported


def test_no_module_imports_numpy():
    """numpy is a test dependency only: the package runs without it."""
    imports = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
               for name, line in _imports(_parse(path)) if name == "numpy"]
    assert imports == []


# Every record of the package: a NamedTuple, or a subclass of a private
# NamedTuple of its fields that validates them in __new__.
RECORDS = {
    "kernel": ["Nome"],
    "catalog": ["SamplingRegion", "ParamPoint", "Identity"],
    "report": ["VerificationReport"],
    "series": ["OmegaSpec"],
    "suites": ["Check"],
    "inversion": ["RStepPair", "RawRPair", "KrattenthalerPair"],
    "multivar": ["Partition", "CnPoint"],
}


def _record_fields(tree: ast.Module) -> dict:
    """{record name: its field names} of the records a module defines."""
    fields = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = [base.id for base in node.bases if isinstance(base, ast.Name)]
        if "NamedTuple" in bases:
            fields[node.name] = [stmt.target.id for stmt in node.body
                                 if isinstance(stmt, ast.AnnAssign)
                                 and isinstance(stmt.target, ast.Name)]
        elif len(bases) == 1 and bases[0] in fields:
            fields[node.name] = fields.pop(bases[0])
    return fields


def test_every_record_field_is_read():
    """A field that no code reads as an attribute is dead weight on every
    record that sets it; the package and its tests are the readers."""
    records = {path.stem: _record_fields(_parse(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: sorted(fields) for module, fields in records.items()
            if fields} == {module: sorted(names) for module, names in RECORDS.items()}
    read = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]:
        read.update(node.attr for node in ast.walk(_parse(path))
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    unread = [f"{cls}.{name}" for fields in records.values()
              for cls, names in fields.items() for name in names
              if name not in read]
    assert all(names for fields in records.values() for names in fields.values())
    assert unread == []


def test_eval_E_takes_no_policy_and_the_package_exports_none():
    kernel = _parse(PACKAGE / "kernel.py")
    (eval_e,) = [node for node in kernel.body
                 if isinstance(node, ast.FunctionDef) and node.name == "eval_E"]
    args = eval_e.args
    assert [arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)] == ["x", "p"]
    assert args.vararg is None and args.kwarg is None
    import ellipsum

    assert "eval_E" in ellipsum.__all__
    assert [name for name in dir(ellipsum) if "polic" in name.lower()] == []


def _docstrings(tree: ast.Module) -> set:
    """The ids of the docstring nodes of a module, its classes and functions."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def test_one_extended_type_and_no_mpmath():
    """The kernel reads ellipsum.wide numbers through their own parts: no
    module reads mpmath's raw parts, the kernel tests no attribute for a
    scalar type, and no code imports mpmath, names it or passes its name as
    a string (to ``importlib`` or ``__import__``); docstrings may cite it."""
    trees = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    raw = [f"{module}:{node.lineno}" for module, tree in trees.items() for node in ast.walk(tree)
           if isinstance(node, ast.Attribute) and node.attr in ("_mpc_", "_mpf_")
           or isinstance(node, ast.Constant) and node.value in ("_mpc_", "_mpf_")]
    assert raw == []
    imports = [f"{module}:{line}" for module, tree in trees.items()
               for name, line in _imports(tree) if name == "mpmath"]
    assert imports == []
    named = []
    for module, tree in trees.items():
        docstrings = _docstrings(tree)
        named += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "mpmath"
                  or isinstance(node, ast.Attribute) and node.attr == "mpmath"
                  or isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "mpmath" in node.value and id(node) not in docstrings]
    assert named == []
    assert [node.lineno for node in ast.walk(trees["kernel"]) if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("hasattr", "getattr")] == []


def test_wide_tests_use_no_mpmath():
    """tests/test_wide.py checks ellipsum.wide against exact rationals: it
    imports no mpmath, directly or through conftest's mpmath helpers."""
    tree = _parse(ROOT / "tests" / "test_wide.py")
    assert [line for name, line in _imports(tree) if name == "mpmath"] == []
    helpers = {"to_mp", "to_wide", "signed_parts", "workdps"}
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and node.module == "conftest"
            and helpers & {alias.name for alias in node.names}] == []
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "mpmath"] == []
