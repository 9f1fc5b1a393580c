"""Every definition in the package has a caller outside its tests.

A top-level function or class, or a method that is not a dunder, counts as
used when a package module other than __init__.py, a demo or a perfbench
module names it: as a bare name, as an attribute, or in an import.  `main`
is used through the console script in pyproject.toml.  Tests do not
count: a definition only they name is not needed.  __init__.py binds only
__version__, so each name has one import path, the module defining it.
A top-level name a package module binds by assignment, dunders aside, such
as a cap, a budget or a pool, counts as used the same way, but only where
it is read: binding it again is no use.  Likewise every name a package module other than
__init__.py imports at top level, __future__ aside, is read in that module:
no linter runs here, so this test is the unused-import check.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "idealforge"


def _definitions(tree: ast.Module) -> list[str]:
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                f.name
                for f in node.body
                if isinstance(f, ast.FunctionDef)
                and not (f.name.startswith("__") and f.name.endswith("__"))
            ]
    return out


def _assignments(tree: ast.Module) -> list[str]:
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            out += [t.id for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [name for name in out if not (name.startswith("__") and name.endswith("__"))]


def _references(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def _unused(defined) -> list[str]:
    'The names defined(tree) gives in a package module that no caller reads.'
    used = {"main"}
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("demos", "perfbench"):
        callers += (ROOT / folder).rglob("*.py")
    for path in callers:
        used |= _references(ast.parse(path.read_text(encoding="utf-8")))
    return sorted(
        f"{path.name}:{name}"
        for path in PACKAGE.glob("*.py")
        for name in defined(ast.parse(path.read_text(encoding="utf-8")))
        if name not in used
    )


def test_every_package_definition_is_referenced():
    assert _unused(_definitions) == []


def test_every_module_constant_is_read():
    assert _unused(_assignments) == []


def _unused_imports(tree: ast.Module) -> list[str]:
    # the names top-level imports bind, less those the module reads
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    # the base of an attribute, as in np.array, is itself a Name
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}:{name}" for name, line in bound.items() if name not in read]


def test_no_package_module_imports_a_name_it_does_not_use():
    unused = sorted(
        f"{path.name}:{item}"
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
        for item in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert unused == []


def test_package_namespace_binds_only_the_version():
    # each name is imported from the module that defines it, so __init__.py
    # holds its docstring and __version__ and nothing else
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert [type(node) for node in tree.body] == [ast.Expr, ast.Assign]
    doc, version = tree.body
    assert isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str)
    assert [ast.unparse(target) for target in version.targets] == ["__version__"]
