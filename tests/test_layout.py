"""No library code that only the tests call, and no import that nothing reads.

Every top-level function and class of `src/toricarr`, and every method
other than a dunder, must be named somewhere in a library module other
than `__init__.py` (which only re-exports).  A definition is found by its
name alone, so this is a lint, not a call graph; it catches the helper
whose last library caller is gone.  Likewise every name that a module of
`src/toricarr` (but `__init__.py`) or `tests/` imports must be read in it.
"""

import ast
from pathlib import Path

import toricarr

SRC = Path(toricarr.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# Kept on purpose, though no library module names them.
ALLOWED = {
    "build_str": "the one-line type-string entry point of the public API and of most tests",
}


def _definitions(tree):
    """(qualified name, name) of the top-level defs and classes and their non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree):
    """Every name the module reads, directly or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _unreferenced():
    """Qualified names of the definitions that no library module outside __init__.py names."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = set().union(*(_references(t) for name, t in trees.items() if name != "__init__.py"))
    return {
        f"{module}: {qualname}": qualname
        for module, tree in trees.items()
        for qualname, name in _definitions(tree)
        if name not in referenced
    }


def test_every_definition_is_used_by_the_library():
    unused = sorted(key for key, qualname in _unreferenced().items() if qualname not in ALLOWED)
    assert not unused, "defined in src/ but named by no library module:\n" + "\n".join(unused)


def test_allowlist_names_only_unreferenced_definitions():
    assert set(ALLOWED) <= set(_unreferenced().values())


def _unused_imports(tree):
    """The names a module imports and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_import_is_read():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"] + sorted(TESTS.glob("*.py"))
    unused = [
        f"{path.parent.name}/{path.name}: {name}"
        for path in paths
        for name in sorted(_unused_imports(ast.parse(path.read_text())))
    ]
    assert not unused, "imported but never read:\n" + "\n".join(unused)
