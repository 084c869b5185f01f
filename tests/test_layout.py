"""No library code that only the tests call, no import that nothing reads, no unlisted cache.

Every top-level function and class of `src/toricarr`, and every method
other than a dunder, must be named somewhere in a library module other
than `__init__.py` (which only re-exports).  A definition is found by its
name alone, so this is a lint, not a call graph; it catches the helper
whose last library caller is gone.  By the same rule, every field of a
NamedTuple record in `src/toricarr` must be read as an attribute by such a
module, so that a record holds no fact that only the tests read.  Likewise
every name that a module of `src/toricarr` (but `__init__.py`) or `tests/`
imports must be read in it.  No module of `src/toricarr` reads another's
private name, and none has an `assert` or reads the optimization flag.
Every `lru_cache` of `src/toricarr` must appear in `CACHES` with the
reason it is kept, so that a new cache states one, and the hit counts a
reason quotes must be those of a replay of the benchmark's reference
requests.
"""

import ast
import importlib
import json
import re
from pathlib import Path

import toricarr
from toricarr import cli

SRC = Path(toricarr.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
REFERENCE = TESTS.parent / "perfbench" / "reference"

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


# Record fields kept on purpose, though no library module reads them, each with its reason.
FIELDS_ALLOWED: dict[str, str] = {}


def _record_fields(tree):
    """(record, field) of each NamedTuple class of the module, and of each class derived from one there."""
    records = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in records | {"NamedTuple"} for base in node.bases
        ):
            records.add(node.name)
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_record_field_is_read_by_the_library():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {
        node.attr
        for name, tree in trees.items()
        if name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    unread = {
        f"{record}.{field}"
        for tree in trees.values()
        for record, field in _record_fields(tree)
        if field not in read
    }
    assert unread == set(FIELDS_ALLOWED), "record fields that no library module reads:\n" + "\n".join(
        sorted(unread - set(FIELDS_ALLOWED))
    )


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_library_module_reads_another_modules_private_name():
    # A private helper another module needs gets a public name in its own module.
    modules = {path.stem for path in SRC.glob("*.py")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names if _private(alias.name)]
            elif (
                isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules - {path.stem} and _private(node.attr)
            ):
                found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert not found, "private names read across library modules:\n" + "\n".join(found)


def test_no_check_depends_on_the_optimization_flag():
    # python -O strips assert statements and sets __debug__ and sys.flags.optimize; with none of them
    # in src/, a check behaves alike with and without -O, so tests/test_guards.py can run in process.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "__debug__"
        or isinstance(node, ast.Attribute) and node.attr == "flags" and getattr(node.value, "id", None) == "sys"
        or isinstance(node, ast.ImportFrom) and node.module == "sys" and "flags" in {a.name for a in node.names}
    ]
    assert not found, "asserts or optimization-flag reads in src/:\n" + "\n".join(found)


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


# Every lru_cache in src/, with the reason it is kept.  "a/b hits" counts cache hits over
# calls in one in-process replay of the perfbench/reference requests of a workload, with
# every cache emptied before each request, as a fresh CLI process starts; the last test
# of this module replays them and compares.
CACHES = {
    "rootsys.build": "0/14 hits on census, 0/14 on verify; perfbench/selftest.py pins it, and library callers"
    " share one RootSystem, the key of the layer_census, _span_levels and _quotient_layers caches",
    "rootsys.type_invariants": "|W| and degrees of a product, 696/842 hits on census, 196/300 on closed-forms",
    "rootsys.type_data": "the per-type record of every closed form, 613/661 hits on verify, 141/203 on census",
    "rootsys.center": "|Z| and exp Z from one Hermite form, 267/315 hits on verify",
    "subsys._span_levels": "the span route of enumerate_complete, 29/68 hits on verify;"
    " perfbench/selftest.py pins it",
    "layers.layer_census": "read by poincare, count_layers and verify's component counts, 38/49 hits on verify",
    "oracle._quotient_layers": "one quotient scan per flat, shared by component_count and build_poset,"
    " 45/252 hits on verify",
}


def _lru_caches():
    """module.function of each def in src/ wrapped by lru_cache; module:line of any other use of it."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        decorated = {
            id(dec.func if isinstance(dec, ast.Call) else dec): node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for dec in node.decorator_list
        }
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in ("lru_cache", "cache"):
                where = decorated.get(id(node))
                found.add(f"{path.stem}.{where}" if where else f"{path.stem}:{node.lineno}")
    return found


def test_every_cache_is_listed_with_its_reason():
    assert _lru_caches() == set(CACHES)


def test_quoted_hit_counts_are_those_of_the_reference_requests(capsys, clear_every_cache):
    # Each "a/b hits on W" (or "a/b on W") of a reason, from a replay of perfbench/reference/W.json.
    quoted = {
        (cache, workload): (int(hits), int(calls))
        for cache, reason in CACHES.items()
        for hits, calls, workload in re.findall(r"(\d+)/(\d+) (?:hits )?on ([\w-]+)", reason)
    }
    caches = {}
    for cache in CACHES:
        module, name = cache.split(".")
        caches[cache] = getattr(importlib.import_module(f"toricarr.{module}"), name)
    counted = {}
    for workload in sorted({workload for _, workload in quoted}):
        hits = dict.fromkeys(CACHES, 0)
        calls = dict.fromkeys(CACHES, 0)
        for row in json.loads((REFERENCE / f"{workload}.json").read_text()):
            clear_every_cache()
            assert (cli.main(list(row["argv"])), capsys.readouterr().out) == (row["exit"], row["stdout"])
            for cache, fn in caches.items():
                info = fn.cache_info()
                hits[cache] += info.hits
                calls[cache] += info.hits + info.misses
        counted.update({(cache, workload): (hits[cache], calls[cache]) for cache in CACHES})
    assert quoted == {key: counted[key] for key in quoted}
