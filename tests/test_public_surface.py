"""The public names of the package, and the names the benchmark tracer wraps.

``bench/tracer.py`` wraps the package's public functions and the
constructors and methods it lists by name; a name that no longer
resolves is skipped there, and every metric built from it reads 0.
These tests fail instead.  The tracer is imported, never installed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("altcausal", "altcausal.qcore", "altcausal.process", "altcausal.photonclock",
           "altcausal.absorber", "altcausal.piflink", "altcausal.cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


def _wrapped_names(tracer) -> set[str]:
    """The span and counter names ``Tracer.install`` would create."""
    names = set()
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"altcausal.{layer}")
        names.update(f"{layer}.{f}" for f in tracer._public_functions(module))
    for layer, cls_name, attr in tracer.EXTRA:
        cls = getattr(importlib.import_module(f"altcausal.{layer}"), cls_name)
        assert attr in vars(cls), f"{layer}.{cls_name}.{attr}"
        names.add(f"{layer}.{cls_name}" + ("" if attr == "__init__" else f".{attr}"))
    return names


def test_tracer_extras_hooks_and_counters_resolve(tracer):
    wrapped = _wrapped_names(tracer)
    assert set(tracer.HOOKS) - wrapped == set()
    assert set(tracer.COUNT_ONLY) - wrapped == set()


def test_every_traced_metric_reads_a_wrapped_name(tracer):
    # traced_run reads its metrics as total["<name>"] and n["<name>"]
    tree = ast.parse(inspect.getsource(tracer.traced_run))
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id in ("total", "n") and isinstance(node.slice, ast.Constant)}
    hook_counters = {counter for counter, _ in tracer.HOOKS.values()}
    assert read
    assert read - _wrapped_names(tracer) - hook_counters == set()


SRC = Path(__file__).resolve().parents[1] / "src" / "altcausal"


def _imports_by_scope(node, scope, found):
    """Map each function, and the module, to the names imported directly in it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _imports_by_scope(child, child, found)
            continue
        if isinstance(child, ast.Import):
            found.setdefault(scope, set()).update(
                (a.asname or a.name).split(".")[0] for a in child.names)
        elif isinstance(child, ast.ImportFrom) and child.module != "__future__":
            found.setdefault(scope, set()).update(a.asname or a.name for a in child.names)
        _imports_by_scope(child, scope, found)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    # a module-level import counts as used when the module reads it or
    # re-exports it in __all__; a function's import, when that function reads it
    tree = ast.parse(path.read_text())
    unused = []
    for scope, imported in _imports_by_scope(tree, tree, {}).items():
        used = {node.id for node in ast.walk(ast.Module(scope.body, []))
                if isinstance(node, ast.Name)}
        if scope is tree:
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                        for t in node.targets):
                    used.update(ast.literal_eval(node.value))
        unused += [(getattr(scope, "name", "<module>"), name) for name in imported - used]
    assert sorted(unused) == []
