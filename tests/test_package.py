import ast
import importlib.util
from pathlib import Path

import rtreelab


def test_every_export_resolves_and_every_public_import_is_exported():
    assert all(hasattr(rtreelab, name) for name in rtreelab.__all__)
    assert len(set(rtreelab.__all__)) == len(rtreelab.__all__)
    tree = ast.parse(Path(rtreelab.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(name for name in imported if not name.startswith("_")) == sorted(rtreelab.__all__)


def _load_tracing():
    # the bench tracer is loaded from its file and never installed
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_tracer_target_resolves():
    """Each span, counter and result-count target of the bench tracer names
    a function or method that src still defines, so deleting a traced name
    fails here and not first in a traced bench run."""
    tracing = _load_tracing()
    targets = [t for group in (tracing.SPANS, tracing.COUNTS) for ts in group.values() for t in ts]
    targets += list(tracing.RESULT_COUNTS)
    missing = []
    for target in targets:
        owner, attr = tracing._resolve(target)
        if attr not in vars(owner) or not callable(getattr(owner, attr)):
            missing.append(target)
    assert len(targets) > 40 and missing == []


def test_every_private_function_in_src_is_referenced():
    """Each ``_``-prefixed module-level function and method in src is named
    somewhere in src besides its own ``def``: a call, an attribute or an
    import, so a helper whose last caller is deleted fails here."""
    modules = [ast.parse(path.read_text()) for path in Path(rtreelab.__file__).parent.glob("*.py")]
    defined = set()
    for module in modules:
        for node in module.body:
            scope = node.body if isinstance(node, ast.ClassDef) else [node]
            defined.update(
                f.name for f in scope
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                and f.name.startswith("_") and not f.name.endswith("__")
            )
    referenced = set()
    for module in modules:
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert len(defined) > 20 and sorted(defined - referenced) == []
