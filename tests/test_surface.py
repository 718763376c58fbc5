"""Surface guard: ``src/ratherm`` keeps only what something other than the
tests calls.

A top-level function or class counts as called when another piece of
``src/ratherm`` (``__init__.py`` and its own body aside) refers to it by
name, when ``README.md`` documents it, or when ``perfbench/`` uses it.
Docstring mentions do not count.  Test oracles live in ``tests/``.
"""

import ast
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ratherm"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _refs(node):
    """Names and attributes referred to anywhere in node."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _perfbench_uses():
    used = Counter()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        used.update(_refs(tree))
        # LAYERS names the traced functions by string
        used.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
    return used


def test_every_traced_layer_resolves():
    for layer, names in _spans().LAYERS.items():
        module = importlib.import_module(f"ratherm.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"ratherm.{layer}.{name}"


def test_every_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    in_src = sum((_refs(tree) for path, tree in trees.items() if path.name != "__init__.py"), Counter())
    readme = (ROOT / "README.md").read_text()
    perfbench = _perfbench_uses()
    orphans = [
        f"{path.stem}.{top.name}"
        for path, tree in trees.items()
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and in_src[top.name] == _refs(top)[top.name]  # no use outside its own body
        and not re.search(rf"\b{top.name}\b", readme)
        and not perfbench[top.name]
    ]
    assert orphans == [], f"reached only by tests, move to tests/ or delete: {orphans}"
