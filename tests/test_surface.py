"""Surface guard: ``src/ratherm`` keeps only what something other than the
tests calls.

A top-level function or class, or a public method or property of a class,
counts as called when another piece of ``src/ratherm`` (``__init__.py`` and
its own body aside) refers to it by name, when ``README.md`` documents it in
a code span or a fenced block, or when ``perfbench/`` uses it.  Docstring
mentions and README prose do not count.  Test oracles live in ``tests/``.
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


def _readme_code():
    """README.md's fenced blocks and inline code spans, joined: the only
    README text that documents a name."""
    readme = (ROOT / "README.md").read_text()
    return "\n".join(re.findall(r"^```.*?^```|`[^`]+`", readme, re.S | re.M))


def _orphans(defs):
    """Names among defs (qualified name -> node) with no caller outside their
    own body: not in another piece of src/ratherm, README.md or perfbench/."""
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    in_src = sum(map(_refs, trees), Counter())
    readme = _readme_code()
    perfbench = _perfbench_uses()
    return [
        qualname
        for qualname, node in defs.items()
        if in_src[node.name] == _refs(node)[node.name]  # no use outside its own body
        and not re.search(rf"\b{node.name}\b", readme)
        and not perfbench[node.name]
    ]


def _module_bodies():
    return {path.stem: ast.parse(path.read_text()).body for path in sorted(PACKAGE.glob("*.py"))}


def test_every_definition_has_a_caller():
    defs = {
        f"{module}.{top.name}": top
        for module, body in _module_bodies().items()
        for top in body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
    }
    orphans = _orphans(defs)
    assert orphans == [], f"reached only by tests, move to tests/ or delete: {orphans}"


def test_every_public_method_has_a_caller():
    defs = {
        f"{module}.{top.name}.{fn.name}": fn
        for module, body in _module_bodies().items()
        for top in body
        if isinstance(top, ast.ClassDef)
        for fn in top.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    }
    orphans = _orphans(defs)
    assert orphans == [], f"methods reached only by tests, delete them: {orphans}"
