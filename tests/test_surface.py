"""Surface guard: ``src/ratherm`` keeps only what something other than the
tests calls.

A top-level function or class, or a public method or property of a class,
counts as called when another piece of ``src/ratherm`` (``__init__.py`` and
its own body aside) refers to it by name, when ``README.md`` documents it in
a code span or a fenced block, or when ``perfbench/`` uses it.  Docstring
mentions and README prose do not count.  Test oracles live in ``tests/``.

Operators and other slots are called by syntax, not by name, so for them
the guard is a run: every ``def __x__`` in a class body, and every aliased
slot, must be called while the golden CLI corpus replays, bar the
reasoned entries of ``UNREACHED_SLOTS``.
"""

import ast
import importlib
import importlib.util
import json
import re
import sys
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


# Slots no CLI run reaches that stay, each for its reason.
UNREACHED_SLOTS = {
    "field.PrimeFieldElement.__post_init__": "certifies the modulus of a directly built element",
    "linalg.ExactMatrix.__setattr__": "the immutability guard",
    "polynomial.Poly.__bool__": "without it every Poly would be truthy",
    "field.FieldConfig.__str__": "formats error messages for rejected input",
}


def _class_slots():
    """Qualified name -> (class, slot name, aliased) for every ``def __x__``
    in a class body of src/ratherm and every aliased slot ``__x__ = __y__``,
    its target marked aliased too.  Dataclass-generated methods are not in
    a class body, so they are not here."""
    slots = {}
    for module, body in _module_bodies().items():
        for top in body:
            if not isinstance(top, ast.ClassDef):
                continue
            cls = getattr(importlib.import_module(f"ratherm.{module}"), top.name)
            aliased = {
                name
                for node in top.body
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                for name in [node.value.id] + [t.id for t in node.targets if isinstance(t, ast.Name)]
            }
            names = {node.name for node in top.body if isinstance(node, ast.FunctionDef)} | aliased
            for name in names:
                if re.fullmatch(r"__\w+__", name):
                    slots[f"{module}.{top.name}.{name}"] = (cls, name, name in aliased)
    return slots


def _slot_wrapper(fn, qualname):
    """A function calling fn, with a code object of its own named qualname."""

    def slot(*args, **kwargs):
        return fn(*args, **kwargs)

    slot.__code__ = slot.__code__.replace(co_name=qualname)
    return slot


def _reached_slots(slots):
    """The qualified names among slots that a replay of every case of the
    golden CLI corpus calls, seen by a profile hook.  An aliased slot shares
    its code object with its target, so each name of an alias group gets its
    own wrapper for the run."""
    from test_golden_cli import CASES, DOCUMENTS, run_cli

    codes, saved = {}, []
    for qualname, (cls, name, aliased) in slots.items():
        fn = cls.__dict__[name]
        if aliased:
            saved.append((cls, name, fn))
            fn = _slot_wrapper(fn, qualname)
            setattr(cls, name, fn)
        codes[fn.__code__] = qualname
    reached = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            reached.add(codes[frame.f_code])

    sys.setprofile(hook)
    try:
        for case in CASES:
            text = "" if case["doc"] is None else json.dumps(DOCUMENTS[case["doc"]])
            run_cli(case["argv"], text)
    finally:
        sys.setprofile(None)
        for cls, name, fn in saved:
            setattr(cls, name, fn)
    return reached


def test_every_slot_is_reached_by_a_cli_run(monkeypatch):
    monkeypatch.delenv("RATHERM_SEED", raising=False)
    slots = _class_slots()
    stale = sorted(set(UNREACHED_SLOTS) - set(slots))
    assert stale == [], f"allowlisted slots no longer in src/ratherm: {stale}"
    reached = _reached_slots(slots)
    unreached = sorted(set(slots) - reached - set(UNREACHED_SLOTS))
    assert unreached == [], f"slots no CLI run reaches, delete them: {unreached}"
    allowed_but_reached = sorted(reached & set(UNREACHED_SLOTS))
    assert allowed_but_reached == [], f"allowlisted slots a CLI run reaches: {allowed_but_reached}"
