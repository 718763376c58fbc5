"""Surface guard: ``src/ratherm`` keeps only what something other than the
tests calls.

A top-level function or class, or a public method or property of a class,
counts as called when another piece of ``src/ratherm`` (``__init__.py`` and
its own body aside) refers to it by name, when ``README.md`` documents it in
a code span or a fenced block, or when ``perfbench/`` uses it.  Docstring
mentions and README prose do not count.  Test oracles live in ``tests/``.

A name is not a call, and operators and other slots are called by syntax,
so the guard is also a run: every function and method of ``src/ratherm``,
nested ones and slots included, and every name of an aliased slot, must be
called while the golden CLI corpus and the calls of ``BAD_INPUT`` replay,
bar the functions ``perfbench/spans.py`` traces and the reasoned entries
of ``UNREACHED``.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import re
import sys
import types
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


# Functions and methods no CLI run reaches that stay, each for its reason;
# the functions ``perfbench/spans.py`` traces stay as well (``_traced``).
UNREACHED = {
    "field.sealed": "a class decorator, run once at import",
    "field._refuse": "the immutability guard of sealed classes",
    "field.PrimeFieldElement.__post_init__": "certifies the modulus of a directly built element",
    "linalg.ExactMatrix.__setattr__": "the immutability guard",
    "polynomial.Poly.__bool__": "without it every Poly would be truthy",
    "field.FieldConfig.__str__": "formats error messages for rejected input",
}

# Calls on bad input, beside the corpus: a bad flag, an over-long literal, a
# composite modulus.
_DOC = '{"field": "Q", "k": 1, "nodes": [{"u": %s, "values": [1]}]}'
BAD_INPUT = (
    (["solve", "--method", "bogus"], _DOC % 0),
    (["solve"], _DOC % f'"{"1" * 4301}"'),
    (["classify", "--field", "p:15"], _DOC % 0),
)


def _traced():
    return {f"{layer}.{name}" for layer, names in _spans().LAYERS.items() for name in names}


def _functions():
    """Qualified names of every function and method of src/ratherm, nested
    ones included: the code objects a compile of each file holds, bar class
    bodies, lambdas and comprehensions."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                out.add(f"{path.stem}.{code.co_qualname}")
    return out


def _aliases():
    """Qualified name -> (class, name) for every aliased slot ``__x__ = __y__``
    of a class body in src/ratherm, its target included: one code object
    serves the whole group, so each name is told apart by a wrapper."""
    out = {}
    for module, body in _module_bodies().items():
        for top in body:
            if not isinstance(top, ast.ClassDef):
                continue
            cls = getattr(importlib.import_module(f"ratherm.{module}"), top.name)
            for node in top.body:
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                    targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
                    for name in [node.value.id] + targets:
                        out[f"{module}.{top.name}.{name}"] = (cls, name)
    return out


def _slot_wrapper(fn, qualname):
    """A function calling fn, with a code object of its own named qualname."""

    def slot(*args, **kwargs):
        return fn(*args, **kwargs)

    slot.__code__ = slot.__code__.replace(co_name=qualname)
    return slot


def _reached(aliases):
    """The qualified names of src/ratherm functions that a replay of every
    case of the golden CLI corpus, and of ``BAD_INPUT``, calls, seen by a
    profile hook: by file and ``co_qualname``, and for an alias group by the
    wrapper of each name.  Cached functions are cleared first, so that a
    call earlier in the session does not hide them from the replay."""
    from test_golden_cli import CASES, DOCUMENTS, run_cli

    for name, module in list(sys.modules.items()):
        if name.startswith("ratherm."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    wrappers, saved = {}, []
    for qualname, (cls, name) in aliases.items():
        fn = cls.__dict__[name]
        saved.append((cls, name, fn))
        wrapper = _slot_wrapper(fn, qualname)
        setattr(cls, name, wrapper)
        wrappers[wrapper.__code__] = qualname
    grouped = {fn.__code__ for _, _, fn in saved}
    stems = {str(path.resolve()): path.stem for path in PACKAGE.glob("*.py")}
    reached = set()

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in wrappers:
            reached.add(wrappers[code])
        elif code not in grouped and code.co_filename in stems:
            reached.add(f"{stems[code.co_filename]}.{code.co_qualname}")

    calls = [(c["argv"], "" if c["doc"] is None else json.dumps(DOCUMENTS[c["doc"]])) for c in CASES]
    sys.setprofile(hook)
    try:
        for argv, text in calls + list(BAD_INPUT):
            run_cli(argv, text)
    finally:
        sys.setprofile(None)
        for cls, name, fn in saved:
            setattr(cls, name, fn)
    return reached


def test_every_function_is_reached_by_a_cli_run(monkeypatch):
    monkeypatch.delenv("RATHERM_SEED", raising=False)
    aliases = _aliases()
    names = _functions() | set(aliases)
    stale = sorted(set(UNREACHED) - names)
    assert stale == [], f"allowlisted functions no longer in src/ratherm: {stale}"
    reached = _reached(aliases)
    unreached = sorted(names - reached - set(UNREACHED) - _traced())
    assert unreached == [], f"functions no CLI run reaches, delete them: {unreached}"
    allowed_but_reached = sorted(reached & set(UNREACHED))
    assert allowed_but_reached == [], f"allowlisted functions a CLI run reaches: {allowed_but_reached}"
