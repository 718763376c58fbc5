"""Seeded mutation fuzz of the CLI's error contract.

Golden documents are mutated, some into other valid documents (zeroed or
repeated values, k = 1 or k = n, a move to GF(5) or GF(7), a dropped
value) and some into malformed ones, and each is run through seven
command lines.  Every call exits 0, 1 or 3: an exit-1 call prints one JSON
``{"error", "kind"}`` record on stderr and nothing on stdout.  Every
exit-0 or exit-3 ``solve`` and ``classify`` output passes
``perfbench.checker``, which checks it against the problem with its own
Fraction and residue arithmetic; the problem is the document as the
command read it, ``--field`` and ``--derivative-values`` applied.
``solve --method eea`` prints no minimal pair, so its output must equal
``solve``'s with ``minimal`` null.
"""

import copy
import importlib
import json
import random
import time
from pathlib import Path

from ratherm import HermiteData
from ratherm.problem import MAX_N

from test_golden_cli import DOCUMENTS, run_cli

ROOT = Path(__file__).resolve().parents[1]
SEED = 26
DOC_COUNT = 300

COMMANDS = (
    ["solve"],
    ["solve", "--method", "eea"],
    ["classify"],
    ["classify", "--field", "p:7"],
    ["minors", "--t-min", "0"],
    ["eea-trace"],
    ["solve", "--derivative-values"],
)


def _n(doc):
    return sum(len(node["values"]) for node in doc["nodes"])


def _zero(rng, doc):
    for node in doc["nodes"]:
        node["values"] = [0 if rng.random() < 0.6 else x for x in node["values"]]


def _repeat(rng, doc):
    node = rng.choice(doc["nodes"])
    node["values"] = [rng.choice(node["values"])] * len(node["values"])


def _k_one(rng, doc):
    doc["k"] = 1


def _k_n(rng, doc):
    doc["k"] = _n(doc)


def _small_prime(rng, doc):
    p = rng.choice((5, 7))
    doc["field"] = {"p": p}
    for node in doc["nodes"]:
        node["u"] = rng.randrange(p)
        node["values"] = [rng.choice((0, 0, 1, -1, 2)) for _ in node["values"]]


def _drop_value(rng, doc):
    node = rng.choice(doc["nodes"])
    if len(node["values"]) > 1:
        node["values"].pop()
        doc["k"] = min(doc["k"], _n(doc))


VALID = (_zero, _repeat, _k_one, _k_n, _small_prime, _drop_value)

BAD_SCALARS = (True, None, [], "x", "1/0", 1.5, "1e99999", {"residue": 1, "p": 3})


def _bad_value(rng, doc):
    node = rng.choice(doc["nodes"])
    key = rng.choice(("u", "values"))
    if key == "u":
        node["u"] = rng.choice(BAD_SCALARS)
    else:
        node["values"][rng.randrange(len(node["values"]))] = rng.choice(BAD_SCALARS)


def _bad_k(rng, doc):
    doc["k"] = rng.choice((0, -1, _n(doc) + 1, "2", 2.0, True, None))


def _drop_key(rng, doc):
    del doc[rng.choice(("field", "k", "nodes"))]


def _duplicate_node(rng, doc):
    if len(doc["nodes"]) > 1:
        doc["nodes"][1]["u"] = doc["nodes"][0]["u"]
    else:
        doc["nodes"].append(copy.deepcopy(doc["nodes"][0]))


def _bad_field(rng, doc):
    doc["field"] = rng.choice(("R", {"p": 4}, {"p": 1}, {"p": "7"}, {"q": 7}, 7))


def _bad_shape(rng, doc):
    if rng.random() < 0.5:
        doc["nodes"] = rng.choice(([], {}, "nodes"))
    else:
        rng.choice(doc["nodes"])["values"] = rng.choice(([], "0", None))


def _too_many_values(rng, doc):
    doc["nodes"][0]["values"] = [0] * (MAX_N + 1)


MALFORMED = (
    _bad_value, _bad_k, _drop_key, _duplicate_node, _bad_field, _bad_shape, _too_many_values
)


def _mutants(rng, count):
    """``count`` mutated golden documents; about one in four is malformed."""
    for _ in range(count):
        doc = copy.deepcopy(rng.choice(DOCUMENTS))
        for mutate in rng.sample(VALID, rng.randint(1, 3)):
            mutate(rng, doc)
        if rng.random() < 0.25:
            rng.choice(MALFORMED)(rng, doc)
        yield doc


def _problem(checker, doc, argv):
    """The checker's view of the problem the command read."""
    if "--field" in argv:
        doc = dict(doc, field={"p": int(argv[argv.index("--field") + 1][2:])})
    data = HermiteData.from_json_dict(doc, derivative_values="--derivative-values" in argv)
    return checker.Problem(data.to_json_dict())


def test_mutated_documents_keep_the_error_contract(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.delenv("RATHERM_SEED", raising=False)
    checker = importlib.import_module("perfbench.checker")
    t0 = time.perf_counter()
    reached, kinds = 0, set()
    for doc in _mutants(random.Random(SEED), DOC_COUNT):
        text = json.dumps(doc)
        outputs = {}
        for argv in COMMANDS:
            code, out, err = run_cli(argv, text)
            replay = f"{argv} on {text}"
            assert code in (0, 1, 3), f"exit {code}: {err} for {replay}"
            if code == 1:
                record = json.loads(err)
                assert set(record) == {"error", "kind"} and err.count("\n") == 1, replay
                assert out == "", replay
                kinds.add(record["kind"])
                continue
            assert err == "", replay
            reached += 1
            outputs[tuple(argv)] = (code, out)
            if argv[0] == "solve" and "eea" not in argv:
                assert checker.check_solve(_problem(checker, doc, argv), code, out) == [], replay
            elif argv[0] == "classify":
                assert checker.check_classify(_problem(checker, doc, argv), code, out) == [], replay
        if ("solve",) in outputs:
            code, out = outputs[("solve",)]
            expected = dict(json.loads(out), method="eea", minimal=None)
            eea = outputs[("solve", "--method", "eea")]
            assert (eea[0], json.loads(eea[1])) == (code, expected), text
    assert 3 * reached >= DOC_COUNT * len(COMMANDS), reached
    assert {"InvalidInput", "DuplicateNodes", "TooLarge"} <= kinds, kinds
    assert time.perf_counter() - t0 < 10
