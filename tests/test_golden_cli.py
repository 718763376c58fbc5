"""Golden CLI corpus: stored problem documents, replayed through ``main``.

``tests/data/golden_cli.json`` holds eighty problem documents and,
for each CLI call on them, the sha256 of its (exit code, stdout, stderr).
A refactor that changes any byte of any output fails here, with the
document and argv to replay it.  Regenerate the file from the current code
only when an output change is intended:

    PYTHONPATH=src python3 tests/test_golden_cli.py

The documents are ``sample_stratum`` draws over six shapes at every
feasible defect, plain and forced, over Q, GF(1000003) and GF(7), plus
low-entropy, zero-heavy documents over Q, GF(5) and GF(7), half of them
with defect above m+1 (the only way into the rank classifier's
denominator-root branch).

``EEA_TRACE_N16`` pins the ``eea-trace`` digests of one n = 16 instance
over Q and GF(1000003); ``regenerate`` does not rewrite them.
"""

import hashlib
import io
import itertools
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ratherm import FieldConfig, HermiteData, sample_stratum, solve_kernel
from ratherm.cli import main
from ratherm.verify import random_data

CORPUS = Path(__file__).parent / "data" / "golden_cli.json"

DOC_COMMANDS = (
    ["solve", "--method", "all"],
    ["solve", "--method", "kernel"],
    ["solve", "--method", "eea"],
    ["solve", "--method", "minors"],
    ["classify"],
    ["minors"],
    ["eea-trace"],
)
PRETTY_COMMANDS = (["solve"], ["classify"], ["minors"], ["eea-trace"])
PRETTY_EVERY = 9  # every ninth document also runs in --format pretty
SOLO_COMMANDS = (
    ["sample", "--shape", "3,2", "--k", "3", "--defect", "2", "--seed", "3"],
    ["sample", "--shape", "4,1", "--k", "3", "--force-unattainable", "--field", "p:7"],
    ["sample", "--shape", "2,2,2", "--k", "4", "--defect", "3", "--format", "pretty"],
    ["sample", "--shape", "5", "--k", "3", "--defect", "3", "--force-unattainable"],
    ["verify", "--samples", "5", "--seed", "2"],
    ["verify", "--samples", "5", "--seed", "9", "--format", "pretty"],
)

SAMPLE_SHAPES = ((2, 1), (3, 3), (5,), (2, 2, 1), (4, 2), (3, 2, 2, 1))
SAMPLE_PRIMES = (1000003, 7)
LOW_ENTROPY_SHAPES = ((2, 1), (2, 2), (3, 1), (1, 1, 1), (3, 2), (2, 2, 1), (4,), (1, 1, 1, 1))


def run_cli(argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def digest(code, out, err):
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def _sample_documents():
    docs, seed, primes = [], 0, itertools.cycle(SAMPLE_PRIMES)
    for shape in SAMPLE_SHAPES:
        n = sum(shape)
        k = (n + 1) // 2
        m = min(k - 1, n - k)
        requests = [(j, False) for j in range(1, m + 2)] + [(j, True) for j in range(1, m + 1)]
        for j, forced in requests:
            # every request over Q, and over one of the two prime fields in turn
            for p in (None, next(primes)):
                seed += 1
                docs.append(sample_stratum(shape, k, j, forced, seed, FieldConfig(p)).to_json_dict())
    return docs


def _low_entropy_documents(count_high=10, count_other=10):
    rng = random.Random(6)
    high, other = [], []
    while len(high) < count_high or len(other) < count_other:
        shape = rng.choice(LOW_ENTROPY_SHAPES)
        p = rng.choice((None, 5, 7))
        n = sum(shape)
        us = rng.sample(range(-2, 3) if p else range(-3, 4), len(shape))
        if p is None:
            pool = ("0", "0", "0", "0", "1", "-1", "1/2")
            nodes = [{"u": str(u), "values": [rng.choice(pool) for _ in range(ni)]}
                     for u, ni in zip(us, shape)]
        else:
            pool = (0, 0, 0, 0, 1, -1, 2)
            nodes = [{"u": u, "values": [rng.choice(pool) for _ in range(ni)]}
                     for u, ni in zip(us, shape)]
        doc = {"field": FieldConfig(p).to_json(), "k": rng.randint(1, n), "nodes": nodes}
        data = HermiteData.from_json_dict(doc)
        minsol, _ = solve_kernel(data)
        bucket = high if minsol.kernel_dim > data.m + 1 else other
        if len(bucket) < (count_high if bucket is high else count_other):
            bucket.append(doc)
    return high + other


def regenerate():
    """Rewrite the corpus file from the current code."""
    docs = _sample_documents() + _low_entropy_documents()
    cases = []
    for i, doc in enumerate(docs):
        text = json.dumps(doc)
        argvs = list(DOC_COMMANDS)
        if i % PRETTY_EVERY == 0:
            argvs += [a + ["--format", "pretty"] for a in PRETTY_COMMANDS]
        for argv in argvs:
            cases.append({"doc": i, "argv": argv, "sha256": digest(*run_cli(argv, text))})
    for argv in SOLO_COMMANDS:
        cases.append({"doc": None, "argv": list(argv), "sha256": digest(*run_cli(argv))})
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps({"documents": docs, "cases": cases}, indent=1) + "\n")
    return len(docs), len(cases)


def _load():
    corpus = json.loads(CORPUS.read_text())
    return corpus["documents"], corpus["cases"]


DOCUMENTS, CASES = _load() if __name__ != "__main__" else ([], [])


@pytest.mark.parametrize(
    "doc", [pytest.param(i, id=f"doc{i}") for i in range(len(DOCUMENTS))] + [None]
)
def test_golden_outputs(doc, monkeypatch):
    monkeypatch.delenv("RATHERM_SEED", raising=False)
    text = "" if doc is None else json.dumps(DOCUMENTS[doc])
    for case in (c for c in CASES if c["doc"] == doc):
        got = digest(*run_cli(case["argv"], text))
        assert got == case["sha256"], (
            f"output changed for argv {case['argv']} on stdin document {text or '(none)'}"
        )


# eea-trace on random_data(Random(1), (4,4,4,4), 8): n = 16, coefficient
# heights the corpus (n <= 8) does not reach.
EEA_TRACE_N16 = {
    (None, "json"): "909f1a19a03002952a2b016e18aa60eaf1a86015ae2bc0c9cdd7d2b80b0b2f66",
    (None, "pretty"): "785b557d358bf995a20c2aaaf25550bd180c3b1b1ac4d73637db3d5e0465880b",
    (1000003, "json"): "e74a8fc330cdd61e67631566d81508b432dd79f9a41e810d0e50b2adc02379bb",
    (1000003, "pretty"): "869d5c3bc97937fe451847261ad986522f8e1580f3d4031e887383c6dc2fd76c",
}


@pytest.mark.parametrize("p, fmt", list(EEA_TRACE_N16))
def test_eea_trace_bytes_at_n16(p, fmt, monkeypatch):
    monkeypatch.delenv("RATHERM_SEED", raising=False)
    data = random_data(random.Random(1), (4, 4, 4, 4), 8, FieldConfig(p))
    got = digest(*run_cli(["eea-trace", "--format", fmt], json.dumps(data.to_json_dict())))
    assert got == EEA_TRACE_N16[p, fmt]


def test_corpus_reaches_denominator_root_branch():
    high = [
        d for d in map(HermiteData.from_json_dict, DOCUMENTS)
        if solve_kernel(d)[0].kernel_dim > d.m + 1
    ]
    assert len(high) >= 10


if __name__ == "__main__":
    import os

    os.environ.pop("RATHERM_SEED", None)
    print("%d documents, %d cases" % regenerate())
