"""The three workloads: their inputs, one operation each, and its check.

Inputs come from ratherm's own ``random_data`` generator or from ``sample``
requests, all seeded by the benchmark seed, and are made before timing
starts.  One operation is a short sequence of CLI calls; ``run_op`` times the
calls only, and ``check_op`` runs afterwards on what they emitted.  A
``strata`` operation is one sample -> solve -> classify pipeline per shape.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass

import ratherm
from ratherm import cli
from ratherm.verify import random_data

from perfbench import checker

PRIME = 1000003
# Distinct inputs per run; a run that gets through more operations cycles.
POOL_SIZE = 1024

SOLVE_Q = ((4, 4, 4, 4), 8)
CLASSIFY_GFP = ((4, 4, 4), 6)
# Shapes of the strata workload, each at k = ceil(n/2), where m = min(k-1, n-k)
# is largest; requests cover every feasible defect, plain and forced.
STRATA_SHAPES = ((2, 1), (5,), (3, 3, 2), (4, 4, 4), (6, 6))
# CLI calls per strata pipeline: sample, then solve and classify its output.
PIPELINE_STEPS = 3


@dataclass
class Step:
    """One CLI call and what it produced."""

    argv: list
    stdin: str
    code: object = None
    stdout: str = ""
    stderr: str = ""


@dataclass
class Op:
    workload: str
    doc: str = ""  # problem document, for solve-q and classify-gfp
    requests: tuple = ()  # sample requests, one per shape, for strata


def sample_step(r: dict) -> Step:
    argv = [
        "sample",
        "--shape", ",".join(map(str, r["shape"])),
        "--k", str(r["k"]),
        "--defect", str(r["defect"]),
        "--seed", str(r["seed"]),
        "--field", r["field"],
    ]
    if r["force_unattainable"]:
        argv.append("--force-unattainable")
    return Step(argv, "")


def strata_requests() -> list[dict]:
    requests = []
    for shape in STRATA_SHAPES:
        n = sum(shape)
        k = (n + 1) // 2
        m = min(k - 1, n - k)
        for forced, top in ((False, m + 1), (True, m)):
            for defect in range(1, top + 1):
                requests.append(
                    {"shape": shape, "k": k, "defect": defect, "force_unattainable": forced}
                )
    return requests


def make_ops(workload: str, seed: int) -> list[Op]:
    """The seeded inputs of one run, in the order the run uses them."""
    rng = random.Random(seed)
    if workload in ("solve-q", "classify-gfp"):
        shape, k = SOLVE_Q if workload == "solve-q" else CLASSIFY_GFP
        field = ratherm.RATIONALS if workload == "solve-q" else ratherm.FieldConfig.prime(PRIME)
        return [
            Op(workload, doc=json.dumps(random_data(rng, shape, k, field).to_json_dict()))
            for _ in range(POOL_SIZE)
        ]
    if workload != "strata":
        raise ValueError(f"unknown workload {workload!r}")
    # Every operation holds one request per shape, so every operation has the
    # same mix of matrix sizes.  A single pipeline's time ranges from 20 ms on
    # (2,1) to 550 ms on (6,6); with one pipeline per operation the median
    # fell between those clusters, and moved by 17 % from seed to seed.  Each
    # shape's requests, once over Q and once over GF(p), are used in a seeded
    # order, shuffled again once all have been used.
    queues = [
        [(r, f) for r in strata_requests() if r["shape"] == shape for f in ("Q", f"p:{PRIME}")]
        for shape in STRATA_SHAPES
    ]
    ops = []
    for index in range(POOL_SIZE):
        requests = []
        for pairs in queues:
            if index % len(pairs) == 0:
                rng.shuffle(pairs)
            r, f = pairs[index % len(pairs)]
            requests.append(dict(r, field=f, seed=rng.randrange(2**31)))
        ops.append(Op(workload, requests=tuple(requests)))
    return ops


def call_cli(step: Step) -> None:
    """Run ``ratherm.cli.main(step.argv)`` with stdin and stdout redirected.

    ``cli.main`` is looked up at call time, so a traced run calls its wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(step.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                step.code = cli.main(step.argv)
            except SystemExit as exc:
                step.code = exc.code
            except Exception:  # an escaped exception fails the op; keep its text
                step.code = None
                traceback.print_exc()
    finally:
        sys.stdin = saved_stdin
    step.stdout, step.stderr = out.getvalue(), err.getvalue()


def run_op(op: Op) -> list[Step]:
    """The CLI calls of one operation; strata pipes each sampled document on.

    A strata pipeline whose ``sample`` fails keeps its solve and classify
    steps, not run, so every pipeline has ``PIPELINE_STEPS`` steps.
    """
    if op.workload != "strata":
        argv = ["solve", "--method", "all"] if op.workload == "solve-q" else ["classify"]
        step = Step(argv, op.doc)
        call_cli(step)
        return [step]
    steps = []
    for request in op.requests:
        sample = sample_step(request)
        call_cli(sample)
        pipeline = [sample, Step(["solve"], sample.stdout), Step(["classify"], sample.stdout)]
        if sample.code == 0:
            for step in pipeline[1:]:
                call_cli(step)
        steps += pipeline
    return steps


def check_op(op: Op, steps: list[Step]) -> list[str]:
    """Problems found in the output of one operation; empty when correct."""
    if op.workload == "solve-q":
        return checker.check_solve(checker.Problem(json.loads(op.doc)), *_out(steps[0]))
    if op.workload == "classify-gfp":
        return checker.check_classify(checker.Problem(json.loads(op.doc)), *_out(steps[0]))
    errs = []
    for i, request in enumerate(op.requests):
        pipeline = steps[i * PIPELINE_STEPS:(i + 1) * PIPELINE_STEPS]
        label = f"shape {request['shape']} defect {request['defect']} {request['field']}"
        errs += [f"{label}: {e}" for e in _check_pipeline(request, pipeline)]
    return errs


def _check_pipeline(request: dict, steps: list[Step]) -> list[str]:
    sample, solve, classify = steps
    if sample.code != 0:
        return [f"sample exited {sample.code}: {sample.stderr.strip()}"]
    try:
        doc = json.loads(sample.stdout)
        prob = checker.Problem(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed sample output: {exc}"]
    errs = []
    meta = doc.get("meta", {})
    if meta.get("target_defect") != request["defect"] or meta.get("seed") != request["seed"]:
        errs.append(f"sample meta {meta} differs from the request")
    errs += checker.check_solve(prob, *_out(solve))
    errs += checker.check_classify(prob, *_out(classify))
    errs += checker.check_request(request, solve.stdout, classify.stdout)
    return errs


def _out(step: Step) -> tuple:
    return step.code, step.stdout
