"""Self-test of the output checker: clean outputs pass, corrupted ones fail.

The outputs come from ratherm on small sampled instances, over Q and over
GF(p); each corruption is applied to a copy of a clean output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from perfbench import checker, workloads

_SHAPE, _K = (3, 3, 2), 4


def _sample(field: str, forced: bool) -> str:
    argv = ["sample", "--shape", ",".join(map(str, _SHAPE)), "--k", str(_K),
            "--defect", "1", "--seed", "5", "--field", field]
    step = workloads.Step(argv + (["--force-unattainable"] if forced else []), "")
    workloads.call_cli(step)
    if step.code != 0:
        raise RuntimeError(f"self-test sample failed: {step.stderr}")
    return step.stdout


def _run(argv: list, doc: str) -> tuple:
    step = workloads.Step(argv, doc)
    workloads.call_cli(step)
    return step.code, step.stdout


def _flip_first_a(text: str) -> str:
    out = json.loads(text)
    c = out["A"][0]
    if isinstance(c, dict):
        out["A"][0] = dict(c, residue=(c["residue"] + 1) % c["p"])
    else:
        out["A"][0] = str(Fraction(c) + 1)
    return json.dumps(out)


def _drop_witness(text: str) -> str:
    out = json.loads(text)
    out["witness_nodes"] = out["witness_nodes"][:-1]
    return json.dumps(out)


def cases() -> list[tuple[str, bool, list]]:
    """(name, expected to fail, problems the checker found) for every case."""
    results = []
    for field in ("Q", f"p:{workloads.PRIME}"):
        plain, forced = _sample(field, False), _sample(field, True)
        prob_plain = checker.Problem(json.loads(plain))
        prob_forced = checker.Problem(json.loads(forced))
        code_s, solvable = _run(["solve"], plain)
        code_u, unattainable = _run(["solve"], forced)
        clean = [
            ("solve solvable", checker.check_solve(prob_plain, code_s, solvable)),
            ("solve unattainable", checker.check_solve(prob_forced, code_u, unattainable)),
            ("classify solvable", checker.check_classify(prob_plain, *_run(["classify"], plain))),
            ("classify unattainable",
             checker.check_classify(prob_forced, *_run(["classify"], forced))),
        ]
        corrupt = [
            ("flipped coefficient in A",
             checker.check_solve(prob_plain, code_s, _flip_first_a(solvable))),
            ("dropped witness",
             checker.check_solve(prob_forced, code_u, _drop_witness(unattainable))),
            ("wrong exit code on solvable",
             checker.check_solve(prob_plain, checker.EXIT_UNATTAINABLE, solvable)),
            ("wrong exit code on unattainable",
             checker.check_solve(prob_forced, checker.EXIT_OK, unattainable)),
        ]
        results += [(f"{field} {name}", False, errs) for name, errs in clean]
        results += [(f"{field} {name}", True, errs) for name, errs in corrupt]
    return results


def passed(results) -> bool:
    return all(bool(errs) == should_fail for _, should_fail, errs in results)
