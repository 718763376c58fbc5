"""Benchmark of the ratherm CLI: one client, closed loop, in one process.

    python3 perfbench/run.py --workload solve-q --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  ratherm is imported from ``src/`` unchanged and
``ratherm.cli.main(argv)`` is called in-process with stdin and stdout
redirected.  Each operation's output is checked by ``checker`` outside the
timed region; failed operations are written to ``.bench_out/failures/`` for
replay.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` the public functions of each ratherm module are
wrapped (see ``spans``) and it carries the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".bench_out")
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
# Operations run and checked before timing, so lazy set-up is not timed.
WARMUP_OPS = 2


def load_ratherm():
    """Import ratherm from this checkout's ``src/``, and nothing else."""
    src = ROOT / "src"
    if not (src / "ratherm" / "__init__.py").is_file():
        raise ImportError(f"no ratherm sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import ratherm

    if Path(ratherm.__file__).resolve().parent != (src / "ratherm").resolve():
        raise ImportError(f"ratherm was imported from {ratherm.__file__}, not {src}")
    return ratherm


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports ratherm and makes the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
    return statistics.median(times)


def write_replay(workload: str, seed: int, index: int, op, steps, errs) -> None:
    folder = OUT_DIR / "failures"
    folder.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "op": index,
        "document": op.doc or None,
        "requests": list(op.requests) or None,
        "problems": errs,
        "steps": [vars(s) for s in steps],
    }
    path = folder / f"{workload}-seed{seed}-op{index}.json"
    path.write_text(json.dumps(record, indent=2, default=str), encoding="utf-8")


def warm_up(workload: str, seed: int, ops: list) -> int:
    """Run and check the last ``WARMUP_OPS`` inputs untimed; return how many failed."""
    from perfbench import workloads

    failed = 0
    for index in range(len(ops) - WARMUP_OPS, len(ops)):
        steps = workloads.run_op(ops[index])
        errs = workloads.check_op(ops[index], steps)
        if errs:
            failed += 1
            write_replay(workload, seed, index, ops[index], steps, errs)
    return failed


def run_loop(workload: str, seed: int, ops: list, seconds: float, spans) -> dict:
    """Closed loop for ``seconds``: time each op, then check it."""
    from perfbench import checker, workloads

    latencies, failed, bits = [], 0, 0
    gc.collect()
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline:
        index = len(latencies)
        op = ops[index % len(ops)]
        if spans is not None:
            spans.op = index
        start = time.perf_counter()
        steps = workloads.run_op(op)
        latencies.append(time.perf_counter() - start)
        errs = workloads.check_op(op, steps)
        if errs:
            failed += 1
            write_replay(workload, seed, index, op, steps, errs)
        if spans is not None:
            for step in steps:
                with contextlib.suppress(ValueError):
                    bits = max(bits, checker.max_coeff_bits(step.stdout))
    return {"latencies": latencies, "failed": failed, "max_coeff_bits": bits}


def end_to_end(loop: dict, setup_s: float) -> dict:
    lat = loop["latencies"]
    return {
        "latency_p50_ms": {"value": statistics.median(lat) * 1000, "unit": "ms"},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(loop: dict, spans) -> dict:
    from perfbench.spans import SPAN_NAMES

    ops = len(loop["latencies"])
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = {"value": spans.calls[name] / ops, "unit": "calls/op"}
        metrics[f"{name}.self_s"] = {"value": spans.self_s[name] / ops, "unit": "s/op"}
    metrics["verify.sample_stratum.accept_ratio"] = {
        "value": spans.accept_ratio(), "unit": "ratio"}
    metrics["cli.max_coeff_bits"] = {"value": loop["max_coeff_bits"], "unit": "count"}
    metrics["traced.latency_p50_ms"] = {
        "value": statistics.median(loop["latencies"]) * 1000, "unit": "ms"}
    return metrics


def print_summary(workload: str, loop: dict, metrics: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    lat = loop["latencies"]
    ops = len(lat)
    print(f"# workload {workload}: {ops} ops, one client, closed loop")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {loop['failed'] / ops:.6g} ratio")
    if ops >= 100:  # at least ten samples beyond the 90th percentile
        p90 = statistics.quantiles(lat, n=10)[-1]
        print(f"latency_p90_ms {p90 * 1000:.6g} ms")


def self_test_report() -> int:
    from perfbench import selftest

    results = selftest.cases()
    for name, should_fail, errs in results:
        ok = bool(errs) == should_fail
        verdict = "failed" if errs else "passed"
        print(f"{'ok  ' if ok else 'BAD '} {name}: checker {verdict}"
              + (f" ({errs[0]})" if errs else ""))
    ok = selftest.passed(results)
    print("checker self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("solve-q", "classify-gfp", "strata"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import ratherm, make the inputs and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="check that the checker fails corrupted outputs")
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_test:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # RATHERM_SEED overrides `sample --seed` and would repeat one instance.
    os.environ.pop("RATHERM_SEED", None)
    try:
        load_ratherm()
    except ImportError as exc:
        print(f"perfbench: cannot import ratherm: {exc}", file=sys.stderr)
        return 2
    from perfbench import selftest, workloads
    from perfbench.spans import Spans

    if args.self_test:
        return self_test_report()
    if args.setup_only:
        workloads.make_ops(args.workload, args.seed)
        return 0

    setup_s = 0.0 if args.trace else measure_setup(args.workload, args.seed)
    ops = workloads.make_ops(args.workload, args.seed)
    checker_ok = selftest.passed(selftest.cases())
    if not checker_ok:
        print("perfbench: checker self-test failed; run --self-test", file=sys.stderr)
        return 1

    warm_failed = warm_up(args.workload, args.seed, ops)
    spans = Spans() if args.trace else None
    with spans.installed() if spans else contextlib.nullcontext():
        loop = run_loop(args.workload, args.seed, ops, args.seconds, spans)

    if spans is not None:
        metrics = per_layer(loop, spans)
        OUT_DIR.mkdir(exist_ok=True)
        spans.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(loop, setup_s)
    print_summary(args.workload, loop, metrics)
    print(json.dumps({
        "correct": loop["failed"] == 0 and warm_failed == 0,
        "attempted": len(loop["latencies"]) + WARMUP_OPS,
        "failed": loop["failed"] + warm_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
