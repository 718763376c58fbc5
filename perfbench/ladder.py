"""One-shot traced report over the size ladder; not a gated workload.

    python3 perfbench/ladder.py [--out .bench_out/ladder.json]

Run from the repository root.  Shapes (2,1), (3,3), (4,4,4), (6,6,6,6) and
(8,8,8,8) at k = n//2, over Q and over GF(1000003), one ``random_data``
instance each from seed 1.  Each instance runs ``solve --method all`` and
``classify`` once through ``ratherm.cli.main`` with the layer spans on.  The
report holds the wall time, per-layer calls, self and inclusive time, the
largest coefficient bit length and the ``src/`` line count.  The n = 32 solve
over Q takes minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER = ((2, 1), (3, 3), (4, 4, 4), (6, 6, 6, 6), (8, 8, 8, 8))
SEED = 1
COMMANDS = (("solve", ["solve", "--method", "all"]), ("classify", ["classify"]))
# Inclusive route times, the columns of the baseline table.
ROUTES = (
    ("kernel", "solvers.solve_kernel"),
    ("eea", "solvers.solve_eea"),
    ("minors", "solvers.solve_minors"),
    ("classify_by_rank", "strata.classify_by_rank"),
    ("stratum_equations", "strata.stratum_equations"),
)
# Self time summed per stage, as the stages are named in the ROADMAP.
STAGES = (
    ("matrix build", ("problem.build_matrix", "problem.build_submatrix_i")),
    ("elimination", ("linalg.determinant", "linalg.rank", "linalg.kernel_basis",
                     "linalg.signed_minors")),
    ("euclid", ("polynomial.gcd", "polynomial.eea")),
    ("residual and node checks", ("problem.whip_residual", "problem.rhip_check")),
    ("json emission", ("cli.main",)),
)


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "ratherm").glob("*.py"))
    )


def run_rung(shape, field_name: str) -> list[dict]:
    import ratherm
    from ratherm.verify import random_data

    from perfbench import checker, workloads
    from perfbench.spans import Spans

    n = sum(shape)
    k = n // 2
    field = ratherm.RATIONALS if field_name == "Q" else ratherm.FieldConfig.prime(workloads.PRIME)
    doc = json.dumps(random_data(random.Random(SEED), shape, k, field).to_json_dict())
    prob = checker.Problem(json.loads(doc))
    rows = []
    for command, argv in COMMANDS:
        spans = Spans()
        step = workloads.Step(argv, doc)
        with spans.installed():
            start = time.perf_counter()
            workloads.call_cli(step)
            wall = time.perf_counter() - start
        check = checker.check_solve if command == "solve" else checker.check_classify
        rows.append({
            "shape": list(shape),
            "n": n,
            "k": k,
            "field": field_name,
            "command": command,
            "wall_s": wall,
            "exit_code": step.code,
            "problems": check(prob, step.code, step.stdout),
            "max_coeff_bits": checker.max_coeff_bits(step.stdout) if step.stdout else 0,
            "layers": {
                name: {
                    "calls": spans.calls[name],
                    "self_s": spans.self_s[name],
                    "total_s": spans.total_s[name],
                }
                for name in sorted(spans.calls)
            },
        })
    return rows


def print_tables(rows: list[dict]) -> None:
    def cell(row, name):
        layer = row["layers"].get(name)
        return f"{layer['total_s']:.3g} s" if layer else "-"

    print("| shape, n | field | command | wall | "
          + " | ".join(label for label, _ in ROUTES) + " | max bits |")
    print("|---" * (len(ROUTES) + 5) + "|")
    for row in rows:
        shape = f"({','.join(map(str, row['shape']))}), {row['n']}"
        print(f"| {shape} | {row['field']} | {row['command']} | {row['wall_s']:.3g} s | "
              + " | ".join(cell(row, name) for _, name in ROUTES)
              + f" | {row['max_coeff_bits']} |")
    print()
    print("| shape, n | field | command | " + " | ".join(label for label, _ in STAGES) + " |")
    print("|---" * (len(STAGES) + 3) + "|")
    for row in rows:
        shape = f"({','.join(map(str, row['shape']))}), {row['n']}"
        sums = [sum(row["layers"].get(n, {}).get("self_s", 0.0) for n in names)
                for _, names in STAGES]
        print(f"| {shape} | {row['field']} | {row['command']} | "
              + " | ".join(f"{s:.3g} s" for s in sums) + " |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".bench_out/ladder.json")
    args = parser.parse_args(argv)
    os.environ.pop("RATHERM_SEED", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import ratherm  # noqa: F401  (fails here, before any work, when src/ is absent)

    rows = []
    for shape in LADDER:
        for field_name in ("Q", "GF(p)"):
            rows.extend(run_rung(shape, field_name))
            print(f"# done {shape} over {field_name}", file=sys.stderr, flush=True)
    report = {
        "seed": SEED,
        "k": "n//2",
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "machine": {"arch": platform.machine(), "cpus": os.cpu_count()},
        "rows": rows,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print_tables(rows)
    print(f"\nsrc/ratherm lines: {report['src_lines']}")
    bad = [r for r in rows if r["problems"]]
    for r in bad:
        print(f"CHECK FAILED {r['shape']} {r['field']} {r['command']}: {r['problems']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
