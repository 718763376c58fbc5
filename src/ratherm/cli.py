"""Command-line surface: solve, classify, minors, eea-trace, verify, sample.

Exit codes are a stable contract:

    0  solvable (or the command completed)
    1  input error (bad JSON, bad flags, infeasible sample request)
    2  internal error (route disagreement, broken invariant, any
       unexpected exception)
    3  unattainable input (solve / classify)
    4  identity verification failure (verify)

Problem documents follow the schema of HermiteData.from_json_dict; all
emitted documents re-parse to the same value.  Witness nodes are 0-based
everywhere.  The env var RATHERM_SEED overrides any --seed flag.  Errors
go to stderr as one JSON record {"error", "kind"}.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Callable, Optional

from .errors import (
    BadIndex,
    CharacteristicTooSmall,
    DivisionByZero,
    DuplicateNodes,
    InfeasibleRequest,
    InternalInconsistency,
    InvalidInput,
    MixedFields,
    ShapeMismatch,
    TooLarge,
)
from .field import RATIONALS, FieldConfig, parse_json_int
from .polynomial import Poly, _eea_table, _ints, gcd, hermite_interpolant, product_F
from .problem import HermiteData, RationalSolution, _family_columns, master_matrix, rhip_check
from .solvers import MinimalSolution, minor_vector, solve_eea, solve_kernel, solve_minors
from .strata import classify_by_rank, diagonal_window, stratum_equations, window_chart
from .verify import check_identity, paper_identity_catalog, sample_stratum

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_UNATTAINABLE = 3
EXIT_VERIFY = 4

_INPUT_ERRORS = (
    json.JSONDecodeError,
    OSError,
    InvalidInput,
    DuplicateNodes,
    CharacteristicTooSmall,
    MixedFields,
    DivisionByZero,
    BadIndex,
    ShapeMismatch,
    TooLarge,
    InfeasibleRequest,
)


def _parse_field_flag(text: str) -> FieldConfig:
    if text == "Q":
        return RATIONALS
    if text.startswith("p:"):
        try:
            p = int(text[2:])
        except ValueError as exc:
            raise InvalidInput(f"bad prime in --field {text!r}") from exc
        return FieldConfig.prime(p)
    raise InvalidInput(f"--field must be Q or p:PRIME, got {text!r}")


def _effective_seed(args) -> int:
    env = os.environ.get("RATHERM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InvalidInput(f"RATHERM_SEED must be an integer, got {env!r}") from exc
    return args.seed


def _load_document(args) -> HermiteData:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    obj = json.loads(text, parse_int=parse_json_int)
    if args.field is not None:
        override = _parse_field_flag(args.field)
        if not isinstance(obj, dict):
            raise InvalidInput("document must be a JSON object")
        obj = dict(obj)
        obj["field"] = override.to_json()
    return HermiteData.from_json_dict(
        obj, derivative_values=args.derivative_values
    )


def _emit(args, obj: dict, pretty: Callable[[], list[str]]) -> None:
    """Print obj as JSON, or the lines of pretty(), which only
    ``--format pretty`` calls."""
    if args.format == "json":
        print(json.dumps(obj, indent=2))
    else:
        print("\n".join(pretty()))


def _deg(p: Poly) -> Optional[int]:
    return None if p.is_zero else p.degree


def _minimal_json(minsol: MinimalSolution) -> dict:
    return {
        "A0": minsol.A0.to_json(),
        "B0": minsol.B0.to_json(),
        "dA": _deg(minsol.A0),
        "dB": _deg(minsol.B0),
        "s0": minsol.s0,
        "kernel_dim": minsol.kernel_dim,
    }


def _monic_denominator(sol: RationalSolution) -> RationalSolution:
    """Canonical display normalization; B is nonzero for any solvable case."""
    scale = sol.B.field.one / sol.B.lead
    return RationalSolution(sol.A * scale, sol.B * scale)


def cmd_solve(args, data: HermiteData) -> int:
    """Run the chosen routes.  Each returns its (MinimalSolution,
    Classification), the pair normalized by ``MinimalSolution.from_pair``,
    so routes agree when their answers are equal.  The table is built per
    call, so a route wrapped or replaced in this module is the one that runs.
    """
    routes = {"kernel": solve_kernel, "eea": solve_eea, "minors": solve_minors}
    methods = routes if args.method == "all" else (args.method,)
    outcomes = [routes[m](data) for m in methods]
    agreement = all(o == outcomes[0] for o in outcomes)
    minsol, cls = outcomes[0]
    # --method eea prints minimal as null: the output format is a stable contract
    shows_minimal = args.method != "eea"
    out = {
        "status": "solvable" if cls.solvable else "unattainable",
        "method": args.method,
        "method_agreement": agreement,
        "field": data.field.to_json(),
        "minimal": _minimal_json(minsol) if shows_minimal else None,
    }
    head = [f"status: {out['status']}", f"method agreement: {agreement}"]
    if cls.solvable:
        shown = _monic_denominator(cls.sol)
        if not rhip_check(data, shown):
            raise InternalInconsistency("emitted solution fails its own problem")
        out["A"] = shown.A.to_json()
        out["B"] = shown.B.to_json()
        out["reduced"] = False
        _emit(args, out, lambda: head + [f"A: {shown.A}", f"B: {shown.B}"])
    else:
        out["stratum_j"] = cls.stratum_j
        out["witness_nodes"] = list(cls.witness_nodes)
        minimal = [("A0", minsol.A0), ("B0", minsol.B0)] if shows_minimal else []
        _emit(args, out, lambda: head + [
            f"stratum: {cls.stratum_j}",
            f"witness nodes (0-based): {list(cls.witness_nodes)}",
        ] + [f"minimal {name}: {P}" for name, P in minimal])
    if not agreement:
        return EXIT_INTERNAL
    return EXIT_OK if cls.solvable else EXIT_UNATTAINABLE


def cmd_classify(args, data: HermiteData) -> int:
    """Both classifiers' reports; they agree when equal: defect, chart,
    verdict and witnesses."""
    by_rank = classify_by_rank(data)
    by_eq = stratum_equations(data)
    agrees = by_rank == by_eq
    window = diagonal_window(data)
    if window_chart(data, window) != (min(by_eq.defect, data.m + 2), by_eq.chart):
        raise InternalInconsistency(
            f"the diagonal window's defect and chart disagree with the equations' on {data!r}"
        )
    out = {
        "rank": by_rank.to_json_dict(data, window),
        "equations": by_eq.to_json_dict(data, window),
        "rank_classifier_agrees": agrees,
    }
    _emit(args, out, lambda: [
        f"defect: {by_eq.defect}",
        f"chart: {by_eq.chart}",
        f"unattainable: {by_eq.unattainable}",
        f"witness nodes (0-based): {list(by_eq.witnesses)}",
        f"rank classifier agrees: {agrees}",
    ])
    if not agrees:
        return EXIT_INTERNAL
    return EXIT_UNATTAINABLE if by_eq.unattainable else EXIT_OK


def cmd_minors(args, data: HermiteData) -> int:
    n = data.n
    t_min = args.t_min if args.t_min is not None else 1
    t_max = args.t_max if args.t_max is not None else n + 1
    if not 0 <= t_min <= t_max <= n + 1:
        raise InvalidInput(
            f"t range must satisfy 0 <= min <= max <= n+1 = {n + 1}, "
            f"got {t_min}..{t_max}"
        )
    fmt, p = data.field.format_scalar, data.field.p
    table = {}
    vectors = {t: minor_vector(data, t) for t in range(t_min, t_max + 1)}
    master = master_matrix(data)
    for t, mv in vectors.items():
        # the matrix's int rows, read in the master, against the printed
        # vector, cleared to ints
        ints, cols = _ints(data.field, mv)[0], _family_columns(data, t - 1, n - t)
        dots = (sum(row[c] * x for c, x in zip(cols, ints)) for row in master.nums)
        annihilates = not any(x % p if p else x for x in dots)
        table[str(t)] = {
            "values": {str(i): fmt(x) for i, x in enumerate(mv, 1)},
            "annihilates": annihilates,
        }
    # minor vectors are indexed from 1, so there is no Delta_{0,0}
    diag = {t: mv[t - 1] for t, mv in vectors.items() if t}
    out = {"minors": table, "diagonal": {str(t): fmt(x) for t, x in diag.items()}}
    _emit(args, out, lambda: [
        f"t={t}: ({', '.join(map(str, mv))})  annihilates={table[str(t)]['annihilates']}"
        for t, mv in vectors.items()
    ] + ["diagonal: " + ", ".join(f"({t},{t})={x}" for t, x in diag.items())])
    return EXIT_OK


def cmd_eea_trace(args, data: HermiteData) -> int:
    G = hermite_interpolant(data)
    F = product_F(data)
    out = {"F": F.to_json(), "G": G.to_json(), "interpolant_zero": G.is_zero}
    if G.is_zero:
        out.update({"rows": [], "cut_index": None, "gcd_is_one": True})
        _emit(args, out, lambda: [f"F: {F}", f"G: {G}", "interpolant is zero; the solution is 0 / 1"])
        return EXIT_OK
    # the zero row is the cut (virtual) only when no stored row reaches k-1
    table = _eea_table(F, G)
    cut = next(r for r in table if r.remainder.degree <= data.k - 1)
    virtual = cut is table[-1]
    rows = table if virtual else table[:-1]
    g = gcd(cut.remainder, cut.bezout_t)
    row_objs = []
    for r in rows:
        row_objs.append(
            {
                "index": r.index,
                "quotient": r.quotient.to_json(),
                "remainder": r.remainder.to_json(),
                "bezout_s": r.bezout_s.to_json(),
                "bezout_t": r.bezout_t.to_json(),
                "remainder_degree": _deg(r.remainder),
                "is_cut": r.index == cut.index,
                "is_virtual": virtual and r is rows[-1],
            }
        )
    out["rows"] = row_objs
    out["cut_index"] = cut.index
    out["gcd"] = g.to_json()
    out["gcd_is_one"] = g.degree == 0
    _emit(args, out, lambda: [f"F: {F}", f"G: {G}"] + [
        f"row {r.index}: deg R = {_deg(r.remainder)}, R = {r.remainder}, "
        f"T = {r.bezout_t}{' <- cut' if r.index == cut.index else ''}"
        for r in rows
    ] + [f"gcd(R_cut, T_cut) = {g} (coprime: {g.degree == 0})"])
    return EXIT_OK


def cmd_verify(args) -> int:
    specs = paper_identity_catalog()
    seed = _effective_seed(args)
    resolved = []
    for i, spec in enumerate(specs):
        changes = {}
        if args.samples is not None:
            changes["sample_count"] = args.samples
        if seed is not None:
            changes["seed"] = seed + 1000 * i
        resolved.append(dataclasses.replace(spec, **changes) if changes else spec)
    reports = [check_identity(s) for s in resolved]
    total_failures = sum(len(r["failures"]) for r in reports)
    out = {"suite": args.suite, "reports": reports, "total_failures": total_failures}
    _emit(args, out, lambda: [
        f"{r['name']}: {r['passes']}/{r['sample_count']} passes"
        + (f", {len(r['failures'])} FAILURES" if r["failures"] else "")
        for r in reports
    ] + [f"total failures: {total_failures}"])
    return EXIT_VERIFY if total_failures else EXIT_OK


def cmd_sample(args) -> int:
    try:
        shape = tuple(int(x) for x in args.shape.split(","))
    except ValueError as exc:
        raise InvalidInput("--shape must be comma-separated integers") from exc
    field = _parse_field_flag(args.field) if args.field is not None else RATIONALS
    seed = _effective_seed(args)
    data = sample_stratum(shape, args.k, args.defect, args.force_unattainable, seed, field)
    out = data.to_json_dict()
    out["meta"] = {
        "seed": seed,
        "target_defect": args.defect,
        "force_unattainable": args.force_unattainable,
    }
    # the pretty form of a sampled document is its JSON
    _emit(args, out, lambda: [json.dumps(out, indent=2)])
    return EXIT_OK


def _add_io_options(sp) -> None:
    sp.add_argument(
        "--input", default="-", help="path to a problem document, or - for stdin"
    )
    sp.add_argument("--format", choices=("json", "pretty"), default="json")
    sp.add_argument(
        "--field",
        default=None,
        help="Q or p:PRIME; overrides the document's field entry",
    )
    sp.add_argument(
        "--derivative-values",
        action="store_true",
        help="input values are raw derivative targets; divide entry j by j!",
    )


class _Parser(argparse.ArgumentParser):
    """Raises InvalidInput on bad flags, so they exit 1 with a JSON record."""

    def error(self, message):
        raise InvalidInput(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse_args call
    returns a fresh Namespace."""
    parser = _Parser(
        prog="ratherm",
        description=(
            "Exact solver and classifier for rational Hermite interpolation: "
            "three independent routes, unattainability strata, minor tables, "
            "identity verification, instance sampling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve one instance (exit 3 if unattainable)")
    _add_io_options(sp)
    sp.add_argument(
        "--method", choices=("kernel", "eea", "minors", "all"), default="all"
    )
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser(
        "classify", help="rank and closed-form stratum classification"
    )
    _add_io_options(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("minors", help="table of signed minor vectors")
    _add_io_options(sp)
    sp.add_argument("--t-min", type=int, default=None)
    sp.add_argument("--t-max", type=int, default=None)
    sp.set_defaults(func=cmd_minors)

    sp = sub.add_parser("eea-trace", help="extended Euclidean table with cut row")
    _add_io_options(sp)
    sp.set_defaults(func=cmd_eea_trace)

    sp = sub.add_parser("verify", help="run the identity catalog (exit 4 on failure)")
    sp.add_argument("--suite", choices=("paper-identities",), default="paper-identities")
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--format", choices=("json", "pretty"), default="json")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sample", help="draw an instance with prescribed defect")
    sp.add_argument("--shape", required=True, help="multiplicities, e.g. 2,1")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--defect", type=int, default=1)
    sp.add_argument("--force-unattainable", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--field", default=None, help="Q or p:PRIME")
    sp.add_argument("--format", choices=("json", "pretty"), default="json")
    sp.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    limit = sys.get_int_max_str_digits()
    try:
        args = build_parser().parse_args(argv)
        document = (_load_document(args),) if "input" in args else ()
        # Inputs are parsed under the interpreter's digit limit; exact
        # results are printed in full, however many digits they have.
        sys.set_int_max_str_digits(0)
        return args.func(args, *document)
    except Exception as exc:
        print(
            json.dumps({"error": str(exc), "kind": type(exc).__name__}),
            file=sys.stderr,
        )
        return EXIT_INPUT if isinstance(exc, _INPUT_ERRORS) else EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
