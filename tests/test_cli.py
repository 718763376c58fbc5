"""End-to-end CLI tests: exit codes, document round-trips, flag handling."""

import dataclasses
import io
import json
import random
import re
import sys
import time
from fractions import Fraction

import pytest

from ratherm import (
    FieldConfig,
    HermiteData,
    InternalInconsistency,
    InvalidInput,
    Poly,
    TooLarge,
    rational_taylor,
    solve_kernel,
    taylor_prefix,
)
from ratherm import cli, solvers
from ratherm.cli import main
from ratherm.field import MAX_DIGITS
from ratherm.problem import MAX_N
from ratherm.verify import MAX_SAMPLES

from oracles import poly_add, poly_one

RAT = FieldConfig.rationals()

GOLDEN_DOC = {
    "field": "Q",
    "k": 2,
    "nodes": [
        {"u": "1", "values": ["1", "0"]},
        {"u": "2", "values": ["0"]},
    ],
}

ZERO_DOC = {
    "field": "Q",
    "k": 2,
    "nodes": [
        {"u": "0", "values": ["0", "0"]},
        {"u": "3", "values": ["0", "0"]},
    ],
}


def solvable_doc():
    # data of x^2 / (x + 1) at nodes 0, 1, 2 with multiplicities (2, 1, 1)
    A = Poly((0, 0, 1), RAT)
    B = Poly((1, 1), RAT)
    nodes = []
    for u, ni in ((0, 2), (1, 1), (2, 1)):
        vals = rational_taylor(A, B, Fraction(u), ni)
        nodes.append({"u": str(u), "values": [str(x) for x in vals]})
    return {"field": "Q", "k": 3, "nodes": nodes}


def write_doc(tmp_path, doc, name="doc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


# ------------------------------------------------------------------- solve


def test_solve_golden_all_methods(tmp_path, capsys):
    path = write_doc(tmp_path, GOLDEN_DOC)
    code, out, _ = run_json(capsys, ["solve", "--input", path])
    assert code == 3
    assert out["status"] == "unattainable"
    assert out["method_agreement"] is True
    assert out["stratum_j"] == 1
    assert out["witness_nodes"] == [1]
    assert out["minimal"]["A0"] == ["-2", "1"]
    assert out["minimal"]["B0"] == ["-2", "1"]
    assert out["minimal"]["kernel_dim"] == 1


@pytest.mark.parametrize("method", ["kernel", "eea", "minors"])
def test_solve_single_methods(tmp_path, capsys, method):
    path = write_doc(tmp_path, GOLDEN_DOC)
    code, out, _ = run_json(capsys, ["solve", "--input", path, "--method", method])
    assert code == 3
    assert out["method"] == method
    assert out["stratum_j"] == 1
    if method == "eea":
        assert out["minimal"] is None


def test_solve_emits_monic_denominator(tmp_path, capsys):
    path = write_doc(tmp_path, solvable_doc())
    code, out, _ = run_json(capsys, ["solve", "--input", path])
    assert code == 0
    assert out["status"] == "solvable"
    assert out["A"] == ["0", "0", "1"]
    assert out["B"] == ["1", "1"]
    assert out["reduced"] is False


def test_solve_k_equals_n_constant_denominator(tmp_path, capsys):
    P = Poly((0, 0, 0, 1), RAT)  # x^3
    nodes = []
    for u, ni in ((0, 2), (3, 2)):
        vals = taylor_prefix(P, Fraction(u), ni)
        nodes.append({"u": str(u), "values": [str(x) for x in vals]})
    path = write_doc(tmp_path, {"field": "Q", "k": 4, "nodes": nodes})
    code, out, _ = run_json(capsys, ["solve", "--input", path])
    assert code == 0
    assert out["B"] == ["1"]
    assert out["A"] == ["0", "0", "0", "1"]


def test_solve_zero_function(tmp_path, capsys):
    path = write_doc(tmp_path, ZERO_DOC)
    code, out, _ = run_json(capsys, ["solve", "--input", path])
    assert code == 0
    assert out["A"] == []
    assert out["B"] == ["1"]


def test_solve_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(GOLDEN_DOC)))
    code, out, _ = run_json(capsys, ["solve"])
    assert code == 3
    assert out["stratum_j"] == 1


def test_solve_pretty_format(tmp_path, capsys):
    path = write_doc(tmp_path, GOLDEN_DOC)
    code = main(["solve", "--input", path, "--format", "pretty"])
    captured = capsys.readouterr()
    assert code == 3
    assert "status: unattainable" in captured.out
    assert "witness nodes (0-based): [1]" in captured.out


def test_solve_field_override(tmp_path, capsys):
    doc = {
        "field": "Q",
        "k": 2,
        "nodes": [{"u": 1, "values": [1, 0]}, {"u": 2, "values": [0]}],
    }
    path = write_doc(tmp_path, doc)
    code, out, _ = run_json(capsys, ["solve", "--input", path, "--field", "p:13"])
    assert code == 3
    assert out["field"] == {"p": 13}
    assert out["witness_nodes"] == [1]


def test_solve_derivative_values_flag(tmp_path, capsys):
    raw = {"field": "Q", "k": 2, "nodes": [{"u": "0", "values": ["3", "4", "5"]}]}
    taylor = {"field": "Q", "k": 2, "nodes": [{"u": "0", "values": ["3", "4", "5/2"]}]}
    p_raw = write_doc(tmp_path, raw, "raw.json")
    p_tay = write_doc(tmp_path, taylor, "tay.json")
    code_raw, out_raw, _ = run_json(
        capsys, ["solve", "--input", p_raw, "--derivative-values"]
    )
    code_tay, out_tay, _ = run_json(capsys, ["solve", "--input", p_tay])
    assert (code_raw, out_raw) == (code_tay, out_tay)


# ------------------------------------------------------------- input errors


def test_bad_json_is_input_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, out, err = run_json(capsys, ["solve", "--input", str(p)])
    assert code == 1
    assert out is None
    assert "JSONDecodeError" in err


def test_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run_json(capsys, ["solve", "--input", str(tmp_path / "nope.json")])
    assert code == 1
    assert err


def test_invalid_document_is_input_error(tmp_path, capsys):
    bad = dict(GOLDEN_DOC, k="2")
    path = write_doc(tmp_path, bad)
    code, _, err = run_json(capsys, ["solve", "--input", path])
    assert code == 1
    assert "InvalidInput" in err


def test_duplicate_nodes_is_input_error(tmp_path, capsys):
    doc = {
        "field": "Q",
        "k": 1,
        "nodes": [{"u": "1", "values": ["0"]}, {"u": "1", "values": ["0"]}],
    }
    path = write_doc(tmp_path, doc)
    code, _, err = run_json(capsys, ["solve", "--input", path])
    assert code == 1
    assert "DuplicateNodes" in err


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def boom(data):
        raise InternalInconsistency("synthetic failure")

    monkeypatch.setattr("ratherm.cli.solve_kernel", boom)
    path = write_doc(tmp_path, GOLDEN_DOC)
    code, _, err = run_json(capsys, ["solve", "--input", path, "--method", "kernel"])
    assert code == 2
    assert "InternalInconsistency" in err


@pytest.mark.parametrize("argv", [["solve", "--method", "minors"], ["classify"]])
def test_vanishing_certificates_at_the_nullity_exit_2(argv, tmp_path, capsys, monkeypatch):
    """Minor vectors that keep their rank but lose every entry leave both
    chart certificates zero at the defect: the minors route and the
    equation classifier report an internal error, not a verdict."""
    inner = solvers._minors_and_rank

    def vanishing(M):
        ints, scale, r = inner(M)
        return [0] * len(ints), scale, r

    monkeypatch.setattr(solvers, "_minors_and_rank", vanishing)
    for doc in (GOLDEN_DOC, solvable_doc()):
        code, out, err = run_json(capsys, argv + ["--input", write_doc(tmp_path, doc)])
        assert (code, out) == (2, None)
        assert json.loads(err)["kind"] == "InternalInconsistency"


BEYOND_DOC = {  # defect 3 > m+1 = 1, node 1 a witness
    "field": "Q",
    "k": 1,
    "nodes": [{"u": "0", "values": ["0", "0"]}, {"u": "1", "values": ["0", "1"]}],
}


def test_classify_checks_the_window(tmp_path, capsys, monkeypatch):
    """The display window is a third check of defect and chart: a window
    with every entry zero puts the defect above m+1, one with every entry
    one puts it at 1 in both charts; against the equations' report below
    m+1 and above it, either makes ``classify`` exit 2 with a JSON error."""
    for doc, code in ((GOLDEN_DOC, 3), (BEYOND_DOC, 3)):
        assert run_json(capsys, ["classify", "--input", write_doc(tmp_path, doc)])[0] == code
    inner = cli.diagonal_window
    for doc, value in ((GOLDEN_DOC, 0), (BEYOND_DOC, 1)):
        monkeypatch.setattr(cli, "diagonal_window", lambda d: {t: value for t in inner(d)})
        code, out, err = run_json(capsys, ["classify", "--input", write_doc(tmp_path, doc)])
        assert (code, out) == (2, None)
        assert json.loads(err)["kind"] == "InternalInconsistency"
        assert "diagonal window" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "doc",
    [
        {"field": "Q", "k": 1, "nodes": [{"u": "1", "values": 5}]},
        dict(GOLDEN_DOC, k=True),
        {"field": "Q", "k": 1, "nodes": [{"u": True, "values": ["0"]}]},
        # a strong pseudoprime to the bases 2..37
        {"field": {"p": 318665857834031151167461}, "k": 1,
         "nodes": [{"u": 1, "values": [2]}]},
    ],
    ids=["values-not-list", "bool-k", "bool-u", "pseudoprime-modulus"],
)
def test_malformed_document_is_input_error(tmp_path, capsys, doc):
    code, out, err = run_json(capsys, ["solve", "--input", write_doc(tmp_path, doc)])
    assert (code, out) == (1, None)
    assert json.loads(err)["kind"] == "InvalidInput"


@pytest.mark.parametrize(
    "argv",
    [["solve", "--method", "bogus"], ["sample", "--shape", "2,1", "--k", "x"], []],
    ids=["bad-choice", "bad-int", "no-command"],
)
def test_bad_flags_are_input_error(capsys, argv):
    code, out, err = run_json(capsys, argv)
    assert (code, out) == (1, None)
    assert json.loads(err)["kind"] == "InvalidInput"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: ratherm" in capsys.readouterr().out


def test_foreign_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    def boom(data):
        raise TypeError("synthetic failure")

    monkeypatch.setattr("ratherm.cli.solve_kernel", boom)
    path = write_doc(tmp_path, GOLDEN_DOC)
    code, out, err = run_json(capsys, ["solve", "--input", path, "--method", "kernel"])
    assert (code, out) == (2, None)
    assert json.loads(err) == {"error": "synthetic failure", "kind": "TypeError"}


def test_parser_is_reused_across_calls(tmp_path, capsys):
    # one parser per process: flags of one call must not leak into the next
    path = write_doc(tmp_path, GOLDEN_DOC)
    code, out, _ = run_json(capsys, ["solve", "--input", path, "--method", "kernel"])
    assert (code, out["method"]) == (3, "kernel")
    code, out, _ = run_json(capsys, ["solve", "--input", path])
    assert (code, out["method"]) == (3, "all")
    code = main(["classify", "--input", path, "--format", "pretty"])
    assert code == 3 and capsys.readouterr().out.startswith("defect: 1")
    code, out, _ = run_json(capsys, ["sample", "--shape", "2,1", "--k", "2", "--seed", "3"])
    assert code == 0 and out["meta"]["seed"] == 3
    code, out, err = run_json(capsys, ["solve", "--input", path, "--method", "bogus"])
    assert (code, out) == (1, None)
    assert json.loads(err)["kind"] == "InvalidInput"
    code, out, _ = run_json(capsys, ["solve", "--input", path, "--method", "eea"])
    assert (code, out["method"]) == (3, "eea")


def _disagreement(capsys, tmp_path, monkeypatch, doc, route, fake):
    monkeypatch.setattr(f"ratherm.cli.{route}", fake)
    code, out, _ = run_json(capsys, ["solve", "--input", write_doc(tmp_path, doc)])
    return code, out


def test_agreement_rejects_a_different_solvable_pair(tmp_path, capsys, monkeypatch):
    from ratherm.problem import RationalSolution
    from ratherm.solvers import Solvable, solve_eea

    def other_pair(data):  # a solution not proportional to the true one
        minsol, cls = solve_eea(data)
        sol = cls.sol
        return minsol, Solvable(RationalSolution(poly_add(sol.A, poly_one(sol.A.field)), sol.B))

    code, out = _disagreement(capsys, tmp_path, monkeypatch, solvable_doc(), "solve_eea", other_pair)
    assert (code, out["method_agreement"]) == (2, False)


def test_agreement_rejects_different_witnesses(tmp_path, capsys, monkeypatch):
    from ratherm.solvers import Unattainable, solve_minors

    def other_witnesses(data):
        minsol, cls = solve_minors(data)
        return minsol, Unattainable(cls.stratum_j, (0,))  # the true list is (1,)

    code, out = _disagreement(capsys, tmp_path, monkeypatch, GOLDEN_DOC, "solve_minors", other_witnesses)
    assert (code, out["method_agreement"]) == (2, False)


@pytest.mark.parametrize("route", ["solve_kernel", "solve_eea", "solve_minors"])
def test_agreement_rejects_a_different_unattainable_pair(tmp_path, capsys, monkeypatch, route):
    """Same stratum and witnesses, another minimal pair: the routes disagree."""
    inner = getattr(cli, route)

    def other_pair(data):
        minsol, cls = inner(data)
        return dataclasses.replace(minsol, A0=poly_add(minsol.A0, poly_one(data.field))), cls

    code, out = _disagreement(capsys, tmp_path, monkeypatch, GOLDEN_DOC, route, other_pair)
    assert (code, out["status"], out["stratum_j"], out["witness_nodes"]) == (2, "unattainable", 1, [1])
    assert out["method_agreement"] is False


# ----------------------------------------------------------------- classify


def test_classify_golden(tmp_path, capsys):
    path = write_doc(tmp_path, GOLDEN_DOC)
    code, out, _ = run_json(capsys, ["classify", "--input", path])
    assert code == 3
    assert out["rank_classifier_agrees"] is True
    for key in ("rank", "equations"):
        assert out[key]["defect"] == 1
        assert out[key]["unattainable"] is True
        assert out[key]["witnesses"] == [1]
    assert out["equations"]["chart"] == "both"
    assert out["rank"]["diagonal_minors"]["2"] == "1"


def test_classify_rejects_a_relabelled_rank_chart(tmp_path, capsys, monkeypatch):
    """A rank report that differs from the equations' in its chart alone
    makes ``classify`` exit 2."""
    inner = cli.classify_by_rank
    relabel = {"both": "lower", "lower": "upper", "upper": "both"}

    def relabelled(data):
        report = inner(data)
        return dataclasses.replace(report, chart=relabel[report.chart])

    monkeypatch.setattr(cli, "classify_by_rank", relabelled)
    for doc in (GOLDEN_DOC, solvable_doc(), BEYOND_DOC):
        code, out, _ = run_json(capsys, ["classify", "--input", write_doc(tmp_path, doc)])
        assert (code, out["rank_classifier_agrees"]) == (2, False)
        assert out["rank"]["chart"] != out["equations"]["chart"]
        assert out["rank"]["witnesses"] == out["equations"]["witnesses"]


def test_classify_solvable(tmp_path, capsys):
    path = write_doc(tmp_path, solvable_doc())
    code, out, _ = run_json(capsys, ["classify", "--input", path])
    assert code == 0
    assert out["equations"]["unattainable"] is False
    assert out["equations"]["witnesses"] == []


# ------------------------------------------------------------------- minors


def test_minors_table(tmp_path, capsys):
    path = write_doc(tmp_path, GOLDEN_DOC)
    code, out, _ = run_json(capsys, ["minors", "--input", path])
    assert code == 0
    assert sorted(out["minors"], key=int) == ["1", "2", "3", "4"]
    assert all(entry["annihilates"] for entry in out["minors"].values())
    assert out["diagonal"]["2"] == "1"
    assert out["diagonal"]["3"] == "1"
    assert len(out["minors"]["2"]["values"]) == 4


def test_minors_t_range(tmp_path, capsys):
    path = write_doc(tmp_path, GOLDEN_DOC)
    code, out, _ = run_json(
        capsys, ["minors", "--input", path, "--t-min", "2", "--t-max", "3"]
    )
    assert code == 0
    assert sorted(out["minors"]) == ["2", "3"]
    code, _, err = run_json(
        capsys, ["minors", "--input", path, "--t-min", "3", "--t-max", "2"]
    )
    assert code == 1
    code, _, err = run_json(capsys, ["minors", "--input", path, "--t-max", "9"])
    assert code == 1


def test_minors_t_min_zero(tmp_path, capsys):
    path = write_doc(tmp_path, GOLDEN_DOC)
    code, out, _ = run_json(
        capsys, ["minors", "--input", path, "--t-min", "0", "--t-max", "1"]
    )
    assert code == 0
    assert sorted(out["minors"]) == ["0", "1"]
    assert len(out["minors"]["0"]["values"]) == 4
    # minor vectors are indexed from 1: there is no Delta_{0,0}
    assert list(out["diagonal"]) == ["1"]


# ---------------------------------------------------------------- eea-trace


def test_eea_trace_golden(tmp_path, capsys):
    path = write_doc(tmp_path, GOLDEN_DOC)
    code, out, _ = run_json(capsys, ["eea-trace", "--input", path])
    assert code == 0
    assert out["gcd_is_one"] is False
    assert out["rows"]
    cut_rows = [r for r in out["rows"] if r["is_cut"]]
    assert len(cut_rows) == 1
    assert cut_rows[0]["index"] == out["cut_index"]


def test_eea_trace_zero_interpolant(tmp_path, capsys):
    path = write_doc(tmp_path, ZERO_DOC)
    code, out, _ = run_json(capsys, ["eea-trace", "--input", path])
    assert code == 0
    assert out["interpolant_zero"] is True
    assert out["rows"] == []
    assert out["gcd_is_one"] is True


def test_eea_trace_virtual_row(tmp_path, capsys):
    doc = {"field": "Q", "k": 1, "nodes": [{"u": "0", "values": ["0", "0", "1"]}]}
    path = write_doc(tmp_path, doc)
    code, out, _ = run_json(capsys, ["eea-trace", "--input", path])
    assert code == 0
    last = out["rows"][-1]
    assert last["is_virtual"] is True
    assert last["is_cut"] is True
    assert last["remainder"] == []
    assert out["gcd_is_one"] is False


def test_json_output_builds_no_pretty_line(tmp_path, capsys, monkeypatch):
    """Pretty lines are built only under ``--format pretty``: with
    ``Poly.__str__`` and ``PrimeFieldElement.__str__`` raising, every
    command's JSON output and exit code are unchanged."""
    from ratherm.field import PrimeFieldElement

    gf_doc = {"field": {"p": 1000003}, "k": 3, "nodes": [
        {"u": u, "values": [u + j for j in range(ni)]} for u, ni in ((0, 2), (1, 1), (2, 1))]}
    runs = [
        c + ["--input", write_doc(tmp_path, doc, f"doc{i}.json")]
        for i, doc in enumerate((GOLDEN_DOC, solvable_doc(), ZERO_DOC, BEYOND_DOC, gf_doc))
        for c in (["solve"], ["solve", "--method", "eea"], ["classify"], ["minors"], ["eea-trace"])
    ]
    runs += [["sample", "--shape", "3,2", "--k", "3", "--seed", "4"],
             ["verify", "--samples", "2", "--seed", "1"]]
    expected = []
    for argv in runs:
        expected.append((main(argv), capsys.readouterr()))

    def refuse(self):
        raise AssertionError("pretty line built for JSON output")

    monkeypatch.setattr(Poly, "__str__", refuse)
    monkeypatch.setattr(PrimeFieldElement, "__str__", refuse)
    for argv, (code, captured) in zip(runs, expected):
        assert (main(argv), capsys.readouterr()) == (code, captured), argv
        assert code in (0, 3) and not captured.err
    with pytest.raises(AssertionError):
        str(Poly((1,), RAT))
    assert main(["solve", "--format", "pretty", "--input", runs[0][-1]]) == 2
    assert "pretty line built" in capsys.readouterr().err


# ------------------------------------------------------------------- verify


def test_verify_small_run(capsys):
    code, out, _ = run_json(
        capsys, ["verify", "--suite", "paper-identities", "--samples", "5", "--seed", "7"]
    )
    assert code == 0
    assert out["total_failures"] == 0
    assert len(out["reports"]) == 8
    assert all(r["passes"] == 5 for r in out["reports"])


def test_verify_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("RATHERM_SEED", "12")
    code, out, _ = run_json(capsys, ["verify", "--samples", "3", "--seed", "7"])
    assert code == 0
    assert out["reports"][0]["seed"] == 12
    assert out["reports"][1]["seed"] == 1012
    monkeypatch.setenv("RATHERM_SEED", "notanumber")
    code, _, err = run_json(capsys, ["verify", "--samples", "3"])
    assert code == 1
    assert "RATHERM_SEED" in err


def test_verify_sample_cap(capsys):
    code, out, err = run_json(capsys, ["verify", "--samples", str(MAX_SAMPLES + 1)])
    assert code == 1
    assert out is None
    assert json.loads(err)["kind"] == "TooLarge"


# ------------------------------------------------------------------- sample


def test_sample_round_trip(capsys):
    code, out, _ = run_json(
        capsys, ["sample", "--shape", "2,1", "--k", "2", "--defect", "1", "--seed", "3"]
    )
    assert code == 0
    assert out["meta"] == {
        "seed": 3,
        "target_defect": 1,
        "force_unattainable": False,
    }
    data = HermiteData.from_json_dict(out)
    _, verdict = solve_kernel(data)
    assert verdict.solvable


def test_sample_forced_unattainable(capsys):
    code, out, _ = run_json(
        capsys,
        [
            "sample", "--shape", "2,2", "--k", "3", "--defect", "1",
            "--force-unattainable", "--seed", "4",
        ],
    )
    assert code == 0
    data = HermiteData.from_json_dict(out)
    _, verdict = solve_kernel(data)
    assert not verdict.solvable
    assert verdict.stratum_j == 1


def test_sample_env_seed_overrides(capsys, monkeypatch):
    monkeypatch.setenv("RATHERM_SEED", "5")
    code, out, _ = run_json(
        capsys, ["sample", "--shape", "2,1", "--k", "2", "--seed", "3"]
    )
    assert code == 0
    assert out["meta"]["seed"] == 5


def test_sample_prime_field(capsys):
    code, out, _ = run_json(
        capsys,
        ["sample", "--shape", "2,1", "--k", "2", "--seed", "1", "--field", "p:13"],
    )
    assert code == 0
    assert out["field"] == {"p": 13}
    data = HermiteData.from_json_dict(out)
    assert data.field == FieldConfig.prime(13)


def test_sample_bad_requests(capsys):
    code, _, err = run_json(capsys, ["sample", "--shape", "2,x", "--k", "2"])
    assert code == 1
    code, _, err = run_json(
        capsys, ["sample", "--shape", "2,1", "--k", "2", "--field", "p:4"]
    )
    assert code == 1
    code, _, err = run_json(
        capsys, ["sample", "--shape", "2,1", "--k", "2", "--defect", "9"]
    )
    assert code == 1
    assert "InfeasibleRequest" in err


def test_size_cap_is_input_error(tmp_path, capsys):
    # n = MAX_N is accepted; one more value is refused, by document or sampler
    at_cap = HermiteData((0,), (MAX_N,), ((0,) * MAX_N,), 1, RAT)
    assert at_cap.n == MAX_N
    doc = {"field": "Q", "k": 1, "nodes": [{"u": "0", "values": ["0"] * (MAX_N + 1)}]}
    code, out, err = run_json(capsys, ["solve", "--input", write_doc(tmp_path, doc)])
    assert (code, out) == (1, None)
    assert json.loads(err)["kind"] == "TooLarge"
    shape = f"{MAX_N},1"
    code, out, err = run_json(capsys, ["sample", "--shape", shape, "--k", "2"])
    assert (code, out) == (1, None)
    assert json.loads(err)["kind"] == "TooLarge"


def test_size_cap_comes_before_per_node_work(tmp_path, capsys):
    # many nodes would cost a quadratic duplicate scan, many values a
    # factorial each under --derivative-values; the cap refuses both first
    nodes = [{"u": str(i), "values": ["1"]} for i in range(4000)]
    many_nodes = {"field": "Q", "k": 1, "nodes": nodes}
    many_values = {"field": "Q", "k": 1, "nodes": [{"u": "0", "values": ["1"] * 20000}]}
    malformed = {"field": "Q", "k": 1, "nodes": nodes + [{"u": "x"}]}
    for doc, flags in ((many_nodes, []), (many_values, ["--derivative-values"]), (malformed, [])):
        path = write_doc(tmp_path, doc)
        start = time.perf_counter()
        code, out, err = run_json(capsys, ["solve", "--input", path, *flags])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, None)
        assert json.loads(err)["kind"] == "TooLarge"
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        HermiteData(range(4000), (1,) * 4000, [(1,)] * 4000, 1, RAT)
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------ digit limits


def test_long_json_integer_is_input_error(tmp_path, capsys):
    # a JSON integer literal over MAX_DIGITS, never built by the parser
    limit = sys.get_int_max_str_digits()
    p = tmp_path / "long.json"
    p.write_text(
        '{"field": "Q", "k": 2, "nodes": [{"u": %s, "values": ["1"]}, '
        '{"u": "2", "values": ["1"]}]}' % ("1" * (MAX_DIGITS + 100))
    )
    code, out, err = run_json(capsys, ["solve", "--input", str(p)])
    assert (code, out) == (1, None)
    assert json.loads(err)["kind"] == "InvalidInput"
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("literal", ["1e100000", "1e1000000", "1e999999999", "-2.5e-999999999"])
def test_huge_exponent_literal_is_input_error(tmp_path, capsys, literal):
    doc = {"field": "Q", "k": 1, "nodes": [{"u": literal, "values": ["1"]}]}
    t0 = time.perf_counter()
    code, out, err = run_json(capsys, ["classify", "--input", write_doc(tmp_path, doc)])
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (1, None)
    assert json.loads(err)["kind"] == "InvalidInput"


def test_literal_digit_cap_boundary():
    assert RAT.parse_scalar(f"1e{MAX_DIGITS - 1}") == 10 ** (MAX_DIGITS - 1)
    assert RAT.parse_scalar(f"-1.5e-{MAX_DIGITS - 2}") == Fraction(-15, 10 ** (MAX_DIGITS - 1))
    for literal in (f"1e{MAX_DIGITS}", f"1e-{MAX_DIGITS}", f"1.5e{MAX_DIGITS - 1}",
                    "7" * (MAX_DIGITS + 1), "1/" + "3" * (MAX_DIGITS + 1)):
        with pytest.raises(InvalidInput):
            RAT.parse_scalar(literal)


@pytest.mark.parametrize("command", ["solve", "classify", "minors", "eea-trace"])
@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_results_past_the_digit_limit_print_in_full(tmp_path, capsys, command, fmt):
    # 3000-digit values are valid input; products of them pass 4300 digits
    rng = random.Random(1)
    nodes = [{"u": str(u), "values": [str(rng.randrange(10**2999, 10**3000))]} for u in (1, 2, 3)]
    path = write_doc(tmp_path, {"field": "Q", "k": 2, "nodes": nodes})
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        code = main([command, "--input", path, "--format", fmt])
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(saved)
    captured = capsys.readouterr()
    assert code in (0, 3) and captured.err == ""
    if command != "classify" or fmt == "json":
        assert max(map(len, re.findall(r"\d+", captured.out))) > 4321
