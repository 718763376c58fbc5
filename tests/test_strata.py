"""Rank-only classification and chart-equation classification, checked
against each other and against the kernel route."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ratherm import (
    FieldConfig,
    HermiteData,
    InternalInconsistency,
    Poly,
    ShapeMismatch,
    classify_by_rank,
    diagonal_minor,
    hermite_interpolant,
    linalg,
    rational_taylor,
    sample_stratum,
    solve_kernel,
    strata,
    stratum_equations,
)
from ratherm.cli import EXIT_INTERNAL, EXIT_OK, EXIT_UNATTAINABLE
from ratherm.solvers import chart_pair, find_defect
from ratherm.strata import StratumReport, _chart_label, diagonal_window, window_chart

from oracles import (
    b1_closed_form_check,
    classify_by_rank_ref,
    defect_by_scan_ref,
    defect_certificates,
    poly_pow,
)
from test_golden_cli import DOCUMENTS, LOW_ENTROPY_SHAPES, _low_entropy_documents, run_cli

RAT = FieldConfig.rationals()
GF13 = FieldConfig.prime(13)

SHAPES = [
    ((2, 1), 2),
    ((3, 1), 2),
    ((2, 2), 3),
    ((5,), 3),
    ((1, 1, 1), 2),
    ((4, 2), 4),
    ((2, 2, 1), 3),
]


def rank_verdict_matches_kernel(d):
    """The rank classifier's verdict and defect against the kernel route."""
    by_rank = classify_by_rank(d)
    _, cls = solve_kernel(d)
    return by_rank.unattainable != cls.solvable and by_rank.defect == (
        cls.stratum_j if not cls.solvable else by_rank.defect
    )


DEGENERATE = [
    (HermiteData((0,), (3,), ((0, 0, 1),), 1, RAT), 2, (0,)),
    (HermiteData((0,), (4,), ((0, 0, 0, 1),), 1, RAT), 3, (0,)),
    (HermiteData((0, 1), (2, 2), ((0, 0), (0, 1)), 1, RAT), 3, (1,)),
]


def random_data(rng, shape, k, field=RAT):
    pool = range(0, field.p) if field.p is not None else range(-6, 7)
    u = rng.sample(pool, len(shape))
    v = tuple(
        tuple(field.from_int(rng.randint(-6, 6)) for _ in range(ni)) for ni in shape
    )
    return HermiteData(u, shape, v, k, field)


def test_golden_rank_report(golden):
    rep = classify_by_rank(golden)
    assert rep.defect == 1
    assert rep.chart == "both"
    assert rep.unattainable
    assert rep.witnesses == (1,)
    window = diagonal_window(golden)
    assert set(window) == {1, 2, 3}
    assert window[2] == Fraction(1)
    assert window[3] == Fraction(1)


def test_golden_equation_report(golden):
    assert stratum_equations(golden) == classify_by_rank(golden)


def test_report_json(golden):
    doc = classify_by_rank(golden).to_json_dict(golden, diagonal_window(golden))
    assert doc["defect"] == 1
    assert doc["chart"] == "both"
    assert doc["unattainable"] is True
    assert doc["witnesses"] == [1]
    assert doc["diagonal_minors"]["2"] == "1"
    assert all(isinstance(t, str) for t in doc["diagonal_minors"])


def test_report_json_prime_field():
    d = random_data(random.Random(3), (2, 1), 2, GF13)
    doc = classify_by_rank(d).to_json_dict(d, diagonal_window(d))
    for val in doc["diagonal_minors"].values():
        assert set(val) == {"residue", "p"} and val["p"] == 13


def test_diagonal_window_bounds():
    rng = random.Random(5)
    for shape, k in SHAPES:
        d = random_data(rng, shape, k)
        lo, hi = max(1, d.k - d.m), min(d.n, d.k + d.m + 1)
        assert sorted(diagonal_window(d)) == list(range(lo, hi + 1))


def window_matches_determinants(d):
    """The window of d and, at the k that widens it to every t in 1..n, the
    full window, against one determinant per diagonal minor."""
    full = HermiteData(d.u, d.n_vec, d.v, (d.n + 1) // 2, d.field)
    assert sorted(diagonal_window(full)) == list(range(1, d.n + 1))
    for data in (d, full):
        assert diagonal_window(data) == {t: diagonal_minor(data, t) for t in diagonal_window(data)}


def zero_heavy(rng, field):
    """1-3 distinct nodes (fractional over Q) of multiplicity 1-3, about
    two thirds of the values zero, any k."""
    l = rng.randint(1, 3)
    if field.p is None:
        u = list({Fraction(rng.randint(-9, 9), rng.randint(1, 10)) for _ in range(l)})
    else:
        u = rng.sample(range(field.p), l)
    n_vec = [rng.randint(1, 3) for _ in u]
    v = [[0 if rng.random() < 2 / 3 else rng.randint(-5, 5) for _ in range(ni)] for ni in n_vec]
    return HermiteData(u, n_vec, v, rng.randint(1, sum(n_vec)), field)


def test_window_matches_determinants_on_stratum_draws():
    """Draws at every feasible defect, plain and forced: the vanishing runs
    are the remainder sequences with degree gaps."""
    for field in (RAT, FieldConfig.prime(7), FieldConfig.prime(1000003)):
        for shape, k in [((2, 1), 2), ((5,), 3), ((3, 3), 3), ((2, 2, 1), 3), ((3, 3, 2), 4)]:
            m = min(k - 1, sum(shape) - k)
            for forced, top in ((False, m + 1), (True, m)):
                for j in range(1, top + 1):
                    window_matches_determinants(sample_stratum(shape, k, j, forced, 90 + j, field))


def test_window_matches_determinants_on_zero_heavy_data():
    rng = random.Random(97)
    seen = {"G = 0": 0, "G != 0, deg G < n-1": 0, "defect > m+1": 0, "fractional node": 0}
    for field in (RAT, FieldConfig.prime(5), FieldConfig.prime(7), FieldConfig.prime(1000003)):
        for _ in range(60):
            d = zero_heavy(rng, field)
            window_matches_determinants(d)
            G = hermite_interpolant(d)
            seen["G = 0"] += G.is_zero
            seen["G != 0, deg G < n-1"] += 0 <= G.degree < d.n - 1
            seen["defect > m+1"] += classify_by_rank(d).defect > d.m + 1
            seen["fractional node"] += any(ui.denominator > 1 for ui in d.u) if field.p is None else 0
    assert min(seen.values()) >= 10, seen


def test_classifiers_agree_on_random_data():
    rng = random.Random(71)
    for shape, k in SHAPES:
        for _ in range(4):
            d = random_data(rng, shape, k)
            by_rank = classify_by_rank(d)
            by_eq = stratum_equations(d)
            assert by_rank == by_eq
            _, verdict = solve_kernel(d)
            assert by_rank.unattainable != verdict.solvable
            if not verdict.solvable:
                assert by_rank.defect == verdict.stratum_j
                assert by_rank.witnesses == verdict.witness_nodes
            assert rank_verdict_matches_kernel(d)


def test_classifiers_agree_on_solvable_data():
    rng = random.Random(73)
    for _ in range(6):
        A = Poly([rng.randint(-4, 4), rng.randint(-4, 4), 1], RAT)
        B = Poly([rng.randint(5, 9), 1], RAT)
        u = (0, 1, 2)
        v = tuple(rational_taylor(A, B, Fraction(ui), ni) for ui, ni in zip(u, (2, 1, 1)))
        d = HermiteData(u, (2, 1, 1), v, 3, RAT)
        rep = classify_by_rank(d)
        assert not rep.unattainable
        assert rep.witnesses == ()
        assert rep == stratum_equations(d)


@pytest.mark.parametrize("d,defect,wits", DEGENERATE, ids=["n3", "n4", "split"])
def test_classifiers_cover_zero_numerator_regime(d, defect, wits):
    rep = classify_by_rank(d)
    assert rep.defect == defect
    assert rep.chart == "upper"
    assert rep.unattainable
    assert rep.witnesses == wits
    assert rep == stratum_equations(d)
    assert rank_verdict_matches_kernel(d)


def test_main_rank_defect_matches_descending_scan():
    """classify_by_rank reads the defect off the first gap of its halted
    elimination; the old scan of shrunken ranks must give the same value,
    on draws at every feasible defect and on zero-numerator data with
    defect above m+1."""
    docs = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())
    corpus = [HermiteData.from_json_dict(doc) for doc in docs["documents"]]
    draws = []
    for field in (RAT, FieldConfig.prime(7), FieldConfig.prime(1000003)):
        for shape, k in [((2, 1), 2), ((5,), 3), ((3, 3), 3), ((2, 2, 1), 3), ((4, 2), 3)]:
            m = min(k - 1, sum(shape) - k)
            for forced, top in ((False, m + 1), (True, m)):
                for j in range(1, top + 1):
                    draws.append(sample_stratum(shape, k, j, forced, 60 + j, field))
    beyond = 0
    for d in draws + corpus + [d for d, _, _ in DEGENERATE]:
        defect = classify_by_rank(d).defect
        assert defect_by_scan_ref(d) == defect
        beyond += defect > d.m + 1
    assert beyond >= 10 + len(DEGENERATE)


def test_zero_data_classified_solvable():
    d = HermiteData((0, 3), (2, 2), ((0, 0), (0, 0)), 2, RAT)
    rep = classify_by_rank(d)
    assert rep.defect == d.n - d.k + 1
    assert not rep.unattainable
    assert rep.witnesses == ()
    assert rep == stratum_equations(d)


def test_b1_closed_form_cells():
    # same constants, nonzero slope: unattainable
    d1 = HermiteData((0, 1), (2, 1), ((3, 5), (3,)), 2, RAT)
    # zero slope, different constants: unattainable
    d2 = HermiteData((0, 1), (2, 1), ((3, 0), (4,)), 2, RAT)
    # same constants, zero slope: the constant function
    d3 = HermiteData((0, 1), (2, 1), ((3, 0), (3,)), 2, RAT)
    # generic: solvable
    d4 = HermiteData((0, 1), (2, 1), ((3, 5), (4,)), 2, RAT)
    for d in (d1, d2, d3, d4):
        assert b1_closed_form_check(d)
    assert classify_by_rank(d1).unattainable
    assert classify_by_rank(d2).unattainable
    assert not classify_by_rank(d3).unattainable
    assert not classify_by_rank(d4).unattainable


def test_b1_closed_form_fuzz():
    rng = random.Random(79)
    for _ in range(40):
        d = random_data(rng, (2, 1), 2)
        assert b1_closed_form_check(d)


def test_b1_closed_form_shape_guard():
    wrong_shape = HermiteData((0, 1), (2, 2), ((0, 0), (0, 0)), 2, RAT)
    with pytest.raises(ShapeMismatch):
        b1_closed_form_check(wrong_shape)
    wrong_k = HermiteData((0, 1), (2, 1), ((0, 0), (0,)), 1, RAT)
    with pytest.raises(ShapeMismatch):
        b1_closed_form_check(wrong_k)


def _above_generic_bound(field, per_cell, seed):
    """Low-entropy documents over field, drawn as the golden corpus draws its
    zero-heavy ones, keeping those of defect above m+1 until per_cell have
    witnesses and per_cell have none."""
    rng = random.Random(seed)
    pool = (0, 0, 0, 0, 1, -1, Fraction(1, 2) if field.p is None else 2)
    cells = {True: [], False: []}
    while min(len(docs) for docs in cells.values()) < per_cell:
        shape = rng.choice(LOW_ENTROPY_SHAPES)
        u = rng.sample(range(-3, 4), len(shape))
        v = [[rng.choice(pool) for _ in range(ni)] for ni in shape]
        d = HermiteData(u, shape, v, rng.randint(1, sum(shape)), field)
        ref = classify_by_rank_ref(d)
        if ref.defect > d.m + 1 and len(cells[ref.unattainable]) < per_cell:
            cells[ref.unattainable].append((d, ref))
    return cells[True] + cells[False]


def _tall_zero_numerator():
    """Shape (8,8,8,8), k = 6, over Q: the Taylor data of G = (F / x) (x + 5),
    F = prod (x - u_i)^8 at nodes 0..3.  Its minimal pair is (0, x), so the
    defect is n-k = 26, the upper chart alone holds and node 0 witnesses."""
    G = Poly((5, 1), RAT) * poly_pow(Poly((0, 1), RAT), 7)
    for x in (1, 2, 3):
        G = G * poly_pow(Poly((-x, 1), RAT), 8)
    v = tuple(rational_taylor(G, Poly((1,), RAT), Fraction(x), 8) for x in range(4))
    return HermiteData(range(4), (8, 8, 8, 8), v, 6, RAT)


def test_classify_matches_reference_above_generic_bound():
    """Above m+1, where the minimal numerator is zero, ``classify``'s rank
    report off one halted elimination equals the report of per-node
    appended-row ranks and determinant certificates, with witnesses and
    without, over Q, GF(7) and GF(1000003), and on a tall family."""
    cases = [
        case
        for seed, field in enumerate((RAT, FieldConfig.prime(7), FieldConfig.prime(1000003)))
        for case in _above_generic_bound(field, 8, 21 + seed)
    ]
    tall = _tall_zero_numerator()
    cases.append((tall, classify_by_rank_ref(tall)))
    assert cases[-1][1] == StratumReport(26, "upper", True, (0,))
    for d, ref in cases:
        assert classify_by_rank(d) == ref
        code, out, _ = run_cli(["classify"], json.dumps(d.to_json_dict()))
        assert code == (EXIT_UNATTAINABLE if ref.unattainable else EXIT_OK)
        assert json.loads(out)["rank"] == ref.to_json_dict(d, diagonal_window(d))


def test_shrunken_matrix_rank_shortfall_is_an_internal_error(monkeypatch, golden):
    """A halted elimination that drops its last pivot, or skips its first,
    no longer ends in a run of pivots up to a gap: ``classify`` exits 2
    with a JSON error, below m+1 and above."""
    def one_pivot_short(M, halt=False):
        rows, pivots, last, parity, scale = linalg._eliminate(M, halt)
        return rows, pivots[:-1], last, parity, scale

    def first_pivot_skipped(M, halt=False):
        rows, pivots, last, parity, scale = linalg._eliminate(M, halt)
        return rows, pivots[1:], last, parity, scale

    beyond, defect, _ = DEGENERATE[2]
    assert defect == 3 > beyond.m + 1  # k = 1: C_3 is one right column, the gap the next
    for fake in (one_pivot_short, first_pivot_skipped):
        monkeypatch.setattr(strata, "_eliminate", fake)
        for d in (golden, beyond):
            with pytest.raises(InternalInconsistency, match="halted elimination has pivots"):
                classify_by_rank(d)
            code, out, err = run_cli(["classify"], json.dumps(d.to_json_dict()))
            assert (code, out) == (EXIT_INTERNAL, "")
            assert json.loads(err)["kind"] == "InternalInconsistency"


def _certificate_documents():
    """``sample_stratum`` draws over eleven shapes at every k and every
    feasible defect, plain and forced, two seeds each, over Q, GF(5), GF(7)
    and GF(1000003); and 300 zero-heavy documents of the golden corpus's
    generator over Q, GF(5) and GF(7), 100 of them above m+1."""
    shapes = [(2, 1), (3, 1), (1, 1, 1), (2, 2), (4,), (3, 2), (2, 2, 1), (5,), (3, 3),
              (2, 1, 1, 1), (4, 2)]
    draws = [
        sample_stratum(shape, k, j, forced, seed + 7 * j + k, FieldConfig(p))
        for p in (None, 5, 7, 1000003)
        for shape in shapes
        for k in range(1, sum(shape) + 1)
        for j in range(1, min(k - 1, sum(shape) - k) + 2)
        for forced in (False, True)[: 1 + (j <= min(k - 1, sum(shape) - k))]
        for seed in (0, 100)
    ]
    return draws + [HermiteData.from_json_dict(doc) for doc in _low_entropy_documents(100, 200)]


def test_certificates_follow_the_degree_laws():
    """Each classifier reads its certificates off the degree law of the
    minimal pair, and both readings equal the signed certificates
    Delta_{k-j+1,k-j+1} and Delta_{k+j,k+j} by determinant: the rank
    classifier's left pivot and right column of the defect pair, and,
    beside the lower chart, the top entry of the equations' B slice.  The
    rank report equals the per-node rank reference in full."""
    docs = _certificate_documents()
    fields = {d.field.p for d in docs}
    assert len(docs) >= 1000 and fields == {None, 5, 7, 1000003}
    assert any(d.k == 1 for d in docs) and any(d.k == d.n for d in docs)
    above = 0
    for d in docs:
        j, cert_low, cert_up, _ = defect_certificates(d)
        chart = _chart_label(bool(cert_low), bool(cert_up))
        rep = classify_by_rank(d)
        assert rep == classify_by_rank_ref(d)
        assert (rep.defect, rep.chart) == (j, chart)
        _, upper, vec = find_defect(d)
        if not upper:
            assert bool(chart_pair(d, j, upper, vec)[1][-1]) == bool(cert_up)
        assert stratum_equations(d).chart == chart
        above += j > d.m + 1
    assert above >= 100


def test_window_chart_matches_both_classifiers():
    """The display window's (defect, chart), the defect capped at m+2,
    equals each classifier's on the golden corpus and on the certificate
    documents, both sides of m+1 and where k+d = n+1 (Delta_{n+1,n+1},
    outside the window, is taken as nonzero)."""
    docs = [HermiteData.from_json_dict(doc) for doc in DOCUMENTS] + _certificate_documents()
    seen = set()
    for d in docs:
        rep = stratum_equations(d)
        expected = (min(rep.defect, d.m + 2), rep.chart)
        assert window_chart(d, diagonal_window(d)) == expected
        assert (min(classify_by_rank(d).defect, d.m + 2), classify_by_rank(d).chart) == expected
        seen.add("above" if rep.defect > d.m + 1 else "edge" if d.k + rep.defect == d.n + 1 else "below")
    assert seen == {"above", "edge", "below"}
