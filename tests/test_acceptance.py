"""Acceptance suite: nine criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; add ``-s`` to see the timing lines.  Criteria with a stated time
budget assert it.

Criterion 2 is split: the identity catalog (with three corrected right-hand
sides) must pass, and the three uncorrected displayed forms are kept as a
strict expected failure.  Each of those three is refuted by an exact
counterexample, so a green run of the literal forms is impossible; the
refutation itself is asserted in the main criterion-2 test.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from ratherm import (
    FieldConfig,
    HermiteData,
    Poly,
    build_matrix,
    check_identity,
    classify_by_rank,
    diagonal_minor,
    gcd,
    kernel_basis,
    minor_vector,
    paper_identity_catalog,
    product_F,
    rhip_check,
    sample_stratum,
    solve_eea,
    solve_kernel,
    solve_minors,
)
from ratherm.polynomial import _eea_table
from ratherm.solvers import chart_pair
from ratherm.verify import random_data, random_nodes

from oracles import (
    b1_closed_form_check,
    defect_certificates,
    disputed_variants,
    divmod_ref,
    monic_ref,
    poly_add,
    poly_sub,
    specialized_vandermonde_data,
)

RAT = FieldConfig.rationals()


def _report(line):
    print(line, flush=True)


# --------------------------------------------------------------- criterion 1


def test_criterion_1_golden_example(golden):
    t0 = time.perf_counter()
    outcomes = [
        solve_kernel(golden)[1],
        solve_eea(golden)[1],
        solve_minors(golden)[1],
    ]
    for cls in outcomes:
        assert not cls.solvable
        assert cls.stratum_j == 1
        assert cls.witness_nodes == (1,)
    rep = classify_by_rank(golden)
    assert rep.unattainable and rep.defect == 1 and rep.witnesses == (1,)
    dt = time.perf_counter() - t0
    assert dt < 0.1
    _report(f"criterion 1 (golden example, 4 classifiers): PASS in {dt:.4f}s < 0.1s")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_identity_catalog():
    t0 = time.perf_counter()
    specs = paper_identity_catalog()
    assert all(s.sample_count == 100 for s in specs)
    for spec in specs:
        report = check_identity(spec)
        assert report["passes"] == 100, spec.name
        assert report["failures"] == [], spec.name
    # the three uncorrected displayed forms are each refuted exactly
    for spec in disputed_variants():
        report = check_identity(replace(spec, sample_count=20))
        assert report["failures"], spec.name
    dt = time.perf_counter() - t0
    assert dt < 10.0
    _report(
        f"criterion 2 (identity catalog, 8 x 100 points; 3 displayed forms "
        f"refuted): PASS in {dt:.2f}s < 10s"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "three displayed closed forms are wrong as printed: the (2,1) t=3 "
        "diagonal minor is not (u2-u1)^2, the t=1 diagonal minor is not "
        "identically zero, and the 12-term shape-(5,) lower chart expansion "
        "carries the opposite global sign; exact counterexamples are emitted "
        "by check_identity and asserted in test_criterion_2_identity_catalog"
    ),
)
def test_criterion_2_literal_displayed_forms():
    for spec in disputed_variants():
        report = check_identity(replace(spec, sample_count=100))
        if report["failures"]:
            _report(
                f"literal form {spec.name}: first counterexample "
                f"{report['failures'][0]}"
            )
        assert report["failures"] == [], spec.name


# --------------------------------------------------------------- criterion 3


def test_criterion_3_flank_sign_law():
    t0 = time.perf_counter()
    shapes = [(2, 1), (3, 1), (2, 2), (5,), (1, 1, 1, 1)]
    for shape in shapes:
        n = sum(shape)
        for k in range(1, n + 1):
            rng = random.Random(3000 + 37 * n + k)
            sign = -1 if (n + k) % 2 else 1
            for _ in range(50):
                d = random_data(rng, shape, k)
                lhs = minor_vector(d, k - 1)[n]
                rhs = diagonal_minor(d, k)
                assert lhs == sign * rhs
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(
        f"criterion 3 (flank = sign * diagonal, 5 shapes x all k x 50 pts, "
        f"sign (-1)^(n+k)): PASS in {dt:.2f}s < 30s"
    )


# --------------------------------------------------------------- criterion 4


MIX_POOL = [
    ((2, 1), 2),
    ((3, 1), 2),
    ((2, 2), 3),
    ((5,), 3),
    ((1, 1, 1, 1), 2),
    ((4, 2), 4),
    ((2, 2, 1), 3),
    ((3, 3), 4),
]


def _mixed_instances(count, seed0):
    """Deterministic stream: generic draws, prescribed-defect solvable
    draws, and forced-unattainable draws, cycling the shape pool."""
    out = []
    for i in range(count):
        shape, k = MIX_POOL[i % len(MIX_POOL)]
        m = min(k - 1, sum(shape) - k)
        mode = i % 3
        if mode == 0:
            out.append(random_data(random.Random(seed0 + i), shape, k))
        elif mode == 1:
            j = 1 + (i // 3) % (m + 1)
            out.append(sample_stratum(shape, k, j, False, seed=seed0 + i))
        else:
            j = 1 + (i // 3) % m
            out.append(sample_stratum(shape, k, j, True, seed=seed0 + i))
    return out


def test_criterion_4_three_route_agreement():
    t0 = time.perf_counter()
    instances = _mixed_instances(500, 40_000)
    solvable = unattainable = both_charts = 0
    for d in instances:
        minsol_k, cls_k = solve_kernel(d)
        minsol_m, cls_m = solve_minors(d)
        cls_e = solve_eea(d)[1]
        # identical solvability verdicts
        assert cls_k.solvable == cls_m.solvable == cls_e.solvable
        if cls_k.solvable:
            solvable += 1
            for other in (cls_m.sol, cls_e.sol):
                assert poly_sub(cls_k.sol.A * other.B, other.A * cls_k.sol.B).is_zero
            assert rhip_check(d, cls_k.sol)
        else:
            unattainable += 1
            assert cls_k.stratum_j == cls_m.stratum_j == cls_e.stratum_j
            assert (
                cls_k.witness_nodes == cls_m.witness_nodes == cls_e.witness_nodes
            )
        # kernel dimension equals s0 + 1
        dim = len(kernel_basis(build_matrix(d, d.k - 1, d.n - d.k)))
        assert minsol_k.kernel_dim == minsol_k.s0 + 1 == dim
        assert minsol_m == minsol_k
        # vanishing pattern of diagonal minors certifies exactly the defect
        j, cert_low, cert_up, _ = defect_certificates(d)
        assert j == dim
        assert cert_low or cert_up
        for jj in range(1, j):
            assert not diagonal_minor(d, d.k + jj)
            if jj <= d.m + 1:
                assert not diagonal_minor(d, d.k - jj + 1)
        # chart proportionality when both certificates are nonzero
        if cert_low and cert_up:
            both_charts += 1
            low, up = minor_vector(d, d.k - j + 1), minor_vector(d, d.k + j - 1)
            A_lo, B_lo = (Poly(P, d.field) for P in chart_pair(d, j, False, low))
            A_up, B_up = (Poly(P, d.field) for P in chart_pair(d, j, True, up))
            assert A_lo * B_up == A_up * B_lo
    assert solvable and unattainable and both_charts
    dt = time.perf_counter() - t0
    assert dt < 120.0
    _report(
        f"criterion 4 (three-route agreement, 500 instances: {solvable} "
        f"solvable / {unattainable} unattainable): PASS in {dt:.2f}s < 120s"
    )


# --------------------------------------------------------------- criterion 5


def test_criterion_5_kernel_factors_through_minimal_pair():
    t0 = time.perf_counter()
    for d in _mixed_instances(300, 70_000):
        minsol, _ = solve_kernel(d)
        basis = kernel_basis(build_matrix(d, d.k - 1, d.n - d.k))
        assert len(basis) == minsol.s0 + 1
        for vec in basis:
            A, B = Poly(vec[: d.k], d.field), Poly(vec[d.k :], d.field)
            C, rem = divmod_ref(B, minsol.B0)
            assert rem.is_zero
            assert C.degree <= minsol.s0
            assert A == C * minsol.A0
    dt = time.perf_counter() - t0
    _report(
        f"criterion 5 (every kernel vector = C * minimal pair, 300 "
        f"instances): PASS in {dt:.2f}s"
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_6_euclidean_table_contract():
    t0 = time.perf_counter()
    rng = random.Random(60_000)
    checked = 0
    while checked < 200:
        df = rng.randint(2, 7)
        dg = rng.randint(1, df - 1)
        F = Poly([Fraction(rng.randint(-9, 9)) for _ in range(df)] + [1], RAT)
        G = Poly(
            [Fraction(rng.randint(-9, 9)) for _ in range(dg)]
            + [Fraction(rng.randint(1, 5))],
            RAT,
        )
        if checked % 3 == 0:
            # plant a common factor so nontrivial gcds are exercised
            H = Poly((Fraction(rng.randint(-4, 4)), 1), RAT)
            F, G = F * H, G * H
        if G.is_zero:
            continue
        checked += 1
        rows = _eea_table(F, G)  # the zero row last
        g_true = gcd(F, G)
        for idx, row in enumerate(rows):
            assert poly_add(row.bezout_s * F, row.bezout_t * G) == row.remainder
            if row.index >= 1:
                prev = rows[idx - 1].remainder
                assert row.bezout_t.degree == F.degree - prev.degree
                assert row.bezout_s.degree <= G.degree - prev.degree
            if not (row.remainder.is_zero and row.bezout_t.is_zero):
                assert gcd(row.remainder, row.bezout_t) == gcd(F, row.bezout_t)
        stored = rows[:-1]
        assert monic_ref(stored[-1].remainder) == g_true
    dt = time.perf_counter() - t0
    _report(
        f"criterion 6 (Euclidean table: Bezout + degree relations + gcd "
        f"stability, 200 pairs): PASS in {dt:.2f}s"
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_7_codim1_closed_form_shape21():
    t0 = time.perf_counter()
    rng = random.Random(77_000)

    def draw(cell):
        u = random_nodes(rng, 2)
        v10 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        v11 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        if cell == "equal-values":
            return HermiteData(u, (2, 1), ((v10, v11), (v10,)), 2, RAT)
        if cell == "zero-slope":
            v20 = v10 + Fraction(rng.randint(1, 9))
            return HermiteData(u, (2, 1), ((v10, 0), (v20,)), 2, RAT)
        v20 = v10 + Fraction(rng.randint(1, 9))
        return HermiteData(u, (2, 1), ((v10, v11), (v20,)), 2, RAT)

    for cell, expect_unattainable in (
        ("equal-values", True),
        ("zero-slope", True),
        ("generic", False),
    ):
        for _ in range(200):
            d = draw(cell)
            rep = classify_by_rank(d)
            assert rep.unattainable == expect_unattainable, (cell, d)
            _, cls = solve_kernel(d)
            assert cls.solvable != expect_unattainable, (cell, d)
            if expect_unattainable:
                assert rep.defect == cls.stratum_j == 1
                assert rep.witnesses == cls.witness_nodes
            assert b1_closed_form_check(d)
    dt = time.perf_counter() - t0
    _report(
        f"criterion 7 (codim-1 closed form, 200 pts per chart + 200 "
        f"generic): PASS in {dt:.2f}s"
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_defect2_charts_shape5():
    t0 = time.perf_counter()
    lower_hits = upper_hits = 0
    for s in range(100):
        d = sample_stratum((5,), 3, 2, True, seed=80_000 + s)
        _, cls = solve_kernel(d)
        assert not cls.solvable and cls.stratum_j == 2
        assert cls.witness_nodes == (0,)
        u1 = d.u[0]
        assert not diagonal_minor(d, 3)
        assert not diagonal_minor(d, 4)
        if diagonal_minor(d, 2):
            lower_hits += 1
            mv2 = minor_vector(d, 2)
            assert not (mv2[2] + mv2[3] * u1)
        if diagonal_minor(d, 5):
            upper_hits += 1
            mv4 = minor_vector(d, 4)
            assert not (mv4[4] + mv4[5] * u1)
        if diagonal_minor(d, 2) and diagonal_minor(d, 5):
            assert d.v[0][1] == d.v[0][2] == d.v[0][3] == RAT.zero
    # forced draws at this shape put a constant fraction behind the data,
    # so every sample certifies both charts; vacuous passes are impossible
    assert lower_hits == upper_hits == 100
    dt = time.perf_counter() - t0
    _report(
        f"criterion 8 (defect-2 charts for shape (5,), 100 forced samples, "
        f"both certificates hit every time): PASS in {dt:.2f}s"
    )


# --------------------------------------------------------------- criterion 9


def test_criterion_9_vandermonde_factorization():
    t0 = time.perf_counter()
    shapes = [(2, 1), (2, 2), (3, 2), (2, 2, 2), (4, 3), (3, 3, 2)]
    for shape in shapes:
        n = sum(shape)
        assert n <= 8
        rng = random.Random(90_000 + n)
        for _ in range(50):
            u = random_nodes(rng, len(shape))
            k = rng.randint(1, n)
            d = specialized_vandermonde_data(u, shape, k)
            P = Poly(minor_vector(d, k), RAT)
            F = product_F(d)
            Q, rem = divmod_ref(P, F)
            assert rem.is_zero
            assert Q.degree == 0
            assert P == Q * F
    dt = time.perf_counter() - t0
    _report(
        f"criterion 9 (appended-row determinant = w * node polynomial, "
        f"6 shapes to n = 8 x 50 node sets): PASS in {dt:.2f}s"
    )
