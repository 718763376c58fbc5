"""The three solution routes, minor vectors, and defect certification.

The golden instance used throughout: nodes 1, 2 with multiplicities (2, 1),
targets v = ((1, 0), (0,)), k = 2.  Its minimal pair is A0 = B0 = x - 2, so
the data is unattainable with defect 1 and witness node 1.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratherm import (
    FieldConfig,
    HermiteData,
    InternalInconsistency,
    MinimalSolution,
    Poly,
    RationalSolution,
    Solvable,
    Unattainable,
    build_matrix,
    classify_by_rank,
    diagonal_minor,
    hermite_interpolant,
    kernel_basis,
    minor_vector,
    product_F,
    rank,
    rational_taylor,
    rhip_check,
    sample_stratum,
    solve_eea,
    solve_kernel,
    solve_minors,
    stratum_equations,
)
from ratherm.linalg import _eliminate, _kernel_vector, determinant
from ratherm.problem import witness_nodes
from ratherm.solvers import chart_pair, find_defect

from oracles import (
    classify_by_rank_ref,
    classify_minimal_ref,
    defect_certificates,
    divmod_ref,
    eea_ref,
    evaluate_ref,
    find_defect_ref,
    from_pair_ref,
    mul_vector,
    poly_one,
    poly_pow,
    solve_kernel_ref,
)
from test_golden_cli import DOCUMENTS, _low_entropy_documents

RAT = FieldConfig.rationals()
GF5 = FieldConfig.prime(5)
GF7 = FieldConfig.prime(7)
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


def data_from_fraction(A, B, u, shape, k, field=RAT):
    """Problem data whose exact solution is A/B (B nonzero on the nodes)."""
    v = tuple(
        tuple(rational_taylor(A, B, field.coerce(ui), ni))
        for ui, ni in zip(u, shape)
    )
    return HermiteData(u, shape, v, k, field)


def random_data(rng, shape, k, field=RAT):
    pool = range(0, field.p) if field.p is not None else range(-6, 7)
    u = rng.sample(pool, len(shape))
    v = tuple(
        tuple(field.from_int(rng.randint(-6, 6)) for _ in range(ni)) for ni in shape
    )
    return HermiteData(u, shape, v, k, field)


# ---------------------------------------------------------------- golden


def test_golden_kernel_route(golden):
    minsol, verdict = solve_kernel(golden)
    assert minsol.A0 == Poly((-2, 1), RAT)
    assert minsol.B0 == Poly((-2, 1), RAT)
    assert (minsol.A0.degree, minsol.B0.degree, minsol.s0, minsol.kernel_dim) == (1, 1, 0, 1)
    assert isinstance(verdict, Unattainable)
    assert not verdict.solvable
    assert verdict.stratum_j == 1
    assert verdict.witness_nodes == (1,)


def test_golden_eea_route(golden):
    minsol, verdict = solve_eea(golden)
    assert minsol.A0 == minsol.B0 == Poly((-2, 1), RAT)
    assert isinstance(verdict, Unattainable)
    assert (verdict.stratum_j, verdict.witness_nodes) == (1, (1,))


def test_golden_minors_route(golden):
    minsol, verdict = solve_minors(golden)
    assert minsol.A0 == minsol.B0 == Poly((-2, 1), RAT)
    assert (verdict.stratum_j, verdict.witness_nodes) == (1, (1,))
    j, cert_low, cert_up, _ = defect_certificates(golden)
    assert j == 1
    assert cert_low == diagonal_minor(golden, 2) == Fraction(1)
    assert cert_up == diagonal_minor(golden, 3) == Fraction(1)


def test_golden_chart_witnesses(golden):
    j, upper, vec = find_defect(golden)
    _, B = chart_pair(golden, j, upper, vec)
    assert witness_nodes(golden, B) == (1,)
    assert witness_nodes(golden, [1]) == ()


# ------------------------------------------------------- solvable instances


def test_solvable_instance_all_routes():
    A = Poly((1, 3, 1), RAT)  # x^2 + 3x + 1
    B = Poly((5, 1), RAT)
    d = data_from_fraction(A, B, (0, 1, 2), (2, 1, 1), 3)
    minsol, verdict = solve_kernel(d)
    assert isinstance(verdict, Solvable)
    assert verdict.solvable
    assert verdict.sol == RationalSolution(A, B)
    assert solve_eea(d) == (minsol, verdict)
    minsol_m, verdict_m = solve_minors(d)
    assert verdict_m == verdict
    assert (minsol_m.A0, minsol_m.B0) == (minsol.A0, minsol.B0)
    assert rhip_check(d, verdict.sol)


def test_solvable_scaling_normalized():
    # the same fraction offered with a non-monic numerator
    A = Poly((2, 6, 2), RAT)
    B = Poly((10, 2), RAT)
    d = data_from_fraction(A, B, (0, 1, 2), (2, 1, 1), 3)
    _, verdict = solve_kernel(d)
    assert verdict.sol.A == Poly((1, 3, 1), RAT)
    assert verdict.sol.B == Poly((5, 1), RAT)


def test_constant_fraction_and_zero_function():
    d = HermiteData((4,), (1,), ((5,),), 1, RAT)
    _, verdict = solve_kernel(d)
    assert isinstance(verdict, Solvable)
    assert verdict.sol.A == Poly((1,), RAT)
    assert verdict.sol.B == Poly((Fraction(1, 5),), RAT)
    z = HermiteData((0, 3), (2, 2), ((0, 0), (0, 0)), 2, RAT)
    for got in (solve_kernel(z)[1], solve_eea(z)[1], solve_minors(z)[1]):
        assert isinstance(got, Solvable)
        assert got.sol.A == Poly.zero(RAT)
        assert got.sol.B == poly_one(RAT)


def test_k_equals_n_is_plain_interpolation():
    rng = random.Random(7)
    for _ in range(5):
        d = random_data(rng, (2, 2), 4)
        minsol, verdict = solve_kernel(d)
        assert isinstance(verdict, Solvable)
        assert verdict.sol.B.degree == 0
        assert rhip_check(d, verdict.sol)
        assert solve_eea(d) == (minsol, verdict)
        assert solve_minors(d)[1] == verdict


# ------------------------------------------------------------ minor vectors


def test_minor_vector_entries_against_determinants():
    rng = random.Random(11)
    for shape, k in [((2, 1), 2), ((2, 2), 3), ((3,), 2)]:
        d = random_data(rng, shape, k)
        n = d.n
        for t in range(0, n + 2):
            mv = minor_vector(d, t)
            M = build_matrix(d, t - 1, n - t)
            for i in range(1, n + 2):
                want = determinant(
                    M.select(range(M.r), [c for c in range(M.c) if c != i - 1])
                )
                if (t + i) % 2 == 1:
                    want = -want
                assert mv[i - 1] == want


def test_minor_vector_annihilates_its_matrix():
    rng = random.Random(17)
    for shape, k in SHAPES:
        d = random_data(rng, shape, k)
        for t in (k - 1, k, k + 1):
            if not 0 <= t <= d.n + 1:
                continue
            M = build_matrix(d, t - 1, d.n - t)
            mv = minor_vector(d, t)
            assert mul_vector(M, mv) == [Fraction(0)] * d.n


def test_diagonal_minor_matches_vector_diagonal():
    rng = random.Random(19)
    d = random_data(rng, (2, 2), 3)
    for t in range(1, d.n + 2):
        assert diagonal_minor(d, t) == minor_vector(d, t)[t - 1]


def test_minor_index_guards(golden):
    with pytest.raises(InternalInconsistency):
        minor_vector(golden, -1)
    with pytest.raises(InternalInconsistency):
        minor_vector(golden, golden.n + 2)
    with pytest.raises(InternalInconsistency):
        diagonal_minor(golden, 0)


# ------------------------------------------------------- defect certification


def test_find_defect_matches_kernel_dimension():
    rng = random.Random(23)
    for shape, k in SHAPES:
        for _ in range(3):
            d = random_data(rng, shape, k)
            j, cert_low, cert_up, _ = defect_certificates(d)
            dim = (d.n + 1) - rank(build_matrix(d, d.k - 1, d.n - d.k))
            assert j == dim
            assert cert_low or cert_up
            # every smaller defect was rejected by both its certificates
            for jj in range(1, j):
                assert not diagonal_minor(d, k + jj)
                if jj <= d.m + 1:
                    assert not diagonal_minor(d, k - jj + 1)


def test_charts_are_proportional_when_both_certified():
    rng = random.Random(29)
    seen = 0
    for shape, k in SHAPES:
        for _ in range(4):
            d = random_data(rng, shape, k)
            j, cert_low, cert_up, _ = defect_certificates(d)
            if not (cert_low and cert_up):
                continue
            seen += 1
            low, up = minor_vector(d, d.k - j + 1), minor_vector(d, d.k + j - 1)
            A_lo, B_lo = (Poly(P, RAT) for P in chart_pair(d, j, False, low))
            A_up, B_up = (Poly(P, RAT) for P in chart_pair(d, j, True, up))
            assert A_lo * B_up == A_up * B_lo
            assert not (A_lo.is_zero and B_lo.is_zero)
    assert seen >= 10  # generic data certifies both charts


# ------------------------------------------------ zero-numerator degeneracies


DEGENERATE = [
    (HermiteData((0,), (3,), ((0, 0, 1),), 1, RAT), 2, (0,)),
    (HermiteData((0,), (4,), ((0, 0, 0, 1),), 1, RAT), 3, (0,)),
    (HermiteData((0, 1), (2, 2), ((0, 0), (0, 1)), 1, RAT), 3, (1,)),
]


def _sign_law_instances():
    """sample_stratum draws at every feasible defect, plain and forced, and
    zero-numerator data of defect above m+1, over Q, GF(7) and GF(1000003)."""
    out = []
    for field in (RAT, GF7, FieldConfig.prime(1000003)):
        for shape, k in [((2, 1), 2), ((5,), 3), ((3, 3), 3), ((2, 2, 1), 3), ((4, 2), 3)]:
            m = min(k - 1, sum(shape) - k)
            for forced, top in ((False, m + 1), (True, m)):
                for j in range(1, top + 1):
                    out.append(sample_stratum(shape, k, j, forced, 40 + j, field))
        for d, _, _ in DEGENERATE:
            v = [[int(x) for x in vi] for vi in d.v]
            out.append(HermiteData([int(x) for x in d.u], d.n_vec, v, d.k, field))
    return out


def test_find_defect_certificates_are_diagonal_minors():
    """find_defect reads its certificates off signed-minor vectors; they
    must be the diagonal minors, sign included."""
    beyond = 0
    for d in _sign_law_instances():
        j, cert_low, cert_up, _ = defect_certificates(d)
        lower = diagonal_minor(d, d.k - j + 1) if j <= d.m + 1 else d.field.zero
        assert (cert_low, cert_up) == (lower, diagonal_minor(d, d.k + j))
        beyond += j > d.m + 1
    assert beyond == 3 * len(DEGENERATE)


def test_certificates_vanish_below_the_main_nullity():
    """The lemma ``find_defect`` starts from: with N = (n+1) - rank(main),
    Delta_{k-j+1,k-j+1} (for j <= m+1) and Delta_{k+j,k+j} vanish for every
    j < N.  The scan from N returns what the ascending scan from 1 does."""
    checked, beyond = 0, 0
    instances = _sign_law_instances() + [d for d, _ in _upper_only_instances()]
    for d in instances:
        k, n = d.k, d.n
        nullity = (n + 1) - rank(build_matrix(d, k - 1, n - k))
        for j in range(1, nullity):
            if j <= d.m + 1:
                assert not diagonal_minor(d, k - j + 1)
            assert not diagonal_minor(d, k + j)
            checked += 1
            beyond += j > d.m + 1
        assert defect_certificates(d) == find_defect_ref(d)
    assert checked >= 70 and beyond >= 3


def _upper_only_instances():
    """Solvable data of defect 2..m+1 whose numerator degree falls short of
    k-j, so the lower certificate vanishes and only the upper chart holds:
    Taylor data of A/B with B of degree n-k-j+1, positive at the nodes."""
    out = []
    for shape, k, j, A in [
        ((5,), 3, 2, (3,)), ((3, 3), 3, 2, (-2,)), ((2, 2, 1), 3, 2, (5,)), ((4, 4), 5, 3, (3, 1)),
    ]:
        B = Poly([7] + [1] * (sum(shape) - k - j + 1), RAT)
        u = tuple(range(len(shape)))
        v = tuple(rational_taylor(Poly(A, RAT), B, Fraction(x), ni) for x, ni in zip(u, shape))
        out.append((HermiteData(u, shape, v, k, RAT), j))
    return out


def test_find_defect_returns_the_certified_charts_vector():
    """The vector find_defect hands to chart_pair is the chosen chart's:
    t = k-j+1 under a nonzero lower certificate, else t = k+j-1.  At j = 1
    both charts read t = k, so the draws at defect 2..m+1, with either
    certificate alone or both, tell them apart."""
    split = 0
    for d in _sign_law_instances():
        j, upper, vec = find_defect(d)
        t = d.k + j - 1 if upper else d.k - j + 1
        assert _proportional(vec, minor_vector(d, t))
        split += 2 <= j <= d.m + 1
    assert split >= 30
    for d, defect in _upper_only_instances():
        j, cert_low, cert_up, mv = defect_certificates(d)
        assert (j, cert_low) == (defect, 0) and 2 <= j <= d.m + 1 and cert_up
        assert mv == minor_vector(d, d.k + j - 1)
        assert solve_minors(d)[1].solvable


def _proportional(ints, boxed) -> bool:
    """boxed is c times the int vector ints, for one nonzero scalar c, or
    both are zero."""
    i0 = next((i for i, x in enumerate(ints) if x), None)
    if i0 is None:
        return not any(boxed)
    return (
        len(ints) == len(boxed)
        and bool(boxed[i0])
        and not any(y * ints[i0] - boxed[i0] * x for x, y in zip(ints, boxed))
    )


def test_int_chart_path_matches_boxed_reference():
    """The int chart path (``find_defect``, ``chart_pair``, ``witness_nodes``)
    gives the defect, chart and witnesses of the ascending scan
    ``find_defect_ref``, the slices of its boxed minor vector taken here,
    and a node test on field scalars; and its slices are the boxed ones up
    to scale.  On the golden documents and on draws below and above m+1."""
    instances = [HermiteData.from_json_dict(doc) for doc in DOCUMENTS]
    instances += _sign_law_instances() + [d for d, _ in _upper_only_instances()]
    beyond = upper_only = 0
    for d in instances:
        k, n = d.k, d.n
        j, upper, vec = find_defect(d)
        A, B = chart_pair(d, j, upper, vec)
        j_ref, cert_low, _, mv = find_defect_ref(d)
        if cert_low:
            A_ref, B_ref = mv[: k - j + 1], mv[k - j + 1 : n - 2 * j + 3]
        else:
            A_ref, B_ref = mv[: max(k - j + 1, 0)], mv[k + j - 1 :]
        wits = tuple(i for i, u in enumerate(d.u) if not evaluate_ref(Poly(B_ref, d.field), u))
        assert (j, upper, witness_nodes(d, B)) == (j_ref, not cert_low, wits)
        assert len(A) == len(A_ref) and _proportional(A + B, list(A_ref) + list(B_ref))
        beyond += j > d.m + 1
        upper_only += upper and 2 <= j <= d.m + 1
    assert beyond >= 15 and upper_only >= 4


@pytest.mark.parametrize("d,defect,wits", DEGENERATE, ids=["n3", "n4", "split"])
def test_zero_numerator_defect_beyond_generic_bound(d, defect, wits):
    assert defect > d.m + 1
    minsol, verdict = solve_kernel(d)
    assert minsol.A0.is_zero
    assert minsol.kernel_dim == defect
    assert isinstance(verdict, Unattainable)
    assert (verdict.stratum_j, verdict.witness_nodes) == (defect, wits)
    assert solve_eea(d) == (minsol, verdict)
    minsol_m, verdict_m = solve_minors(d)
    assert verdict_m == verdict
    assert minsol_m == minsol
    j, cert_low, cert_up, _ = defect_certificates(d)
    assert (j, cert_low) == (defect, Fraction(0))
    assert cert_up
    # the minimal denominator factors into node differences only
    prod = poly_one(RAT)
    for i, ui in enumerate(d.u):
        mult = 0
        q = minsol.B0
        while True:
            quo, rem = divmod_ref(q, Poly((-ui, 1), RAT))
            if rem.is_zero:
                q, mult = quo, mult + 1
            else:
                break
        prod = prod * poly_pow(Poly((-ui, 1), RAT), mult)
    assert prod == minsol.B0


# ------------------------------------- one-elimination kernel and classifier


def _differential_instances():
    """The sign-law draws, the upper-only data and the 240 zero-heavy
    documents of the golden corpus generator."""
    docs = _low_entropy_documents(120, 120)
    return (
        _sign_law_instances()
        + [d for d, _ in _upper_only_instances()]
        + [HermiteData.from_json_dict(doc) for doc in docs]
    )


def test_free_columns_of_the_main_matrix_are_a_run_from_deg_B0():
    """The lemma ``solve_kernel`` rests on: the main matrix's free columns
    are the right columns deg B0 .. deg B0 + d-1, d the defect, and the
    kernel vector of the first of them is (A0, B0); the pair comes from the
    minors route, which eliminates other matrices."""
    beyond = 0
    for d in _sign_law_instances() + [d for d, _ in _upper_only_instances()]:
        k, n = d.k, d.n
        minsol, _ = solve_minors(d)
        M = build_matrix(d, k - 1, n - k)
        rows, pivots, last, _, _ = _eliminate(M)
        start = k + minsol.B0.degree
        assert [c for c in range(n + 1) if c not in pivots] == list(range(start, start + minsol.kernel_dim))
        vec = _kernel_vector(M, rows, pivots, last, start)
        assert MinimalSolution.from_pair(d, vec[:k], vec[k:]) == minsol
        beyond += minsol.kernel_dim > d.m + 1
    assert beyond == 3 * len(DEGENERATE)


def test_kernel_route_matches_shrunken_matrix_reference():
    """``solve_kernel`` on one elimination returns what the shrunken-matrix
    route returned, pair and verdict, at every defect."""
    instances = _differential_instances()
    for d in instances:
        assert solve_kernel(d) == solve_kernel_ref(d)
    assert {solve_kernel(d)[0].kernel_dim for d in instances} >= set(range(1, 5))


def test_rank_classifier_matches_per_node_rank_reference():
    """``classify_by_rank`` off one halted elimination returns the report
    of per-node ranks and determinant certificates: defect, chart label
    (both certificates' nonvanishing), verdict and witnesses."""
    charts, unattainable = set(), 0
    for d in _differential_instances():
        got = classify_by_rank(d)
        assert got == classify_by_rank_ref(d)
        charts.add(got.chart)
        unattainable += got.unattainable and got.defect <= d.m + 1
    assert charts == {"lower", "upper", "both"} and unattainable >= 50


# --------------------------------------------------------- minimal solutions


def test_from_pair_normalization(golden):
    ms = MinimalSolution.from_pair(golden, [4, -2, 0], [4, -2])
    assert ms.A0 == Poly((-2, 1), RAT)
    assert ms.B0 == Poly((-2, 1), RAT)
    assert ms == from_pair_ref(golden, Poly((4, -2), RAT), Poly((4, -2), RAT))


def test_from_pair_guards(golden):
    with pytest.raises(InternalInconsistency):
        MinimalSolution.from_pair(golden, [], [0, 0])
    with pytest.raises(InternalInconsistency):
        MinimalSolution.from_pair(golden, [0, 0, 1], [1])


def test_witness_nodes_helper(golden):
    assert witness_nodes(golden, [-2, 1]) == (1,)
    assert witness_nodes(golden, [3, -3, 0]) == (0,)
    assert witness_nodes(golden, [1]) == ()


# ------------------------------------------------------------ route agreement


@pytest.mark.parametrize("field", [RAT, GF13], ids=["Q", "GF13"])
def test_routes_agree_on_random_data(field):
    rng = random.Random(101 if field is RAT else 103)
    solvable_seen = unattainable_seen = 0
    for shape, k in SHAPES:
        if field.p is not None and max(shape) > field.p:
            continue
        for _ in range(4):
            d = random_data(rng, shape, k, field)
            minsol_k, verdict_k = solve_kernel(d)
            minsol_m, verdict_m = solve_minors(d)
            minsol_e, verdict_e = solve_eea(d)
            assert minsol_k == minsol_m == minsol_e
            assert verdict_k == verdict_m == verdict_e
            dim = (d.n + 1) - rank(build_matrix(d, d.k - 1, d.n - d.k))
            assert minsol_k.kernel_dim == dim
            assert len(kernel_basis(build_matrix(d, d.k - 1, d.n - d.k))) == dim
            if verdict_k.solvable:
                solvable_seen += 1
                assert rhip_check(d, verdict_k.sol)
            else:
                unattainable_seen += 1
                assert verdict_k.witness_nodes
    assert solvable_seen and unattainable_seen


# ------------------------------------------------- low-entropy agreement


# Defect above k+1: the minimal numerator is zero and the kernel route's
# shrunken matrix has an empty A block.  The last one is solvable (0 / 1).
EMPTY_NUMERATOR_BLOCK = [
    DEGENERATE[1][0],
    DEGENERATE[2][0],
    HermiteData((0, 1), (2, 2), ((0, 0), (0, 1)), 1, GF5),
    HermiteData((3,), (3,), ((0, 0, 0),), 1, GF7),
]


def test_low_entropy_examples_reach_empty_numerator_block():
    for d in EMPTY_NUMERATOR_BLOCK:
        dim = (d.n + 1) - rank(build_matrix(d, d.k - 1, d.n - d.k))
        assert dim > d.k + 1


@st.composite
def low_entropy_data(draw):
    """Values in {-1, 0, 1, 2}, 1-3 nodes, multiplicities 1-3, Q or GF(5|7)."""
    field = draw(st.sampled_from((RAT, GF5, GF7)))
    l = draw(st.integers(1, 3))
    pool = range(field.p) if field.p is not None else range(-2, 4)
    u = draw(st.lists(st.sampled_from(pool), min_size=l, max_size=l, unique=True))
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=l, max_size=l)))
    values = st.sampled_from((-1, 0, 1, 2))
    v = tuple(
        tuple(draw(st.lists(values, min_size=ni, max_size=ni))) for ni in shape
    )
    return HermiteData(u, shape, v, draw(st.integers(1, sum(shape))), field)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(low_entropy_data())
@example(EMPTY_NUMERATOR_BLOCK[0])
@example(EMPTY_NUMERATOR_BLOCK[1])
@example(EMPTY_NUMERATOR_BLOCK[2])
@example(EMPTY_NUMERATOR_BLOCK[3])
def test_routes_and_classifiers_agree_low_entropy(d):
    minsol_k, verdict_k = solve_kernel(d)
    minsol_m, verdict_m = solve_minors(d)
    assert minsol_k == minsol_m
    assert verdict_k == verdict_m
    assert solve_eea(d) == (minsol_k, verdict_k)
    witnesses = () if verdict_k.solvable else verdict_k.witness_nodes
    if not verdict_k.solvable:
        assert verdict_k.stratum_j == minsol_k.kernel_dim
    for rep in (classify_by_rank(d), stratum_equations(d)):
        assert rep.defect == minsol_k.kernel_dim
        assert rep.unattainable == (not verdict_k.solvable)
        assert rep.witnesses == witnesses


# ------------------------------------------- int Euclid against the table


@st.composite
def euclid_data(draw):
    """(field, u, shape, v) for every k: Q with non-integer nodes and values,
    or GF(5|7); most values are zero, so G = 0 and early zero remainders
    occur."""
    field = draw(st.sampled_from((RAT, GF5, GF7)))
    l = draw(st.integers(1, 3))
    if field.p is None:
        scalars = st.fractions(-3, 3, max_denominator=4)
    else:
        scalars = st.integers(0, field.p - 1)
    u = draw(st.lists(scalars, min_size=l, max_size=l, unique=True))
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=l, max_size=l)))
    values = st.one_of(st.just(0), st.just(0), scalars)
    v = tuple(
        tuple(draw(st.lists(values, min_size=ni, max_size=ni))) for ni in shape
    )
    return field, u, shape, v


@settings(max_examples=150, derandomize=True, deadline=None)
@given(euclid_data())
@example((RAT, [Fraction(1, 2), 3], (2, 2), ((0, 0), (0, 0))))
@example((GF5, [0, 1], (2, 2), ((0, 0), (0, 1))))
def test_int_euclid_matches_fraction_table(case):
    """solve_eea equals the pair and verdict read off the first row of eea_ref(F, G),
    its zero row included, with deg R <= k-1, at every k on the same (u, v)."""
    field, u, shape, v = case
    first = HermiteData(u, shape, v, 1, field)
    F, G = product_F(first), hermite_interpolant(first)
    rows = [] if G.is_zero else eea_ref(F, G)
    for k in range(1, first.n + 1):
        d = HermiteData(u, shape, v, k, field)
        if G.is_zero:
            R, T = G, poly_one(field)
        else:
            row = next(r for r in rows if r.remainder.degree <= k - 1)
            R, T = row.remainder, row.bezout_t
        ref = from_pair_ref(d, R, T)
        assert solve_eea(d) == (ref, classify_minimal_ref(d, ref))
