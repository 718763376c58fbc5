"""Randomized identity checking, the naive kernel oracle, and the stratum
sampler."""

import dataclasses
import random
from fractions import Fraction

import pytest

from ratherm import (
    FieldConfig,
    HermiteData,
    InfeasibleRequest,
    InvalidInput,
    TooLarge,
    build_matrix,
    check_identity,
    kernel_basis,
    minor_vector,
    paper_identity_catalog,
    rank,
    sample_stratum,
    solve_kernel,
    solve_minors,
)
from ratherm.verify import (
    random_data,
    random_nodes,
    random_nonzero_scalar,
    random_scalar,
)

from oracles import (
    brute_force_kernel,
    disputed_variants,
    matrix,
    mul_vector,
    specialized_vandermonde_data,
)

RAT = FieldConfig.rationals()
GF13 = FieldConfig.prime(13)


# ------------------------------------------------------------------- draws


def test_random_scalar_pool_and_determinism():
    a = random.Random(5)
    b = random.Random(5)
    xs = [random_scalar(a) for _ in range(20)]
    assert xs == [random_scalar(b) for _ in range(20)]
    for x in xs:
        assert isinstance(x, Fraction)
        assert abs(x) <= 50
    assert any(random_nonzero_scalar(a) for _ in range(5))
    assert all(random_nonzero_scalar(a) for _ in range(20))


def test_random_nodes_distinct():
    rng = random.Random(9)
    for _ in range(10):
        nodes = random_nodes(rng, 4)
        assert len(set(nodes)) == 4
    gf2 = FieldConfig.prime(2)
    with pytest.raises(InfeasibleRequest):
        random_nodes(random.Random(0), 3, gf2)


def test_random_data_shape():
    d = random_data(random.Random(1), (2, 1), 2)
    assert (d.n_vec, d.k, d.field) == ((2, 1), 2, RAT)
    d13 = random_data(random.Random(1), (3,), 2, GF13)
    assert d13.field == GF13


# ---------------------------------------------------------- identity checks


def by_name(specs):
    return {s.name: s for s in specs}


def test_check_identity_accepts_true_identity():
    spec = by_name(paper_identity_catalog())["diag4-shape21"]
    small = dataclasses.replace(spec, sample_count=15)
    report = check_identity(small)
    assert report["name"] == "diag4-shape21"
    assert report["passes"] == 15
    assert report["failures"] == []
    assert report["seed"] == spec.seed


def test_check_identity_rejects_false_identity():
    spec = by_name(disputed_variants())["diag3-shape21-variant"]
    small = dataclasses.replace(spec, sample_count=15)
    report = check_identity(small)
    assert report["passes"] + len(report["failures"]) == 15
    assert report["failures"]
    # each counterexample replays from its own document
    for failure in report["failures"][:3]:
        d = HermiteData.from_json_dict(failure["data"])
        assert spec.lhs(d) - spec.rhs(d)
        assert failure["lhs"] != failure["rhs"]


def test_check_identity_rejects_bad_sample_count(golden):
    spec = paper_identity_catalog()[0]
    with pytest.raises(InvalidInput):
        check_identity(dataclasses.replace(spec, sample_count=0))


def test_catalog_entries_all_pass_reduced():
    specs = paper_identity_catalog()
    assert len(specs) == 8
    assert len({s.name for s in specs}) == 8
    for spec in specs:
        report = check_identity(dataclasses.replace(spec, sample_count=12))
        assert report["failures"] == [], spec.name


def test_every_disputed_variant_fails():
    variants = disputed_variants()
    assert len(variants) == 3
    for spec in variants:
        report = check_identity(dataclasses.replace(spec, sample_count=12))
        assert report["failures"], spec.name


def test_identity_determinism():
    spec = dataclasses.replace(paper_identity_catalog()[0], sample_count=10)
    assert check_identity(spec) == check_identity(spec)


# ------------------------------------------------------------ kernel oracle


def test_brute_force_kernel_spans_match():
    rng = random.Random(21)
    for field in (RAT, GF13):
        for _ in range(10):
            r, c = rng.randint(1, 5), rng.randint(1, 6)
            rows = [
                [field.from_int(rng.randint(-4, 4)) for _ in range(c)]
                for _ in range(r)
            ]
            m = matrix(rows, field)
            fast = kernel_basis(m)
            slow = brute_force_kernel(m)
            assert len(fast) == len(slow)
            if fast:
                stacked = matrix(fast + slow, field)
                assert rank(stacked) == len(fast)
            for vec in slow:
                assert not any(mul_vector(m, vec))


def test_brute_force_kernel_size_cap():
    wide = matrix([[Fraction(i) for i in range(9)]], RAT)
    with pytest.raises(TooLarge):
        brute_force_kernel(wide)


# --------------------------------------------------- specialized Vandermonde


def test_specialized_vandermonde_values():
    d = specialized_vandermonde_data((1, 2), (2, 1), 2)
    assert d.v[0] == (Fraction(-1), Fraction(-2))
    assert d.v[1] == (Fraction(-4),)
    tall = specialized_vandermonde_data((3,), (4,), 2)
    # entries past j = k are zero
    assert tall.v[0] == (Fraction(-9), Fraction(-6), Fraction(-1), Fraction(0))


def test_specialized_vandermonde_full_rank():
    d = specialized_vandermonde_data((0, 1, -2), (2, 2, 1), 3)
    m = build_matrix(d, d.k - 1, d.n - d.k)
    assert rank(m) == d.n
    assert any(minor_vector(d, d.k))


# ------------------------------------------------------------------ sampler


def test_sample_stratum_plain():
    for shape, k in [((2, 2), 3), ((5,), 3)]:
        m = min(k - 1, sum(shape) - k)
        for j in range(1, m + 2):
            d = sample_stratum(shape, k, j, False, seed=17)
            assert (d.n_vec, d.k) == (shape, k)
            minsol, verdict = solve_minors(d)
            assert verdict.solvable
            assert minsol.kernel_dim == j


def test_sample_stratum_forced():
    for shape, k in [((2, 1), 2), ((5,), 3), ((2, 2), 3)]:
        m = min(k - 1, sum(shape) - k)
        for j in range(1, m + 1):
            d = sample_stratum(shape, k, j, True, seed=23)
            minsol, verdict = solve_kernel(d)
            assert not verdict.solvable
            assert verdict.stratum_j == j
            assert verdict.witness_nodes


def test_sample_stratum_deterministic():
    a = sample_stratum((2, 1), 2, 1, True, seed=99)
    b = sample_stratum((2, 1), 2, 1, True, seed=99)
    assert a == b
    c = sample_stratum((2, 1), 2, 1, True, seed=100)
    assert a != c


def test_sample_stratum_rejects_bad_requests():
    with pytest.raises(InvalidInput):
        sample_stratum((), 1, 1, False, seed=0)
    with pytest.raises(InvalidInput):
        sample_stratum((2, 1), 0, 1, False, seed=0)
    with pytest.raises(InvalidInput):
        sample_stratum((2, 1), 4, 1, False, seed=0)
    # defect beyond m+1 has no solvable witness of that slack
    with pytest.raises(InfeasibleRequest):
        sample_stratum((2, 2), 3, 3, False, seed=0)
    # forced needs defect <= m; with k = 1 nothing can be forced
    with pytest.raises(InfeasibleRequest):
        sample_stratum((2, 2), 3, 2, True, seed=0)
    with pytest.raises(InfeasibleRequest):
        sample_stratum((3,), 1, 1, True, seed=0)


def test_sample_stratum_prime_field():
    d = sample_stratum((2, 1), 2, 1, True, seed=7, field=GF13)
    assert d.field == GF13
    _, verdict = solve_kernel(d)
    assert not verdict.solvable
