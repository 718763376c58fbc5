"""Problem input validation, the JSON document schema, and the structured
matrix against Taylor-coefficient oracles."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from ratherm import (
    CharacteristicTooSmall,
    DuplicateNodes,
    FieldConfig,
    HermiteData,
    InvalidInput,
    Poly,
    RationalSolution,
    build_matrix,
    build_submatrix_i,
    rational_taylor,
    rhip_check,
    taylor_prefix,
    whip_residual,
)
from ratherm.errors import BadIndex
from ratherm.problem import master_matrix

from oracles import matrix, mul_vector, poly_add, poly_pow, rows

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


def random_data(rng, shape, k, field=RAT, lo=-6, hi=6):
    l = len(shape)
    u = rng.sample(range(lo, hi + 1), l)
    v = tuple(
        tuple(field.from_int(rng.randint(lo, hi)) for _ in range(ni)) for ni in shape
    )
    return HermiteData(u, shape, v, k, field)


def test_validation_errors():
    with pytest.raises(InvalidInput):
        HermiteData((), (), (), 1, RAT)
    with pytest.raises(InvalidInput):
        HermiteData((0,), (0,), ((),), 1, RAT)
    with pytest.raises(InvalidInput):
        HermiteData((0, 1), (1,), ((2,),), 1, RAT)
    with pytest.raises(InvalidInput):
        HermiteData((0,), (2,), ((1,),), 1, RAT)
    with pytest.raises(DuplicateNodes):
        HermiteData((1, 1), (1, 1), ((0,), (0,)), 1, RAT)
    with pytest.raises(InvalidInput):
        HermiteData((0,), (2,), ((1, 1),), 0, RAT)
    with pytest.raises(InvalidInput):
        HermiteData((0,), (2,), ((1, 1),), 3, RAT)
    with pytest.raises(CharacteristicTooSmall):
        HermiteData((0,), (3,), ((1, 1, 1),), 1, FieldConfig.prime(2))


def test_properties_and_immutability(golden):
    assert (golden.l, golden.n, golden.m) == (2, 3, 1)
    assert golden.u == (Fraction(1), Fraction(2))
    with pytest.raises(AttributeError):
        golden.k = 1


SEALED = [
    pytest.param(RAT, "p", id="FieldConfig"),
    pytest.param(GF13.from_int(4), "residue", id="PrimeFieldElement"),
    pytest.param(Poly((1, 2), RAT), "coeffs", id="Poly"),
    pytest.param(HermiteData((1, 2), (2, 1), ((1, 0), (0,)), 2, RAT), "k", id="HermiteData"),
]


@pytest.mark.parametrize("obj,field_name", SEALED)
@pytest.mark.parametrize("which", ["field", "other"])
def test_frozen_values_refuse_any_assignment(obj, field_name, which):
    name = field_name if which == "field" else "zzz"
    before = (obj, hash(obj), repr(obj))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, name)
    assert (obj, hash(obj), repr(obj)) == before


def test_field_inference():
    d = HermiteData((Fraction(1, 2), 3), (1, 1), ((1,), (0,)), 1)
    assert d.field == RAT


@pytest.mark.parametrize("field", [RAT, GF13], ids=["Q", "GF13"])
def test_json_round_trip(field):
    rng = random.Random(31)
    for shape, k in SHAPES:
        d = random_data(rng, shape, k, field)
        doc = d.to_json_dict()
        assert set(doc) == {"field", "k", "nodes"}
        back = HermiteData.from_json_dict(doc)
        assert back == d


def test_from_json_derivative_values():
    doc = {
        "field": "Q",
        "k": 1,
        "nodes": [{"u": "0", "values": ["3", "4", "5"]}],
    }
    d = HermiteData.from_json_dict(doc, derivative_values=True)
    assert d.v[0] == (Fraction(3), Fraction(4), Fraction(5, 2))
    plain = HermiteData.from_json_dict(doc)
    assert plain.v[0] == (Fraction(3), Fraction(4), Fraction(5))


def test_from_json_bad_documents():
    good_nodes = [{"u": "0", "values": ["1"]}]
    with pytest.raises(InvalidInput):
        HermiteData.from_json_dict([1, 2])
    with pytest.raises(InvalidInput):
        HermiteData.from_json_dict({"field": "Q", "nodes": good_nodes})
    with pytest.raises(InvalidInput):
        HermiteData.from_json_dict({"field": "Q", "k": "1", "nodes": good_nodes})
    with pytest.raises(InvalidInput):
        HermiteData.from_json_dict({"field": "Q", "k": 1, "nodes": []})
    with pytest.raises(InvalidInput):
        HermiteData.from_json_dict({"field": "Q", "k": 1, "nodes": [{"u": "0"}]})
    doc = {
        "field": {"p": 2},
        "k": 1,
        "nodes": [{"u": {"residue": 0, "p": 2}, "values": [{"residue": 1, "p": 2}] * 3}],
    }
    # 2! vanishes mod 2, so raw derivative targets cannot be rescaled
    with pytest.raises(InvalidInput):
        HermiteData.from_json_dict(doc, derivative_values=True)


def test_json_ignores_extra_keys(golden):
    doc = golden.to_json_dict()
    doc["comment"] = "annotated"
    doc["nodes"][0]["label"] = "left"
    assert HermiteData.from_json_dict(doc) == golden


def check_against_taylor(d, alpha, beta):
    """Each entry of the (alpha, beta) member is a Taylor coefficient of
    x^l (left) or -V x^l (right) at its node."""
    field = d.field
    m = build_matrix(d, alpha, beta)
    assert (m.r, m.c) == (d.n, alpha + beta + 2)
    entries, row = rows(m), 0
    for i in range(d.l):
        ui = d.u[i]
        # target Taylor polynomial sum_j v_ij (x - u_i)^j
        V = Poly((0,), field)
        for j, vij in enumerate(d.v[i]):
            V = poly_add(V, Poly((vij,), field) * poly_pow(Poly((-ui, 1), field), j))
        for j in range(d.n_vec[i]):
            for l in range(alpha + 1):
                mono = Poly([0] * l + [1], field)
                assert entries[row][l] == taylor_prefix(mono, ui, j + 1)[j]
            for l in range(beta + 1):
                mono = Poly([0] * l + [1], field)
                want = -taylor_prefix(V * mono, ui, j + 1)[j]
                assert entries[row][alpha + 1 + l] == want
            row += 1


def test_build_matrix_taylor_oracle():
    rng = random.Random(47)
    cases = [
        random_data(rng, shape, k, field)
        for field in (RAT, GF13)
        for shape, k in [((2, 1), 2), ((3,), 2), ((2, 2), 3)]
    ]
    F = Fraction
    cases += [
        # a zero node (0^0 = 1), a negative node, node denominators above 10,
        # zero values and values with mixed denominators
        HermiteData(
            (0, F(-7, 11), F(5, 13)),
            (3, 2, 1),
            ((F(3, 14), 0, F(-5, 21)), (0, F(1, 6)), (F(-9, 17),)),
            3,
            RAT,
        ),
        # multiplicity p, so that some C(l, j) vanish mod p
        HermiteData((0, 1), (2, 2), ((1, 0), (1, 1)), 2, FieldConfig.prime(2)),
        HermiteData((2, 0), (3, 3), ((1, 2, 0), (0, 0, 1)), 3, FieldConfig.prime(3)),
    ]
    for d in cases:
        for alpha in range(-1, d.n + 1):
            for beta in range(-1, d.n + 1):
                check_against_taylor(d, alpha, beta)


def test_build_matrix_empty_sides(golden):
    left_only = build_matrix(golden, golden.n - 1, -1)
    assert (left_only.r, left_only.c) == (golden.n, golden.n)
    right_only = build_matrix(golden, -1, golden.n - 1)
    assert (right_only.r, right_only.c) == (golden.n, golden.n)
    with pytest.raises(InvalidInput):
        build_matrix(golden, -2, 0)
    with pytest.raises(InvalidInput):
        build_matrix(golden, 0, golden.n + 1)


def test_residual_matches_matrix_action():
    rng = random.Random(53)
    for shape, k in SHAPES:
        d = random_data(rng, shape, k)
        m = build_matrix(d, d.k - 1, d.n - d.k)
        vec = [Fraction(rng.randint(-5, 5)) for _ in range(d.n + 1)]
        image = mul_vector(m, vec)
        pair = RationalSolution(Poly(vec[: d.k], RAT), Poly(vec[d.k :], RAT))
        res = whip_residual(d, pair)
        row = 0
        for i in range(d.l):
            for j in range(d.n_vec[i]):
                assert res[row] == math.factorial(j) * image[row]
                row += 1


def test_residual_zero_on_true_taylor_data():
    rng = random.Random(59)
    for _ in range(10):
        A = Poly([rng.randint(-4, 4) for _ in range(2)] + [1], RAT)
        B = Poly([rng.randint(1, 4), 1], RAT)
        shape = (2, 2)
        k = 3
        u = []
        while len(u) < len(shape):
            cand = rng.randint(-6, 6)
            if cand not in u and B(Fraction(cand)):
                u.append(cand)
        v = tuple(
            tuple(rational_taylor(A, B, Fraction(ui), ni)) for ui, ni in zip(u, shape)
        )
        d = HermiteData(u, shape, v, k, RAT)
        sol = RationalSolution(A, B)
        assert not any(whip_residual(d, sol))
        assert rhip_check(d, sol)
        # perturb one target: the residual must notice
        bad_v = [list(vi) for vi in v]
        bad_v[0][1] = bad_v[0][1] + 1
        bad = HermiteData(u, shape, bad_v, k, RAT)
        assert any(whip_residual(bad, sol))
        assert not rhip_check(bad, sol)


def test_rhip_check_rejects_vanishing_denominator():
    # a0 = 0 and B(1) = 0 solve the linear system, but B dies at a node
    d = HermiteData((0, 1), (1, 1), ((0,), (1,)), 1, RAT)
    sol = RationalSolution(Poly((0,), RAT), Poly((-1, 1), RAT))
    assert not any(whip_residual(d, sol))
    assert not rhip_check(d, sol)


def test_submatrix_against_literal_deletion():
    rng = random.Random(61)
    for shape, k in [((2, 1), 2), ((2, 2), 3), ((3, 1), 2)]:
        d = random_data(rng, shape, k)
        alpha, beta = d.k - 1, d.n - d.k
        full = build_matrix(d, alpha, beta)
        for i in range(1, d.l + 1):
            last_row = sum(shape[: i - 1]) + shape[i - 1] - 1
            kept = rows(full)
            del kept[last_row]
            deleted = matrix(kept, d.field)
            assert rows(build_submatrix_i(d, alpha, beta, i)) == rows(deleted)
            dropped = build_submatrix_i(d, alpha, beta, i, drop_cols=(1, d.n + 1))
            assert rows(dropped) == rows(deleted.select(range(deleted.r), range(1, d.n)))


def test_submatrix_bad_indices(golden):
    alpha, beta = golden.k - 1, golden.n - golden.k
    with pytest.raises(BadIndex):
        build_submatrix_i(golden, alpha, beta, 0)
    with pytest.raises(BadIndex):
        build_submatrix_i(golden, alpha, beta, golden.l + 1)
    with pytest.raises(BadIndex):
        build_submatrix_i(golden, alpha, beta, 1, drop_cols=(2, 2))
    with pytest.raises(BadIndex):
        build_submatrix_i(golden, alpha, beta, 1, drop_cols=(0, 1))


def test_master_matrix_shape(golden):
    master = master_matrix(golden)
    assert (master.r, master.c) == (golden.n, 2 * golden.n + 2)
    assert master_matrix(golden) is master
    # the cache is invisible to equality, hashing and repr
    fresh = HermiteData(golden.u, golden.n_vec, golden.v, golden.k, golden.field)
    assert fresh == golden and hash(fresh) == hash(golden)
    assert repr(fresh) == repr(golden)
