"""Elimination budgets: each route and classifier eliminates every distinct
matrix it needs once, ``find_defect`` at most three, and ``eea-trace`` runs
one Euclid for its table.

The counters wrap ``rank`` and ``diagonal_minor`` where ``strata`` imports
them, ``_remainders`` in ``polynomial``, and ``_minors_and_rank`` both in
``linalg``, behind ``signed_minors``, and where ``solvers`` imports it for
``find_defect``'s read of the main matrix, so every call a route,
classifier or command makes is seen.
"""

import json
import random

import pytest

from ratherm import (
    FieldConfig,
    HermiteData,
    Poly,
    classify_by_rank,
    linalg,
    polynomial,
    sample_stratum,
    solve_minors,
    solvers,
    strata,
    stratum_equations,
)
from ratherm.cli import main
from ratherm.solvers import find_defect
from ratherm.strata import diagonal_window
from ratherm.verify import random_data

from oracles import find_defect_ref

RAT = FieldConfig.rationals()


def _count(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def _count_minor_vectors(monkeypatch):
    calls = _count(monkeypatch, linalg, "_minors_and_rank")
    monkeypatch.setattr(solvers, "_minors_and_rank", linalg._minors_and_rank)
    return calls


@pytest.fixture
def generic():
    """Generic (4,4,4,4), k = 8 data over Q: defect 1."""
    return [random_data(random.Random(seed), (4, 4, 4, 4), 8, RAT) for seed in range(1, 4)]


def test_minors_route_and_stratum_equations_eliminate_one_vector(monkeypatch, generic):
    calls = _count_minor_vectors(monkeypatch)
    for d in generic:
        calls.clear()
        minsol, _ = solve_minors(d)
        assert minsol.kernel_dim == 1
        assert len(calls) == 1
        calls.clear()
        stratum_equations(d)
        assert len(calls) == 1


def test_find_defect_eliminates_at_most_three_matrices(monkeypatch, generic):
    """The main matrix gives the nullity N, where the scan starts: one
    elimination at defect 1, and the charts of N above it, two up to m+1
    and the upper one alone beyond.  The ascending scan it replaced took
    2N-1 up to m+1; the defect-4 draw pins both counts."""
    calls = _count_minor_vectors(monkeypatch)
    draws = [
        sample_stratum(shape, k, j, forced, 60 + j, field)
        for field in (RAT, FieldConfig.prime(1000003))
        for shape, k, m in (((3, 3, 2), 4, 3), ((4, 4, 4), 6, 5))
        for forced, top in ((False, m + 1), (True, m))
        for j in range(1, top + 1)
    ]
    zero_numerator = [
        HermiteData((0,), (4,), ((0, 0, 0, 1),), 1, RAT),
        HermiteData((0, 1), (2, 2), ((0, 0), (0, 1)), 1, RAT),
    ]
    for d in generic + draws + zero_numerator:
        calls.clear()
        j = find_defect(d)[0]
        assert len(calls) == (1 if j == 1 else 3 if j <= d.m + 1 else 2)
    assert {find_defect(d)[0] for d in draws} == set(range(1, 7))
    pinned = sample_stratum((4, 4, 4), 6, 4, False, 1, RAT)
    calls.clear()
    assert find_defect(pinned)[0] == 4 and len(calls) == 3
    calls.clear()
    assert find_defect_ref(pinned)[0] == 4 and len(calls) == 7


def test_rank_classifier_takes_one_rank_per_node_plus_main(monkeypatch, generic):
    """One main rank gives the defect in both regimes; each node then costs
    one rank, a deleted-row submatrix at defect <= m+1 or the main matrix
    with that node's evaluation row appended."""
    calls = _count(monkeypatch, strata, "rank")
    draws = [
        sample_stratum((3, 3, 2), 4, j, forced, 80 + j, field)
        for field in (RAT, FieldConfig.prime(1000003))
        for forced, top in ((False, 4), (True, 3))
        for j in range(1, top + 1)
    ]
    zero_numerator = [
        HermiteData((0,), (4,), ((0, 0, 0, 1),), 1, RAT),
        HermiteData((0, 1), (2, 2), ((0, 0), (0, 1)), 1, RAT),
    ]
    for d in generic + draws + zero_numerator:
        calls.clear()
        rep = classify_by_rank(d)
        assert (rep.defect > d.m + 1) == (d in zero_numerator)
        assert len(calls) == 1 + d.l


def test_classify_takes_only_the_certificate_determinants(monkeypatch, generic):
    """The display window reads the remainder sequence, not determinants; the
    rank classifier takes its two chart certificates, one when the lower
    chart's index k-defect+1 falls below 1."""
    calls = _count(monkeypatch, strata, "diagonal_minor")
    draws = [
        sample_stratum((3, 3, 2), 4, j, False, 40 + j, field)
        for field in (RAT, FieldConfig.prime(1000003))
        for j in range(1, 5)
    ]
    beyond = HermiteData((0, 1), (2, 2), ((0, 0), (0, 1)), 1, RAT)  # defect 3 > k
    for d in generic + draws + [beyond]:
        calls.clear()
        diagonal_window(d)
        assert calls == []
        defect = classify_by_rank(d).defect
        assert len(calls) == (2 if d.k - defect + 1 >= 1 else 1)
    assert d is beyond and len(calls) == 1


def test_eea_trace_runs_two_remainder_sequences(monkeypatch, generic, tmp_path, capsys):
    """One ``_remainders`` run builds the table, zero row included, and one
    is the gcd check of the cut row; ``Poly`` has no division left."""
    calls = _count(monkeypatch, polynomial, "_remainders")
    gf = random_data(random.Random(1), (4, 4, 4, 4), 8, FieldConfig.prime(1000003))
    for d in generic + [gf]:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(d.to_json_dict()))
        calls.clear()
        assert main(["eea-trace", "--input", str(path)]) == 0
        capsys.readouterr()
        assert len(calls) == 2
    assert not any(hasattr(Poly, name) for name in ("__divmod__", "__floordiv__", "__mod__"))
