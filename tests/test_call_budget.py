"""Elimination budgets: each route and classifier eliminates every distinct
matrix it needs once, ``find_defect`` at most three, ``solve_kernel`` one,
``stratum_equations`` as many as ``find_defect``, ``classify_by_rank`` one
halted elimination at every defect, ``sample_stratum`` one per draw,
``minors`` slices each of its matrices once, and ``eea-trace`` runs one
Euclid for its table.  Work pins: the node
int view is computed once per instance, ``rhip_check`` is one pass of two
Taylor shifts per node, ``solve --method all`` boxes its minimal pair
once and runs ``rhip_check`` twice when solvable, none when unattainable,
and a parsed GF(p) document is solved and classified without one checked
``PrimeFieldElement`` construction.

``_count_eliminations`` wraps ``linalg._eliminate`` in ``linalg`` and in
every ratherm module that binds it, so each elimination is seen, behind
the public wrappers or not; ``rank``, ``determinant`` and ``build_matrix``
are spied on the same way.  The other counters wrap ``_remainders`` in
``polynomial``, and ``_minors_and_rank`` both in ``linalg``, behind
``signed_minors``, and where ``solvers`` imports it for ``minor_vector``
and ``find_defect``.
"""

import json
import random
import sys

import pytest

from ratherm import (
    FieldConfig,
    HermiteData,
    MinimalSolution,
    Poly,
    PrimeFieldElement,
    classify_by_rank,
    linalg,
    polynomial,
    problem,
    sample_stratum,
    solve_eea,
    solve_kernel,
    solve_minors,
    solvers,
    strata,
    stratum_equations,
    verify,
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


def _spy_everywhere(monkeypatch, module, name, record=lambda *args: args):
    """Every call of ``module.name``, as ``record`` of its arguments, in
    every ratherm module that binds that function."""
    calls, inner = [], getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return inner(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "ratherm" and getattr(mod, name, None) is inner:
            monkeypatch.setattr(mod, name, wrapped)
    return calls


def _count_eliminations(monkeypatch):
    """Every ``_eliminate`` call, as the (rows, columns, halt) it ran on."""
    return _spy_everywhere(monkeypatch, linalg, "_eliminate", lambda M, halt=False: (M.r, M.c, halt))


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


def _draws(shapes, seed):
    """sample_stratum draws at every feasible defect, plain and forced, over
    Q and GF(1000003)."""
    return [
        sample_stratum(shape, k, j, forced, seed + j, field)
        for field in (RAT, FieldConfig.prime(1000003))
        for shape, k, m in shapes
        for forced, top in ((False, m + 1), (True, m))
        for j in range(1, top + 1)
    ]


ZERO_NUMERATOR = [
    HermiteData((0,), (4,), ((0, 0, 0, 1),), 1, RAT),
    HermiteData((0, 1), (2, 2), ((0, 0), (0, 1)), 1, RAT),
]


def test_find_defect_eliminates_at_most_three_matrices(monkeypatch, generic):
    """The main matrix gives the nullity N, where the scan starts: one
    elimination at defect 1; up to m+1 the lower chart of N, and the upper
    one only when the lower certificate vanishes; beyond m+1 the upper
    chart alone.  The ascending scan it replaced took 2N-1 up to m+1; the
    defect-4 draw pins both counts.  ``solve_minors`` and
    ``stratum_equations``, which reads the upper certificate for its chart
    label off the lower chart's B slice, cost what ``find_defect`` does."""
    calls = _count_minor_vectors(monkeypatch)
    eliminations = _count_eliminations(monkeypatch)
    draws = _draws((((3, 3, 2), 4, 3), ((4, 4, 4), 6, 5)), 60)
    lower_only = 0
    for d in generic + draws + ZERO_NUMERATOR:
        calls.clear()
        j, upper, _ = find_defect(d)
        inner = 1 if j == 1 else 3 if j <= d.m + 1 and upper else 2
        assert len(calls) == inner
        lower_only += 2 <= j and not upper
        calls.clear()
        eliminations.clear()
        solve_minors(d)
        assert len(calls) == len(eliminations) == inner
        calls.clear()
        eliminations.clear()
        stratum_equations(d)
        assert len(calls) == len(eliminations) == inner
    assert {find_defect(d)[0] for d in draws} == set(range(1, 7))
    assert lower_only >= 20
    pinned = sample_stratum((4, 4, 4), 6, 4, False, 1, RAT)
    calls.clear()
    j, upper, _ = find_defect(pinned)
    assert j == 4 and not upper and len(calls) == 2
    calls.clear()
    assert find_defect_ref(pinned)[0] == 4 and len(calls) == 7


def test_solve_kernel_eliminates_the_main_matrix_once(monkeypatch, generic):
    """The pair is the kernel vector of the main matrix's first free column
    at every defect, so no shrunken matrix is eliminated."""
    calls = _count_eliminations(monkeypatch)
    draws = _draws((((3, 3, 2), 4, 3),), 70)
    for d in generic + draws + ZERO_NUMERATOR:
        calls.clear()
        solve_kernel(d)
        assert calls == [(d.n, d.n + 1, False)]
    assert {solve_kernel(d)[0].kernel_dim for d in draws} == {1, 2, 3, 4}


def _count_from_pair(monkeypatch):
    calls, inner = [], MinimalSolution.from_pair.__func__

    def counted(cls, *args):
        calls.append(args)
        return inner(cls, *args)

    monkeypatch.setattr(MinimalSolution, "from_pair", classmethod(counted))
    return calls


def test_solve_all_classifies_its_minimal_pair_once(monkeypatch, generic, tmp_path, capsys):
    """The three routes of ``solve --method all`` offer one minimal pair up
    to scale, so it is boxed once, and ``rhip_check`` runs twice on
    solvable data, on the classifier's solution and on the emitted one,
    and never on unattainable data."""
    from_pair = _count_from_pair(monkeypatch)
    checks = _spy_everywhere(monkeypatch, problem, "rhip_check")
    gf = FieldConfig.prime(1000003)
    docs = generic + _draws((((3, 3, 2), 4, 3),), 75) + ZERO_NUMERATOR + [
        random_data(random.Random(1), (4, 4, 4), 6, gf)]
    codes = set()
    for d in docs:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(d.to_json_dict()))
        from_pair.clear()
        checks.clear()
        code = main(["solve", "--method", "all", "--input", str(path)])
        capsys.readouterr()
        assert len(from_pair) == 1
        assert len(checks) == {0: 2, 3: 0}[code]
        codes.add(code)
    assert codes == {0, 3}


def test_sampler_rederives_each_draw_with_one_elimination(monkeypatch):
    """``sample_stratum`` re-derives each drawn instance, plain or forced,
    with ``solve_kernel`` alone: one elimination of the main matrix, one
    boxed minimal pair and, when it is solvable, one ``rhip_check`` per
    draw, at every defect; a draw that fails a side condition takes none."""
    eliminations = _count_eliminations(monkeypatch)
    from_pair = _count_from_pair(monkeypatch)
    checks = _spy_everywhere(monkeypatch, problem, "rhip_check")
    drawn = []
    for name in ("_draw_plain", "_draw_forced"):
        inner = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, inner=inner: drawn.append(inner(*a)) or drawn[-1])
    for field in (RAT, FieldConfig.prime(1000003)):
        for shape, k, m in (((3, 3, 2), 4, 3), ((4, 4, 4), 6, 5)):
            for forced, top in ((False, m + 1), (True, m)):
                for j in range(1, top + 1):
                    eliminations.clear()
                    from_pair.clear()
                    checks.clear()
                    drawn.clear()
                    d = sample_stratum(shape, k, j, forced, 100 + j, field)
                    tried = [x for x in drawn if x is not None]
                    assert tried[-1] is d
                    assert eliminations == [(d.n, d.n + 1, False)] * len(tried)
                    assert [args[0] for args in from_pair] == tried
                    # the answers are cached on each draw: no second check here
                    assert [args[0] for args in checks] == [x for x in tried if solve_kernel(x)[1].solvable]


def test_rank_classifier_takes_one_stopped_elimination_at_every_defect(monkeypatch, generic):
    """One elimination of the main matrix's n+1 columns in shrink order and
    one unit column per node, halted at its first gap, gives the defect,
    every witness and both certificates, below m+1 and beyond it: no rank,
    no determinant, no submatrix."""
    eliminations = _count_eliminations(monkeypatch)
    forbidden = [
        _spy_everywhere(monkeypatch, linalg, "rank"),
        _spy_everywhere(monkeypatch, linalg, "determinant"),
        _count(monkeypatch, problem, "build_submatrix_i"),
    ]
    draws = _draws((((3, 3, 2), 4, 3),), 80)
    for d in generic + draws + ZERO_NUMERATOR:
        for calls in [eliminations] + forbidden:
            calls.clear()
        rep = classify_by_rank(d)
        assert (rep.defect > d.m + 1) == (d in ZERO_NUMERATOR)
        assert eliminations == [(d.n, d.n + 1 + d.l, True)]
        assert not any(forbidden)
    assert {classify_by_rank(d).defect for d in draws} == {1, 2, 3, 4}


def test_minors_slices_each_matrix_once(monkeypatch, generic, tmp_path, capsys):
    """``minors`` slices each (t-1, n-t) member once, for its minor vector;
    its annihilation check reads the same rows in the master."""
    calls = _spy_everywhere(monkeypatch, problem, "build_matrix")
    d = random_data(random.Random(1), (4, 4, 4, 4), 8)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(d.to_json_dict()))
    assert main(["minors", "--input", str(path)]) == 0
    capsys.readouterr()
    assert sorted(c[1:] for c in calls) == [(t - 1, d.n - t) for t in range(1, d.n + 2)]
    assert len(calls) == 17


def test_classify_takes_only_the_certificate_determinants(monkeypatch, generic):
    """Neither the display window, which reads the remainder sequence, nor
    the rank classifier, which reads both chart certificates off its
    halted elimination at every defect, takes a determinant, below m+1
    or beyond it, where the lower chart's index k-d+1 is below 1."""
    calls = _spy_everywhere(monkeypatch, linalg, "determinant")
    draws = [
        sample_stratum((3, 3, 2), 4, j, False, 40 + j, field)
        for field in (RAT, FieldConfig.prime(1000003))
        for j in range(1, 5)
    ]
    beyond = HermiteData((0, 1), (2, 2), ((0, 0), (0, 1)), 1, RAT)  # defect 3 > k
    for d in generic + draws + [beyond]:
        calls.clear()
        diagonal_window(d)
        classify_by_rank(d)
        assert calls == []
    assert d is beyond and classify_by_rank(d).defect == 3 > d.m + 1
    solvers.diagonal_minor(beyond, 4)
    assert len(calls) == 1


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


def test_node_int_view_is_computed_once_per_instance(monkeypatch, generic):
    """Every route, classifier and check reads u_i = a/b and v_i = w/D off
    one cached view: ``_ints`` meets each node and each value group once."""
    calls = _spy_everywhere(monkeypatch, polynomial, "_ints")
    draws = _draws((((3, 3, 2), 4, 3),), 90)
    for d in generic + draws + ZERO_NUMERATOR:
        d = HermiteData(d.u, d.n_vec, d.v, d.k, d.field)  # nothing cached yet
        calls.clear()
        for run in (solve_kernel, solve_eea, solve_minors, classify_by_rank, stratum_equations,
                    diagonal_window):
            run(d)
        assert d._node_ints() is d._node_ints()
        values = [a for a in calls if any(a[1] is vi for vi in d.v)]
        nodes = [a for a in calls if len(a[1]) == 1 and any(a[1][0] is ui for ui in d.u)]
        assert len(values) == len(nodes) == d.l


def test_rhip_check_is_one_pass_of_two_shifts_per_node(monkeypatch, generic):
    """The residual and B(u_i) come off the same two Taylor shifts of A and
    B per node; the node test takes no pass of its own."""
    shifts = _count(monkeypatch, problem, "_shift")
    nodes = _count(monkeypatch, problem, "witness_nodes")
    checked = 0
    for d in generic + _draws((((3, 3, 2), 4, 3),), 95):
        _, cls = solve_kernel(d)
        if not cls.solvable:
            continue
        shifts.clear()
        nodes.clear()
        assert problem.rhip_check(d, cls.sol)
        assert len(shifts) == 2 * d.l and nodes == []
        checked += 1
    assert checked >= 5


def test_parsed_prime_field_document_builds_no_checked_residue(monkeypatch, tmp_path, capsys):
    """Residues come from a certified modulus, the document's, so solving
    and classifying a GF(p) document never runs the checked constructor."""
    checked = []
    inner = PrimeFieldElement.__post_init__

    def counted(self):
        checked.append(self)
        inner(self)

    monkeypatch.setattr(PrimeFieldElement, "__post_init__", counted)
    PrimeFieldElement(3, 5)
    assert len(checked) == 1
    checked.clear()
    gf = FieldConfig.prime(1000003)
    docs = [random_data(random.Random(1), (4, 4, 4), 6, gf),
            sample_stratum((3, 3, 2), 4, 2, True, 7, gf)]
    for d in docs:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(d.to_json_dict()))
        for argv in (["solve", "--method", "all"], ["classify"], ["minors"], ["eea-trace"]):
            main(argv + ["--input", str(path)])
            capsys.readouterr()
    assert checked == []
