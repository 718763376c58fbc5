"""The benchmark's independent output checker, run against the package: its
self-test (clean outputs pass, corrupted ones fail), and the first three
operations of every workload, run and checked as a benchmark run does.  A
conversion bug then fails here before it becomes a failed operation."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.delenv("RATHERM_SEED", raising=False)  # it would override sample --seed
    return importlib.import_module("perfbench.selftest"), importlib.import_module("perfbench.workloads")


def test_checker_self_test_passes(perfbench):
    selftest, _ = perfbench
    results = selftest.cases()
    assert selftest.passed(results), [(name, errs) for name, _, errs in results]


@pytest.mark.parametrize("workload", ["solve-q", "classify-gfp", "strata"])
def test_first_operations_of_each_workload_pass_the_checker(perfbench, monkeypatch, workload):
    _, workloads = perfbench
    monkeypatch.setattr(workloads, "POOL_SIZE", 3)  # the first three inputs of a run
    for op in workloads.make_ops(workload, 1):
        assert workloads.check_op(op, workloads.run_op(op)) == []
