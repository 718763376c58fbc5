"""Layer spans recorded from outside ratherm, by wrapping its functions.

A module binds the names it imports when it is imported (``solvers`` does
``from .linalg import determinant``), so each traced function is replaced in
every ``ratherm`` module whose namespace holds it, not only where it is
defined.  ``field`` is not traced: its calls number in the millions per
operation, and their cost shows up as the self time of ``linalg`` and
``polynomial``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# Traced functions, by the ratherm module that defines them.
LAYERS = {
    "cli": ("main",),
    "verify": ("sample_stratum",),
    "strata": ("classify_by_rank", "stratum_equations"),
    "solvers": (
        "solve_kernel",
        "solve_eea",
        "solve_minors",
        "find_defect",
        "chart_pair",
        "minor_vector",
        "diagonal_minor",
    ),
    "problem": ("build_matrix", "build_submatrix_i", "whip_residual", "rhip_check"),
    "linalg": ("determinant", "rank", "kernel_basis", "signed_minors"),
    "polynomial": ("gcd", "eea", "hermite_interpolant", "product_F", "rational_taylor"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# The solver calls by which ``sample_stratum`` re-derives a drawn instance.
_REDERIVATIONS = ("solvers.solve_kernel", "solvers.solve_minors")


class Spans:
    """Records one span per traced call; keeps them in memory.

    A span's self time is its duration minus the time its child spans
    cover.  ``total_s`` is inclusive time, counted for the outermost span of
    each name only.
    """

    def __init__(self) -> None:
        self.op = 0
        self.records: list[tuple] = []  # (op, span_id, parent_id, name, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self._open: list[list] = []  # [name, span_id, child_seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            frame = [name, self._next_id, 0.0]
            self._next_id += 1
            self._open.append(frame)
            self._depth[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                duration = end - start
                self._open.pop()
                self._depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if not self._depth[name]:
                    self.total_s[name] += duration
                if parent is not None:
                    parent[2] += duration
                    self.edges[(parent[0], name)] += 1
                self.records.append(
                    (self.op, frame[1], parent[1] if parent else None, name, start, end)
                )

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function in every ratherm module, then restore."""
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"ratherm.{layer}")
            for fn_name in names:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fn_name}", fn))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ratherm" and not mod_name.startswith("ratherm."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def accept_ratio(self) -> float:
        """Instances ``sample_stratum`` returned per solver re-derivation in it."""
        tries = sum(self.edges[("verify.sample_stratum", s)] for s in _REDERIVATIONS)
        return self.calls["verify.sample_stratum"] / tries if tries else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["op", "span_id", "parent_id", "name", "start", "end"],
                    "spans": self.records,
                },
                fh,
            )
