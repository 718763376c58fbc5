"""Input model for the interpolation problem and its structured matrices.

The data is (u, n_vec, v, k): l distinct nodes u_i, multiplicities n_i with
n = sum n_i, target values v[i][j] for j < n_i, and the numerator degree
parameter k.  The value convention is Taylor-like throughout: the wanted
j-th derivative of A/B at u_i is j! * v[i][j].

``build_matrix(data, alpha, beta)`` stacks one block per node; its kernel at
(alpha, beta) = (k-1, n-k) is exactly the solution space of the linearized
problem ``whip_residual`` measures.  Either block may be empty
(alpha = -1 or beta = -1), which the square-minor machinery at the extreme
column counts relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import BadIndex, DuplicateNodes, InvalidInput
from .field import FieldConfig, Scalar, binomial, infer_field
from .linalg import ExactMatrix
from .polynomial import Poly, derivative, evaluate


class HermiteData:
    """Validated, immutable problem input.

    Nodes must be pairwise distinct and 1 <= k <= n; prime fields must have
    p >= max multiplicity.  Node indices are 0-based at this API (reports
    and witness lists use the same convention).
    """

    __slots__ = ("u", "n_vec", "v", "k", "field")

    def __init__(self, u, n_vec, v, k: int, field: Optional[FieldConfig] = None):
        n_vec = tuple(int(x) for x in n_vec)
        if not n_vec:
            raise InvalidInput("need at least one node")
        if any(ni < 1 for ni in n_vec):
            raise InvalidInput(f"multiplicities must be positive: {n_vec}")
        if field is None:
            field = infer_field(list(u) + [x for vi in v for x in vi])
        u = tuple(field.coerce(x) for x in u)
        v = tuple(tuple(field.coerce(x) for x in vi) for vi in v)
        if not (len(u) == len(n_vec) == len(v)):
            raise InvalidInput(
                f"lengths disagree: {len(u)} nodes, {len(n_vec)} multiplicities, "
                f"{len(v)} value groups"
            )
        for i, vi in enumerate(v):
            if len(vi) != n_vec[i]:
                raise InvalidInput(
                    f"node {i} has {len(vi)} values but multiplicity {n_vec[i]}"
                )
        for i in range(len(u)):
            for j in range(i + 1, len(u)):
                if not (u[i] - u[j]):
                    raise DuplicateNodes(f"nodes {i} and {j} coincide")
        n = sum(n_vec)
        if not 1 <= k <= n:
            raise InvalidInput(f"k = {k} outside 1..{n}")
        field.require_characteristic(n_vec)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "n_vec", n_vec)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("HermiteData is immutable")

    @property
    def l(self) -> int:
        return len(self.u)

    @property
    def n(self) -> int:
        return sum(self.n_vec)

    @property
    def m(self) -> int:
        return min(self.k - 1, self.n - self.k)

    def __eq__(self, other):
        if isinstance(other, HermiteData):
            return (
                self.field == other.field
                and self.u == other.u
                and self.n_vec == other.n_vec
                and self.v == other.v
                and self.k == other.k
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.u, self.n_vec, self.v, self.k))

    def __repr__(self):
        return (
            f"HermiteData(u={list(self.u)!r}, n_vec={self.n_vec!r}, "
            f"v={[list(vi) for vi in self.v]!r}, k={self.k})"
        )

    def to_json_dict(self) -> dict:
        fmt = self.field.format_scalar
        return {
            "field": self.field.to_json(),
            "k": self.k,
            "nodes": [
                {"u": fmt(self.u[i]), "values": [fmt(x) for x in self.v[i]]}
                for i in range(self.l)
            ],
        }

    @classmethod
    def from_json_dict(cls, obj, derivative_values: bool = False) -> "HermiteData":
        """Parse the document schema.

        {"field": "Q" | {"p": int}, "k": int,
         "nodes": [{"u": Scalar, "values": [Scalar, ...]}, ...]}

        The j-th entry of "values" is v_{i,j}; with ``derivative_values``
        the entries are raw derivative targets and are divided by j! here.
        Unknown extra keys are ignored so annotated documents round-trip.
        """
        if not isinstance(obj, dict):
            raise InvalidInput("document must be a JSON object")
        try:
            field = FieldConfig.from_json(obj["field"])
            k = obj["k"]
            nodes = obj["nodes"]
        except KeyError as exc:
            raise InvalidInput(f"document lacks key {exc.args[0]!r}") from exc
        if type(k) is not int:
            raise InvalidInput(f"k must be an integer, got {k!r}")
        if not isinstance(nodes, list) or not nodes:
            raise InvalidInput("\"nodes\" must be a nonempty list")
        u, n_vec, v = [], [], []
        for entry in nodes:
            if (
                not isinstance(entry, dict)
                or "u" not in entry
                or not isinstance(entry.get("values"), list)
            ):
                raise InvalidInput(f"bad node entry {entry!r}")
            u.append(field.parse_scalar(entry["u"]))
            vals = [field.parse_scalar(x) for x in entry["values"]]
            if derivative_values:
                scaled = []
                for j, x in enumerate(vals):
                    fact = field.from_int(math.factorial(j))
                    if not fact:
                        raise InvalidInput(
                            f"{j}! is zero in {field}; raw derivative targets "
                            "cannot be converted"
                        )
                    scaled.append(x / fact)
                vals = scaled
            v.append(vals)
            n_vec.append(len(vals))
        return cls(u, n_vec, v, k, field)


@dataclass(frozen=True)
class RationalSolution:
    """A candidate pair (A, B), the fraction A/B."""

    A: Poly
    B: Poly


def block_rows(data: HermiteData, alpha: int, beta: int, i: int) -> list[list[Scalar]]:
    """Rows of the i-th node block (0-based i) at degree bounds alpha, beta.

    Left columns l = 0..alpha carry C(l, j) u^(l-j); right columns l = 0..beta
    carry -sum_{t<=j} C(l, t) v_{i,j-t} u^(l-t), with C(l, t) = 0 for t > l.
    alpha = -1 or beta = -1 yields an empty block on that side.
    """
    if alpha < -1 or beta < -1:
        raise InvalidInput(f"degree bounds ({alpha}, {beta}) below -1")
    field = data.field
    ui = data.u[i]
    vi = data.v[i]
    rows = []
    for j in range(data.n_vec[i]):
        row: list[Scalar] = []
        for l in range(alpha + 1):
            if j > l:
                row.append(field.zero)
            else:
                row.append(binomial(l, j, field) * ui ** (l - j))
        for l in range(beta + 1):
            acc = field.zero
            for t in range(min(j, l) + 1):
                acc = acc + binomial(l, t, field) * vi[j - t] * ui ** (l - t)
            row.append(-acc)
        rows.append(row)
    return rows


def build_matrix(data: HermiteData, alpha: int, beta: int) -> ExactMatrix:
    """The n x (alpha+beta+2) stacked block matrix."""
    rows: list[list[Scalar]] = []
    for i in range(data.l):
        rows.extend(block_rows(data, alpha, beta, i))
    return ExactMatrix(rows, data.field)


def build_submatrix_i(
    data: HermiteData,
    alpha: int,
    beta: int,
    i: int,
    drop_cols: Optional[tuple[int, int]] = None,
) -> ExactMatrix:
    """Stacked matrix with the last row of block i deleted.

    ``i`` is 1-based here, matching the way the per-node submatrices are
    written (everything else in the package labels nodes 0-based).  When
    ``drop_cols`` is given, those two 1-based columns are deleted as well.
    """
    if not 1 <= i <= data.l:
        raise BadIndex(f"node index {i} outside 1..{data.l}")
    rows: list[list[Scalar]] = []
    for b in range(data.l):
        block = block_rows(data, alpha, beta, b)
        if b == i - 1:
            block = block[:-1]
        rows.extend(block)
    width = alpha + beta + 2
    if drop_cols is None:
        return ExactMatrix(rows, data.field)
    c1, c2 = drop_cols
    if not (1 <= c1 <= width and 1 <= c2 <= width) or c1 == c2:
        raise BadIndex(f"drop columns {drop_cols} invalid for width {width}")
    drop = {c1 - 1, c2 - 1}
    rows = [[x for j, x in enumerate(row) if j not in drop] for row in rows]
    return ExactMatrix(rows, data.field)


def whip_residual(data: HermiteData, sol: RationalSolution) -> list[Scalar]:
    """The n values A^(j)(u_i) - sum_t (j)_t v_{i,t} B^(j-t)(u_i), block order.

    All zero exactly when (A, B) solves the linearized problem.
    """
    field = data.field
    out = []
    for i in range(data.l):
        ui = data.u[i]
        for j in range(data.n_vec[i]):
            acc = evaluate(derivative(sol.A, j), ui)
            for t in range(j + 1):
                coeff = field.from_int(math.perm(j, t))
                acc = acc - coeff * data.v[i][t] * evaluate(
                    derivative(sol.B, j - t), ui
                )
            out.append(acc)
    return out


def rhip_check(data: HermiteData, sol: RationalSolution) -> bool:
    """True iff the residual vanishes and B(u_i) != 0 at every node."""
    if any(whip_residual(data, sol)):
        return False
    return all(evaluate(sol.B, ui) for ui in data.u)
