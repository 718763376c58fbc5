"""Input model for the interpolation problem and its structured matrices.

The data is (u, n_vec, v, k): l distinct nodes u_i, multiplicities n_i with
n = sum n_i, target values v[i][j] for j < n_i, and the numerator degree
parameter k.  The value convention is Taylor-like throughout: the wanted
j-th derivative of A/B at u_i is j! * v[i][j].

Every structured matrix is an index selection of one n x (2n+2)
``master_matrix`` per instance, built in int arithmetic without boxed
scalars.  ``build_matrix(data, alpha, beta)`` takes its left columns
0..alpha and right columns 0..beta; its kernel at (alpha, beta) =
(k-1, n-k) is exactly the solution space of the linearized problem
``whip_residual`` measures, without reading any matrix.  Either side may
be empty (alpha = -1 or beta = -1), which the square-minor machinery at
the extreme column counts relies on.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from .errors import BadIndex, DuplicateNodes, InvalidInput, TooLarge
from .field import RATIONALS, FieldConfig, Scalar, sealed
from .linalg import ExactMatrix
from .polynomial import Poly, _box, _ints, _shift

# Largest accepted n = sum n_i; bounds the work of every command.
MAX_N = 64


@sealed
@dataclasses.dataclass(frozen=True, slots=True, init=False)
class HermiteData:
    """Validated, immutable problem input.

    Nodes must be pairwise distinct, 1 <= k <= n and n <= MAX_N; prime
    fields must have p >= max multiplicity.  Node indices are 0-based at
    this API (reports and witness lists use the same convention).
    """

    u: tuple
    n_vec: tuple
    v: tuple
    k: int
    field: FieldConfig
    _master: Optional[ExactMatrix] = dataclasses.field(compare=False, repr=False)
    _view: Optional[tuple] = dataclasses.field(compare=False, repr=False)
    _answers: Optional[dict] = dataclasses.field(compare=False, repr=False)

    def __init__(self, u, n_vec, v, k: int, field: FieldConfig = RATIONALS):
        n_vec = tuple(int(x) for x in n_vec)
        if not n_vec:
            raise InvalidInput("need at least one node")
        if any(ni < 1 for ni in n_vec):
            raise InvalidInput(f"multiplicities must be positive: {n_vec}")
        n = sum(n_vec)
        if n > MAX_N:
            raise TooLarge(f"n = {n} exceeds the cap MAX_N = {MAX_N}")
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
                if u[i] == u[j]:
                    raise DuplicateNodes(f"nodes {i} and {j} coincide")
        if not 1 <= k <= n:
            raise InvalidInput(f"k = {k} outside 1..{n}")
        field.require_characteristic(n_vec)
        for name, value in zip(self.__slots__, (u, n_vec, v, int(k), field, None, None, None)):
            object.__setattr__(self, name, value)

    @property
    def l(self) -> int:
        return len(self.u)

    @property
    def n(self) -> int:
        return sum(self.n_vec)

    @property
    def m(self) -> int:
        return min(self.k - 1, self.n - self.k)

    def _node_ints(self) -> tuple:
        """Per node the ints (a, b, w, D) of ``_ints``, u_i = a / b and
        v_i = w / D, computed on first use and cached, like the master."""
        if self._view is None:
            nodes = (_ints(self.field, (ui,)) for ui in self.u)
            view = tuple((a, b, *_ints(self.field, vi)) for ((a,), b), vi in zip(nodes, self.v))
            object.__setattr__(self, "_view", view)
        return self._view

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
        # the cap comes before any per-node work: parsing, scaling, node checks
        n = sum(len(e["values"]) for e in nodes
                if isinstance(e, dict) and isinstance(e.get("values"), list))
        if n > MAX_N:
            raise TooLarge(f"n = {n} exceeds the cap MAX_N = {MAX_N}")
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


@dataclasses.dataclass(frozen=True)
class RationalSolution:
    """A candidate pair (A, B), the fraction A/B."""

    A: Poly
    B: Poly


def master_matrix(data: HermiteData) -> ExactMatrix:
    """The n x (2n+2) matrix every structured matrix is selected from.

    Row (i, j), in block order, holds j-th Taylor coefficients at u_i: of x^l
    in left column l, C(l, j) u_i^(l-j), and of -V x^l in right column
    n+1+l, V = sum_t v_{i,t} y^t, y = x - u_i; l runs over 0..n.  Built once
    per instance in ints and cached on it.  With u_i = a/b and v_i = w/D
    (``_node_ints``), x^l = (a + b y)^l / b^l, so over b^n D column l is
    b^(n-l) times (a + b y)^l D, left, and -(a + b y)^l W(y), right, W =
    sum_t w_t y^t, to n_i terms; c_j <- a c_j + b c_(j-1) turns column l-1
    into column l.  Rows are divided by their content; residues over GF(p).
    """
    if data._master is None:
        n, p = data.n, data.field.p
        nums, dens = [], []
        for a, b, w, D in data._node_ints():
            ni = len(w)
            c, cols = [D] + [0] * (ni - 1) + [-x for x in w], []  # left and right, stacked
            for l in range(n + 1):
                s = b ** (n - l)
                cols.append([x * s for x in c] if s != 1 else c)
                up = [0] + c[: ni - 1] + [0] + c[ni:-1]
                if p is None:
                    c = [a * x + b * y for x, y in zip(c, up)]
                else:
                    c = [(a * x + y) % p for x, y in zip(c, up)]
            rows = list(zip(*cols))
            for j in range(ni):
                scaled = rows[j] + rows[ni + j]
                g = math.gcd(b**n * D, *scaled)  # 1 over GF(p)
                nums.append([x // g if p is None else x % p for x in scaled])
                dens.append(b**n * D // g)
        master = ExactMatrix.from_ints(nums, dens, 2 * n + 2, data.field)
        object.__setattr__(data, "_master", master)
    return data._master


def _family_columns(data: HermiteData, alpha: int, beta: int) -> list[int]:
    """Master columns of the (alpha, beta) member: left 0..alpha, right 0..beta."""
    n = data.n
    if not (-1 <= alpha <= n and -1 <= beta <= n):
        raise InvalidInput(f"degree bounds ({alpha}, {beta}) outside -1..{n}")
    return list(range(alpha + 1)) + list(range(n + 1, n + 2 + beta))


def build_matrix(data: HermiteData, alpha: int, beta: int) -> ExactMatrix:
    """The n x (alpha+beta+2) member of the family, sliced from the master."""
    cols = _family_columns(data, alpha, beta)
    return master_matrix(data).select(range(data.n), cols)


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
    cols = _family_columns(data, alpha, beta)
    if drop_cols is not None:
        c1, c2 = drop_cols
        width = len(cols)
        if not (1 <= c1 <= width and 1 <= c2 <= width) or c1 == c2:
            raise BadIndex(f"drop columns {drop_cols} invalid for width {width}")
        cols = [c for pos, c in enumerate(cols, 1) if pos not in drop_cols]
    last = sum(data.n_vec[:i]) - 1
    return master_matrix(data).select([r for r in range(data.n) if r != last], cols)


def whip_residual(data: HermiteData, sol: RationalSolution) -> list[Scalar]:
    """The n values A^(j)(u_i) - sum_t (j)_t v_{i,t} B^(j-t)(u_i), block order.

    All zero exactly when (A, B) solves the linearized problem.  With a and
    b the Taylor coefficients of A and B at u_i, A^(j)(u_i) = j! a_j and
    (j)_t B^(j-t)(u_i) = j! b_{j-t}, so the value is
    j! (a_j - sum_t v_{i,t} b_{j-t}).  On ints: A = PA / cA, B = PB / cB,
    v_{i,t} = w_t / D, a_j = eA_j / qA and b_j = eB_j / qB (``_shift``), so
    the value is j! (eA_j qB D - qA sum_t w_t eB_{j-t}) / (qA qB D).
    """
    fact = [math.factorial(j) for j in range(max(data.n_vec))]
    out = []
    for nums, den, _ in _residuals(data, sol):
        out += _box(data.field, [f * x for f, x in zip(fact, nums)], den)
    return out


def _residuals(data: HermiteData, sol: RationalSolution):
    """Per node, off two ``_shift`` passes, ``whip_residual``'s numerators without j!
    (residues over GF(p)), their denominator qA qB D, and B(u_i)'s numerator eB_0."""
    field, p = data.field, data.field.p
    (PA, cA), (PB, cB) = _ints(field, sol.A.coeffs), _ints(field, sol.B.coeffs)
    for a, b, w, D in data._node_ints():
        (eA, qA), (eB, qB) = _shift(PA, cA, a, b, len(w), p), _shift(PB, cB, a, b, len(w), p)
        nums = [eA[j] * qB * D - qA * sum(w[t] * eB[j - t] for t in range(j + 1))
                for j in range(len(w))]
        yield (nums if p is None else [x % p for x in nums]), qA * qB * D, eB[0]


def witness_nodes(data: HermiteData, B: list) -> tuple[int, ...]:
    """0-based node indices where the polynomial of the int coefficients B
    (residues up to sign over GF(p)) vanishes: a root does not depend on
    scale.  One Horner pass of ``_shift`` per node."""
    p = data.field.p
    nodes = data._node_ints()
    return tuple(i for i, (a, b, _, _) in enumerate(nodes) if not _shift(B, 1, a, b, 1, p)[0][0])


def rhip_check(data: HermiteData, sol: RationalSolution) -> bool:
    """True iff the residual vanishes and B(u_i) != 0 at every node, both read off
    one pass of ``_residuals`` and tested for zero on ints, nothing boxed."""
    return all(bu and not any(nums) for nums, _, bu in _residuals(data, sol))
