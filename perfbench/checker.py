"""Independent checks of ratherm's CLI output.

Everything here works from the JSON documents alone, with plain ``Fraction``
arithmetic over Q and plain residues over GF(p).  It calls nothing in
ratherm, so a bug shared by ratherm's own residual checks cannot hide here.
Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

EXIT_OK = 0
EXIT_UNATTAINABLE = 3
_STATUS_EXIT = {"solvable": EXIT_OK, "unattainable": EXIT_UNATTAINABLE}


class Problem:
    """A parsed problem document: nodes u_i, Taylor data v_{i,j}, split k."""

    def __init__(self, doc: dict):
        field = doc["field"]
        self.p = None if field == "Q" else int(field["p"])
        self.k = int(doc["k"])
        self.u = [self.scalar(node["u"]) for node in doc["nodes"]]
        self.v = [[self.scalar(x) for x in node["values"]] for node in doc["nodes"]]
        self.n_vec = [len(vals) for vals in self.v]
        self.n = sum(self.n_vec)

    # Scalars: Fraction over Q, int in 0..p-1 over GF(p).
    def scalar(self, obj):
        if self.p is None:
            if not isinstance(obj, (str, int)) or isinstance(obj, bool):
                raise ValueError(f"bad rational {obj!r}")
            return Fraction(obj)
        if isinstance(obj, dict):
            if obj.get("p") != self.p:
                raise ValueError(f"residue {obj!r} is not mod {self.p}")
            obj = obj["residue"]
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise ValueError(f"bad residue {obj!r}")
        return obj % self.p

    def reduce(self, x):
        return x if self.p is None else x % self.p

    def divide(self, a, b):
        if self.p is None:
            return a / b
        return a * pow(b, -1, self.p) % self.p

    def poly(self, coeffs: list) -> list:
        """Ascending coefficients with trailing zeros stripped."""
        out = [self.scalar(c) for c in coeffs]
        while out and not out[-1]:
            out.pop()
        return out

    # Polynomials are ascending coefficient lists.
    def evaluate(self, poly: list, x):
        acc = 0
        for c in reversed(poly):
            acc = self.reduce(acc * x + c)
        return acc

    def taylor(self, poly: list, x, count: int) -> list:
        """First ``count`` Taylor coefficients at x, by repeated synthetic division."""
        out = []
        cur = list(poly)
        for _ in range(count):
            if not cur:
                out.append(0)
                continue
            quotient = []
            acc = 0
            for c in reversed(cur):
                acc = self.reduce(acc * x + c)
                quotient.append(acc)
            out.append(quotient.pop())
            cur = quotient[::-1]
        return out

    def times(self, a: list, b: list) -> list:
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.reduce(out[i + j] + x * y)
        while out and not out[-1]:
            out.pop()
        return out

    def linearized_ok(self, A: list, B: list) -> bool:
        """A - B*V vanishes to order n_i at every node u_i."""
        for ui, vi, ni in zip(self.u, self.v, self.n_vec):
            a = self.taylor(A, ui, ni)
            b = self.taylor(B, ui, ni)
            for j in range(ni):
                acc = a[j] - sum(b[t] * vi[j - t] for t in range(j + 1))
                if self.reduce(acc):
                    return False
        return True

    def fraction_matches(self, A: list, B: list) -> bool:
        """A/B has Taylor coefficients v_{i,j} at every node; needs B(u_i) != 0."""
        for ui, vi, ni in zip(self.u, self.v, self.n_vec):
            a = self.taylor(A, ui, ni)
            b = self.taylor(B, ui, ni)
            q = []
            for t in range(ni):
                acc = a[t] - sum(q[s] * b[t - s] for s in range(t))
                q.append(self.divide(self.reduce(acc), b[0]))
            if q != vi:
                return False
        return True

    def kernel_dim(self) -> int:
        """Kernel dimension of the n x (n+1) linearization matrix, by elimination.

        Column l < k is the monomial x^l of A; column k + l is x^l of B.  Row
        (i, j) is the order-j Taylor coefficient at u_i of A - B*V.
        """
        rows = []
        for ui, vi, ni in zip(self.u, self.v, self.n_vec):
            for j in range(ni):
                row = [self.reduce(math.comb(l, j) * ui ** (l - j)) if l >= j else 0
                       for l in range(self.k)]
                for l in range(self.n - self.k + 1):
                    acc = sum(
                        math.comb(l, t) * ui ** (l - t) * vi[j - t]
                        for t in range(min(j, l) + 1)
                    )
                    row.append(self.reduce(-acc))
                rows.append(row)
        rank = 0
        width = self.n + 1
        for col in range(width):
            pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            top = rows[rank]
            for r in range(rank + 1, len(rows)):
                if rows[r][col]:
                    f = self.divide(rows[r][col], top[col])
                    rows[r] = [self.reduce(x - f * y) for x, y in zip(rows[r], top)]
            rank += 1
        return width - rank


def _degree(poly: list):
    return len(poly) - 1 if poly else None


def _slack(prob: Problem, A: list, B: list) -> int:
    """s0 = min(k-1-deg A, n-k-deg B), with a zero polynomial leaving its side free."""
    sides = []
    if A:
        sides.append(prob.k - 1 - _degree(A))
    if B:
        sides.append(prob.n - prob.k - _degree(B))
    return min(sides)


def check_solve(prob: Problem, code, text: str) -> list[str]:
    """Check one ``solve`` output against the problem it answers."""
    try:
        return _check_solve(prob, code, json.loads(text))
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        return [f"malformed solve output: {type(exc).__name__}: {exc}"]


def _check_solve(prob: Problem, code, out: dict) -> list[str]:
    errs = []
    status = out["status"]
    if status not in _STATUS_EXIT:
        return [f"unknown status {status!r}"]
    if code != _STATUS_EXIT[status]:
        errs.append(f"exit code {code} with status {status}")
    if out["method_agreement"] is not True:
        errs.append("method_agreement is not true")
    minimal = out["minimal"]
    A0, B0 = prob.poly(minimal["A0"]), prob.poly(minimal["B0"])
    if not A0 and not B0:
        return errs + ["minimal pair is zero"]
    if not prob.linearized_ok(A0, B0):
        errs.append("minimal pair misses the linearized conditions")
    s0 = _slack(prob, A0, B0)
    if s0 < 0 or minimal["kernel_dim"] != s0 + 1:
        errs.append(f"kernel_dim {minimal['kernel_dim']} but degree slack {s0}")
    zeros = [i for i, ui in enumerate(prob.u) if not prob.evaluate(B0, ui)]
    if status == "solvable":
        A, B = prob.poly(out["A"]), prob.poly(out["B"])
        if not B:
            return errs + ["denominator B is zero"]
        if A and _degree(A) > prob.k - 1:
            errs.append(f"deg A = {_degree(A)} exceeds k-1 = {prob.k - 1}")
        if _degree(B) > prob.n - prob.k:
            errs.append(f"deg B = {_degree(B)} exceeds n-k = {prob.n - prob.k}")
        if any(not prob.evaluate(B, ui) for ui in prob.u):
            return errs + ["B vanishes at a node"]
        if not prob.fraction_matches(A, B):
            errs.append("A/B misses the Taylor data")
        if prob.times(A, B0) != prob.times(A0, B):
            errs.append("A/B is not the minimal pair's fraction")
    else:
        witnesses = out["witness_nodes"]
        if not zeros:
            errs.append("unattainable, yet B0 vanishes at no node")
        if sorted(witnesses) != zeros:
            errs.append(f"witness_nodes {witnesses} but B0 vanishes at {zeros}")
        if out["stratum_j"] != minimal["kernel_dim"]:
            errs.append(
                f"stratum_j {out['stratum_j']} != kernel_dim {minimal['kernel_dim']}"
            )
    return errs


def check_classify(prob: Problem, code, text: str) -> list[str]:
    """Check one ``classify`` output against the problem it answers."""
    try:
        return _check_classify(prob, code, json.loads(text))
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        return [f"malformed classify output: {type(exc).__name__}: {exc}"]


def _check_classify(prob: Problem, code, out: dict) -> list[str]:
    errs = []
    rank, eq = out["rank"], out["equations"]
    if out["rank_classifier_agrees"] is not True:
        errs.append("rank_classifier_agrees is not true")
    for key in ("defect", "unattainable", "witnesses", "diagonal_minors"):
        if rank[key] != eq[key]:
            errs.append(f"classifiers differ on {key}")
    want = EXIT_UNATTAINABLE if eq["unattainable"] else EXIT_OK
    if code != want:
        errs.append(f"exit code {code} with unattainable = {eq['unattainable']}")
    if eq["unattainable"] != bool(eq["witnesses"]):
        errs.append("unattainable flag and witness list disagree")
    if not all(0 <= i < len(prob.u) for i in eq["witnesses"]):
        errs.append(f"witnesses {eq['witnesses']} name no node")
    dim = prob.kernel_dim()
    if eq["defect"] != dim:
        errs.append(f"defect {eq['defect']} but the kernel has dimension {dim}")
    return errs


def check_request(request: dict, solve_text: str, classify_text: str) -> list[str]:
    """Check both verdicts against the sample request that made the instance."""
    try:
        solve, cls = json.loads(solve_text), json.loads(classify_text)
        errs = []
        forced, defect = request["force_unattainable"], request["defect"]
        want = "unattainable" if forced else "solvable"
        if solve["status"] != want:
            errs.append(f"solve says {solve['status']}, request made it {want}")
        if solve["minimal"]["kernel_dim"] != defect:
            errs.append(f"kernel_dim {solve['minimal']['kernel_dim']}, requested {defect}")
        if forced and solve.get("stratum_j") != defect:
            errs.append(f"stratum_j {solve.get('stratum_j')}, requested {defect}")
        if cls["equations"]["defect"] != defect:
            errs.append(f"classify defect {cls['equations']['defect']}, requested {defect}")
        if cls["equations"]["unattainable"] != forced:
            errs.append("classify verdict differs from the request")
        return errs
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def max_coeff_bits(text: str) -> int:
    """Largest numerator or denominator bit length among the emitted scalars."""
    best = 0
    stack = [json.loads(text)]
    while stack:
        obj = stack.pop()
        if isinstance(obj, dict):
            if "residue" in obj:
                best = max(best, abs(obj["residue"]).bit_length())
            else:
                stack.extend(obj.values())
        elif isinstance(obj, list):
            stack.extend(obj)
        elif isinstance(obj, str):
            try:
                x = Fraction(obj)
            except ValueError:
                continue
            best = max(best, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return best
