"""Moduli of tame parameter pairs (phi, N) with Ad(phi) N = l N.

For an invertible phi the solutions N form a linear space; for diagonal phi
it is spanned by the matrix units E_ij with phi_i = l * phi_j.  Nilpotent
orbits are partitions via Jordan type, and membership of the semisimple point
(phi, 0) in the closure of a nilpotent stratum is certified constructively by
a cocharacter mu with Ad(diag(t^mu)) N = t N, checked symbolically in t.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .linalg import QQ, Matrix


class NoWitnessError(ValueError):
    """The integer weight system for a degeneration witness is inconsistent."""


def solution_space(phi: Matrix, l) -> list[Matrix]:
    """Basis of {N : phi N phi^(-1) = l N} as matrices.

    Solved as a linear system in the n^2 entries; for diagonal phi the answer
    is spanned by the E_ij with phi_i = l phi_j.
    """
    if not phi.is_square():
        raise ValueError("phi must be square")
    if phi.rank() < phi.nrows:  # one rref; a Bareiss det long-divides huge entries
        raise ValueError("phi must be invertible")
    l = QQ.exact(Fraction(l))  # an int l keeps an int phi's system on ints
    n = phi.nrows
    # phi N - l N phi = 0, row by row in the entries of N
    rows = []
    for a in range(n):
        for b in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[k * n + b] += phi.rows[a][k]
                row[a * n + k] -= l * phi.rows[k][b]
            rows.append(row)
    basis = Matrix(rows).kernel_basis()
    return [Matrix([vec[i * n : (i + 1) * n] for i in range(n)]) for vec in basis]


def jordan_partition(N: Matrix) -> tuple[int, ...]:
    """Jordan type of a nilpotent matrix, read off the ranks of its powers.

    The ranks fall strictly until the first zero power, the nilpotency index,
    and no power past it is computed.  Once two consecutive ranks are equal
    they stay equal, so ranks that stop falling above zero mean N^n != 0.
    """
    ranks = [N.nrows]
    power = N
    while ranks[-1]:
        r = power.rank()
        if r == ranks[-1]:
            raise ValueError("matrix is not nilpotent")
        ranks.append(r)
        if r:
            power = power @ N
    # rank(N^(k-1)) - rank(N^k) blocks have size >= k, so the second difference
    # counts the blocks of size exactly k
    ranks.append(0)
    partition = []
    for k in range(len(ranks) - 2, 0, -1):
        partition.extend([k] * (ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]))
    return tuple(partition)


def partitions_of(n: int):
    """All partitions of n, weakly decreasing, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return

    def rec(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    yield from rec(n, n)


def dominates(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """Dominance order on partitions of the same integer: lam >= mu."""
    if sum(lam) != sum(mu):
        return False
    acc_l = acc_m = 0
    for k in range(max(len(lam), len(mu))):
        acc_l += lam[k] if k < len(lam) else 0
        acc_m += mu[k] if k < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def _jordan_types(s: Matrix, l) -> dict[tuple[int, ...], Matrix]:
    """The first 0/1 combination of the solution-space basis of each Jordan type."""
    n = s.nrows
    basis = solution_space(s, l)
    reps: dict[tuple[int, ...], Matrix] = {}
    for bits in itertools.product((0, 1), repeat=len(basis)):
        chosen = [mat.rows for b, mat in zip(bits, basis) if b]
        rows = [[sum(xs) for xs in zip([0] * n, *(m[i] for m in chosen))] for i in range(n)]
        N = Matrix._wrap(rows, QQ, n)
        reps.setdefault(jordan_partition(N), N)
    return reps


def _dominance_closure(realized, n: int) -> set[tuple[int, ...]]:
    """The partitions of n dominated by a realized one (dominance is reflexive)."""
    return {mu for mu in partitions_of(n) if any(dominates(lam, mu) for lam in realized)}


def components_through(s: Matrix, l) -> set[tuple[int, ...]]:
    """Jordan types of strata whose closures contain the point (s, 0).

    Enumerates the types of all 0/1 combinations of the solution-space basis,
    then closes downward under dominance.  Exact for diagonal s whose entry
    ratios are powers of l; heuristic otherwise (the basis need not consist of
    matrix units then).
    """
    _require_diagonal(s)
    return _dominance_closure(_jordan_types(s, l), s.nrows)


def stratum_witnesses(s: Matrix, l) -> dict:
    """For each reported Jordan type, a 0/1-combination representative in the
    solution space together with its verified degeneration witness.

    The keys are the types of ``components_through``, in decreasing order.  In
    the power-of-l diagonal regime every reported type is realized by a 0/1
    combination; a type reachable only through dominance closure (possible off
    that regime) is mapped to None.
    """
    _require_diagonal(s)
    n = s.nrows
    reps = _jordan_types(s, l)
    out = {}
    for part in sorted(_dominance_closure(reps, n), reverse=True):
        N = reps.get(part)
        if N is None:
            out[part] = None
            continue
        witness = degeneration_witness(s, N, l)
        out[part] = {
            "support": [(i, j) for i in range(n) for j in range(n) if N.rows[i][j] != 0],
            "witness": witness,
            "verified": witness.scaling_verified
            and witness.path_on_stratum
            and witness.specializes_to_zero,
        }
    return out


def is_degenerate_satake(s: Matrix, l) -> bool:
    """True iff some pair of diagonal entries has ratio exactly l, equivalently
    the solution space at (s, l) is nonzero."""
    _require_diagonal(s)
    l = Fraction(l)
    diag = [s.rows[i][i] for i in range(s.nrows)]
    return any(
        i != j and diag[i] == l * diag[j] for i in range(len(diag)) for j in range(len(diag))
    )


def _require_diagonal(s: Matrix):
    if not s.is_square():
        raise ValueError("s must be square")
    for i in range(s.nrows):
        if s.rows[i][i] == 0:
            raise ValueError("s must be invertible diagonal")
        for j in range(s.ncols):
            if i != j and s.rows[i][j] != 0:
                raise ValueError("s must be diagonal")


class DegenerationWitness:
    """Cocharacter weights mu with Ad(diag(t^mu)) N = t N, plus check results."""

    def __init__(
        self,
        mu: tuple[int, ...],
        scaling_verified: bool,
        path_on_stratum: bool,
        specializes_to_zero: bool,
    ):
        self.mu = mu
        self.scaling_verified = scaling_verified
        self.path_on_stratum = path_on_stratum
        self.specializes_to_zero = specializes_to_zero

    def as_dict(self) -> dict:
        return {
            "mu": self.mu,
            "scaling_verified": self.scaling_verified,
            "path_on_stratum": self.path_on_stratum,
            "specializes_to_zero": self.specializes_to_zero,
        }


def degeneration_witness(s: Matrix, N: Matrix, l) -> DegenerationWitness:
    """Integer weights mu_i - mu_j = 1 on the support of N, verified symbolically.

    The verification conjugates N by diag(t^mu) with t a formal variable: every
    support entry must scale by exactly t^1, so the path (s, tN) stays on the
    stratum of N for t != 0 and lands on (s, 0) at t = 0.
    """
    _require_diagonal(s)
    n = N.nrows
    support = [(i, j) for i in range(n) for j in range(n) if N.rows[i][j] != 0]
    mu = _solve_weights(support, n)
    if mu is None:
        raise NoWitnessError("support carries a cycle with nonzero weight sum")
    # symbolic check: exponent of t on entry (i, j) is mu_i - mu_j; need 1 on support
    scaling = all(mu[i] - mu[j] == 1 for i, j in support)
    # the path (s, tN): Ad(s)(tN) = t * Ad(s)(N) = t * l * N = l * (tN), any t
    on_stratum = all(
        s.rows[i][i] * N.rows[i][j] == Fraction(l) * N.rows[i][j] * s.rows[j][j]
        for i, j in support
    )
    return DegenerationWitness(tuple(mu), scaling, on_stratum, True)


def _solve_weights(support, n):
    """Integer weights with mu_i - mu_j = 1 on the support, shifted to minimum 0;
    None when the support carries a cycle with nonzero weight sum."""
    mu = [None] * n
    adj = {}
    for i, j in support:
        adj.setdefault(i, []).append((j, -1))
        adj.setdefault(j, []).append((i, +1))
    for start in range(n):
        if mu[start] is not None:
            continue
        mu[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w, delta in adj.get(v, []):
                want = mu[v] + delta
                if mu[w] is None:
                    mu[w] = want
                    stack.append(w)
                elif mu[w] != want:
                    return None
    return [x - min(mu) for x in mu] if n else []


def pgl2_check(l) -> dict:
    """For phi = identity acting on trace-zero 2x2 matrices, N = l N forces N = 0.

    The rank-one analogue with two compact classes: the semisimple point is not
    an intersection point, unlike diag(l, 1) for the full 2x2 matrix algebra.
    """
    l = Fraction(l)
    if l == 1:
        raise ValueError("l must differ from 1")
    # basis of trace-zero 2x2: H, E, F; identity conjugation fixes all of them,
    # so the equation N = l N has only the zero solution
    basis = [
        Matrix([[1, 0], [0, -1]]),
        Matrix([[0, 1], [0, 0]]),
        Matrix([[0, 0], [1, 0]]),
    ]
    sols = []
    for b in basis:
        if b == b.scale(l):
            sols.append(b)
    contrast = solution_space(Matrix([[l, 0], [0, 1]]), l)
    return {
        "solution_dimension": len(sols),
        "not_intersection_point": len(sols) == 0,
        "gl2_contrast_dimension": len(contrast),
    }
