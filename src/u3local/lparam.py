"""Moduli of tame parameter pairs (phi, N) with Ad(phi) N = l N.

Every entry point takes an invertible diagonal phi as the list of its diagonal
entries; the solutions N are then spanned by the matrix units E_ij with
phi_i = l * phi_j, given as the index pairs (i, j).  Nilpotent orbits
are partitions via Jordan type, and membership of the semisimple point
(phi, 0) in the closure of a nilpotent stratum is certified constructively by
a cocharacter mu with Ad(diag(t^mu)) N = t N, checked symbolically in t.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from .linalg import QQ, Matrix


class NoWitnessError(ValueError):
    """The integer weight system for a degeneration witness is inconsistent."""


def solution_space(diag: list, l) -> list[tuple[int, int]]:
    """Basis of {N : s N s^(-1) = l N} for s = diag(diag), invertible.

    Entrywise the equation reads (s_i - l s_j) N_ij = 0, so the basis is the
    matrix units E_ij with s_i = l s_j, returned as the pairs (i, j) in
    row-major order; one dict from each value l s_j to its columns j finds them.
    """
    _require_invertible(diag)
    columns: dict = {}
    for j, x in enumerate(diag):
        columns.setdefault(l * x, []).append(j)
    return [(i, j) for i, x in enumerate(diag) for j in columns.get(x, ())]


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
    return _partition_of_ranks(ranks)


def _partition_of_ranks(ranks) -> tuple[int, ...]:
    """The Jordan type of a nilpotent N from ranks[k] = rank N^k, k = 0, 1, ...
    up to a zero power; zeros past it change nothing."""
    # rank(N^(k-1)) - rank(N^k) blocks have size >= k, so the second difference
    # counts the blocks of size exactly k
    ranks = [*ranks, 0]
    partition = []
    for k in range(len(ranks) - 2, 0, -1):
        partition.extend([k] * (ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]))
    return tuple(partition)


def dominated_partitions(lam: tuple[int, ...]):
    """The partitions of |lam| that lam dominates, in reverse lexicographic order.

    Each part is at most the one before and at most lam's prefix sum less the
    parts before; ones always complete such a prefix, so lowering the last part
    above 1 and refilling greedily never dead-ends.
    """
    n = sum(lam)
    caps = list(itertools.accumulate(lam)) + [n] * (n - len(lam))
    mu, total = [], 0
    while True:
        while total < n:
            mu.append(min(mu[-1] if mu else n, caps[len(mu)] - total))
            total += mu[-1]
        yield tuple(mu)
        while mu and mu[-1] == 1:
            total -= mu.pop()
        if not mu:
            return
        mu[-1] -= 1
        total -= 1


def _jordan_types(diag: list, l) -> dict[tuple[int, ...], Matrix]:
    """The first 0/1 combination of the solution-space basis of each Jordan type
    in ``itertools.product`` order over ``solution_space``, as an int Matrix;
    the types come in the order they first appear.

    N maps the basis vectors whose entry is y to those whose entry is l y, by
    the block B_y of N between the two classes, so N^k maps class y by the
    product B_(l^(k-1) y) ... B_y alone and rank N^k is the sum of the ranks
    of these products.  The walk chooses each block's 0/1 entries in turn along
    the chains y, l y, l^2 y, ..., and carries the nonzero products of the
    chain that end at the block last chosen; a zero product stays zero however
    it is extended.  At each leaf the ranks fix the type, and the index of the
    combination in product order is the sum of its chosen pairs' bits.
    """
    n = len(diag)
    pairs = solution_space(diag, l)
    if pairs and l * l == 1:
        # l = 1 puts an E_ii in the basis, l = -1 both E_ij and E_ji
        raise ValueError("matrix is not nilpotent")
    bit = {pair: 1 << k for k, pair in enumerate(reversed(pairs))}
    classes: dict = {}
    for i, x in enumerate(diag):
        classes.setdefault(x, []).append(i)
    memo: dict = {}  # rank of each block and product met in this call

    def rank(m):
        r = memo.get(m)
        if r is None:
            if len(m) == 1 or len(m[0]) == 1:
                r = int(any(map(any, m)))
            else:
                r = Matrix._wrap(m, QQ).rank()
            memo[m] = r
        return r

    # per block: whether it starts a chain, and its (choice, bits, rank) list
    blocks, longest = [], 0
    reached = {l * y for y in classes}
    for y in classes:
        if y in reached:
            continue
        length = 0
        while l * y in classes:
            choices = _block_choices(classes[l * y], classes[y], bit)
            blocks.append((not length, [(C, bits, rank(C)) for C, bits in choices]))
            y, length = l * y, length + 1
        longest = max(longest, length)

    # ranks[k] = rank N^k over the blocks chosen so far; N^(longest + 1) = 0
    ranks = [n] + [0] * (longest + 1)
    first: dict = {}  # ranks at a leaf -> smallest index

    def walk(b, chain, index):
        # chain[k - 1]: the product of the last k blocks chosen and its rank,
        # for every k below the first zero product
        starts, choices = blocks[b]
        if starts:
            chain = ()
        for C, bits, r in choices:
            grown = []
            if r:
                grown.append((C, r))
                for P, _ in chain:
                    P = _block_product(C, P)
                    r = rank(P)
                    if not r:
                        break  # C P' = (C P) B for the next longer product P'
                    grown.append((P, r))
            for k, (_, r) in enumerate(grown, 1):
                ranks[k] += r
            if b + 1 < len(blocks):
                walk(b + 1, grown, index | bits)
            else:
                key, leaf = tuple(ranks), index | bits
                first[key] = min(first.get(key, leaf), leaf)
            for k, (_, r) in enumerate(grown, 1):
                ranks[k] -= r

    if blocks:
        walk(0, (), 0)
    else:
        first[tuple(ranks)] = 0
    reps = {}
    for key, index in sorted(first.items(), key=lambda item: item[1]):
        rows = [[0] * n for _ in range(n)]
        for (i, j), w in bit.items():
            if index & w:
                rows[i][j] = 1
        reps[_partition_of_ranks(key)] = Matrix._wrap(rows, QQ, n)
    return reps


def _block_choices(rows: list, cols: list, bit: dict) -> list:
    """Every 0/1 block from the columns ``cols`` to the rows ``rows`` as a tuple
    of row tuples, with the product-order bits of its chosen pairs."""
    cells = [(i, j) for i in rows for j in cols]
    m = len(cols)
    return [
        (
            tuple(chosen[a : a + m] for a in range(0, len(cells), m)),
            sum(bit[cell] for cell, c in zip(cells, chosen) if c),
        )
        for chosen in itertools.product((0, 1), repeat=len(cells))
    ]


def _block_product(C: tuple, P: tuple) -> tuple:
    """C @ P on tuples of row tuples."""
    cols = list(zip(*P))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in C)


def _dominance_closure(realized) -> set[tuple[int, ...]]:
    """The partitions dominated by a realized one (dominance is reflexive).

    A type above another is also reverse-lexicographically above it, so in
    that order a type already closed over adds nothing and is skipped."""
    closure: set = set()
    for lam in sorted(realized, reverse=True):
        if lam not in closure:
            closure.update(dominated_partitions(lam))
    return closure


def components_through(diag: list, l) -> set[tuple[int, ...]]:
    """Jordan types of strata whose closures contain the point (diag(diag), 0).

    The types of all 0/1 combinations of the matrix units spanning the solution
    space, closed downward under dominance in the whole nilpotent cone: a type
    no N in the solution space has is listed too (2|2 at diag(4, 2, 1, 1)).
    """
    return _dominance_closure(_jordan_types(diag, l))


def stratum_witnesses(diag: list, l) -> dict:
    """For each reported Jordan type, a 0/1-combination representative in the
    solution space together with its verified degeneration witness.

    The keys are the types of ``components_through``, in decreasing order.  A
    type that only the dominance closure reaches, such as 2|2 for
    diag(4, 2, 1, 1) at l = 2, is mapped to None.
    """
    n = len(diag)
    reps = _jordan_types(diag, l)
    out = {}
    for part in sorted(_dominance_closure(reps), reverse=True):
        N = reps.get(part)
        if N is None:
            out[part] = None
            continue
        witness = degeneration_witness(diag, N, l)
        out[part] = {
            "support": [(i, j) for i in range(n) for j in range(n) if N.rows[i][j] != 0],
            "witness": witness,
            "verified": witness.scaling_verified
            and witness.path_on_stratum
            and witness.specializes_to_zero,
        }
    return out


def is_degenerate_satake(diag: list, l) -> bool:
    """True iff two distinct diagonal entries have ratio exactly l: a basis pair
    (i, j) of the solution space with i != j."""
    return any(i != j for i, j in solution_space(diag, l))


def _require_invertible(diag: list):
    if 0 in diag:
        raise ValueError("s must be invertible diagonal")


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


def degeneration_witness(diag: list, N: Matrix, l) -> DegenerationWitness:
    """Integer weights mu_i - mu_j = 1 on the support of N, verified symbolically.

    The verification conjugates N by diag(t^mu) with t a formal variable: every
    support entry must scale by exactly t^1, so the path (s, tN) stays on the
    stratum of N for t != 0 and lands on (s, 0) at t = 0, s = diag(diag).
    """
    _require_invertible(diag)
    n = N.nrows
    support = [(i, j) for i in range(n) for j in range(n) if N.rows[i][j] != 0]
    mu = _solve_weights(support, n)
    if mu is None:
        raise NoWitnessError("support carries a cycle with nonzero weight sum")
    # symbolic check: exponent of t on entry (i, j) is mu_i - mu_j; need 1 on support
    scaling = all(mu[i] - mu[j] == 1 for i, j in support)
    # the path (s, tN): Ad(s)(tN) = t * Ad(s)(N) = t * l * N = l * (tN), any t
    on_stratum = all(
        diag[i] * N.rows[i][j] == l * N.rows[i][j] * diag[j]
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
    contrast = solution_space([l, 1], l)
    return {
        "solution_dimension": len(sols),
        "not_intersection_point": len(sols) == 0,
        "gl2_contrast_dimension": len(contrast),
    }
