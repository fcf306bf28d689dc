"""Independent oracles used to fix expected values before trusting the library.

Everything here is deliberately written with different algorithms from the
package under test: determinantal divisors instead of elementary reduction,
cofactor expansion instead of Hessenberg reduction, literal subspace enumeration
instead of product formulas, explicit neighbour walks instead of operator
algebra.  Slow is fine; these run on tiny inputs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd


# --- Smith normal form ------------------------------------------------------


def snf_minor_gcd(rows) -> list[int]:
    """Invariant factors via determinantal divisors: d_1...d_k = gcd(k x k minors).

    Exponential in the matrix size; use only for matrices with <= ~7 rows/cols.
    """
    a = [[int(x) for x in r] for r in rows]
    m, n = len(a), len(a[0]) if a else 0
    size = min(m, n)
    prev = 1
    out = []
    for k in range(1, size + 1):
        g = 0
        for rset in itertools.combinations(range(m), k):
            for cset in itertools.combinations(range(n), k):
                g = gcd(g, _int_det([[a[i][j] for j in cset] for i in rset]))
        if g == 0:
            out.extend([0] * (size - len(out)))
            break
        out.append(g // prev)
        prev = g
    return out


def _int_det(a) -> int:
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if a[0][j]:
            minor = [[a[i][c] for c in range(n) if c != j] for i in range(1, n)]
            total += sign * a[0][j] * _int_det(minor)
        sign = -sign
    return total


def snf_reduction(rows) -> list[int]:
    """Plain textbook row/column reduction to diagonal form, then a gcd sweep.

    Independent of the package implementation: no pivot-size heuristics, no
    transform tracking, recursion on the trailing block.
    """
    a = [[int(x) for x in r] for r in rows]
    m, n = len(a), len(a[0]) if a else 0
    size = min(m, n)
    diag = []

    def reduce_block(a):
        if not a or not a[0]:
            return
        # move some nonzero entry to (0, 0)
        pos = next(((i, j) for i in range(len(a)) for j in range(len(a[0])) if a[i][j]), None)
        if pos is None:
            diag.extend([0] * min(len(a), len(a[0])))
            return
        i0, j0 = pos
        a[0], a[i0] = a[i0], a[0]
        for r in a:
            r[0], r[j0] = r[j0], r[0]
        while True:
            dirty = False
            for i in range(1, len(a)):
                while a[i][0]:
                    q = a[i][0] // a[0][0]
                    a[i] = [x - q * y for x, y in zip(a[i], a[0])]
                    if a[i][0]:
                        a[0], a[i] = a[i], a[0]
                        dirty = True
            for j in range(1, len(a[0])):
                while a[0][j]:
                    q = a[0][j] // a[0][0]
                    for r in a:
                        r[j] -= q * r[0]
                    if a[0][j]:
                        for r in a:
                            r[0], r[j] = r[j], r[0]
                        dirty = True
            if not dirty:
                break
        diag.append(abs(a[0][0]))
        reduce_block([r[1:] for r in a[1:]])

    reduce_block(a)
    diag = diag[:size] + [0] * (size - len(diag))
    # gcd/lcm sweep to enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if x == 0 and y != 0:
                diag[i], diag[i + 1] = y, 0
                changed = True
            elif x != 0 and y % x != 0:
                g = gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
    return diag


# --- characteristic polynomial ----------------------------------------------


def charpoly_cofactor(rows) -> list[Fraction]:
    """det(xI - M) by cofactor expansion over Q[x]; ascending coefficients."""
    n = len(rows)
    mat = [
        [
            _polysub([Fraction(0), Fraction(1)] if i == j else [Fraction(0)], [Fraction(rows[i][j])])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return _polydet(mat)


def _polysub(a, b):
    k = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(k)]


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polydet(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = [Fraction(0)]
    for j in range(n):
        minor = [[mat[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = _polymul(mat[0][j], _polydet(minor))
        if j % 2:
            term = [-t for t in term]
        total = [
            (total[i] if i < len(total) else 0) + (term[i] if i < len(term) else 0)
            for i in range(max(len(total), len(term)))
        ]
    return total


# --- subspace counting over small prime fields -------------------------------


def count_subspaces_brute(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n by literal enumeration.

    Enumerates all k-tuples of vectors, keeps the independent ones, and
    de-duplicates spans.  Only feasible for p^n of a few thousand.
    """
    vectors = list(itertools.product(range(p), repeat=n))
    if k == 0:
        return 1
    seen = set()
    for combo in itertools.combinations(range(1, len(vectors)), k):
        basis = [vectors[i] for i in combo]
        span = _span(basis, p)
        if len(span) == p**k:
            seen.add(frozenset(span))
    return len(seen)


def _span(basis, p):
    vecs = {tuple([0] * len(basis[0]))}
    for b in basis:
        new = set()
        for c in range(p):
            for v in vecs:
                new.add(tuple((x + c * y) % p for x, y in zip(v, b)))
        vecs = new
    return vecs


def count_subspaces_echelon(n: int, k: int, q: int) -> int:
    """Number of k-dim subspaces of an n-dim space over a q-element field,
    counted by summing q^(free cells) over reduced-echelon pivot patterns."""
    total = 0
    for pivots in itertools.combinations(range(n), k):
        free = 0
        for r, pc in enumerate(pivots):
            # row r has free cells right of its pivot, excluding later pivot columns
            free += (n - pc - 1) - (k - r - 1)
        total += q**free
    return total


# --- biregular tree neighbourhoods ------------------------------------------


def tree_distance2_values(ball, v: int, values_by_shell) -> Fraction:
    """Sum of a shell-radial function over vertices at tree distance exactly 2
    from v, found by explicit neighbour-of-neighbour walking."""
    total = Fraction(0)
    for w in ball.neighbors(v):
        for u in ball.neighbors(w):
            if u != v:
                total += values_by_shell[ball.dist[u]]
    return total
