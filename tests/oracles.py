"""Independent oracles used to fix expected values before trusting the library.

Everything here is deliberately written with different algorithms from the
package under test: determinantal divisors instead of elementary reduction,
cofactor expansion instead of Hessenberg reduction or Bareiss elimination,
adjugates instead of Gauss-Jordan inverses, determinant interpolation
instead of the reversed characteristic polynomial, literal subspace enumeration
instead of product formulas, explicit neighbour walks instead of operator
algebra.  Slow is fine; these run on tiny inputs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from u3local.cosets import FormTriple, GammaChain
from u3local.linalg import lattice_basis, lattice_saturation


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


# --- rational linear algebra on Fractions only -------------------------------


def fraction_rank(rows) -> int:
    """Rank by forward elimination on Fractions: pivots are not normalized and
    rows above a pivot are left alone (no reduced echelon form)."""
    a = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def fraction_kernel(rows) -> list[list[Fraction]]:
    """The normalized kernel basis: for each free column f of the echelon
    form, the kernel vector that is 1 at f and 0 at the other free columns.

    Forward elimination on Fractions (pivots not normalized, rows above a
    pivot left alone), then back substitution from the last pivot row up."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a[0])
    pivots = []
    for c in range(n):
        k = len(pivots)
        piv = next((i for i in range(k, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[k], a[piv] = a[piv], a[k]
        for i in range(k + 1, len(a)):
            f = a[i][c] / a[k][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for k in reversed(range(len(pivots))):
            pc = pivots[k]
            v[pc] = -sum(a[k][j] * v[j] for j in range(pc + 1, n)) / a[k][pc]
        basis.append(v)
    return basis


def gf_rank(rows, p: int) -> int:
    """Rank over F_p by forward elimination on residues: each row below the
    pivot row is replaced by pivot * row - entry * pivot_row, so no inverse
    mod p is ever taken."""
    a = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c]
            if f:
                a[i] = [(top[c] * x - f * y) % p for x, y in zip(a[i], top)]
        rank += 1
    return rank


def fraction_det(rows) -> Fraction:
    """Determinant by Laplace expansion along the first row, in Fractions."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        if rows[0][j]:
            minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
            total += (-1) ** j * Fraction(rows[0][j]) * fraction_det(minor)
    return total


def fraction_inverse(rows):
    """Inverse as the adjugate over the determinant (Cramer); None if singular."""
    n = len(rows)
    d = fraction_det(rows)
    if d == 0:
        return None
    cof = [
        [
            (-1) ** (i + j)
            * fraction_det([[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return [[cof[j][i] / d for j in range(n)] for i in range(n)]


def fraction_matvec(rows, vec) -> list[Fraction]:
    return [sum((Fraction(x) * Fraction(y) for x, y in zip(r, vec)), Fraction(0)) for r in rows]


def lattice_coordinates_fraction(basis_cols, vec):
    """Coordinates of vec against linearly independent integer columns: the
    unique rational solution of B x = vec by Fraction forward elimination and
    back substitution, returned as ints when it is integral.  None when vec is
    outside the rational span or the solution is not integral."""
    k, n = len(basis_cols), len(vec)
    aug = [[Fraction(b[i]) for b in basis_cols] + [Fraction(vec[i])] for i in range(n)]
    for c in range(k):  # independence puts the pivot of column c in row c
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            raise ValueError("basis columns are linearly dependent")
        aug[c], aug[piv] = aug[piv], aug[c]
        for i in range(c + 1, n):
            f = aug[i][c] / aug[c][c]
            aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    if any(aug[i][k] != 0 for i in range(k, n)):
        return None
    x = [Fraction(0)] * k
    for c in reversed(range(k)):
        row = aug[c]
        x[c] = (row[k] - sum(row[j] * x[j] for j in range(c + 1, k))) / row[c]
    if any(c.denominator != 1 for c in x):
        return None
    return [int(c) for c in x]


def fredholm_interpolation(rows) -> list[Fraction]:
    """det(1 - tU) by Lagrange interpolation of the determinants at t = 0..n;
    ascending coefficients without trailing zeros."""
    n = len(rows)
    points = []
    for t in range(n + 1):
        shifted = [
            [int(i == j) - t * Fraction(x) for j, x in enumerate(r)] for i, r in enumerate(rows)
        ]
        points.append((t, fraction_det(shifted)))
    coeffs = [Fraction(0)] * (n + 1)
    for i, (xi, yi) in enumerate(points):
        basis, den = [Fraction(1)], Fraction(1)
        for xj, _ in points:
            if xj != xi:
                basis = _polymul(basis, [Fraction(-xj), Fraction(1)])
                den *= xi - xj
        for k, c in enumerate(basis):
            coeffs[k] += c * yi / den
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


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


def explicit_ball(l: int, radius: int) -> dict:
    """The radius-R ball of the (l^3+1, l+1)-biregular tree by a plain queue BFS
    from a hyperspecial root, numbering vertices as they are discovered.

    Returns per-vertex lists "dist", "kind", "parent" (-1 at the root) and
    "children", and the per-distance "shell_counts"."""
    dist, parent, children = [0], [-1], [[]]
    queue = [0]
    for v in queue:  # the list grows while it is walked: a FIFO queue
        if dist[v] == radius:
            continue
        degree = l**3 + 1 if dist[v] % 2 == 0 else l + 1
        for _ in range(degree - (parent[v] >= 0)):
            w = len(dist)
            dist.append(dist[v] + 1)
            parent.append(v)
            children.append([])
            children[v].append(w)
            queue.append(w)
    return {
        "dist": dist,
        "kind": ["hyperspecial" if d % 2 == 0 else "special" for d in dist],
        "parent": parent,
        "children": children,
        "shell_counts": [dist.count(d) for d in range(radius + 1)],
    }


# --- labelings and abelian forms ----------------------------------------------


def abelian_forms(g, lab, chi_gen_image: Fraction):
    """Pullback of a character through the labeling, with its exact walk eigenvalue.

    The character is given by its value at the generator of C; over the
    rationals that value must be a root of unity, hence +-1.  The returned
    report checks T0(f0) = l(l^3+1) * chi(gshift) * f0 on the nose, with T0
    applied by walking each ordered pair of distinct edges at every V1 vertex.
    """
    lab.validate(g)
    zeta = Fraction(chi_gen_image)
    if zeta**lab.order != 1:
        raise ValueError(f"{zeta} is not an order-{lab.order} character value")
    f0 = [zeta ** lab.v0_labels[v] for v in range(g.n0)]
    f1 = [zeta ** lab.v1_labels[w] for w in range(g.n1)]
    walked = [Fraction(0)] * g.n0
    for w in range(g.n1):
        ends = [v for v, x in g.edges if x == w]
        for a, b in itertools.permutations(ends, 2):
            walked[a] += f0[b]
    expected = Fraction(g.l * (g.l**3 + 1)) * zeta**lab.gshift
    ok = walked == [expected * x for x in f0]
    return FormTriple(f0, f1), {"eigenvalue": expected, "ok": ok}


# --- the old and new edge spaces ---------------------------------------------


def old_new_orthogonal_pairwise(old_basis, new_basis) -> bool:
    """Whether every old vector pairs to zero with every new vector, one edge
    sum per (old, new) pair."""
    return all(
        sum(x * y for x, y in zip(o, n) if x) == 0
        for o in old_basis
        for n in new_basis
    )


def gamma_chain_from_composite(g):
    """The gamma chain built generator by generator from the two ends of each
    edge: gamma3 from the columns of the composite inc^T inc, gamma2 from the
    lowered saturation of the raw incidence columns.  Each lattice is brought
    to the package's Hermite normal form, which is unique, so the result can
    be compared list for list."""
    n0, nv = g.n0, g.n0 + g.n1
    ends = [(v, n0 + w) for v, w in g.edges]
    inc = g.incidence_rows()
    lowered_sat = []
    for col in lattice_saturation([list(c) for c in zip(*inc)], g.nedges):
        low = [0] * nv
        for (a, b), x in zip(ends, col):
            low[a] += x
            low[b] += x
        lowered_sat.append(low)
    composite = [[0] * nv for _ in range(nv)]  # symmetric, so rows are columns
    for a, b in ends:
        composite[a][a] += 1
        composite[b][b] += 1
        composite[a][b] += 1
        composite[b][a] += 1
    return GammaChain(
        [[int(i == j) for i in range(nv)] for j in range(nv)],
        lattice_basis(inc, nv),
        lattice_basis(lowered_sat, nv),
        lattice_basis(composite, nv),
    )


# --- the analytic rank test ---------------------------------------------------


def ihara_rank_per_block(degree: int, delta) -> bool:
    """The translated-monomial differences of degree <= degree+1 have full rank
    in every (j, k) block, one block per (j, k).

    Each difference (Z21 + delta)^i Z31^j Z32^k - Z21^i Z31^j Z32^k is expanded
    by multiplying out i factors of (Z21 + delta) as dict polynomials, and each
    block is ranked by Fraction forward elimination.
    """
    delta = Fraction(delta)
    for j in range(degree + 1):
        for k in range(degree + 1 - j):
            side = degree + 1 - j - k
            rows = []
            for i in range(1, side + 1):
                poly = {(0, j, k): Fraction(1)}
                for _ in range(i):
                    nxt = {}
                    for (a, b, c), x in poly.items():
                        nxt[(a + 1, b, c)] = nxt.get((a + 1, b, c), 0) + x
                        nxt[(a, b, c)] = nxt.get((a, b, c), 0) + delta * x
                    poly = nxt
                poly[(i, j, k)] -= 1
                row = [Fraction(0)] * side
                for (t, b, c), x in poly.items():
                    if x:
                        assert (b, c) == (j, k) and t < side
                        row[t] = x
                rows.append(row)
            if fraction_rank(rows) < side:
                return False
    return True


# --- auxiliary operators and the level maps ----------------------------------


def commutes_with_level_maps_dense(g, on_v0, on_v1, on_edges) -> bool:
    """Whether an operator triple commutes with the raising map and its transpose,
    checked as dense rational matrix products: with I the |E| x (|V0|+|V1|)
    incidence matrix written out entry by entry, test on_edges.I = I.(on_v0 + on_v1)
    and (on_v0 + on_v1).I^T = I^T.on_edges."""
    n0, n1 = g.n0, g.n1
    inc = [
        [Fraction(int(j == v or j == n0 + w)) for j in range(n0 + n1)] for v, w in g.edges
    ]
    both = [[Fraction(0)] * (n0 + n1) for _ in range(n0 + n1)]
    for i in range(n0):
        for j in range(n0):
            both[i][j] = Fraction(on_v0[i][j])
    for i in range(n1):
        for j in range(n1):
            both[n0 + i][n0 + j] = Fraction(on_v1[i][j])
    oe = [[Fraction(x) for x in row] for row in on_edges]
    inc_t = [list(col) for col in zip(*inc)]
    return _matmul(oe, inc) == _matmul(inc, both) and _matmul(both, inc_t) == _matmul(inc_t, oe)


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def automorphisms_brute(g, limit: int):
    """The first `limit` pairs (sigma, tau) of vertex permutations that keep
    every edge multiplicity, in lexicographic order of (sigma, tau), by trying
    every pair; multiplicities are counted edge by edge."""
    def mult(v, w):
        return sum(1 for e in g.edges if e == (v, w))

    table = {(v, w): mult(v, w) for v in range(g.n0) for w in range(g.n1)}
    found = []
    for sigma in itertools.permutations(range(g.n0)):
        for tau in itertools.permutations(range(g.n1)):
            if all(table[sigma[v], tau[w]] == m for (v, w), m in table.items()):
                found.append((list(sigma), list(tau)))
                if len(found) == limit:
                    return found
    return found


def automorphisms_two_stage(g, limit: int):
    """The reference search for the first `limit` pairs (sigma, tau) that keep
    every edge multiplicity, in lexicographic order of (sigma, tau): enumerate
    each whole sigma whose sorted rows match, and only then extend it to tau
    column by column.  Exponential in n0 on graphs with few automorphisms."""
    mult = [[0] * g.n1 for _ in range(g.n0)]
    for v, w in g.edges:
        mult[v][w] += 1
    rows = {v: sorted(mult[v]) for v in range(g.n0)}
    cols = {w: sorted(mult[v][w] for v in range(g.n0)) for w in range(g.n1)}
    found = []

    def extend_tau(sigma):
        tau = [None] * g.n1
        used = [False] * g.n1

        def rec(w):
            if len(found) >= limit:
                return
            if w == g.n1:
                found.append((list(sigma), list(tau)))
                return
            for cand in range(g.n1):
                if used[cand] or cols[w] != cols[cand]:
                    continue
                if all(mult[sigma[v]][cand] == mult[v][w] for v in range(g.n0)):
                    tau[w] = cand
                    used[cand] = True
                    rec(w + 1)
                    used[cand] = False
                    tau[w] = None

        rec(0)

    def rec_sigma(v, sigma, used):
        if len(found) >= limit:
            return
        if v == g.n0:
            extend_tau(sigma)
            return
        for cand in range(g.n0):
            if used[cand] or rows[v] != rows[cand]:
                continue
            sigma.append(cand)
            used[cand] = True
            rec_sigma(v + 1, sigma, used)
            used[cand] = False
            sigma.pop()

    rec_sigma(0, [], [False] * g.n0)
    return found
