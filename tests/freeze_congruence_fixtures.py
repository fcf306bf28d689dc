"""One-shot script that computes the congruence-module fixtures with oracle code.

Run manually (python3 tests/freeze_congruence_fixtures.py); the printed values
are frozen into test_cosets.py / test_acceptance.py.  Uses only the oracle SNF
and self-contained Fraction elimination, none of the package lattice helpers.
"""

import random
from fractions import Fraction

from oracles import snf_reduction


def k39_edges():
    return [(v, w) for v in range(3) for w in range(9)]


def m13_edges():
    return [(0, w) for w in range(3) for _ in range(3)]


def k39_twist_edges():
    edges = k39_edges()
    edges.remove((0, 0))
    edges.remove((1, 1))
    return edges + [(0, 1), (1, 0)]


def random_l2_edges(n0, seed):
    """Edges of random_biregular_graph(2, n0, random.Random(seed)): the same
    configuration model with the same draws, retried until connected."""
    n1 = 3 * n0
    rng = random.Random(seed)
    stubs0 = [v for v in range(n0) for _ in range(9)]
    while True:
        stubs1 = [w for w in range(n1) for _ in range(3)]
        rng.shuffle(stubs1)
        edges = list(zip(stubs0, stubs1))
        if _connected(edges, n0, n1):
            return edges


def _connected(edges, n0, n1):
    adj = [[] for _ in range(n0 + n1)]
    for v, w in edges:
        adj[v].append(n0 + w)
        adj[n0 + w].append(v)
    seen, stack = {0}, [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n0 + n1


def incidence(edges, n0, n1):
    rows = []
    for v, w in edges:
        r = [0] * (n0 + n1)
        r[v] = 1
        r[n0 + w] = 1
        rows.append(r)
    return rows


def rref(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def solve_int(basis_cols, target):
    """Integer coordinates of target in the given column lattice basis, or None."""
    n = len(target)
    k = len(basis_cols)
    aug = [[Fraction(basis_cols[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    red, pivots = rref(aug)
    if k in pivots:
        return None
    x = [Fraction(0)] * k
    for r, pc in enumerate(pivots):
        x[pc] = red[r][k]
    if any(c.denominator != 1 for c in x):
        return "non-integral"
    return [c.numerator for c in x]


def hermite_like_basis(cols, amb):
    """Basis of the integer column span, by integer row reduction of the transpose."""
    rows = [list(c) for c in cols]
    # integer row echelon via gcd steps (column lattice = row space of transpose)
    mat = [r[:] for r in rows]
    pivot_row = 0
    for col in range(amb):
        rows_with = [i for i in range(pivot_row, len(mat)) if mat[i][col] != 0]
        if not rows_with:
            continue
        while len(rows_with) > 1:
            rows_with.sort(key=lambda i: abs(mat[i][col]))
            i0 = rows_with[0]
            for i in rows_with[1:]:
                q = mat[i][col] // mat[i0][col]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[i0])]
            rows_with = [i for i in rows_with if mat[i][col] != 0]
        i0 = rows_with[0]
        mat[pivot_row], mat[i0] = mat[i0], mat[pivot_row]
        pivot_row += 1
    return [r for r in mat[:pivot_row]]


def quotient_invariants(big_cols, small_cols):
    coords = []
    for col in small_cols:
        x = solve_int(big_cols, col)
        assert x not in (None, "non-integral"), "small lattice not inside big"
        coords.append(x)
    rows = [[coords[j][i] for j in range(len(coords))] for i in range(len(big_cols))]
    return [d for d in snf_reduction(rows) if d != 1]


def saturation_cols(cols, amb):
    """Saturation = (Q-span) intersect Z^amb: solve for primitive basis via rref."""
    rows = [[Fraction(c[i]) for c in cols] for i in range(amb)]
    red, pivots = rref([list(r) for r in zip(*rows)])  # rref of transpose: row space basis
    basis_rows = [r for r in red[: len(pivots)]]
    out = []
    for r in basis_rows:
        den = 1
        for x in r:
            den = den * x.denominator // __import__("math").gcd(den, x.denominator)
        ints = [int(x * den) for x in r]
        g = 0
        for x in ints:
            g = __import__("math").gcd(g, x)
        out.append([x // (g or 1) for x in ints])
    return out


def report(name, edges, n0, n1):
    inc = incidence(edges, n0, n1)
    m, nv = len(inc), n0 + n1
    factors = snf_reduction(inc)
    torsion = [d for d in factors if d not in (0, 1)]
    rank = sum(1 for d in factors if d != 0)

    # gamma1 = integer span of the rows of inc (image of lowering)
    gamma1 = hermite_like_basis(inc, nv)
    # gamma3 = integer span of columns of inc^T inc
    comp = [
        [sum(inc[e][i] * inc[e][j] for e in range(m)) for i in range(nv)] for j in range(nv)
    ]
    gamma3 = hermite_like_basis(comp, nv)
    # saturation of the old lattice inside the edge lattice, then lowered
    inc_cols = [[inc[e][j] for e in range(m)] for j in range(nv)]
    sat = saturation_cols(inc_cols, m)
    lowered_sat = [
        [sum(inc[e][i] * col[e] for e in range(m)) for i in range(nv)] for col in sat
    ]
    gamma2 = hermite_like_basis(lowered_sat, nv)

    g1_cols = [list(r) for r in gamma1]
    g2_cols = [list(r) for r in gamma2]
    g3_cols = [list(r) for r in gamma3]
    q12 = quotient_invariants(g1_cols, g2_cols)
    q23 = quotient_invariants(g2_cols, g3_cols)
    print(f"{name}:")
    print(f"  snf head = {factors[:6]} ... rank {rank}, torsion {torsion}")
    print(f"  coker_free_rank = {m - rank}")
    print(f"  gamma ranks = {nv}, {len(gamma1)}, {len(gamma2)}, {len(gamma3)}")
    print(f"  q12 = {q12}")
    print(f"  q23 = {q23}")


if __name__ == "__main__":
    report("K39", k39_edges(), 3, 9)
    report("M13", m13_edges(), 1, 3)
    report("K39_twist", k39_twist_edges(), 3, 9)
    # the two graphs on which `graph congruence` used to stall
    report("Random(1) n0=3", random_l2_edges(3, 1), 3, 9)
    report("Random(2) n0=4", random_l2_edges(4, 2), 4, 12)
