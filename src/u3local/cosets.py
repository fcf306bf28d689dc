"""Finite coset-graph model of three nested level structures.

A CosetGraph is an (l^3+1, l+1)-biregular bipartite multigraph: V0 plays the
role of the one-vertex-class double cosets, V1 the other class, and the edge
set the finest level.  Functions on V0 + V1 map into edge functions by the
level raising map i, edge functions map back by the level lowering map i+,
and the composite is a 2x2 block ("level changing") matrix whose off-diagonal
entries are vertex adjacency operators.  Everything downstream of that --
duality, old/new decomposition, kernel eigenvalues, congruence lattices, the
mod-p abelian kernel, and the level-raising search -- lives here.
"""

from __future__ import annotations

import functools
import itertools
import math

from .linalg import (
    QQ,
    Matrix,
    PrimeField,
    int_matrix_det,
    int_matrix_rank,
    lattice_basis,
    lattice_contains,  # unused here: perfbench/tracer.py patches cosets.lattice_contains
    lattice_quotient_invariants,  # unused here: perfbench/tracer.py patches cosets.lattice_quotient_invariants
    lattice_saturation,  # unused here: perfbench/tracer.py patches cosets.lattice_saturation
    smith_normal_form,
)
from .scalars import is_prime, require_prime


class GraphFormatError(ValueError):
    """Malformed graph or labeling description."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class LabelingError(ValueError):
    """A determinant labeling violates its walk-shift invariant."""


class CosetGraph:
    """Biregular bipartite multigraph with V0-degrees l^3+1 and V1-degrees l+1.

    The incidence matrix inc (edges x V0 + V1) of a bipartite multigraph is
    totally unimodular: every square minor is 0 or +-1.  So a set of rows or
    columns is independent over Q exactly when it is over F_p, ranks and pivot
    columns agree over every field, and the rref over Q has entries in
    {0, +-1}: reduced mod p it is the rref over F_p.  The graph keeps one
    elimination of inc and one of inc^T, over Q, computed on first use; the
    mod-p questions read them by ``x % p``.  A graph is not changed after
    construction, so they never go stale; every caller gets the same lists,
    which it reads and does not change.
    """

    def __init__(self, l: int, n0: int, n1: int, edges: list[tuple[int, int]]):
        try:
            prime = is_prime(l)
        except ValueError as exc:  # past the bound where Miller-Rabin decides
            raise GraphFormatError(str(exc)) from exc
        if not prime:
            raise GraphFormatError(f"l={l} is not prime")
        if n0 < 0 or n1 < 0:
            raise GraphFormatError(f"vertex counts must be nonnegative, got v0 {n0} and v1 {n1}")
        self.l = l
        self.n0 = n0
        self.n1 = n1
        self.edges = [(int(v), int(w)) for v, w in edges]
        d0, d1 = l**3 + 1, l + 1
        # checked before the degree tables are allocated, so a huge declared
        # count is refused instead of allocated
        if not len(self.edges) == n0 * d0 == n1 * d1:
            raise GraphFormatError(
                f"edge count {len(self.edges)} does not match v0 {n0} x {d0} and v1 {n1} x {d1}"
            )
        deg0 = [0] * n0
        deg1 = [0] * n1
        for v, w in self.edges:
            if not (0 <= v < n0):
                raise GraphFormatError(f"edge endpoint {v} outside v0 range")
            if not (0 <= w < n1):
                raise GraphFormatError(f"edge endpoint {w} outside v1 range")
            deg0[v] += 1
            deg1[w] += 1
        bad0 = [v for v, d in enumerate(deg0) if d != d0]
        bad1 = [w for w, d in enumerate(deg1) if d != d1]
        if bad0 or bad1:
            raise GraphFormatError(
                f"degree violation: need v0 degree {d0} and v1 degree {d1}; "
                f"offending v0={bad0[:5]}, v1={bad1[:5]}"
            )
        self.components = self._component_labels()

    @property
    def nedges(self):
        return len(self.edges)

    def multiplicity(self, v, w):
        return sum(1 for a, b in self.edges if a == v and b == w)

    def multiplicity_table(self) -> list[list[int]]:
        """Edge counts between every V0 and V1 vertex, from one pass over the edges."""
        mult = [[0] * self.n1 for _ in range(self.n0)]
        for v, w in self.edges:
            mult[v][w] += 1
        return mult

    def _component_labels(self):
        parent = list(range(self.n0 + self.n1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for v, w in self.edges:
            a, b = find(v), find(self.n0 + w)
            if a != b:
                parent[a] = b
        roots = {}
        labels = []
        for x in range(self.n0 + self.n1):
            r = find(x)
            labels.append(roots.setdefault(r, len(roots)))
        return labels

    @property
    def n_components(self):
        return max(self.components) + 1 if self.components else 0

    @property
    def connected(self):
        return self.n_components <= 1

    def incidence_rows(self) -> list[list[int]]:
        """Rows indexed by edges over columns V0 + V1: the matrix of the raising map."""
        rows = []
        for v, w in self.edges:
            r = [0] * (self.n0 + self.n1)
            r[v] = 1
            r[self.n0 + w] = 1
            rows.append(r)
        return rows

    def composite_rows(self) -> list[list[int]]:
        """inc^T inc over V0 + V1, lowering after raising: the degrees on the
        diagonal and the edge multiplicities between V0 and V1."""
        nv, n0 = self.n0 + self.n1, self.n0
        rows = [[0] * nv for _ in range(nv)]
        for v, w in self.edges:
            w += n0
            rows[v][v] += 1
            rows[w][w] += 1
            rows[v][w] += 1
            rows[w][v] += 1
        return rows

    @functools.cached_property
    def raising_kernel(self) -> list[list[int]]:
        """The rref kernel basis of inc over Q: ker(i), from one elimination."""
        return Matrix._wrap(self.incidence_rows(), QQ).kernel_basis()

    @functools.cached_property
    def old_new_bases(self) -> tuple[list[list[int]], list[list[int]]]:
        """The rref rows of inc^T over Q, a basis of old = im(i), and the rref
        kernel basis of inc^T, of new = ker(i+), from one elimination."""
        return Matrix._wrap(self.incidence_rows(), QQ).transpose().row_space_and_kernel()

    @functools.cached_property
    def walk_v0(self) -> list[list[int]]:
        """The rows of ``walk_operator_v0``, enumerated once per graph."""
        return walk_operator_v0(self)

    def edge_stars(self, side: int) -> list[list[int]]:
        """The edges at each vertex of V0 (side 0) or V1 (side 1), in edge order."""
        at = [[] for _ in range((self.n0, self.n1)[side])]
        for e, ends in enumerate(self.edges):
            at[ends[side]].append(e)
        return at

    def describe(self) -> str:
        lines = [f"coset-graph l={self.l}", f"v0 {self.n0}", f"v1 {self.n1}"]
        lines += [f"e {v} {w}" for v, w in self.edges]
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (
            f"CosetGraph(l={self.l}, |V0|={self.n0}, |V1|={self.n1}, "
            f"|E|={self.nedges}, components={self.n_components})"
        )


def _int(token: str, lineno: int) -> int:
    # reading an int takes time quadratic in its digits; 4300 is the bound
    # Python puts on it by default, which the CLI lifts to print large reports
    if len(token) > 4300:
        raise GraphFormatError(f"integer of {len(token)} characters, more than 4300", lineno)
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"expected an integer, got {token!r}", lineno) from None


def _directives(text: str):
    """(line number, tokens) of each line that is neither blank nor a # comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            yield lineno, parts


def load_graph(text: str) -> CosetGraph:
    """Parse the line-oriented graph format; see ``CosetGraph.describe`` for the shape."""
    l = n0 = n1 = None
    edges = []
    for lineno, parts in _directives(text):
        if parts[0] == "coset-graph":
            if len(parts) != 2 or not parts[1].startswith("l="):
                raise GraphFormatError("header must read 'coset-graph l=<prime>'", lineno)
            l = _int(parts[1][2:], lineno)
        elif parts[0] in ("v0", "v1"):
            if len(parts) != 2:
                raise GraphFormatError(f"count lines read '{parts[0]} <count>'", lineno)
            if parts[0] == "v0":
                n0 = _int(parts[1], lineno)
            else:
                n1 = _int(parts[1], lineno)
        elif parts[0] == "e":
            if len(parts) != 3:
                raise GraphFormatError("edge lines read 'e <v0-index> <v1-index>'", lineno)
            edges.append((_int(parts[1], lineno), _int(parts[2], lineno)))
        else:
            raise GraphFormatError(f"unrecognized directive {parts[0]!r}", lineno)
    if l is None or n0 is None or n1 is None:
        raise GraphFormatError("missing header, v0, or v1 declaration")
    return CosetGraph(l, n0, n1, edges)


def complete_biregular(l: int) -> CosetGraph:
    """K_{l+1, l^3+1}: the complete bipartite graph with the right two degrees.

    For l = 2 this is K_{3,9}, the smallest simple example.
    """
    n0 = l + 1
    n1 = l**3 + 1
    return CosetGraph(l, n0, n1, [(v, w) for v in range(n0) for w in range(n1)])


def parallel_multigraph(l: int) -> CosetGraph:
    """One V0 vertex joined to l^2-l+1 V1 vertices by l+1 parallel edges each.

    For l = 2 this is M_{1,3}: nine edges in three parallel classes.
    """
    n1 = l**2 - l + 1
    edges = [(0, w) for w in range(n1) for _ in range(l + 1)]
    return CosetGraph(l, 1, n1, edges)


def twisted_complete(l: int = 2) -> CosetGraph:
    """K_{3,9} with a 2-swap creating two parallel classes (still biregular)."""
    g = complete_biregular(l)
    edges = list(g.edges)
    edges.remove((0, 0))
    edges.remove((1, 1))
    edges += [(0, 1), (1, 0)]
    return CosetGraph(l, g.n0, g.n1, edges)


def disjoint_union(a: CosetGraph, b: CosetGraph) -> CosetGraph:
    if a.l != b.l:
        raise ValueError("mixed l")
    edges = list(a.edges) + [(v + a.n0, w + a.n1) for v, w in b.edges]
    return CosetGraph(a.l, a.n0 + b.n0, a.n1 + b.n1, edges)


def random_biregular_graph(l: int, n0: int, rng):
    """Configuration-model sample of a connected (l^3+1, l+1)-biregular multigraph."""
    n1 = n0 * (l * l - l + 1)
    stubs0 = [v for v in range(n0) for _ in range(l**3 + 1)]
    for _ in range(200):
        stubs1 = [w for w in range(n1) for _ in range(l + 1)]
        rng.shuffle(stubs1)
        g = CosetGraph(l, n0, n1, list(zip(stubs0, stubs1)))
        if g.connected:
            return g
    raise RuntimeError("could not sample a connected graph within the retry budget")


# ---------------------------------------------------------------------------
# the level-changing block matrix and walk operators
# ---------------------------------------------------------------------------


def _two_walks(g: CosetGraph, side: int):
    """The non-backtracking 2-walks a -> b between the vertices of V0 (side 0) or
    V1 (side 1): the ordered pairs of distinct edges at each vertex of the other
    side, star by star."""
    for star in g.edge_stars(1 - side):
        yield from itertools.permutations([g.edges[e][side] for e in star], 2)


def _walk_operator(g: CosetGraph, side: int) -> list[list[int]]:
    """Non-backtracking length-2 walk counts between the vertices of V0 (side 0)
    or V1 (side 1), through the vertices of the other side (integer matrix).

    Built by direct enumeration of the 2-walks, independently of the
    raising/lowering maps.
    """
    n = (g.n0, g.n1)[side]
    t = [[0] * n for _ in range(n)]
    for a, b in _two_walks(g, side):
        t[a][b] += 1
    return t


def walk_operator_v0(g: CosetGraph) -> list[list[int]]:
    """Walk operator between V0 vertices through shared V1 vertices."""
    return _walk_operator(g, 0)


def walk_operator_v1(g: CosetGraph) -> list[list[int]]:
    """Mirror walk operator between V1 vertices through shared V0 vertices."""
    return _walk_operator(g, 1)


class BlockHeckeOperator:
    """The 2x2 block realization of lowering-after-raising on V0 + V1 functions."""

    def __init__(
        self,
        l: int,
        n0: int,
        n1: int,
        composite: Matrix,
        T0: Matrix,
        T1: Matrix,
        kernel: list,
        report: dict | None = None,
    ):
        self.l, self.n0, self.n1 = l, n0, n1
        self.composite = composite  # (n0+n1)^2, equals raising followed by lowering
        self.T0 = T0  # distance-2 walk operator on V0
        self.T1 = T1  # distance-2 walk operator on V1
        self.kernel = kernel  # rref basis of ker(composite) = ker(raising map)
        self.report = {} if report is None else report


def level_matrix(g: CosetGraph) -> BlockHeckeOperator:
    """Assemble the block matrix and verify its shape and walk identities exactly.

    Checks, entrywise over the integers:
      * composite = [[(l^3+1) Id, B], [A, (l+1) Id]]
      * B A = T0 + (l^3+1) Id   and   A B = T1 + (l+1) Id
    with B the V0 x V1 multiplicity table, A = B^T, and T0, T1 the
    independently enumerated distance-2 walk operators.
    """
    n0, n1, l = g.n0, g.n1, g.l
    composite = Matrix._wrap(g.composite_rows(), QQ)
    B = Matrix._wrap(g.multiplicity_table(), QQ)
    A = B.transpose()
    T0 = Matrix._wrap(g.walk_v0, QQ)
    T1 = Matrix._wrap(walk_operator_v1(g), QQ)

    support = {(i, i): l**3 + 1 for i in range(n0)}
    support.update({(n0 + j, n0 + j): l + 1 for j in range(n1)})
    for i in range(n0):
        for j in range(n1):
            support[i, n0 + j] = B.rows[i][j]
            support[n0 + j, i] = A.rows[j][i]
    expected = Matrix.from_support(n0 + n1, n0 + n1, support)

    checks = {
        "block_shape": composite == expected,
        "v0_walk_identity": B @ A == T0 + Matrix.identity(n0).scale(l**3 + 1),
        "v1_walk_identity": A @ B == T1 + Matrix.identity(n1).scale(l + 1),
    }
    # v^T C v = |inc v|^2, so C and inc share their row space and rref kernel
    return BlockHeckeOperator(
        l, n0, n1, composite, T0, T1, g.raising_kernel,
        {"ok": all(checks.values()), **checks},
    )


def old_new_decomposition(g: CosetGraph):
    """Rational decomposition of the edge space into old = im(i) and new = ker(i+)."""
    old_basis, new_basis = g.old_new_bases
    dims = {
        "old": len(old_basis),
        "new": len(new_basis),
        "edges": g.nedges,
        "direct_sum": len(old_basis) + len(new_basis) == g.nedges,
        # <i f, n> = <f, i+ n>, so n is orthogonal to im(i) exactly when i+ n = 0
        "orthogonal": all(not any(lower(g, n)) for n in new_basis),
    }
    return old_basis, new_basis, dims


def lower(g: CosetGraph, m) -> list:
    """The level lowering map i+: the sums of the edge function m over the
    edges at each vertex, stacked as V0 + V1, read off the support of m only.
    It is the transpose of the raising map, whose matrix is ``incidence_rows``."""
    out, n0, ends = [0] * (g.n0 + g.n1), g.n0, g.edges
    for e, x in enumerate(m):
        if x:
            v, w = ends[e]
            out[v] += x
            out[n0 + w] += x
    return out


def kernel_eigenvalue_check(block: BlockHeckeOperator) -> dict:
    """Every rational kernel vector of the composite has walk eigenvalue l(l^3+1).

    Takes the operator built by ``level_matrix``.  For each basis vector
    (f0, f1) of ker(i+ o i) the V0 part satisfies (T0 - l(l^3+1)) f0 = 0 and
    the V1 part (T1 - l^3(l+1)) f1 = 0, exactly.
    """
    l, n0, kernel = block.l, block.n0, block.kernel
    lam0 = l * (l**3 + 1)
    lam1 = l**3 * (l + 1)
    failures = []
    for vec in kernel:
        sides = (("v0", block.T0, lam0, vec[:n0]), ("v1", block.T1, lam1, vec[n0:]))
        for name, walk, lam, part in sides:
            if walk.apply(part) != [lam * x for x in part]:
                failures.append((name, vec))
    return {
        "kernel_dim": len(kernel),
        "kernel_basis": kernel,
        "eigenvalue_v0": lam0,
        "eigenvalue_v1": lam1,
        "failures": failures,
        "ok": not failures,
    }


def det_identity_check(block: BlockHeckeOperator) -> dict:
    """det(composite) = (l+1)^(|V1|-|V0|) * det(l(l^3+1) Id - T0), exactly.

    Takes the operator built by ``level_matrix``.  A Schur-complement
    consequence of the block shape; |V1| >= |V0| required so the exponent is
    nonnegative.
    """
    l, n0, n1 = block.l, block.n0, block.n1
    if n1 < n0:
        raise ValueError("requires |V1| >= |V0|")
    # a nonzero w with C w = 0 proves det C = 0, and a nonzero V0 part f of one
    # with T0 f = lam0 f proves det(lam0 Id - T0) = 0; Bareiss only without one
    lhs = 0 if block.kernel else int_matrix_det(block.composite.to_int_rows())
    lam0 = l * (l**3 + 1)
    witnessed = any(any(f) and block.T0.apply(f) == [lam0 * x for x in f]
                    for f in (vec[:n0] for vec in block.kernel))
    rhs = 0 if witnessed else (l + 1) ** (n1 - n0) * int_matrix_det(
        (Matrix.identity(n0).scale(lam0) - block.T0).to_int_rows())
    return {"lhs": lhs, "rhs": rhs, "ok": lhs == rhs}


# ---------------------------------------------------------------------------
# determinant labelings and abelian forms
# ---------------------------------------------------------------------------


class DetLabeling:
    """Labels in a cyclic group C = Z/order with a fixed shift per distance-2 move."""

    def __init__(self, order: int, gshift: int, v0_labels: list[int], v1_labels: list[int]):
        if order < 1:
            raise LabelingError("group order must be >= 1")
        self.order = order
        self.gshift = gshift % order
        self.v0_labels = [x % order for x in v0_labels]
        self.v1_labels = [x % order for x in v1_labels]

    def validate(self, g: CosetGraph) -> None:
        """Every ordered non-backtracking 2-walk must shift the V0 label by gshift."""
        if len(self.v0_labels) != g.n0 or len(self.v1_labels) != g.n1:
            raise LabelingError("label count does not match the graph")
        for a, b in _two_walks(g, 0):
            got = (self.v0_labels[b] - self.v0_labels[a]) % self.order
            if got != self.gshift:
                raise LabelingError(
                    f"walk {a} -> {b} shifts the label by {got}, expected {self.gshift}"
                )

    def characters_mod_p(self, p: int) -> list[int]:
        """Generator images of all characters C -> F_p^*: elements of order dividing |C|."""
        return [z for z in range(1, p) if pow(z, self.order, p) == 1]


def _abelian_kernel_span(g: CosetGraph, p: int, lab: DetLabeling | None):
    """Mod-p span of labeled character pullback pairs that lie in ker(i).

    Always contains the per-component constant pairs (c, -c); with a labeling,
    every character pullback that is constant along edges joins the span.
    """
    gf = PrimeField(p)
    vecs = [[0] * (g.n0 + g.n1) for _ in range(g.n_components)]
    for x, comp in enumerate(g.components):
        vecs[comp][x] = 1 if x < g.n0 else gf.of(-1)
    if lab is not None and lab.order > 1:
        for z in lab.characters_mod_p(p):
            if z == 1:
                continue
            cand = [pow(z, lab.v0_labels[v], p) for v in range(g.n0)] + [
                gf.of(-pow(z, lab.v1_labels[w], p)) for w in range(g.n1)
            ]
            # keep it only if it actually lies in ker(i)
            if all((cand[v] + cand[g.n0 + w]) % p == 0 for v, w in g.edges):
                vecs.append(cand)
    return vecs


def ihara_kernel_test(g: CosetGraph, p: int) -> dict:
    """The mod-p kernel of the raising map is spanned by abelian (pullback) forms.

    On a connected graph with the trivial labeling this says: dimension one,
    spanned by the constant pair (1, -1).  Disconnected inputs are reported
    per component.

    The kernel is the graph's rational rref kernel of inc reduced mod p: inc
    is totally unimodular, every minor is 0 or +-1, so ranks and rrefs agree
    over every field and no elimination over F_p is needed.
    """
    require_prime(p)
    gf = PrimeField(p)
    kernel = [[x % p for x in vec] for vec in g.raising_kernel]
    span = _abelian_kernel_span(g, p, None)
    abelian_ok = Matrix._wrap(span + kernel, gf).rank() == Matrix._wrap(span, gf).rank()
    # An edge row meets one component, and row reduction only combines rows that
    # share a column, so every reduced row and every kernel vector lies in one
    # component: the kernel is the direct sum of the per-component kernels.
    dims = [0] * g.n_components
    for vec in kernel:
        dims[g.components[next(i for i, x in enumerate(vec) if x)]] += 1
    return {
        "prime": p,
        "kernel_dim": len(kernel),
        "components": g.n_components,
        "dim_matches_components": len(kernel) == g.n_components,
        "spanned_by_abelian": abelian_ok,
        "per_component": [{"component": c, "kernel_dim": d} for c, d in enumerate(dims)],
        "kernel_basis": kernel,
        "ok": len(kernel) == g.n_components and abelian_ok,
    }


# ---------------------------------------------------------------------------
# integral structure: the gamma chain and congruence module
# ---------------------------------------------------------------------------


class GammaChain:
    """Nested integer lattices gamma3 <= gamma2 <= gamma1 <= gamma0 in Z^(V0+V1).

    gamma0 is the full lattice, gamma1 the image of lowering, gamma2 the image
    of the saturation of the old lattice, gamma3 the image of the old lattice
    im(i) itself.  At weight zero the dual chain coincides with this one under
    the standard bases, so only one copy is stored.
    """

    def __init__(
        self,
        gamma0: list[list[int]],
        gamma1: list[list[int]],
        gamma2: list[list[int]],
        gamma3: list[list[int]],
    ):
        self.gamma0, self.gamma1, self.gamma2, self.gamma3 = gamma0, gamma1, gamma2, gamma3


def gamma_chain(g: CosetGraph) -> GammaChain:
    """The chain, each lattice as the Hermite normal form basis of its generators.

    gamma3 lowers one Hermite basis ``old`` of the incidence columns in Z^E
    with ``lower``, the map that `old_new_decomposition` runs: a linear image
    of a lattice is spanned by the images of any basis.  gamma2 is gamma3's
    list, since im(i) is its own saturation when the incidence matrix has no
    torsion.  No command calls this: `congruence_module` reads the
    chain's quotients off two Smith forms instead, and the function stays only
    as a target of perfbench/tracer.py, which the tests compare with the
    oracle's construction.
    """
    nv = g.n0 + g.n1
    gamma0 = [[int(i == j) for i in range(nv)] for j in range(nv)]  # already in HNF
    inc = g.incidence_rows()
    old = lattice_basis([list(c) for c in zip(*inc)], g.nedges)
    gamma3 = lattice_basis([lower(g, m) for m in old], nv)
    return GammaChain(gamma0, lattice_basis(inc, nv), gamma3, gamma3)


def congruence_module(g: CosetGraph) -> dict:
    """Invariant factors of the torsion of (edge lattice)/(old lattice), plus the
    gamma-chain ranks and quotient invariants, from two Smith forms.

    gamma1 is the lattice of the incidence rows: its rank and torsion are
    those of the incidence matrix.  gamma3 = gamma2 is C Z^(V0+V1), the image
    of the composite C = inc^T inc (lowering after raising), and C Z^V lies in
    gamma1 <= Z^V.  The vertex-edge incidence matrix of a bipartite multigraph
    is totally unimodular, so the torsion is empty; that makes im(i)
    saturated in Z^E, so gamma2 = gamma3 and q23 = 0, and it makes Z^V/gamma1
    free, so coker C = q12 + Z^V/gamma1 and q12 is the torsion of coker C.
    Over Q rank C = rank inc, so the containments also ask that the two
    ranks agree, which makes q12 finite.
    """
    inc_factors = [d for d in smith_normal_form(g.incidence_rows()) if d]
    torsion = [d for d in inc_factors if d != 1]
    rank = len(inc_factors)
    coker = [d for d in smith_normal_form(g.composite_rows()) if d]
    nv = g.n0 + g.n1
    return {
        "torsion_invariants": torsion,
        "old_lattice_rank": rank,
        "coker_free_rank": g.nedges - rank,
        "gamma_ranks": {
            "gamma0": nv,
            "gamma1": rank,
            "gamma2": len(coker),
            "gamma3": len(coker),
        },
        "containments_ok": not torsion and len(coker) == rank,
        "q01_torsion": torsion,  # same invariant factors as the transpose
        "q01_free_rank": nv - rank,
        "q12_invariants": [d for d in coker if d != 1],
        "q23_invariants": [],
    }


# ---------------------------------------------------------------------------
# auxiliary operator families and the level-raising search
# ---------------------------------------------------------------------------


class AuxOperator:
    """A pair of vertex permutations acting by pullback: f -> f o sigma on V0-
    and f -> f o tau on V1-functions.  The family it joins derives edge_map,
    the matching pullback m -> m o edge_map on edge-functions."""

    def __init__(self, name: str, sigma: list[int], tau: list[int]):
        self.name = name
        self.sigma, self.tau = sigma, tau


class AuxOperatorFamily:
    """Graph automorphisms standing in for the prime-to-l Hecke action.

    Each member's edge permutation is derived here, the k-th parallel edge of
    (v, w) going to the k-th parallel edge of (sigma v, tau w); a pair that is
    not a permutation or changes an edge multiplicity is refused.  The derived
    map commutes with the level maps by construction: (i f)(e) = f(v(e)) +
    f(w(e)) and e goes to an edge with ends (sigma v, tau w), so i(f) o edge_map
    = i(f o sigma, f o tau); and edge_map, a bijection, sends the edges at v
    onto those at sigma v (likewise on V1), so the sums forming i+ commute too.
    """

    def __init__(self, g: CosetGraph, members: list[AuxOperator]):
        self.graph = g
        self.members = list(members)
        slots = {}  # (v, w) -> its parallel edges, in edge order
        for e, ends in enumerate(g.edges):
            slots.setdefault(ends, []).append(e)
        n0, n1 = g.n0, g.n1
        for op in self.members:
            if sorted(op.sigma) != list(range(n0)) or sorted(op.tau) != list(range(n1)):
                raise ValueError(f"operator {op.name!r} needs permutations of {n0} and {n1} points")
            edge_map = [0] * g.nedges
            for (v, w), es in slots.items():
                image = slots.get((op.sigma[v], op.tau[w]), [])
                if len(image) != len(es):
                    raise ValueError(f"operator {op.name!r} does not preserve edge multiplicities")
                for e, f in zip(es, image):
                    edge_map[e] = f
            op.edge_map = edge_map

    @classmethod
    def from_automorphisms(cls, g: CosetGraph, perms):
        """Members perm0, perm1, ... from automorphism pairs (sigma, tau), in order."""
        return cls(g, [AuxOperator(f"perm{k}", sigma, tau) for k, (sigma, tau) in enumerate(perms)])

    @classmethod
    def empty(cls, g: CosetGraph):
        return cls(g, [])


def find_automorphisms(g: CosetGraph, limit: int = 8):
    """The first `limit` pairs (sigma, tau) of vertex permutations preserving
    the multiplicity table, in lexicographic order of (sigma, tau), identity first.

    One depth-first search places V0 vertices 0..n0-1, then V1 vertices
    0..n1-1, trying candidates in ascending order.  A partial sigma on rows
    0..k-1 extends to a pair exactly when the columns restricted to rows
    sigma(0..k-1) and the columns restricted to rows 0..k-1 are the same
    multiset of tuples; a branch failing that is pruned, and no other is, so
    the order is that of plain backtracking and the tau slots never dead-end.

    Each placed vertex keeps a generator of its extensions on a list, so the
    depth is not the recursion limit.  The prefix test is the only pruning: on
    ``random_biregular_graph(2, 250, Random(1))`` the identity comes in seconds,
    a second pair only after more than a minute."""
    n0, n1 = g.n0, g.n1
    mult = g.multiplicity_table()
    cols = [tuple(mult[v][w] for v in range(n0)) for w in range(n1)]
    prefixes = [sorted(col[:k] for col in cols) for k in range(n0 + 1)]
    sigma, tau, found = [], [], []

    def extensions(keys):
        # keys[c]: column c restricted to rows sigma(0), ..., sigma(len(sigma) - 1);
        # each yield places one more vertex, and resuming takes it back
        k = len(sigma)
        if k < n0:
            for cand in range(n0):
                if cand not in sigma:
                    nxt = [key + (x,) for key, x in zip(keys, mult[cand])]
                    if sorted(nxt) == prefixes[k + 1]:
                        sigma.append(cand)
                        yield nxt
                        sigma.pop()
        else:
            for cand in range(n1):
                if cand not in tau and keys[cand] == cols[len(tau)]:
                    tau.append(cand)
                    yield keys
                    tau.pop()

    stack = [iter([[()] * n1])]  # the root's one placement: nothing placed
    while stack and len(found) < limit:
        keys = next(stack[-1], None)
        if keys is None:
            stack.pop()
        elif len(tau) == n1 and len(sigma) == n0:
            found.append((list(sigma), list(tau)))
        else:
            stack.append(extensions(keys))
    return found


def _permutation_order(perm) -> int:
    """The lcm of the cycle lengths of a permutation of 0..n-1."""
    order, seen = 1, set()
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            length, i = length + 1, perm[i]
        order = math.lcm(order, length or 1)
    return order


def _eigen_part(basis, images, c, gf):
    """The vectors of span(basis) that an operator scales by c over F_p, given
    images[k] = op(basis[k]): the combinations sum x_k basis_k with
    sum x_k (images[k] - c basis[k]) = 0.  An independent basis gives an
    independent result."""
    if not basis:
        return []
    p = gf.p
    shifted = [[(a - c * b) % p for a, b in zip(img, vec)] for img, vec in zip(images, basis)]
    kernel = Matrix._wrap(shifted, gf).transpose().kernel_basis()
    return (Matrix._wrap(kernel, gf, len(basis)) @ Matrix._wrap(basis, gf)).rows


@functools.cache
def _word_field() -> PrimeField:
    """GF(2^61 - 1), built once: ``PrimeField`` proves its modulus prime."""
    return PrimeField((1 << 61) - 1)


def _integer_eigenvalues(t0, bound: int) -> list[int]:
    """The integer eigenvalues r, |r| <= bound, of the symmetric integer
    matrix t0, ascending, each repeated by its multiplicity.

    A root of the char poly over Q is a root mod P = 2^61 - 1, so the r at
    which one char poly mod P vanishes are the only candidates.  t0 is
    symmetric, hence diagonalizable, so the multiplicity of r is n minus the
    exact rank of t0 - r I; it is 0 at a candidate that is a root only mod P.
    """
    n, gf = len(t0), _word_field()
    cp = Matrix(t0, gf).char_poly()
    roots = []
    for r in range(-bound, bound + 1):
        value = 0
        for c in reversed(cp):
            value = (value * r + c) % gf.p
        if not value:
            shifted = [[x - r * (i == j) for j, x in enumerate(row)] for i, row in enumerate(t0)]
            roots += [r] * (n - int_matrix_rank(shifted))
    return roots


def level_raising_search(
    g: CosetGraph, p: int, aux: AuxOperatorFamily, lab: DetLabeling | None = None
) -> dict:
    """Joint mod-p eigensystems on V0 satisfying the raising congruence, with a
    report on whether each also occurs in the new space.

    A candidate is a joint eigensystem of the auxiliary family inside
    ker(T0 - l(l^3+1)) mod p that is not contained in the span of labeled
    character pullbacks.  For each candidate the search decides whether the
    same auxiliary eigensystem occurs in ker(i+) mod p.

    Every basis here is a kernel basis or its image under ``_eigen_part``, so
    it is independent and its length is the dimension it spans.  Each auxiliary
    eigenvalue is found by a scan over residues: the members need not commute,
    so a refined space need not be stable under the next member, and a char
    poly of a restriction would not be defined.  A member is a permutation of
    some order L, so only the c with c^L = 1 are scanned, in ascending order.

    The new space ker(i+) mod p is the graph's rational rref kernel of inc^T
    reduced mod p: inc is totally unimodular, every minor is 0 or +-1, so
    ranks and rrefs agree over every field.
    """
    require_prime(p)
    if aux.graph is not g:
        raise ValueError("operator family was built for a different graph")
    gf = PrimeField(p)
    lam = (g.l * (g.l**3 + 1)) % p
    t0 = g.walk_v0
    base = (Matrix(t0, gf) - Matrix.identity(g.n0, gf).scale(lam)).kernel_basis()

    # exact eigenvalue bookkeeping for the report; T0 is symmetric, since
    # _two_walks yields both orders of each pair of edges at a star, and its
    # integer eigenvalues are bounded by its constant row sum l(l^3+1)
    int_roots = _integer_eigenvalues(t0, g.l * (g.l**3 + 1))
    congruent_roots = sorted(set(r for r in int_roots if (r - lam) % p == 0))

    # members are carried by position, so equal names cannot mix them up
    systems = [([], base)]  # (list of (member index, eigenvalue), basis)
    for k, op in enumerate(aux.members):
        order = math.gcd(_permutation_order(op.sigma), p - 1)  # c^L = 1 iff c^order = 1
        roots = [c for c in range(1, p) if pow(c, order, p) == 1]
        refined = []
        for eigs, basis in systems:
            images = [[vec[s] for s in op.sigma] for vec in basis]
            for c in roots:
                sub = _eigen_part(basis, images, c, gf)
                if sub:
                    refined.append((eigs + [(k, c)], sub))
        systems = refined

    span = [vec[: g.n0] for vec in _abelian_kernel_span(g, p, lab)]
    span_rank = Matrix._wrap(span, gf).rank()
    new_kernel = [[x % p for x in vec] for vec in g.old_new_bases[1]]
    candidates = []
    for eigs, basis in systems:
        if Matrix._wrap(span + basis, gf).rank() == span_rank:
            continue  # abelian
        occ_basis = new_kernel
        for k, c in eigs:
            edge_map = aux.members[k].edge_map
            occ_basis = _eigen_part(occ_basis, [[m[e] for e in edge_map] for m in occ_basis], c, gf)
        candidates.append(
            {
                "aux_eigenvalues": [(aux.members[k].name, c) for k, c in eigs],
                "candidate_dim": len(basis),
                "occurs_in_new_space": bool(occ_basis),
                "matching_new_dim": len(occ_basis),
            }
        )
    candidates.sort(key=lambda c: tuple(v for _, v in c["aux_eigenvalues"]))
    return {
        "prime": p,
        "target_eigenvalue_mod_p": lam,
        "eigenspace_dim": len(base),
        "new_space_dim": len(new_kernel),
        "integer_walk_eigenvalues": int_roots,
        "congruent_integer_eigenvalues": congruent_roots,
        "candidates": candidates,
        "prediction_confirmed": all(c["occurs_in_new_space"] for c in candidates),
    }


# ---------------------------------------------------------------------------
# labeling file format
# ---------------------------------------------------------------------------


def load_labeling(text: str, g: CosetGraph) -> DetLabeling:
    """Parse 'labels order=<n> gshift=<k>' followed by '<class> <index> <label>' lines."""
    order = gshift = None
    v0 = [0] * g.n0
    v1 = [0] * g.n1
    for lineno, parts in _directives(text):
        if parts[0] == "labels":
            kv = dict(p.partition("=")[::2] for p in parts[1:])
            if "order" not in kv or "gshift" not in kv:
                raise GraphFormatError("header must read 'labels order=<n> gshift=<k>'", lineno)
            order = _int(kv["order"], lineno)
            gshift = _int(kv["gshift"], lineno)
        elif parts[0] in ("v0", "v1"):
            if len(parts) != 3:
                raise GraphFormatError("label lines read '<class> <index> <label>'", lineno)
            idx, val = _int(parts[1], lineno), _int(parts[2], lineno)
            row = v0 if parts[0] == "v0" else v1
            if not 0 <= idx < len(row):
                raise GraphFormatError(f"{parts[0]} index {idx} is not in the graph", lineno)
            row[idx] = val
        else:
            raise GraphFormatError(f"unrecognized directive {parts[0]!r}", lineno)
    if order is None:
        raise GraphFormatError("missing 'labels order=... gshift=...' header")
    return DetLabeling(order, gshift, v0, v1)
