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

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import (
    Matrix,
    PrimeField,
    QQ,
    int_matrix_det,
    lattice_basis,
    lattice_contains,
    lattice_quotient_invariants,
    lattice_saturation,
    smith_normal_form,
)
from .scalars import require_prime


class GraphFormatError(ValueError):
    """Malformed graph or labeling description."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class StratumError(ValueError):
    """Operands live on different strata (vertex space vs edge space)."""


class LabelingError(ValueError):
    """A determinant labeling violates its walk-shift invariant."""


class CosetGraph:
    """Biregular bipartite multigraph with V0-degrees l^3+1 and V1-degrees l+1."""

    def __init__(self, l: int, n0: int, n1: int, edges: list[tuple[int, int]]):
        require_prime(l)
        self.l = l
        self.n0 = n0
        self.n1 = n1
        self.edges = [(int(v), int(w)) for v, w in edges]
        d0, d1 = l**3 + 1, l + 1
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

    def h(self, e):
        return self.edges[e][0]

    def s(self, e):
        return self.edges[e][1]

    def multiplicity(self, v, w):
        return sum(1 for a, b in self.edges if a == v and b == w)

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

    def edges_at_special(self):
        at = [[] for _ in range(self.n1)]
        for e, (_, w) in enumerate(self.edges):
            at[w].append(e)
        return at

    def edges_at_hyperspecial(self):
        at = [[] for _ in range(self.n0)]
        for e, (v, _) in enumerate(self.edges):
            at[v].append(e)
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
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"expected an integer, got {token!r}", lineno) from None


def load_graph(text: str) -> CosetGraph:
    """Parse the line-oriented graph format; see ``CosetGraph.describe`` for the shape."""
    l = n0 = n1 = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
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


def random_biregular_graph(l: int, n0: int, rng, require_connected=True, max_tries=200):
    """Configuration-model sample of a connected (l^3+1, l+1)-biregular multigraph."""
    n1 = n0 * (l * l - l + 1)
    stubs0 = [v for v in range(n0) for _ in range(l**3 + 1)]
    for _ in range(max_tries):
        stubs1 = [w for w in range(n1) for _ in range(l + 1)]
        rng.shuffle(stubs1)
        g = CosetGraph(l, n0, n1, list(zip(stubs0, stubs1)))
        if not require_connected or g.connected:
            return g
    raise RuntimeError("could not sample a connected graph within the retry budget")


# ---------------------------------------------------------------------------
# forms and the raising / lowering maps
# ---------------------------------------------------------------------------


@dataclass
class FormTriple:
    """A pair of functions on V0 and V1 (the two coarse levels)."""

    f0: list
    f1: list

    def stacked(self):
        return list(self.f0) + list(self.f1)

    @classmethod
    def from_stacked(cls, vec, n0):
        return cls(list(vec[:n0]), list(vec[n0:]))


@dataclass
class EdgeForm:
    """A function on the edge set (the fine level)."""

    m: list


def map_i(t: FormTriple, g: CosetGraph) -> EdgeForm:
    """Level raising: m(e) = f0(h(e)) + f1(s(e))."""
    if len(t.f0) != g.n0 or len(t.f1) != g.n1:
        raise ValueError("form does not match the graph")
    return EdgeForm([t.f0[v] + t.f1[w] for v, w in g.edges])


def map_iplus(m: EdgeForm, g: CosetGraph) -> FormTriple:
    """Level lowering: sum an edge function over the edges at each vertex."""
    if len(m.m) != g.nedges:
        raise ValueError("edge form does not match the graph")
    f0 = [0] * g.n0
    f1 = [0] * g.n1
    for e, (v, w) in enumerate(g.edges):
        f0[v] = f0[v] + m.m[e]
        f1[w] = f1[w] + m.m[e]
    return FormTriple(f0, f1)


def pairing(a, b):
    """Sum of pointwise products over the common stratum; symmetric and positive
    definite over the rationals."""
    if isinstance(a, FormTriple) and isinstance(b, FormTriple):
        if len(a.f0) != len(b.f0) or len(a.f1) != len(b.f1):
            raise ValueError("size mismatch")
        return sum(x * y for x, y in zip(a.f0, b.f0)) + sum(
            x * y for x, y in zip(a.f1, b.f1)
        )
    if isinstance(a, EdgeForm) and isinstance(b, EdgeForm):
        if len(a.m) != len(b.m):
            raise ValueError("size mismatch")
        return sum(x * y for x, y in zip(a.m, b.m))
    raise StratumError("pairing requires both operands on the same stratum")


# ---------------------------------------------------------------------------
# the level-changing block matrix and walk operators
# ---------------------------------------------------------------------------


def walk_operator_v0(g: CosetGraph) -> list[list[int]]:
    """Non-backtracking length-2 walk counts between V0 vertices (integer matrix).

    Built by direct enumeration of ordered pairs of distinct edges through each
    V1 vertex, independently of the raising/lowering maps.
    """
    t = [[0] * g.n0 for _ in range(g.n0)]
    for edges in g.edges_at_special():
        for e, f in itertools.permutations(edges, 2):
            t[g.h(e)][g.h(f)] += 1
    return t


def walk_operator_v1(g: CosetGraph) -> list[list[int]]:
    """Mirror walk operator between V1 vertices through shared V0 vertices."""
    t = [[0] * g.n1 for _ in range(g.n1)]
    for edges in g.edges_at_hyperspecial():
        for e, f in itertools.permutations(edges, 2):
            t[g.s(e)][g.s(f)] += 1
    return t


@dataclass
class BlockHeckeOperator:
    """The 2x2 block realization of lowering-after-raising on V0 + V1 functions."""

    l: int
    n0: int
    n1: int
    composite: Matrix  # (n0+n1)^2, equals raising followed by lowering
    A: Matrix  # V0 functions -> V1 functions (adjacency with multiplicity)
    B: Matrix  # V1 functions -> V0 functions
    T0: Matrix  # distance-2 walk operator on V0
    T1: Matrix  # distance-2 walk operator on V1
    report: dict = field(default_factory=dict)


def level_matrix(g: CosetGraph) -> BlockHeckeOperator:
    """Assemble the block matrix and verify its shape and walk identities exactly.

    Checks, entrywise over the integers:
      * composite = [[(l^3+1) Id, B], [A, (l+1) Id]]
      * B A = T0 + (l^3+1) Id   and   A B = T1 + (l+1) Id
    with T0, T1 the independently enumerated distance-2 walk operators.
    """
    inc = Matrix(g.incidence_rows())
    composite = inc.transpose() @ inc
    n0, n1, l = g.n0, g.n1, g.l
    mult = [[0] * n1 for _ in range(n0)]
    for v, w in g.edges:
        mult[v][w] += 1
    B = Matrix(mult)
    A = B.transpose()
    T0 = Matrix(walk_operator_v0(g))
    T1 = Matrix(walk_operator_v1(g))

    expected = Matrix.zeros(n0 + n1, n0 + n1)
    for i in range(n0):
        expected.rows[i][i] = Fraction(l**3 + 1)
    for j in range(n1):
        expected.rows[n0 + j][n0 + j] = Fraction(l + 1)
    for i in range(n0):
        for j in range(n1):
            expected.rows[i][n0 + j] = B.rows[i][j]
            expected.rows[n0 + j][i] = A.rows[j][i]

    checks = {
        "block_shape": composite == expected,
        "v0_walk_identity": B @ A == T0 + Matrix.identity(n0).scale(l**3 + 1),
        "v1_walk_identity": A @ B == T1 + Matrix.identity(n1).scale(l + 1),
    }
    return BlockHeckeOperator(
        l, n0, n1, composite, A, B, T0, T1,
        {"ok": all(checks.values()), **checks},
    )


def old_new_decomposition(g: CosetGraph):
    """Rational decomposition of the edge space into old = im(i) and new = ker(i+)."""
    inc = Matrix(g.incidence_rows())
    old_basis = inc.column_space_basis()
    new_basis = inc.transpose().kernel_basis()
    dims = {
        "old": len(old_basis),
        "new": len(new_basis),
        "edges": g.nedges,
        "direct_sum": len(old_basis) + len(new_basis) == g.nedges,
        "orthogonal": all(
            sum(x * y for x, y in zip(o, n)) == 0 for o in old_basis for n in new_basis
        ),
    }
    return old_basis, new_basis, dims


def kernel_eigenvalue_check(block: BlockHeckeOperator) -> dict:
    """Every rational kernel vector of the composite has walk eigenvalue l(l^3+1).

    Takes the operator built by ``level_matrix``.  For each basis vector
    (f0, f1) of ker(i+ o i) the V0 part satisfies (T0 - l(l^3+1)) f0 = 0 and
    the V1 part (T1 - l^3(l+1)) f1 = 0, exactly.
    """
    l = block.l
    kernel = block.composite.kernel_basis()
    lam0 = Fraction(l * (l**3 + 1))
    lam1 = Fraction(l**3 * (l + 1))
    failures = []
    for vec in kernel:
        t = FormTriple.from_stacked(vec, block.n0)
        if block.T0.apply(t.f0) != [lam0 * x for x in t.f0]:
            failures.append(("v0", vec))
        if block.T1.apply(t.f1) != [lam1 * x for x in t.f1]:
            failures.append(("v1", vec))
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
    lhs = int_matrix_det(block.composite.to_int_rows())
    shifted = Matrix.identity(n0).scale(l * (l**3 + 1)) - block.T0
    rhs = (l + 1) ** (n1 - n0) * int_matrix_det(shifted.to_int_rows())
    return {"lhs": lhs, "rhs": rhs, "ok": lhs == rhs}


# ---------------------------------------------------------------------------
# determinant labelings and abelian forms
# ---------------------------------------------------------------------------


@dataclass
class DetLabeling:
    """Labels in a cyclic group C = Z/order with a fixed shift per distance-2 move."""

    order: int
    gshift: int
    v0_labels: list[int]
    v1_labels: list[int]

    def __post_init__(self):
        if self.order < 1:
            raise LabelingError("group order must be >= 1")
        self.gshift %= self.order
        self.v0_labels = [x % self.order for x in self.v0_labels]
        self.v1_labels = [x % self.order for x in self.v1_labels]

    @classmethod
    def trivial(cls, g: CosetGraph) -> "DetLabeling":
        return cls(1, 0, [0] * g.n0, [0] * g.n1)

    def validate(self, g: CosetGraph) -> None:
        """Every ordered non-backtracking 2-walk must shift the V0 label by gshift."""
        if len(self.v0_labels) != g.n0 or len(self.v1_labels) != g.n1:
            raise LabelingError("label count does not match the graph")
        for edges in g.edges_at_special():
            for e, f in itertools.permutations(edges, 2):
                got = (self.v0_labels[g.h(f)] - self.v0_labels[g.h(e)]) % self.order
                if got != self.gshift:
                    raise LabelingError(
                        f"walk {g.h(e)} -> {g.h(f)} shifts the label by {got}, "
                        f"expected {self.gshift}"
                    )

    def characters_mod_p(self, p: int) -> list[int]:
        """Generator images of all characters C -> F_p^*: elements of order dividing |C|."""
        return [z for z in range(1, p) if pow(z, self.order, p) == 1]


def abelian_forms(g: CosetGraph, lab: DetLabeling, chi_gen_image: Fraction):
    """Pullback of a character through the labeling, with its exact walk eigenvalue.

    The character is given by its value at the generator of C; over the
    rationals that value must be a root of unity, hence +-1.  The returned
    report checks T0(f0) = l(l^3+1) * chi(gshift) * f0 on the nose.
    """
    lab.validate(g)
    zeta = Fraction(chi_gen_image)
    if zeta**lab.order != 1:
        raise ValueError(f"{zeta} is not an order-{lab.order} character value")
    f0 = [zeta ** lab.v0_labels[v] for v in range(g.n0)]
    f1 = [zeta ** lab.v1_labels[w] for w in range(g.n1)]
    t0 = Matrix(walk_operator_v0(g))
    expected = Fraction(g.l * (g.l**3 + 1)) * zeta**lab.gshift
    ok = t0.apply(f0) == [expected * x for x in f0]
    return FormTriple(f0, f1), {"eigenvalue": expected, "ok": ok}


def _abelian_kernel_span(g: CosetGraph, p: int, lab: DetLabeling | None):
    """Mod-p span of labeled character pullback pairs that lie in ker(i).

    Always contains the per-component constant pairs (c, -c); with a labeling,
    every character pullback that is constant along edges joins the span.
    """
    gf = PrimeField(p)
    vecs = []
    for comp in range(g.n_components):
        vec = [gf.zero] * (g.n0 + g.n1)
        for v in range(g.n0):
            if g.components[v] == comp:
                vec[v] = gf.one
        for w in range(g.n1):
            if g.components[g.n0 + w] == comp:
                vec[g.n0 + w] = -gf.one
        vecs.append(vec)
    if lab is not None and lab.order > 1:
        for z in lab.characters_mod_p(p):
            if z == 1:
                continue
            cand = [gf.of(pow(z, lab.v0_labels[v], p)) for v in range(g.n0)] + [
                -gf.of(pow(z, lab.v1_labels[w], p)) for w in range(g.n1)
            ]
            # keep it only if it actually lies in ker(i)
            if all(cand[v] + cand[g.n0 + w] == 0 for v, w in g.edges):
                vecs.append(cand)
    return vecs


def _subspace_rank(vectors, field):
    if not vectors:
        return 0
    return Matrix(vectors, field).rank()


def _in_span(vectors, candidate, field):
    if not vectors:
        return all(not bool(c) for c in candidate)
    base = Matrix(vectors, field).rank()
    return Matrix(vectors + [candidate], field).rank() == base


def ihara_kernel_test(g: CosetGraph, p: int, lab: DetLabeling | None = None) -> dict:
    """The mod-p kernel of the raising map is spanned by abelian (pullback) forms.

    On a connected graph with the trivial labeling this says: dimension one,
    spanned by the constant pair (1, -1).  Disconnected inputs are reported
    per component.
    """
    require_prime(p)
    gf = PrimeField(p)
    inc = Matrix(g.incidence_rows(), gf)
    kernel = inc.kernel_basis()
    span = _abelian_kernel_span(g, p, lab)
    abelian_ok = all(_in_span(span, vec, gf) for vec in kernel)
    per_component = []
    for comp in range(g.n_components):
        cols = [i for i in range(g.n0 + g.n1) if g.components[i] == comp]
        rows = [
            [inc.rows[e][i] for i in cols]
            for e, (v, w) in enumerate(g.edges)
            if g.components[v] == comp
        ]
        sub = Matrix(rows, gf) if rows else None
        per_component.append(
            {"component": comp, "kernel_dim": len(sub.kernel_basis()) if sub else 0}
        )
    return {
        "prime": p,
        "kernel_dim": len(kernel),
        "components": g.n_components,
        "dim_matches_components": len(kernel) == g.n_components,
        "spanned_by_abelian": abelian_ok,
        "per_component": per_component,
        "kernel_basis": [[x.v for x in vec] for vec in kernel],
        "ok": len(kernel) == g.n_components and abelian_ok,
    }


# ---------------------------------------------------------------------------
# integral structure: the gamma chain and congruence module
# ---------------------------------------------------------------------------


@dataclass
class GammaChain:
    """Nested integer lattices gamma3 <= gamma2 <= gamma1 <= gamma0 in Z^(V0+V1).

    gamma0 is the full lattice, gamma1 the image of lowering, gamma2 the image
    of the saturation of the old lattice, gamma3 the image of the composite.
    At weight zero the dual chain coincides with this one under the standard
    bases, so only one copy is stored.
    """

    gamma0: list[list[int]]
    gamma1: list[list[int]]
    gamma2: list[list[int]]
    gamma3: list[list[int]]

    def verify_containments(self) -> bool:
        chains = [
            (self.gamma3, self.gamma2),
            (self.gamma2, self.gamma1),
            (self.gamma1, self.gamma0),
        ]
        return all(
            all(lattice_contains(big, col) for col in small) for small, big in chains
        )

    def ranks(self):
        return {
            "gamma0": len(self.gamma0),
            "gamma1": len(self.gamma1),
            "gamma2": len(self.gamma2),
            "gamma3": len(self.gamma3),
        }


def gamma_chain(g: CosetGraph) -> GammaChain:
    inc_rows = g.incidence_rows()  # |E| x (n0+n1)
    nv = g.n0 + g.n1
    gamma0 = lattice_basis([[int(i == j) for i in range(nv)] for j in range(nv)], nv)
    gamma1 = lattice_basis([list(r) for r in inc_rows], nv)
    inc_cols = [[r[j] for r in inc_rows] for j in range(nv)]
    sat = lattice_saturation(inc_cols, g.nedges)
    lowered_sat = [
        [sum(inc_rows[e][i] * col[e] for e in range(g.nedges)) for i in range(nv)]
        for col in sat
    ]
    gamma2 = lattice_basis(lowered_sat, nv)
    composite = [
        [sum(inc_rows[e][i] * inc_rows[e][j] for e in range(g.nedges)) for i in range(nv)]
        for j in range(nv)
    ]
    gamma3 = lattice_basis(composite, nv)
    return GammaChain(gamma0, gamma1, gamma2, gamma3)


def congruence_module(g: CosetGraph) -> dict:
    """Invariant factors of the torsion of (edge lattice)/(old lattice), plus the
    full gamma-chain ranks and quotient invariants.

    The vertex-edge incidence matrix of a bipartite multigraph is totally
    unimodular, so the headline torsion is expected to vanish; the interesting
    finite quotients sit between the chain's lowered lattices.
    """
    factors = smith_normal_form(g.incidence_rows())
    torsion = [d for d in factors if d not in (0, 1)]
    rank = sum(1 for d in factors if d != 0)
    chain = gamma_chain(g)
    return {
        "torsion_invariants": torsion,
        "old_lattice_rank": rank,
        "coker_free_rank": g.nedges - rank,
        "gamma_ranks": chain.ranks(),
        "containments_ok": chain.verify_containments(),
        "q01_torsion": torsion,  # same invariant factors as the transpose
        "q01_free_rank": (g.n0 + g.n1) - len(chain.gamma1),
        "q12_invariants": lattice_quotient_invariants(chain.gamma1, chain.gamma2),
        "q23_invariants": lattice_quotient_invariants(chain.gamma2, chain.gamma3),
    }


# ---------------------------------------------------------------------------
# auxiliary operator families and the level-raising search
# ---------------------------------------------------------------------------


@dataclass
class AuxOperator:
    """A compatible triple of integer operators on V0-, V1-, and edge-functions."""

    name: str
    on_v0: list[list[int]]
    on_v1: list[list[int]]
    on_edges: list[list[int]]


class AuxOperatorFamily:
    """Operators standing in for the prime-to-l Hecke action.

    Every member must commute with the raising and lowering maps; this is
    checked exactly at construction and violations are rejected.
    """

    def __init__(self, g: CosetGraph, members: list[AuxOperator]):
        self.graph = g
        self.members = list(members)
        inc = Matrix(g.incidence_rows())
        for op in self.members:
            v0 = Matrix(op.on_v0)
            v1 = Matrix(op.on_v1)
            oe = Matrix(op.on_edges)
            both = Matrix.zeros(g.n0 + g.n1, g.n0 + g.n1)
            for i in range(g.n0):
                for j in range(g.n0):
                    both.rows[i][j] = v0.rows[i][j]
            for i in range(g.n1):
                for j in range(g.n1):
                    both.rows[g.n0 + i][g.n0 + j] = v1.rows[i][j]
            if oe @ inc != inc @ both or both @ inc.transpose() != inc.transpose() @ oe:
                raise ValueError(f"operator {op.name!r} does not commute with the level maps")

    @classmethod
    def from_automorphisms(cls, g: CosetGraph, perms, names=None):
        """Permutation operators from graph automorphisms (sigma on V0, tau on V1).

        The edge permutation is forced: the k-th parallel edge of (v, w) goes to
        the k-th parallel edge of (sigma v, tau w).
        """
        members = []
        slots = {}
        for e, (v, w) in enumerate(g.edges):
            slots.setdefault((v, w), []).append(e)
        for idx, (sigma, tau) in enumerate(perms):
            for (v, w), es in slots.items():
                if len(slots.get((sigma[v], tau[w]), [])) != len(es):
                    raise ValueError("permutation does not preserve edge multiplicities")
            edge_map = [0] * g.nedges
            seen = {}
            for e, (v, w) in enumerate(g.edges):
                k = seen.setdefault((v, w), 0)
                seen[(v, w)] += 1
                edge_map[e] = slots[(sigma[v], tau[w])][k]
            name = names[idx] if names else f"perm{idx}"
            members.append(
                AuxOperator(
                    name,
                    _perm_matrix_inverse(sigma),
                    _perm_matrix_inverse(tau),
                    _perm_matrix_inverse(edge_map),
                )
            )
        return cls(g, members)

    @classmethod
    def empty(cls, g: CosetGraph):
        return cls(g, [])


def _perm_matrix_inverse(perm):
    """Matrix of f -> f o perm (pullback action) as an integer permutation matrix."""
    n = len(perm)
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        m[i][j] = 1
    return m


def find_automorphisms(g: CosetGraph, limit: int = 8):
    """Backtracking search for (sigma, tau) vertex permutation pairs preserving
    the multiplicity matrix; returns at most `limit` pairs, identity first."""
    mult = [[g.multiplicity(v, w) for w in range(g.n1)] for v in range(g.n0)]
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


def _intersect_with_eigenspace(basis, op_rows, eigenvalue, gf):
    """Intersection of span(basis) with ker(op - eigenvalue) over F_p."""
    if not basis:
        return []
    n = len(basis[0])
    op = Matrix(op_rows, gf)
    shifted = op - Matrix.identity(n, gf).scale(eigenvalue)
    # solve shifted @ (sum c_k basis_k) = 0 in the coefficients c
    cols = [shifted.apply(vec) for vec in basis]
    coeff = Matrix([[cols[k][i] for k in range(len(basis))] for i in range(n)], gf)
    out = []
    for c in coeff.kernel_basis():
        vec = [gf.zero] * n
        for k, ck in enumerate(c):
            if ck:
                vec = [x + ck * y for x, y in zip(vec, basis[k])]
        out.append(vec)
    return out


def _integer_roots_with_multiplicity(coeffs: list[Fraction], bound: int):
    """Integer roots (with multiplicity, absolute value <= bound) of a monic
    integer polynomial, plus the degree of the unsplit remainder."""
    from .poly import Poly

    p = Poly(coeffs)
    roots = []
    changed = True
    while changed and p.degree > 0:
        changed = False
        c0 = p.coeffs[0]
        if c0 == 0:
            roots.append(0)
            p = Poly(p.coeffs[1:])
            changed = True
            continue
        for cand in range(-bound, bound + 1):
            if cand != 0 and c0 % cand == 0 and p(Fraction(cand)) == 0:
                roots.append(cand)
                p = p // Poly([-cand, 1])
                changed = True
                break
    return sorted(roots), p.degree


def level_raising_search(
    g: CosetGraph, p: int, aux: AuxOperatorFamily, lab: DetLabeling | None = None
) -> dict:
    """Joint mod-p eigensystems on V0 satisfying the raising congruence, with a
    report on whether each also occurs in the new space.

    A candidate is a joint eigensystem of the auxiliary family inside
    ker(T0 - l(l^3+1)) mod p that is not contained in the span of labeled
    character pullbacks.  For each candidate the search decides whether the
    same auxiliary eigensystem occurs in ker(i+) mod p.
    """
    require_prime(p)
    if aux.graph is not g:
        raise ValueError("operator family was built for a different graph")
    gf = PrimeField(p)
    lam = (g.l * (g.l**3 + 1)) % p
    t0 = walk_operator_v0(g)
    id_basis = [[gf.one if i == k else gf.zero for i in range(g.n0)] for k in range(g.n0)]
    base = _intersect_with_eigenspace(id_basis, t0, gf.of(lam), gf)

    # exact eigenvalue bookkeeping for the report; integer eigenvalues are
    # bounded by the constant row sum l(l^3+1) of the walk operator
    cp = Matrix(t0).char_poly()
    int_roots, unsplit = _integer_roots_with_multiplicity(cp, g.l * (g.l**3 + 1))
    congruent_roots = sorted(set(r for r in int_roots if (r - lam) % p == 0))

    systems = [([], base)]
    for op in aux.members:
        refined = []
        for eigs, basis in systems:
            for c in range(p):
                sub = _intersect_with_eigenspace(basis, op.on_v0, gf.of(c), gf)
                if sub:
                    refined.append((eigs + [(op.name, c)], sub))
        systems = refined

    span = [vec[: g.n0] for vec in _abelian_kernel_span(g, p, lab)]
    new_kernel = Matrix(g.incidence_rows(), gf).transpose().kernel_basis()
    candidates = []
    for eigs, basis in systems:
        abelian = all(_in_span(span, vec, gf) for vec in basis)
        if abelian:
            continue
        occ_basis = new_kernel
        for (name, c) in eigs:
            op = next(o for o in aux.members if o.name == name)
            occ_basis = _intersect_with_eigenspace(occ_basis, op.on_edges, gf.of(c), gf)
        candidates.append(
            {
                "aux_eigenvalues": eigs,
                "candidate_dim": _subspace_rank(basis, gf),
                "occurs_in_new_space": bool(occ_basis),
                "matching_new_dim": _subspace_rank(occ_basis, gf),
            }
        )
    candidates.sort(key=lambda c: tuple(v for _, v in c["aux_eigenvalues"]))
    return {
        "prime": p,
        "target_eigenvalue_mod_p": lam,
        "eigenspace_dim": _subspace_rank(base, gf),
        "new_space_dim": len(new_kernel),
        "integer_walk_eigenvalues": int_roots,
        "unsplit_degree": unsplit,
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
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
