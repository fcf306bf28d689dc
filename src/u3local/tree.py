"""Finite balls of the (l^3+1, l+1)-biregular tree and its walk operators.

Vertices alternate between two kinds along every edge: "hyperspecial"
vertices of degree l^3+1 (even distance from the root) and "special"
vertices of degree l+1 (odd distance).  The distance-2 walk operator on
hyperspecial vertices composed with the two edge-transfer operators obeys

    B o A = T + (l^3 + 1) * Id

exactly at every vertex whose 2-ball lies inside the built ball, and this
module exists to build such balls and check that identity on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import require_prime

HYPERSPECIAL = "hyperspecial"
SPECIAL = "special"

DEFAULT_VERTEX_BUDGET = 2_000_000


class BallSizeError(ValueError):
    """The requested ball exceeds the vertex budget."""


class BoundaryError(ValueError):
    """An operator was applied to a function supported too close to the boundary."""


class TreeBall:
    """A radius-R ball, rooted at a hyperspecial vertex.

    Vertices are integers in BFS order; adjacency is parent/children.
    Hyperspecial vertices sit at even distance, special at odd.
    """

    def __init__(self, l: int, radius: int, vertex_budget: int = DEFAULT_VERTEX_BUDGET):
        require_prime(l)
        if radius < 0:
            raise ValueError("radius must be >= 0")
        expected = expected_shell_counts(l, radius)
        if sum(expected) > vertex_budget:
            raise BallSizeError(
                f"ball would hold {sum(expected)} vertices, over the budget {vertex_budget}"
            )
        self.l = l
        self.radius = radius
        self.parent = [-1]
        self.dist = [0]
        self.child_start = [0]
        self.child_count = [0]
        frontier = [0]
        for d in range(1, radius + 1):
            nxt = []
            for v in frontier:
                if d == 1:
                    k = l**3 + 1  # root keeps its full degree
                elif d % 2 == 1:
                    k = l**3  # interior hyperspecial: one neighbour is the parent
                else:
                    k = l  # interior special
                self.child_start[v] = len(self.parent)
                self.child_count[v] = k
                for _ in range(k):
                    idx = len(self.parent)
                    self.parent.append(v)
                    self.dist.append(d)
                    self.child_start.append(0)
                    self.child_count.append(0)
                    nxt.append(idx)
            frontier = nxt
        self.size = len(self.parent)
        self._shell_counts = None

    def kind(self, v: int) -> str:
        return HYPERSPECIAL if self.dist[v] % 2 == 0 else SPECIAL

    def children(self, v: int):
        s, k = self.child_start[v], self.child_count[v]
        return range(s, s + k)

    def neighbors(self, v: int):
        if self.parent[v] >= 0:
            yield self.parent[v]
        yield from self.children(v)

    def distance_two(self, v: int):
        """All vertices at tree distance exactly 2 from v (same kind as v)."""
        for w in self.neighbors(v):
            for u in self.neighbors(w):
                if u != v:
                    yield u

    def shell_counts(self) -> list[int]:
        if self._shell_counts is None:
            counts = [0] * (self.radius + 1)
            for d in self.dist:
                counts[d] += 1
            self._shell_counts = counts
        return list(self._shell_counts)

    def vertices_of_kind(self, kind: str, max_dist: int | None = None):
        lim = self.radius if max_dist is None else max_dist
        want = 0 if kind == HYPERSPECIAL else 1
        return [v for v in range(self.size) if self.dist[v] % 2 == want and self.dist[v] <= lim]

    def __repr__(self):
        return f"TreeBall(l={self.l}, radius={self.radius}, {self.size} vertices)"


def expected_shell_counts(l: int, radius: int) -> list[int]:
    """Shell sizes forced by the degrees: 1, l^3+1, l(l^3+1), then factors l^3, l, ..."""
    counts = [1]
    for d in range(1, radius + 1):
        if d == 1:
            counts.append(l**3 + 1)
        elif d % 2 == 1:
            counts.append(counts[-1] * l**3)
        else:
            counts.append(counts[-1] * l)
    return counts


@dataclass
class VertexFunction:
    """Finitely supported exact-valued function on one stratum of the ball."""

    kind: str
    values: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (HYPERSPECIAL, SPECIAL, "edge"):
            raise ValueError(f"unknown stratum {self.kind!r}")
        self.values = {v: Fraction(c) for v, c in self.values.items() if c != 0}

    @classmethod
    def delta(cls, ball: TreeBall, v: int) -> "VertexFunction":
        return cls(ball.kind(v), {v: Fraction(1)})

    def __call__(self, v: int) -> Fraction:
        return self.values.get(v, Fraction(0))

    def support(self):
        return set(self.values)

    def add_scaled(self, other: "VertexFunction", c) -> "VertexFunction":
        if self.kind != other.kind:
            raise ValueError("stratum mismatch")
        vals = dict(self.values)
        for v, x in other.values.items():
            vals[v] = vals.get(v, Fraction(0)) + Fraction(c) * x
        return VertexFunction(self.kind, vals)

    def __eq__(self, other):
        return (
            isinstance(other, VertexFunction)
            and self.kind == other.kind
            and self.values == other.values
        )


def _check_support(f: VertexFunction, ball: TreeBall, kind: str, max_dist: int):
    if f.kind != kind:
        raise ValueError(f"expected a {kind} function, got {f.kind}")
    for v in f.values:
        if v >= ball.size:
            raise ValueError(f"vertex {v} is not in the ball")
        if ball.kind(v) != kind:
            raise ValueError(f"vertex {v} is not {kind}")
        if ball.dist[v] > max_dist:
            raise BoundaryError(
                f"support at distance {ball.dist[v]} > {max_dist}: values near the "
                "boundary would be ill-defined"
            )


def vertex_op_A(f: VertexFunction, ball: TreeBall) -> VertexFunction:
    """(Af)(w) = sum of f over the hyperspecial neighbours of each special w."""
    _check_support(f, ball, HYPERSPECIAL, ball.radius - 1)
    out: dict[int, Fraction] = {}
    for v, c in f.values.items():
        for w in ball.neighbors(v):
            out[w] = out.get(w, Fraction(0)) + c
    return VertexFunction(SPECIAL, out)


def vertex_op_B(g: VertexFunction, ball: TreeBall) -> VertexFunction:
    """(Bg)(v) = sum of g over the special neighbours of each hyperspecial v."""
    _check_support(g, ball, SPECIAL, ball.radius - 1)
    out: dict[int, Fraction] = {}
    for w, c in g.values.items():
        for v in ball.neighbors(w):
            out[v] = out.get(v, Fraction(0)) + c
    return VertexFunction(HYPERSPECIAL, out)


def op_Tl(f: VertexFunction, ball: TreeBall) -> VertexFunction:
    """Distance-2 walk operator: (Tf)(v) = sum of f over vertices at distance 2.

    Works on either stratum; the classical degree count is l(l^3+1) around a
    hyperspecial vertex and l^3(l+1) around a special one.
    """
    if f.kind not in (HYPERSPECIAL, SPECIAL):
        raise ValueError("distance-2 operator acts on vertex functions")
    _check_support(f, ball, f.kind, ball.radius - 2)
    out: dict[int, Fraction] = {}
    for v, c in f.values.items():
        for u in ball.distance_two(v):
            out[u] = out.get(u, Fraction(0)) + c
    return VertexFunction(f.kind, out)


def _verify_walk_identity(ball: TreeBall, kind: str, degree: int, first, second) -> dict:
    """Check second(first(delta)) = T(delta) + degree * delta at every delta of the
    given kind at distance <= radius - 2.  Each mismatch is listed at the vertices
    of the union of the two supports, so the work is linear in the ball."""
    interior = ball.vertices_of_kind(kind, ball.radius - 2)
    violations = []
    for v in interior:
        delta = VertexFunction.delta(ball, v)
        lhs = second(first(delta, ball), ball)
        rhs = op_Tl(delta, ball).add_scaled(delta, degree)
        if lhs != rhs:
            for u in sorted(lhs.support() | rhs.support()):
                if lhs(u) != rhs(u):
                    violations.append({"delta_at": v, "vertex": u, "lhs": lhs(u), "rhs": rhs(u)})
    return {"checked_deltas": len(interior), "violations": violations, "ok": not violations}


def verify_composition(ball: TreeBall) -> dict:
    """Check (B o A) = T + (l^3+1) Id on every delta at an interior hyperspecial
    vertex; returns a report dict with any violations (expected none)."""
    return _verify_walk_identity(ball, HYPERSPECIAL, ball.l**3 + 1, vertex_op_A, vertex_op_B)


def verify_mirror_composition(ball: TreeBall) -> dict:
    """The mirror identity (A o B) = T' + (l+1) Id on interior special deltas."""
    return _verify_walk_identity(ball, SPECIAL, ball.l + 1, vertex_op_B, vertex_op_A)
