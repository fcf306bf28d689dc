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

import itertools
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
        # stop at the first shell past the budget: the counts grow exponentially
        if any(total > vertex_budget for total in itertools.accumulate(_shell_counts(l, radius))):
            raise BallSizeError(f"ball would hold more than the budget of {vertex_budget} vertices")
        self.l = l
        self.radius = radius
        self.parent = [-1]
        self.dist = [0]
        self.child_start = [0]
        self.child_count = [0]
        self._shell_counts = [1]
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
            self._shell_counts.append(len(nxt))
        self.size = len(self.parent)

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
        return list(self._shell_counts)

    def vertices_of_kind(self, kind: str, max_dist: int | None = None):
        """Vertices of one kind up to a distance, read off the shells: BFS order
        numbers each shell as one consecutive block after the shells inside it."""
        lim = self.radius if max_dist is None else max_dist
        want = 0 if kind == HYPERSPECIAL else 1
        out = []
        start = 0
        for d, n in enumerate(self._shell_counts[: max(lim + 1, 0)]):
            if d % 2 == want:
                out.extend(range(start, start + n))
            start += n
        return out

    def __repr__(self):
        return f"TreeBall(l={self.l}, radius={self.radius}, {self.size} vertices)"


def expected_shell_counts(l: int, radius: int) -> list[int]:
    """Shell sizes forced by the degrees: 1, l^3+1, l(l^3+1), then factors l^3, l, ..."""
    return list(_shell_counts(l, radius))


def _shell_counts(l: int, radius: int):
    count = 1
    yield count
    for d in range(1, radius + 1):
        if d == 1:
            count = l**3 + 1
        elif d % 2 == 1:
            count *= l**3
        else:
            count *= l
        yield count


@dataclass
class VertexFunction:
    """Finitely supported exact-valued function on one stratum of the ball.

    Values are ints or Fractions and are kept as given, so integer input stays
    integer and Fraction input stays exact; zeros are dropped from the support.
    The operators refuse any other value type, such as a float.
    """

    kind: str
    values: dict[int, int | Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (HYPERSPECIAL, SPECIAL, "edge"):
            raise ValueError(f"unknown stratum {self.kind!r}")
        self.values = {v: c for v, c in self.values.items() if c != 0}

    @classmethod
    def delta(cls, ball: TreeBall, v: int) -> "VertexFunction":
        return cls(ball.kind(v), {v: 1})

    def __call__(self, v: int) -> int | Fraction:
        return self.values.get(v, 0)

    def support(self):
        return set(self.values)

    def add_scaled(self, other: "VertexFunction", c) -> "VertexFunction":
        if self.kind != other.kind:
            raise ValueError("stratum mismatch")
        vals = dict(self.values)
        for v, x in other.values.items():
            vals[v] = vals.get(v, 0) + c * x
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
    for v, c in f.values.items():
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"value {c!r} at vertex {v} is not an int or a Fraction")
        if not 0 <= v < ball.size:
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
    out: dict[int, int | Fraction] = {}
    for v, c in f.values.items():
        for w in ball.neighbors(v):
            out[w] = out.get(w, 0) + c
    return VertexFunction(SPECIAL, out)


def vertex_op_B(g: VertexFunction, ball: TreeBall) -> VertexFunction:
    """(Bg)(v) = sum of g over the special neighbours of each hyperspecial v."""
    _check_support(g, ball, SPECIAL, ball.radius - 1)
    out: dict[int, int | Fraction] = {}
    for w, c in g.values.items():
        for v in ball.neighbors(w):
            out[v] = out.get(v, 0) + c
    return VertexFunction(HYPERSPECIAL, out)


def op_Tl(f: VertexFunction, ball: TreeBall) -> VertexFunction:
    """Distance-2 walk operator: (Tf)(v) = sum of f over vertices at distance 2.

    Works on either stratum; the classical degree count is l(l^3+1) around a
    hyperspecial vertex and l^3(l+1) around a special one.
    """
    if f.kind not in (HYPERSPECIAL, SPECIAL):
        raise ValueError("distance-2 operator acts on vertex functions")
    _check_support(f, ball, f.kind, ball.radius - 2)
    out: dict[int, int | Fraction] = {}
    for v, c in f.values.items():
        for u in ball.distance_two(v):
            out[u] = out.get(u, 0) + c
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
