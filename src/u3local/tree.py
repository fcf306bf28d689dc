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
import operator
from collections import Counter

from .scalars import require_prime

HYPERSPECIAL = "hyperspecial"
SPECIAL = "special"

DEFAULT_VERTEX_BUDGET = 2_000_000


class BallSizeError(ValueError):
    """The requested ball exceeds the vertex budget."""


class TreeBall:
    """A radius-R ball, rooted at a hyperspecial vertex.

    Vertices are integers in BFS order, so the ball is fixed by its shell sizes:
    the i-th vertex of shell d has the i-th run of ``branch[d]`` vertices of
    shell d+1 as its children.  Hyperspecial vertices sit at even distance,
    special at odd.
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
        # children of a vertex in shell d: the root has all l^3+1 neighbours, an
        # inner vertex all but its parent (l^3 hyperspecial, l special), the boundary none
        self._branch = [(l if d % 2 else l**3) + (d == 0) for d in range(radius)] + [0]
        counts = itertools.accumulate(self._branch[:-1], operator.mul, initial=1)
        self._starts = [0, *itertools.accumulate(counts)]  # shell d is starts[d]..starts[d+1]-1
        self.size = self._starts[-1]
        self.dist = []
        for d, n in enumerate(self.shell_counts()):
            self.dist += itertools.repeat(d, n)

    def kind(self, v: int) -> str:
        return HYPERSPECIAL if self.dist[v] % 2 == 0 else SPECIAL

    def children(self, v: int):
        d = self.dist[v]
        start = self._starts[d + 1] + (v - self._starts[d]) * self._branch[d]
        return range(start, start + self._branch[d])

    def neighbors(self, v: int) -> list[int]:
        """The parent (if any), then the children."""
        d = self.dist[v]
        out = [self._starts[d - 1] + (v - self._starts[d]) // self._branch[d - 1]] if d else []
        out += self.children(v)
        return out

    def distance_two(self, v: int) -> list[int]:
        """All vertices at tree distance exactly 2 from v (same kind as v)."""
        nb = self.neighbors
        return [u for w in nb(v) for u in nb(w) if u != v]

    def shell_counts(self) -> list[int]:
        return [b - a for a, b in itertools.pairwise(self._starts)]

    def vertices_of_kind(self, kind: str, max_dist: int | None = None):
        """Vertices of one kind up to a distance, read off the shells: BFS order
        numbers each shell as one consecutive block after the shells inside it."""
        lim = self.radius if max_dist is None else min(max_dist, self.radius)
        want = 0 if kind == HYPERSPECIAL else 1
        out = []
        for d in range(want, lim + 1, 2):
            out.extend(range(self._starts[d], self._starts[d + 1]))
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


def _verify_walk_identity(ball: TreeBall, kind: str, degree: int) -> dict:
    """Check (second o first)(delta) = T(delta) + degree * delta at every delta of
    the given kind at distance <= radius - 2, where first and second are the two
    edge transfers A and B in the order that starts on that kind.

    Applied to delta_v, the two transfers count the endpoints of the 2-walks from
    v, and T + degree * Id counts the vertices at distance 2 plus degree copies
    of v; the check compares the two lists of vertices, sorted.  Only on a
    mismatch are the lists counted into functions (vertex -> multiplicity), whose
    differences are listed at the union of their supports."""
    interior = ball.vertices_of_kind(kind, ball.radius - 2)
    nb = ball.neighbors
    violations = []
    for v in interior:
        walks = [u for w in nb(v) for u in nb(w)]
        target = ball.distance_two(v) + [v] * degree
        walks.sort()
        target.sort()
        if walks != target:
            lhs, rhs = Counter(walks), Counter(target)
            for u in sorted(lhs.keys() | rhs.keys()):
                if lhs[u] != rhs[u]:
                    violations.append({"delta_at": v, "vertex": u, "lhs": lhs[u], "rhs": rhs[u]})
    return {"checked_deltas": len(interior), "violations": violations, "ok": not violations}


def verify_composition(ball: TreeBall) -> dict:
    """Check (B o A) = T + (l^3+1) Id on every delta at an interior hyperspecial
    vertex; returns a report dict with any violations (expected none)."""
    return _verify_walk_identity(ball, HYPERSPECIAL, ball.l**3 + 1)


def verify_mirror_composition(ball: TreeBall) -> dict:
    """The mirror identity (A o B) = T' + (l+1) Id on interior special deltas."""
    return _verify_walk_identity(ball, SPECIAL, ball.l + 1)
