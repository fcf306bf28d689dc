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


def _degrees(l: int) -> tuple[int, int]:
    """The U(3) degree pair: l^3+1 at a hyperspecial vertex, l+1 at a special one."""
    return l**3 + 1, l + 1


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
        self.l = l
        self.radius = radius
        self.degrees = degrees = _degrees(l)
        # stop at the first shell past the budget: the counts grow exponentially
        if any(n > vertex_budget for n in itertools.accumulate(_shell_counts(degrees, radius))):
            raise BallSizeError(f"ball would hold more than the budget of {vertex_budget} vertices")
        # children per vertex of shell d: the root's degree, one less inside, none on the boundary
        self._branch = [degrees[d % 2] - (d > 0) for d in range(radius)] + [0]
        counts = itertools.accumulate(self._branch[:-1], operator.mul, initial=1)
        self._starts = [0, *itertools.accumulate(counts)]  # shell d is starts[d]..starts[d+1]-1
        self.size = self._starts[-1]
        self.dist = []
        for d, n in enumerate(self.shell_counts()):
            self.dist += itertools.repeat(d, n)

    # Each method below refuses a negative v itself, which ``dist[v]`` would read
    # from the end, and ``dist[v]`` refuses v >= size.

    def kind(self, v: int) -> str:
        if v < 0:
            raise IndexError(f"vertex {v} is not in the ball")
        return HYPERSPECIAL if self.dist[v] % 2 == 0 else SPECIAL

    def children(self, v: int):
        if v < 0:
            raise IndexError(f"vertex {v} is not in the ball")
        d = self.dist[v]
        start = self._starts[d + 1] + (v - self._starts[d]) * self._branch[d]
        return range(start, start + self._branch[d])

    def neighbors(self, v: int) -> list[int]:
        """The parent (if any), then the children (``children``'s range, inlined,
        since the walk check calls this once per step of every 2-walk)."""
        if v < 0:
            raise IndexError(f"vertex {v} is not in the ball")
        starts, branch = self._starts, self._branch
        d = self.dist[v]
        i = v - starts[d]  # v's place in shell d
        out = [starts[d - 1] + i // branch[d - 1]] if d else []
        start = starts[d + 1] + i * branch[d]
        out += range(start, start + branch[d])
        return out

    def distance_two(self, v: int) -> list[int]:
        """All vertices at tree distance exactly 2 from v (same kind as v), read
        off the shell offsets rather than walked: the grandparent (if any), the
        siblings other than v, then the grandchildren, which BFS order numbers
        as one consecutive block of shell d+2."""
        if v < 0:
            raise IndexError(f"vertex {v} is not in the ball")
        starts, branch = self._starts, self._branch
        d = self.dist[v]
        out = []
        if d:
            p = (v - starts[d]) // branch[d - 1]  # the parent's place in shell d-1
            if d > 1:
                out.append(starts[d - 2] + p // branch[d - 2])
            first = starts[d] + p * branch[d - 1]
            out += range(first, v)
            out += range(v + 1, first + branch[d - 1])
        if branch[d]:
            n = branch[d] * branch[d + 1]
            start = starts[d + 2] + (v - starts[d]) * n
            out += range(start, start + n)
        return out

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
    return list(_shell_counts(_degrees(l), radius))


def _shell_counts(degrees: tuple[int, int], radius: int):
    """Shell sizes in closed form, apart from the ball's running product of its
    branching: 1, then d0 (d1-1)^(d//2) (d0-1)^((d-1)//2) at distance d."""
    d0, d1 = degrees
    yield 1
    for d in range(1, radius + 1):
        yield d0 * (d1 - 1) ** (d // 2) * (d0 - 1) ** ((d - 1) // 2)


def _verify_walk_identity(ball: TreeBall, kind: str, degree: int) -> dict:
    """Check (second o first)(delta) = T(delta) + degree * delta at every delta of
    the given kind at distance <= radius - 2, where first and second are the two
    edge transfers A and B in the order that starts on that kind.

    Applied to delta_v, the two transfers count the endpoints of the 2-walks from
    v, one ``neighbors`` list per neighbour w of v, and T + degree * Id counts the
    vertices at distance 2, read off the shell offsets by ``distance_two`` without
    walking, plus degree copies of v; the check compares the two lists of
    vertices, sorted.  Only on a mismatch are the lists counted into functions
    (vertex -> multiplicity), whose differences are listed at the union of their
    supports."""
    interior = ball.vertices_of_kind(kind, ball.radius - 2)
    nb = ball.neighbors
    violations = []
    for v in interior:
        walks = []
        for w in nb(v):
            walks += nb(w)
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
    """Check (B o A) = T + d0 Id, d0 = l^3+1, on every delta at an interior
    hyperspecial vertex; returns a report dict with any violations (expected none)."""
    return _verify_walk_identity(ball, HYPERSPECIAL, ball.degrees[0])


def verify_mirror_composition(ball: TreeBall) -> dict:
    """The mirror identity (A o B) = T' + d1 Id, d1 = l+1, on interior special deltas."""
    return _verify_walk_identity(ball, SPECIAL, ball.degrees[1])
