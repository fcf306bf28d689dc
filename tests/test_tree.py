import random
from fractions import Fraction

import pytest

from u3local import tree
from u3local.tree import (
    HYPERSPECIAL,
    SPECIAL,
    BallSizeError,
    BoundaryError,
    TreeBall,
    VertexFunction,
    expected_shell_counts,
    op_Tl,
    verify_composition,
    verify_mirror_composition,
    vertex_op_A,
    vertex_op_B,
)


@pytest.fixture(scope="module")
def ball2():
    return TreeBall(2, 4)


@pytest.fixture(scope="module")
def ball3():
    return TreeBall(3, 4)


class TestBuildBall:
    def test_radius_one_l2(self):
        b = TreeBall(2, 1)
        assert b.shell_counts() == [1, 9]
        assert all(b.kind(v) == SPECIAL for v in range(1, b.size))

    def test_radius_two_l2(self):
        b = TreeBall(2, 2)
        assert b.shell_counts() == [1, 9, 18]

    def test_radius_zero(self):
        b = TreeBall(5, 0)
        assert b.size == 1 and b.kind(0) == HYPERSPECIAL

    def test_growth_law(self, ball2, ball3):
        assert ball2.shell_counts() == [1, 9, 18, 144, 288]
        assert ball3.shell_counts() == expected_shell_counts(3, 4)
        assert ball3.shell_counts()[:3] == [1, 28, 84]

    def test_degrees_and_bipartite(self, ball2):
        b = ball2
        for v in range(b.size):
            nbrs = list(b.neighbors(v))
            for w in nbrs:
                assert b.kind(w) != b.kind(v)
            if b.dist[v] <= b.radius - 1:
                want = b.l**3 + 1 if b.kind(v) == HYPERSPECIAL else b.l + 1
                assert len(nbrs) == want

    def test_distance2_count(self):
        for l in (2, 3):
            b = TreeBall(l, 4)
            for v in b.vertices_of_kind(HYPERSPECIAL, b.radius - 2):
                assert len(list(b.distance_two(v))) == l * (l**3 + 1)

    def test_budget(self):
        with pytest.raises(BallSizeError):
            TreeBall(2, 3, vertex_budget=100)

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            TreeBall(4, 1)


class TestOperators:
    def test_A_delta_root(self, ball2):
        out = vertex_op_A(VertexFunction.delta(ball2, 0), ball2)
        assert out.values == {w: Fraction(1) for w in range(1, 10)}

    def test_A_zero(self, ball2):
        assert vertex_op_A(VertexFunction(HYPERSPECIAL), ball2).values == {}

    def test_A_constant_gives_degree(self, ball2):
        ones = VertexFunction(
            HYPERSPECIAL, {v: 1 for v in ball2.vertices_of_kind(HYPERSPECIAL, 2)}
        )
        out = vertex_op_A(ones, ball2)
        for w in ball2.vertices_of_kind(SPECIAL, 1):
            assert out(w) == ball2.l + 1

    def test_B_delta_distance1(self, ball2):
        w = 1  # a distance-1 special
        out = vertex_op_B(VertexFunction.delta(ball2, w), ball2)
        assert out(0) == 1
        assert sorted(out.support()) == [0] + list(ball2.children(w))
        assert len(out.support()) == ball2.l + 1

    def test_B_constant_gives_degree(self, ball2):
        ones = VertexFunction(SPECIAL, {w: 1 for w in ball2.vertices_of_kind(SPECIAL, 3)})
        out = vertex_op_B(ones, ball2)
        for v in ball2.vertices_of_kind(HYPERSPECIAL, 2):
            assert out(v) == ball2.l**3 + 1

    def test_Tl_delta_root(self, ball2):
        t = op_Tl(VertexFunction.delta(ball2, 0), ball2)
        assert t(0) == 0
        dist2 = [v for v in range(ball2.size) if ball2.dist[v] == 2]
        assert all(t(v) == 1 for v in dist2)
        assert sum(t.values.values()) == 18

    def test_Tl_constant_at_root(self, ball2):
        ones = VertexFunction(
            HYPERSPECIAL, {v: 1 for v in ball2.vertices_of_kind(HYPERSPECIAL, 2)}
        )
        assert op_Tl(ones, ball2)(0) == 18

    def test_boundary_error(self, ball2):
        edge_vertex = next(v for v in range(ball2.size) if ball2.dist[v] == ball2.radius - 1)
        f = VertexFunction(ball2.kind(edge_vertex), {edge_vertex: 1})
        with pytest.raises(BoundaryError):
            op_Tl(f, ball2)
        boundary = next(v for v in range(ball2.size) if ball2.dist[v] == ball2.radius)
        g = VertexFunction(ball2.kind(boundary), {boundary: 1})
        with pytest.raises(BoundaryError):
            vertex_op_A(g, ball2) if ball2.kind(boundary) == HYPERSPECIAL else vertex_op_B(
                g, ball2
            )

    def test_stratum_mismatch(self, ball2):
        with pytest.raises(ValueError):
            vertex_op_A(VertexFunction(SPECIAL, {1: 1}), ball2)


class TestCompositionIdentity:
    def test_exhaustive_l2_l3(self, ball2, ball3):
        for b in (ball2, ball3):
            report = verify_composition(b)
            assert report["ok"], report["violations"][:3]
            assert report["checked_deltas"] == 1 + b.l * (b.l**3 + 1)

    @pytest.mark.parametrize("name", ["ball2", "ball3"])
    def test_mirror_identity(self, name, request):
        b = request.getfixturevalue(name)
        report = verify_mirror_composition(b)
        assert report["ok"], report["violations"][:3]
        # specials at distance <= 2 sit at distance 1
        assert report["checked_deltas"] == b.l**3 + 1

    def test_dropped_term_is_reported(self, ball2, monkeypatch):
        root, dropped = 0, next(v for v in range(ball2.size) if ball2.dist[v] == 2)
        original = tree.op_Tl

        def lossy_Tl(f, ball):
            out = original(f, ball)
            if f.support() == {root}:
                del out.values[dropped]
            return out

        monkeypatch.setattr(tree, "op_Tl", lossy_Tl)
        report = verify_composition(ball2)
        assert not report["ok"]
        assert report["violations"] == [
            {"delta_at": root, "vertex": dropped, "lhs": Fraction(1), "rhs": Fraction(0)}
        ]

    def test_random_function_identity(self):
        rng = random.Random(17)
        b = TreeBall(3, 3)
        support = b.vertices_of_kind(HYPERSPECIAL, 1)  # radius-1 support
        f = VertexFunction(HYPERSPECIAL, {v: Fraction(rng.randint(-5, 5)) for v in support})
        lhs = vertex_op_B(vertex_op_A(f, b), b)
        rhs = op_Tl(f, b).add_scaled(f, b.l**3 + 1)
        for v in b.vertices_of_kind(HYPERSPECIAL, b.radius - 2):
            assert lhs(v) == rhs(v)

    def test_trivial_radius(self):
        assert verify_composition(TreeBall(2, 0))["checked_deltas"] == 0
