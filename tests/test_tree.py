import hashlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

from u3local import tree
from u3local.cli import main
from u3local.tree import (
    HYPERSPECIAL,
    SPECIAL,
    BallSizeError,
    TreeBall,
    expected_shell_counts,
    verify_composition,
    verify_mirror_composition,
)

from .oracles import explicit_ball


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

    @pytest.mark.parametrize("method", ["kind", "children", "neighbors", "distance_two"])
    def test_vertices_outside_the_ball_are_refused(self, method):
        b = TreeBall(2, 3)
        for v in (-1, -2, -b.size, -b.size - 1, b.size, b.size + 7):
            with pytest.raises(IndexError):
                getattr(b, method)(v)
        getattr(b, method)(0)
        getattr(b, method)(b.size - 1)


# The tree ladder of the benchmark's `tree` workload, without the desk-scale ball.
LADDER = [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (5, 2), (5, 3)]


def _oracle_mismatches(ball, oracle) -> list:
    """Every place where the ball disagrees with the explicit BFS ball."""
    bad = []
    if ball.shell_counts() != oracle["shell_counts"]:
        bad.append(("shell_counts", ball.shell_counts(), oracle["shell_counts"]))
    if ball.size != len(oracle["dist"]):
        bad.append(("size", ball.size, len(oracle["dist"])))
    for v in range(min(ball.size, len(oracle["dist"]))):
        parent = [oracle["parent"][v]] if oracle["parent"][v] >= 0 else []
        got = (ball.dist[v], ball.kind(v), list(ball.children(v)), list(ball.neighbors(v)))
        want = (oracle["dist"][v], oracle["kind"][v], oracle["children"][v],
                parent + oracle["children"][v])
        if got != want:
            bad.append((v, got, want))
    return bad


@pytest.mark.parametrize("l,radius", LADDER + [(2, 0), (3, 0), (2, 1), (5, 1)])
def test_ball_matches_explicit_bfs(l, radius):
    assert _oracle_mismatches(TreeBall(l, radius), explicit_ball(l, radius)) == []


@pytest.mark.parametrize("l,radius", [(2, 4), (3, 3), (5, 1)])
def test_explicit_bfs_sees_a_wrong_branching(l, radius, monkeypatch):
    ball = TreeBall(l, radius)
    oracle = explicit_ball(l, radius)
    for d in range(radius):
        perturbed = list(ball._branch)
        perturbed[d] += 1
        monkeypatch.setattr(ball, "_branch", perturbed)
        assert _oracle_mismatches(ball, oracle), f"branch[{d}] off by one went unseen"


class TestValueTypes:
    """The shells that ``vertices_of_kind`` reads off, against a scan of every vertex."""

    @pytest.mark.parametrize("l,radius", LADDER)
    def test_vertices_of_kind_brute_force(self, l, radius):
        b = TreeBall(l, radius)
        assert b.shell_counts() == [b.dist.count(d) for d in range(radius + 1)]
        for kind, want in ((HYPERSPECIAL, 0), (SPECIAL, 1)):
            for max_dist in (None, -1, 0, 1, radius - 2, radius, radius + 1):
                lim = radius if max_dist is None else max_dist
                brute = [v for v in range(b.size) if b.dist[v] % 2 == want and b.dist[v] <= lim]
                assert b.vertices_of_kind(kind, max_dist) == brute


def _edit_distance_two(monkeypatch, ball, at, edit):
    """Patch ``ball.distance_two`` so that the list at vertex ``at`` goes through ``edit``."""
    original = ball.distance_two

    def edited(v):
        out = original(v)
        if v == at:
            edit(out)
        return out

    monkeypatch.setattr(ball, "distance_two", edited)


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
        _edit_distance_two(monkeypatch, ball2, root, lambda out: out.remove(dropped))
        report = verify_composition(ball2)
        assert not report["ok"]
        assert report["violations"] == [
            {"delta_at": root, "vertex": dropped, "lhs": 1, "rhs": 0}
        ]

    def test_replaced_term_is_reported(self, ball2, monkeypatch):
        # the lists keep their length, so only their entries tell them apart
        root = 0
        kept, replaced = ball2.distance_two(root)[0], ball2.distance_two(root)[-1]
        _edit_distance_two(monkeypatch, ball2, root, lambda out: out.__setitem__(-1, kept))
        assert verify_composition(ball2)["violations"] == [
            {"delta_at": root, "vertex": kept, "lhs": 1, "rhs": 2},
            {"delta_at": root, "vertex": replaced, "lhs": 1, "rhs": 0},
        ]

    def test_dropped_term_is_reported_on_the_mirror(self, ball2, monkeypatch):
        special = ball2.vertices_of_kind(SPECIAL, ball2.radius - 2)[-1]
        dropped = ball2.distance_two(special)[-1]
        _edit_distance_two(monkeypatch, ball2, special, lambda out: out.remove(dropped))
        assert verify_composition(ball2)["ok"]
        assert verify_mirror_composition(ball2)["violations"] == [
            {"delta_at": special, "vertex": dropped, "lhs": 1, "rhs": 0}
        ]

    def test_missing_child_is_reported(self, ball2, monkeypatch):
        # T reads the shell offsets, not ``neighbors``, so it still counts the
        # lost child's l children that the 2-walks from the root no longer reach
        root, lost = 0, ball2.children(0)[-1]
        original = ball2.neighbors
        monkeypatch.setattr(
            ball2, "neighbors", lambda v: [w for w in original(v) if (v, w) != (root, lost)]
        )
        report = verify_composition(ball2)
        assert not report["ok"]
        degree = ball2.l**3 + 1
        assert report["violations"] == [
            {"delta_at": root, "vertex": root, "lhs": degree - 1, "rhs": degree}
        ] + [
            {"delta_at": root, "vertex": u, "lhs": 0, "rhs": 1} for u in ball2.children(lost)
        ]
        assert len(report["violations"]) == 1 + ball2.l

    def test_trivial_radius(self):
        assert verify_composition(TreeBall(2, 0))["checked_deltas"] == 0

    @pytest.mark.parametrize("l,pair", [(2, (9, 3)), (3, (28, 4))])
    def test_swapped_pair_fails_both_identities(self, l, pair):
        b = TreeBall(l, 4)
        assert b.degrees == pair
        b.degrees = pair[::-1]
        assert not verify_composition(b)["ok"]
        assert not verify_mirror_composition(b)["ok"]


@pytest.mark.parametrize("l,radius", [(2, 4), (3, 3), (5, 2)])
def test_walk_lists_agree_with_the_operators(l, radius):
    # the lists the walk-identity check compares, against the explicit BFS ball:
    # B o A (or A o B) applied to delta_v counts the neighbours of v's neighbours,
    # and T applied to it counts those of them other than v, in the order of
    # that walk, at every vertex, the boundary shells included
    ball = TreeBall(l, radius)
    oracle = explicit_ball(l, radius)
    parent, children = oracle["parent"], oracle["children"]

    def around(v):
        return ([parent[v]] if parent[v] >= 0 else []) + children[v]

    nb = ball.neighbors
    for v in range(ball.size):
        walks = [u for w in around(v) for u in around(w)]
        assert sorted(walks) == sorted(u for w in nb(v) for u in nb(w))
        assert [u for u in walks if u != v] == ball.distance_two(v)
    interior = [v for v, d in enumerate(oracle["dist"]) if d <= radius - 2]
    assert len(interior) == (
        verify_composition(ball)["checked_deltas"] + verify_mirror_composition(ball)["checked_deltas"]
    ) > 0


def _mutant_distance_two(ball, old, new):
    """``ball.distance_two`` with one edit of its source, bound to the ball."""
    source = textwrap.dedent(inspect.getsource(TreeBall.distance_two))
    assert source.count(old) == 1, f"{old!r} is not one line of distance_two"
    namespace = {}
    exec(source.replace(old, new), vars(tree), namespace)
    return types.MethodType(namespace["distance_two"], ball)


@pytest.mark.parametrize(
    "old,new",
    [
        # the siblings below v, then those above it, each range off by one
        ("range(first, v)", "range(first + 1, v)"),
        ("range(first, v)", "range(first, v + 1)"),
        ("range(v + 1, first", "range(v + 2, first"),
        ("first + branch[d - 1])", "first + branch[d - 1] + 1)"),
        # the grandchild block shifted by one
        ("range(start, start + n)", "range(start + 1, start + n + 1)"),
        ("range(start, start + n)", "range(start - 1, start + n - 1)"),
        # the grandparent one place off
        ("p // branch[d - 2])", "p // branch[d - 2] + 1)"),
    ],
)
@pytest.mark.parametrize("l,radius", [(2, 4), (3, 4)])
def test_shell_arithmetic_mutants_are_reported(l, radius, old, new, monkeypatch):
    ball = TreeBall(l, radius)
    monkeypatch.setattr(ball, "distance_two", _mutant_distance_two(ball, old, new))
    reports = verify_composition(ball), verify_mirror_composition(ball)
    assert not all(report["ok"] for report in reports)


def test_desk_scale_ball(capsys):
    code = main(["tree", "verify", "--l", "3", "--radius", "6"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0 and doc["passed"]
    assert doc["results"]["vertices"] == 744017
    assert doc["results"]["composition_checked_deltas"] == 6889
    assert doc["results"]["mirror_checked_deltas"] == 2296
    # recorded from the check that composed the VertexFunction operators per delta
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d8663af66a2d88c5c8ae8e60c0a81a753f92b81f329ff6d8c1857d9141e023cb"
    )


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is a Linux /proc field")
def test_desk_scale_ball_memory():
    # a fresh interpreter; its peak resident set comes from VmHWM, because
    # ru_maxrss keeps the peak of the process it was started from across exec.
    # The ball's per-vertex tables held 77-79 MB, shell offsets and dist 26 MB.
    code = (
        "import contextlib, io\n"
        "from u3local.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['tree', 'verify', '--l', '3', '--radius', '6'])\n"
        "with open('/proc/self/status') as fh:\n"
        "    peak_kb = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
        "print(code, peak_kb)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    exit_code, peak_kb = done.stdout.split()
    assert exit_code == "0"
    assert int(peak_kb) < 50 * 1024
