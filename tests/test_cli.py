import contextlib
import enum
import functools
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from u3local import analytic, cli, cosets, slope, tree
from u3local.cli import main
from u3local.cosets import complete_biregular, parallel_multigraph
from u3local.poly import Poly
from u3local.satake import PrincipalSeries

from . import oracles
from .oracles import jsonable


@pytest.fixture()
def k39_path(tmp_path):
    p = tmp_path / "k39.graph"
    p.write_text(complete_biregular(2).describe())
    return str(p)


@pytest.fixture()
def m13_path(tmp_path):
    p = tmp_path / "m13.graph"
    p.write_text(parallel_multigraph(2).describe())
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestTreeVerify:
    def test_radius3(self, capsys):
        code, doc = run_json(capsys, "tree", "verify", "--l", "2", "--radius", "3")
        assert code == 0 and doc["passed"]
        assert doc["results"]["shell_counts"] == [1, 9, 18, 144]

    def test_radius0_trivial(self, capsys):
        code, doc = run_json(capsys, "tree", "verify", "--l", "2", "--radius", "0")
        assert code == 0
        assert doc["results"]["composition_checked_deltas"] == 0

    def test_composite_l_rejected(self, capsys):
        code = main(["tree", "verify", "--l", "4", "--radius", "2"])
        assert code == 2
        assert "not prime" in capsys.readouterr().err

    def test_violation_is_reported(self, capsys, monkeypatch):
        ball = tree.TreeBall(2, 3)
        dropped = ball.distance_two(0)[-1]
        original = tree.TreeBall.distance_two

        def lossy_distance_two(self, v):
            out = original(self, v)
            if v == 0:
                out.remove(dropped)
            return out

        monkeypatch.setattr(tree.TreeBall, "distance_two", lossy_distance_two)
        code, out = run(capsys, "tree", "verify", "--l", "2", "--radius", "3")
        doc = json.loads(out)
        assert code == 1 and doc["passed"] is False
        assert '"passed": false' in out
        verdicts = {a["name"]: a for a in doc["assertions"]}
        assert verdicts["composition_identity"] == {
            "name": "composition_identity",
            "passed": False,
            "detail": [{"delta_at": 0, "vertex": dropped, "lhs": 1, "rhs": 0}],
        }
        assert verdicts["mirror_identity"]["passed"]
        # JSON integers, not strings or floats
        assert '"lhs": 1,' in out and '"rhs": 0,' in out

    def test_budget_exceeded(self, capsys):
        code = main(["--budget", "100", "tree", "verify", "--l", "2", "--radius", "4"])
        assert code == 2

    def test_largest_l2_ball_the_budget_admits_finishes(self, capsys, deadline):
        # radius 10 holds 1 887 436 vertices (about 2 s), radius 11 passes the
        # default budget: the row follows the boundary if either count moves
        admitted, refused = (sum(tree.expected_shell_counts(2, r)) for r in (10, 11))
        assert admitted <= 2_000_000 < refused
        with deadline(15):
            code, doc = run_json(capsys, "tree", "verify", "--l", "2", "--radius", "10")
        assert code == 0 and doc["passed"] and doc["results"]["vertices"] == admitted
        assert main(["tree", "verify", "--l", "2", "--radius", "11"]) == 2
        err = capsys.readouterr().err
        assert err == "error: ball would hold more than the budget of 2000000 vertices\n"


def _swap_pair(obj):
    """Swap the stored degree pair (and the walk eigenvalues, where held) after
    construction: the checks must not pass on either pair."""
    obj.degrees = obj.degrees[::-1]
    if hasattr(obj, "walk_eigenvalues"):
        obj.walk_eigenvalues = obj.walk_eigenvalues[::-1]
    return obj


class TestSwappedDegreePair:
    @pytest.mark.parametrize("path", ["k39_path", "m13_path"])
    def test_graph_checks_fail(self, capsys, monkeypatch, request, path):
        load = cosets.load_graph
        monkeypatch.setattr(cosets, "load_graph", lambda text: _swap_pair(load(text)))
        code, doc = run_json(capsys, "graph", "analyze", request.getfixturevalue(path))
        verdicts = {a["name"]: a["passed"] for a in doc["assertions"]}
        assert code == 1
        assert verdicts["level_matrix_blocks"] is verdicts["kernel_walk_eigenvalue"] is False

    def test_tree_checks_fail(self, capsys, monkeypatch):
        build = tree.TreeBall
        monkeypatch.setattr(tree, "TreeBall", lambda *a, **k: _swap_pair(build(*a, **k)))
        code, doc = run_json(capsys, "tree", "verify", "--l", "2", "--radius", "4")
        verdicts = {a["name"]: a["passed"] for a in doc["assertions"]}
        assert code == 1
        assert verdicts["composition_identity"] is verdicts["mirror_identity"] is False


class TestGraphCommands:
    def test_analyze(self, capsys, k39_path):
        code, doc = run_json(capsys, "graph", "analyze", k39_path)
        assert code == 0 and doc["passed"]
        assert doc["results"]["old_dim"] == 11
        assert doc["results"]["new_dim"] == 16

    def test_analyze_with_prime(self, capsys, k39_path):
        code, doc = run_json(capsys, "graph", "analyze", k39_path, "--prime", "3")
        assert code == 0
        assert doc["results"]["ihara_kernel_dim"] == 1
        assert doc["results"]["congruent_eigenvalues"] == [-9, 18]

    def test_congruence(self, capsys, m13_path):
        code, doc = run_json(capsys, "graph", "congruence", m13_path)
        assert code == 0 and doc["passed"]
        assert doc["results"]["torsion_invariants"] == []
        assert doc["results"]["q12_invariants"] == [3, 3, 3]

    def test_levelraise(self, capsys, k39_path):
        code, doc = run_json(
            capsys, "graph", "levelraise", k39_path, "--prime", "3", "--aux", "auto"
        )
        assert code == 0 and doc["passed"]
        assert doc["results"]["candidates"]

    def test_levelraise_with_labels(self, capsys, k39_path, tmp_path):
        labels = tmp_path / "trivial.labels"
        labels.write_text("labels order=1 gshift=0\n")
        code, doc = run_json(
            capsys,
            "graph", "levelraise", k39_path,
            "--prime", "3", "--aux", "none", "--labels", str(labels),
        )
        assert code == 0 and doc["passed"]

    def test_levelraise_bad_labels(self, capsys, k39_path, tmp_path):
        labels = tmp_path / "bad.labels"
        labels.write_text("labels order=2 gshift=1\nv0 1 1\n")
        code = main([
            "graph", "levelraise", k39_path, "--prime", "3", "--labels", str(labels)
        ])
        assert code == 2
        assert "shift" in capsys.readouterr().err

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("coset-graph l=2\nv0 1\nv1 3\ne 0 99\n")
        code = main(["graph", "analyze", str(bad)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_levelraise_scans_only_roots_of_unity(self, capsys, k39_path, deadline):
        # 29 members of order at most 3: a scan over every residue mod 65521
        # ran for about 30 s; the digest was recorded from that implementation
        with deadline(5):
            code, out = run(
                capsys, "graph", "levelraise", k39_path, "--prime", "65521", "--aux-limit", "29"
            )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4b3bfe9830099b8fd8e0d60d47980c2c0a8a66ac1b7679c9f1f44227168eab64"
        )

    def test_levelraise_aux_limit_zero_searches_nothing(self, capsys, k39_path, monkeypatch):
        # with no member to find, the search (one recursion per vertex, a
        # RecursionError at 1000 vertices) is skipped; the digest is the one
        # the searching route printed
        calls = []
        monkeypatch.setattr(cosets, "find_automorphisms", lambda *a, **k: calls.append(a))
        code, out = run(
            capsys, "graph", "levelraise", k39_path, "--prime", "3", "--aux-limit", "0"
        )
        assert code == 0 and calls == []
        assert hashlib.sha256(out.encode()).hexdigest().startswith("feda7ce2d3cc695a")

    def test_analyze_builds_level_matrix_once(self, capsys, k39_path, monkeypatch):
        calls = []
        original = cosets.level_matrix
        monkeypatch.setattr(cosets, "level_matrix", lambda g: calls.append(g) or original(g))
        code, _ = run_json(capsys, "graph", "analyze", k39_path, "--prime", "3")
        assert code == 0 and len(calls) == 1

    @pytest.mark.parametrize("command", ["analyze", "levelraise"])
    def test_walk_eigenvalues_take_one_char_poly_mod_a_word_prime(
        self, capsys, k39_path, monkeypatch, command
    ):
        # integer eigenvalues by exact rank: no char poly over Q, no CRT
        fields = []
        char_poly = cosets.Matrix.char_poly
        monkeypatch.setattr(
            cosets.Matrix, "char_poly", lambda m: fields.append(m.field) or char_poly(m)
        )
        code, _ = run_json(capsys, "graph", command, k39_path, "--prime", "3")
        assert code == 0
        assert [repr(field) for field in fields] == [f"GF({2**61 - 1})"]

    def test_analyze_reads_both_determinants_off_the_kernel(self, capsys, k39_path, monkeypatch):
        # the constant pair spans ker C, and its V0 part 1 has T0 1 = 18 * 1,
        # so det C = 0 = det(18 Id - T0) with no Bareiss elimination
        calls = []
        det = cosets.int_matrix_det
        monkeypatch.setattr(cosets, "int_matrix_det", lambda rows: calls.append(rows) or det(rows))
        code, doc = run_json(capsys, "graph", "analyze", k39_path, "--prime", "3")
        assert code == 0 and doc["results"]["det_lhs"] == 0
        assert calls == []

    def test_analyze_eliminates_the_incidence_matrix_once_each_way(
        self, capsys, k39_path, monkeypatch
    ):
        # inc is E x V = 27 x 12; the mod-p answers reduce the rational rrefs
        shapes, walks = [], []
        rref, walk = cosets.Matrix.rref, cosets.walk_operator_v0
        monkeypatch.setattr(cosets.Matrix, "rref", lambda m: shapes.append(m.shape) or rref(m))
        monkeypatch.setattr(cosets, "walk_operator_v0", lambda g: walks.append(g) or walk(g))
        code, _ = run_json(capsys, "graph", "analyze", k39_path, "--prime", "3")
        assert code == 0
        assert shapes.count((27, 12)) == 1 and shapes.count((12, 27)) == 1
        assert len(walks) == 1

    def test_levelraise_auto_on_former_stall(self, capsys, tmp_path, deadline):
        # the n0=16 graph on which the automorphism search once ran for minutes
        path = tmp_path / "r16-1.graph"
        path.write_text(cosets.random_biregular_graph(2, 16, random.Random(1)).describe())
        with deadline(30):
            code, doc = run_json(
                capsys, "graph", "levelraise", str(path), "--prime", "3", "--aux", "auto"
            )
        assert code == 0
        assert doc["results"]["aux_members"] == 0

    def test_analyze_at_desk_scale(self, capsys, tmp_path, deadline):
        # 128 vertices; the integer kernel and char poly go by way of F_p
        g = cosets.random_biregular_graph(2, 32, random.Random(1))
        path = tmp_path / "r32-1.graph"
        path.write_text(g.describe())
        with deadline(30):
            code, doc = run_json(capsys, "graph", "analyze", str(path), "--prime", "3")
        assert code == 0 and doc["passed"]
        assert doc["results"]["composite_kernel_dim"] == g.n_components

    def test_analyze_at_300_vertices(self, capsys, tmp_path, deadline):
        # the kernel from the raising map and no Bareiss of the composite; the
        # digest was recorded from the dense-composite implementation
        path = tmp_path / "r75-1.graph"
        path.write_text(cosets.random_biregular_graph(2, 75, random.Random(1)).describe())
        with deadline(8):
            code, out = run(capsys, "graph", "analyze", str(path), "--prime", "3")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b517eb8aa8d0c5a3015f26d03d4f358fedf6ef4d6a1f664ddbbb05ddf532f18c"
        )

    def test_congruence_at_192_vertices(self, capsys, tmp_path, deadline):
        # a hang guard, not a speed claim; the digest was recorded from the
        # implementation that formed the composite inc^T inc by hand
        path = tmp_path / "r48-1.graph"
        path.write_text(cosets.random_biregular_graph(2, 48, random.Random(1)).describe())
        with deadline(8):
            code, out = run(capsys, "graph", "congruence", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "169805c09d525c1594122761aa394c1380de8956d311ee10b3e990c29d285cf8"
        )

    def test_congruence_at_300_vertices(self, capsys, tmp_path, deadline):
        # a hang guard, not a speed claim; the digest was recorded from the
        # implementation that lowered the saturation of the old lattice as gamma2
        path = tmp_path / "r75-1.graph"
        path.write_text(cosets.random_biregular_graph(2, 75, random.Random(1)).describe())
        with deadline(30):
            code, out = run(capsys, "graph", "congruence", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d43b235a02932f91116ca4fc00a94429200b74061f3116e766fe733ee0bc8d1c"
        )

    def test_congruence_fails_when_the_old_lattice_has_torsion(self, capsys, k39_path, monkeypatch):
        # gamma2 is gamma3 only because im(i) is saturated; an invariant 2 of
        # gamma1 would say it is not, and the containment check must fail
        original = cosets.smith_normal_form
        monkeypatch.setattr(cosets, "smith_normal_form", lambda m: original(m) + [2])
        code, doc = run_json(capsys, "graph", "congruence", k39_path)
        assert code == 1 and not doc["passed"]
        assert doc["results"]["torsion_invariants"] == [2]
        assert {"name": "gamma_chain_containments", "passed": False} in doc["assertions"]

    def test_congruence_fails_on_a_composite_of_raised_rank(self, capsys, k39_path, monkeypatch):
        # q12 is finite only when rank C = rank inc; a composite of full rank
        # breaks that, and the containment check must fail
        original = cosets.CosetGraph.composite_rows

        def raised(g):
            rows = original(g)
            # C is positive semidefinite and its kernel is spanned by the vector
            # that is 1 on V0 and -1 on V1, so C + e0 e0^T is definite
            rows[0][0] += 1
            return rows

        monkeypatch.setattr(cosets.CosetGraph, "composite_rows", raised)
        code, doc = run_json(capsys, "graph", "congruence", k39_path)
        assert code == 1 and not doc["passed"]
        ranks = doc["results"]["gamma_ranks"]
        assert ranks["gamma2"] == ranks["gamma0"] == ranks["gamma1"] + 1
        assert {"name": "gamma_chain_containments", "passed": False} in doc["assertions"]

    def test_congruence_q12_sees_a_changed_composite_entry(self, capsys, k39_path, monkeypatch):
        code, doc = run_json(capsys, "graph", "congruence", k39_path)
        assert code == 0
        q12 = doc["results"]["q12_invariants"]
        original = cosets.CosetGraph.composite_rows

        def changed(g):
            rows = original(g)
            rows[0][1] += 3  # a V0-V0 entry, 0 in the true composite
            return rows

        monkeypatch.setattr(cosets.CosetGraph, "composite_rows", changed)
        _, doc = run_json(capsys, "graph", "congruence", k39_path)
        assert doc["results"]["q12_invariants"] != q12

    def test_missing_file(self, capsys):
        assert main(["graph", "analyze", "/nonexistent.graph"]) == 2
        capsys.readouterr()

    def test_analyze_refuses_prime_zero(self, capsys, k39_path, deadline):
        # 0 is a non-prime like 4, not a request to skip the mod-p checks
        with deadline(1):
            code = main(["graph", "analyze", k39_path, "--prime", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "0 is not prime" in err

    def test_levelraise_refuses_a_negative_prime_first(self, capsys, k39_path, deadline):
        # a negative prime made the budget estimate negative, and the search for
        # a million automorphisms of K39 ran before the prime was checked
        with deadline(5):
            code = main(["graph", "levelraise", k39_path, "--prime=-1", "--aux-limit", "1000000"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: -1 is not prime\n"


@pytest.mark.parametrize(
    "graph_text, labels_text, argv, message",
    [
        pytest.param(
            "coset-graph l=2\nv0\nv1 9\n", None, ["graph", "analyze", "{graph}"], "line 2",
            id="v0-without-count",
        ),
        pytest.param(
            "coset-graph l=2\nv0 3\nv1 x\n", None, ["graph", "analyze", "{graph}"], "line 3",
            id="count-not-an-integer",
        ),
        pytest.param(
            "coset-graph l=2\nv0 -1\nv1 -1\n", None, ["graph", "analyze", "{graph}"],
            "nonnegative", id="negative-vertex-count",
        ),
        pytest.param(
            None, "labels order=1\n",
            ["graph", "levelraise", "{graph}", "--prime", "3", "--labels", "{labels}"],
            "line 1", id="labels-without-gshift",
        ),
        pytest.param(
            None, "labels order=1 gshift=0\nv0 7 1\n",
            ["graph", "levelraise", "{graph}", "--prime", "3", "--labels", "{labels}"],
            "line 2", id="label-index-out-of-range",
        ),
        pytest.param(
            None, None,
            ["moduli", "witness", "--diag", "l,1", "--l", "2", "--nilpotent", "0,5"],
            "outside", id="nilpotent-entry-outside-matrix",
        ),
        pytest.param(
            None, None,
            ["moduli", "witness", "--diag", "l,1,1", "--l", "2", "--nilpotent=0,1,2"],
            "pair 1 ('0,1,2') is not i,j", id="nilpotent-pair-of-three",
        ),
        pytest.param(
            None, None,
            ["moduli", "witness", "--diag", "l,1,1", "--l", "2", "--nilpotent=0,1;"],
            "pair 2 ('') is not i,j", id="nilpotent-empty-pair",
        ),
        pytest.param(
            None, None,
            ["moduli", "witness", "--diag", "l,1,1", "--l", "2", "--nilpotent=a,b"],
            "pair 1 ('a,b') is not i,j", id="nilpotent-pair-not-integers",
        ),
        pytest.param(
            None, None,
            ["graph", "levelraise", "{graph}", "--prime", "3", "--aux", "auto", "--aux-limit", "-4"],
            "--aux-limit", id="negative-aux-limit",
        ),
        pytest.param(
            None, None,
            ["slope", "factor", "--poly=1,-3,2", "--p", "2", "--h", "0", "--precision", "-25"],
            "precision", id="slope-factor-negative-precision",
        ),
        pytest.param(
            None, None,
            ["slope", "decompose", "--entries", "1,0;0,3", "--p", "3", "--h", "0", "--precision", "-30"],
            "precision", id="slope-decompose-negative-precision",
        ),
        pytest.param(
            None, None, ["moduli", "pgl2", "--l", "4"], "4 is not prime", id="moduli-pgl2-composite-l",
        ),
        pytest.param(
            None, None, ["moduli", "components", "--diag", "l,1", "--l", "1"], "1 is not prime",
            id="moduli-components-l-one",
        ),
        pytest.param(
            None, None,
            ["moduli", "witness", "--diag", "l,1", "--l", "6", "--nilpotent", "0,1"],
            "6 is not prime", id="moduli-witness-composite-l",
        ),
        pytest.param(
            None, None, ["moduli", "components", "--diag", "l^x", "--l", "2"],
            "--diag exponent 'x' is not an integer", id="moduli-diag-exponent-not-an-integer",
        ),
        pytest.param(
            None, None, ["analytic", "weight", "--p", "3", "--level", "1", "--chi1", "x"],
            "--chi1 exponent 'x' is not an integer", id="analytic-chi-not-an-integer",
        ),
        pytest.param(
            None, None, ["slope", "polygon", "--poly=", "--p", "3"],
            "'' is not a rational number", id="slope-poly-not-a-rational",
        ),
        # 399165290221 * 798330580441, a strong pseudoprime to every base 2, ..., 37
        pytest.param(
            None, None, ["tree", "verify", "--l", "318665857834031151167461", "--radius", "0"],
            "cannot decide whether 318665857834031151167461 is prime", id="tree-verify-pseudoprime-l",
        ),
    ],
)
def test_malformed_input_is_an_error(capsys, tmp_path, graph_text, labels_text, argv, message):
    graph = tmp_path / "in.graph"
    graph.write_text(graph_text or complete_biregular(2).describe())
    labels = tmp_path / "in.labels"
    labels.write_text(labels_text or "")
    code = main([a.format(graph=graph, labels=labels) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


_MILLION_DIGITS = "1" * 1_000_000


class TestBudgetRefusals:
    """Work that would run without bound is refused before it starts."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["graph", "levelraise", "{graph}", "--prime", "1000003", "--aux", "auto"],
                "residue scans mod 1000003", id="levelraise-large-prime",
            ),
            # the members' edge operators: 40000 * 27^2 with the default budget
            pytest.param(
                ["graph", "levelraise", "{graph}", "--prime", "2", "--aux-limit", "40000"],
                "40000 operators on 27 edges", id="levelraise-many-members",
            ),
            pytest.param(
                ["analytic", "ihara", "--p", "2", "--m", "1", "--degree", "100000"],
                "degree 100000", id="ihara-large-degree",
            ),
            pytest.param(
                ["analytic", "weight", "--p", "3", "--level", "1000000000", "--chi1", "1",
                 "--chi2", "0", "--chi3", "0"],
                "3^1000000000", id="weight-large-level",
            ),
            pytest.param(
                ["tree", "verify", "--l", "2", "--radius", "1000000"],
                "more than the budget of 2000000 vertices", id="tree-large-radius",
            ),
            pytest.param(
                ["moduli", "components", "--diag", "l^100000000,1", "--l", "2"],
                "200000004 bits", id="components-large-power",
            ),
            pytest.param(
                ["moduli", "witness", "--diag", "l^-100000000,1", "--l", "2",
                 "--nilpotent", "0,1"],
                "200000004 bits", id="witness-large-negative-power",
            ),
            # the determinant alone divided for about 5 s when the estimate was
            # linear in the bits
            pytest.param(
                ["moduli", "components", "--diag=l^541175,1,1", "--l", "7"],
                "1623533 bits", id="components-fuzz-power",
            ),
            pytest.param(
                ["--budget", "10000000", "moduli", "components", "--diag=l^541175,1,1", "--l", "7"],
                "1623533 bits", id="components-fuzz-power-budget-1e7",
            ),
            pytest.param(
                ["moduli", "components", "--diag", "l,l,l,l,l,1,1,1,1", "--l", "2"],
                "2^20 combinations", id="components-large-solution-space",
            ),
            # 145 digits of 4 bits fill 10 words: 145^2 * 10^2 = 2102500
            pytest.param(
                ["moduli", "components", "--diag=" + ",".join(["1"] * 145), "--l", "2"],
                "--diag entries of 580 bits", id="components-145-ones",
            ),
            # a bare l or l^0 spells no bits but still fills a word:
            # 1415^2 * 1^2 = 2002225
            pytest.param(
                ["moduli", "components", "--diag=" + ",".join(["l"] * 1415), "--l", "2"],
                "--diag entries of 0 bits", id="components-1415-bare-l",
            ),
            pytest.param(
                ["moduli", "components", "--diag=" + ",".join(["l^0"] * 1415), "--l", "2"],
                "--diag entries of 0 bits", id="components-1415-l-to-the-0",
            ),
            pytest.param(
                ["slope", "factor", "--poly=1,-4,3", "--p", "3", "--h", "0",
                 "--precision", "3000000"],
                "precision 3000000", id="factor-large-precision",
            ),
            pytest.param(
                ["slope", "decompose", "--entries", "1,0;0,3", "--p", "3", "--h", "0",
                 "--precision", "3000000"],
                "precision 3000000", id="decompose-large-precision",
            ),
            # the char poly's CRT over the 5446 primes took about 6 s, past the
            # argv fuzz's deadline, before the prime was checked
            pytest.param(
                ["slope", "series", "--entries=1e100000", "--p", "3"],
                "modulo 5446 word primes", id="series-large-entry",
            ),
            pytest.param(
                ["slope", "decompose", "--entries=1e100000", "--p=0", "--h=0"],
                "modulo 5446 word primes", id="decompose-fuzz-entry",
            ),
        ],
    )
    def test_refused_past_budget(self, capsys, k39_path, deadline, argv, message):
        with deadline(5):
            code = main([a.format(graph=k39_path) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and message in err and "budget" in err

    def test_witness_of_a_1414_chain_refused(self, capsys, deadline):
        # 1414 bare l pass the --diag budget; a chain on them took 0.71 s at
        # n = 150 and 4.2 s at n = 300 before the witness booked its ranks
        n = 1414
        chain = ";".join(f"{i},{i + 1}" for i in range(n - 1))
        with deadline(2):
            code = main(["moduli", "witness", "--diag=" + ",".join(["l"] * n), "--l", "2",
                         "--nilpotent", chain])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "1414x1414 matrix with 1413 entries" in err
        assert "budget" in err

    # int() reads digits in quadratic time that no budget bounds (0.25 s for
    # 100 000 digits on a 2-core VM, so about 25 s for a million): argv
    # integers are read under the interpreter's 4300-digit limit
    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["satake", "eig", "--alpha", "1e" + _MILLION_DIGITS, "--l", "2"],
                         "a decimal exponent has more than 4300 digits", id="decimal-exponent"),
            pytest.param(["moduli", "components", "--diag", f"l^{_MILLION_DIGITS},1", "--l", "2"],
                         "an exponent of l^K in --diag has more than 4300 digits", id="diag-power"),
            pytest.param(["moduli", "witness", "--diag", "l,1", "--l", "2",
                          "--nilpotent", "0," + _MILLION_DIGITS],
                         "an index of --nilpotent pair 1 has more than 4300 digits",
                         id="nilpotent-index"),
        ],
    )
    def test_long_argv_integer_refused(self, capsys, deadline, argv, message):
        with deadline(5):
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {message}\n" and len(err) < 200

    @pytest.mark.parametrize(
        "argv",
        [
            ["moduli", "components", "--diag", "l^" + "x" * 1_000_000, "--l", "2"],
            ["analytic", "weight", "--p", "3", "--level", "1", "--chi1", "x" * 1_000_000],
            ["slope", "polygon", "--poly=" + "x" * 1_000_000, "--p", "3"],
        ],
        ids=["diag-exponent", "chi-exponent", "poly-coefficient"],
    )
    def test_long_bad_token_is_quoted_short(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'xxx" in err and len(err) < 200

    @pytest.mark.parametrize("option", ["--seed", "--se"])
    def test_long_int_option_is_an_error(self, capsys, deadline, option):
        assert main(["moduli", "pgl2", "--l", "2"]) == 0  # lifts the limit past the read
        capsys.readouterr()
        with deadline(5):
            code = main([option, _MILLION_DIGITS, "moduli", "pgl2", "--l", "2"])
        assert code == 2
        assert capsys.readouterr().err == "error: --seed has more than 4300 digits\n"

    @pytest.mark.parametrize(
        "argv, same_as",
        [
            (["--seed", "0" * 5000 + "2"], ["--seed", "2"]),
            (["--seed", "-" + "0" * 5000 + "2"], ["--seed", "-2"]),
            (["--seed", "+" + "0_" * 2500 + "2"], ["--seed", "2"]),
            (["--l", "0" * 5000 + "2"], ["--l", "2"]),
        ],
        ids=["seed", "negative-seed", "seed-with-underscores", "leaf-option"],
    )
    def test_leading_zeros_of_an_int_option_are_not_digits(self, capsys, argv, same_as):
        # over 4300 characters, the interpreter's limit while argv is read
        def pgl2(option):
            top, leaf = (option, ["--l", "2"]) if option[0] == "--seed" else ([], option)
            return run(capsys, *top, "moduli", "pgl2", *leaf)

        expected = pgl2(same_as)
        assert expected[0] == 0 and pgl2(argv) == expected

    def test_leading_zeros_are_not_digits(self, capsys):
        # l^(5000 zeros)2 is l^2, as int() reads it
        argv = ["moduli", "components", "--diag", "l^" + "0" * 5000 + "2,l,1", "--l", "2"]
        code, doc = run_json(capsys, *argv)
        assert code == 0
        assert doc["results"] == run_json(capsys, "moduli", "components", "--diag", "l^2,l,1",
                                          "--l", "2")[1]["results"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "analyze", "{graph}", "--prime", "3"],
            ["graph", "levelraise", "{graph}", "--prime", "3", "--aux-limit", "0"],
        ],
        ids=["analyze", "levelraise-no-members"],
    )
    def test_graph_of_1000_vertices_refused(self, capsys, tmp_path, deadline, argv):
        # 2250 edges x 1000 vertices; analyze ran 13.6 s and levelraise 11.8 s
        path = tmp_path / "r250-1.graph"
        path.write_text(cosets.random_biregular_graph(2, 250, random.Random(1)).describe())
        with deadline(5):
            code = main([a.format(graph=path) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "2250x1000 incidence matrix" in err and "budget" in err

    def test_congruence_of_920_vertices_refused(self, capsys, tmp_path, deadline):
        # 2070 edges x 920 vertices and the 920 x 920 composite: 2750800; the
        # command was still running after 65 s
        path = tmp_path / "r230-1.graph"
        path.write_text(cosets.random_biregular_graph(2, 230, random.Random(1)).describe())
        with deadline(2):
            code = main(["graph", "congruence", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "920x920 composite" in err and "budget" in err

    def test_congruence_at_desk_scale_admitted(self, capsys, tmp_path, monkeypatch):
        # n0 = 150 (600 vertices, 3.8 s) books 1350 * 600 + 600^2 = 1170000 of
        # the default budget; the Smith forms themselves are left out here
        path = tmp_path / "r150-1.graph"
        path.write_text(cosets.random_biregular_graph(2, 150, random.Random(1)).describe())
        k39, graphs = complete_biregular(2), []
        original = cosets.congruence_module
        monkeypatch.setattr(cosets, "congruence_module", lambda g: graphs.append(g) or original(k39))
        assert main(["graph", "congruence", str(path)]) == 0
        assert [g.n0 + g.n1 for g in graphs] == [600]
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, cost",
        [
            # the 27 x 12 incidence matrix of K39 and its 12 x 12 composite
            (["graph", "congruence", "{graph}"], 468),
            # three auxiliary members, each a scan over the 37 residues and an
            # operator on the 27 edges of K39, and the 27 x 12 incidence matrix:
            # 3 * 37 + 3 * 27^2 + 27 * 12
            (["graph", "levelraise", "{graph}", "--prime", "37", "--aux", "auto"], 2622),
            # the 27 x 12 entries of the incidence matrix of K39
            (["graph", "analyze", "{graph}", "--prime", "3"], 324),
            # blocks of sides 1; 2, 1, 1; 3, 2, 2, 1, 1, 1 at degrees 0, 1, 2
            (["analytic", "ihara", "--p", "2", "--m", "1", "--degree", "2"], 27),
            # the nine residues mod 3^2
            (["analytic", "weight", "--p", "3", "--level", "2",
              "--chi1", "1", "--chi2", "0", "--chi3", "0"], 9),
            # the 2^2 - 1 nonzero combinations of E_01 and E_02, a 3 x 3 Jordan type each
            (["moduli", "components", "--diag", "l,1,1", "--l", "2"], 81),
            # degree 2 cubed, times the square of the ceil((20 + 25) * 2 / 64) = 2 words
            (["slope", "factor", "--poly=1,-4,3", "--p", "3", "--h", "0"], 32),
            (["slope", "decompose", "--entries", "1,0;0,3", "--p", "3", "--h", "0"], 32),
            # the char poly of the 4 x 4 identity: one prime, 1 * (1 * 5 + 4^3)
            (["slope", "series", "--entries", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1", "--p", "3"], 69),
        ],
        ids=[
            "congruence", "levelraise", "analyze", "ihara", "weight", "components", "factor", "decompose",
            "series",
        ],
    )
    def test_budget_is_the_estimate(self, capsys, k39_path, argv, cost):
        argv = [a.format(graph=k39_path) for a in argv]
        assert main(["--budget", str(cost - 1)] + argv) == 2
        assert "budget" in capsys.readouterr().err
        assert main(["--budget", str(cost)] + argv) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("digits, code", [(160, 0), (161, 2)])
    def test_weight_exponent_digits_are_budgeted(self, capsys, digits, code):
        # 160 digits spell 640 bits, 10 words: 10^2 = 100 (the units mod 3^2
        # book 9 on their own); 161 digits take 11 words
        argv = ["--budget", "100", "analytic", "weight", "--p", "3", "--level", "2",
                "--chi1", "1" * (digits - 2), "--chi2", "0", "--chi3", "0"]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert not code or f"exponents of {digits} digits would pass the budget 100" in err

    def test_diag_budget_is_the_estimate(self, capsys):
        # |100| + |-50| exponents of l = 3, two bits each, and the four bits of
        # the digit 1: 304 bits in 5 words, so 3^2 entries times 5^2
        argv = ["moduli", "components", "--diag", "l^100,l^-50,1", "--l", "3"]
        assert main(["--budget", "224"] + argv) == 2
        assert "304 bits" in capsys.readouterr().err
        assert main(["--budget", "225"] + argv) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["satake", "eig", "--alpha", "1e5000000", "--l", "2"], id="eig-alpha"),
            pytest.param(
                ["satake", "classify", "--alpha", "1e50000000", "--l", "2"], id="classify-alpha"
            ),
            pytest.param(
                ["analytic", "ihara", "--p", "2", "--m", "1", "--degree", "2",
                 "--delta", "1e3000000"],
                id="ihara-delta",
            ),
            pytest.param(
                ["satake", "ve-check", "--q", "2", "--psi", "1", "--t1", "1",
                 "--t2", "1", "--t3=-1e-600000"],
                id="ve-check-negative-exponent",
            ),
            # below: each token is inside the budget, the argument is not
            pytest.param(
                ["slope", "polygon", "--poly", "1,1e200000,1e200000,1e200000", "--p", "2"],
                id="polygon-sum",
            ),
            pytest.param(
                ["slope", "series", "--entries", "1e300000,0;0,1e300000", "--p", "2"],
                id="series-entries-sum",
            ),
            pytest.param(
                ["moduli", "components", "--diag", "1e400000,l^300000,1", "--l", "2"],
                id="diag-powers-of-l-and-ten",
            ),
        ],
    )
    def test_decimal_exponent_refused(self, capsys, deadline, argv):
        with deadline(1):
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "bits" in err and "budget" in err

    def test_decimal_exponent_budget_is_the_estimate(self, capsys):
        # exponents 3 and -2 of ten, bit_length(10) = 4 bits each
        argv = ["slope", "polygon", "--poly", "1,1e3,2.5e-2", "--p", "5"]
        assert main(["--budget", "19"] + argv) == 2
        assert "20 bits" in capsys.readouterr().err
        assert main(["--budget", "20"] + argv) == 0
        capsys.readouterr()

    def test_exponent_at_the_digit_limit_is_refused_by_the_budget(self, capsys, deadline):
        # 4300 digits are read, and their power of ten passes the budget; one
        # more digit is refused unread
        with deadline(2):
            code = main(["satake", "eig", "--alpha=1e" + "9" * 4300, "--l", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: decimal exponents of ") and "budget" in err
        assert main(["satake", "eig", "--alpha=1e" + "9" * 4301, "--l", "2"]) == 2
        assert capsys.readouterr().err == "error: a decimal exponent has more than 4300 digits\n"

    def test_decimal_digits_budget_is_the_estimate(self, capsys):
        # five digits, bit_length(10) = 4 bits each; the exponent counts apart
        argv = ["slope", "polygon", "--poly", "12,3.45e1", "--p", "5"]
        assert main(["--budget", "19"] + argv) == 2
        assert "decimal digits of 20 bits" in capsys.readouterr().err
        assert main(["--budget", "20"] + argv) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "name, text, argv, message",
        [
            pytest.param(
                "m.txt", "1," + "7" * 600_000, ["slope", "series", "--matrix-file", "{path}", "--p", "2"],
                "decimal digits of 2400004 bits", id="matrix-file-entry",
            ),
            pytest.param(
                "g.graph", "coset-graph l=2\nv0 " + "7" * 1_000_000 + "\n", ["graph", "analyze", "{path}"],
                "integer of 1000000 characters", id="graph-file-count",
            ),
        ],
    )
    def test_long_number_in_a_file_refused(self, capsys, tmp_path, deadline, name, text, argv, message):
        # the interpreter no longer bounds the digits it reads, and reading
        # them takes time quadratic in their number
        path = tmp_path / name
        path.write_text(text)
        with deadline(2):
            code = main([a.format(path=path) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and message in err and len(err) < 200

    def test_huge_declared_vertex_count(self, capsys, tmp_path, deadline):
        path = tmp_path / "huge.graph"
        path.write_text("coset-graph l=2\nv0 10000000000\nv1 1\ne 0 0\n")
        with deadline(5):
            code = main(["graph", "analyze", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "edge count" in err


_COUNT = st.one_of(
    st.integers(-3, 12),
    st.integers(0, 12).map(lambda k: 10**k),
    st.integers(-(10**12), 10**12),
)
_NOISE = st.tuples(
    st.sampled_from(["v0", "v1", "e", "labels", "coset-graph", "# note", "bogus"]),
    st.lists(
        st.one_of(_COUNT.map(str), st.text(alphabet="0123456789=lx-#", max_size=5)),
        max_size=3,
    ),
).map(lambda t: " ".join([t[0], *t[1]]))
_GRAPH_LINE = st.one_of(
    _COUNT.map("coset-graph l={}".format),
    st.tuples(st.sampled_from(["v0", "v1"]), _COUNT).map("{0[0]} {0[1]}".format),
    st.tuples(_COUNT, _COUNT).map("e {0[0]} {0[1]}".format),
    _NOISE,
)
# mostly a header and both counts first, so the counts reach the graph itself
_GRAPH_LINES = st.one_of(
    st.lists(_GRAPH_LINE, max_size=8),
    st.tuples(st.sampled_from([2, 3]) | _COUNT, _COUNT, _COUNT, st.lists(_GRAPH_LINE, max_size=5))
    .map(lambda t: [f"coset-graph l={t[0]}", f"v0 {t[1]}", f"v1 {t[2]}", *t[3]]),
)
_LABEL_LINE = st.one_of(
    st.tuples(_COUNT, _COUNT).map("labels order={0[0]} gshift={0[1]}".format),
    st.tuples(st.sampled_from(["v0", "v1"]), _COUNT, _COUNT).map("{0[0]} {0[1]} {0[2]}".format),
    _NOISE,
)


def _run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(_GRAPH_LINES, st.lists(_LABEL_LINE, max_size=6))
def test_directive_fuzz_is_a_format_error(graph_lines, label_lines):
    # the loaders raise only their own errors, and the CLI turns each into
    # "error:" with exit code 2
    k39 = complete_biregular(2)
    graph_text = "\n".join(graph_lines) + "\n"
    label_text = "\n".join(label_lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("graph", graph_text), ("labels", label_text), ("k39", k39.describe())):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w") as fh:
                fh.write(text)
        runs = []
        try:
            cosets.load_graph(graph_text)
        except cosets.GraphFormatError:
            runs.append(["graph", "analyze", paths["graph"]])
        try:
            cosets.load_labeling(label_text, k39).validate(k39)
        except (cosets.GraphFormatError, cosets.LabelingError):
            runs.append(["graph", "levelraise", paths["k39"], "--prime", "3", "--aux", "none",
                         "--labels", paths["labels"]])
        for argv in runs:
            code, err = _run_quietly(argv)
            assert code == 2
            assert err.startswith("error:") and "Traceback" not in err


_SIGN = st.sampled_from(["", "-", "+"])
_DIGITS = st.text(alphabet="0123456789", max_size=6)
_DECIMAL_EXPONENT = st.tuples(
    st.sampled_from(["e", "E", "e+", "e-"]),
    st.one_of(st.integers(0, 12), st.integers(0, 12).map(lambda k: 10**k), st.integers(0, 10**12)),
).map(lambda t: f"{t[0]}{t[1]}")
_ALPHA = st.one_of(
    st.tuples(_SIGN, _DIGITS, st.sampled_from(["", "/", "."]), _DIGITS,
              st.one_of(st.just(""), _DECIMAL_EXPONENT)).map("".join),
    st.text(alphabet="0123456789+-/.eE", max_size=12),
)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["satake", "eig", "--alpha=--", "--l", "2"], "--alpha"),
        (["satake", "eig", "--alpha", "2", "--l=--"], "--l"),
        (["moduli", "components", "--diag=--", "--l", "2"], "--diag"),
        (["slope", "series", "--matrix-file=--", "--p", "2"], "--matrix-file"),
        (["satake", "eig", "--alph=--", "--l", "2"], "--alpha"),
        (["--bud=--", "satake", "eig", "--alpha", "2", "--l", "2"], "--budget"),
        (["satake", "eig", "--l", "2", "--alp=4", "--alpha=--"], "--alpha"),
        (["graph", "analyze", "g", "--prime=--"], "--prime"),
    ],
)
def test_option_given_as_double_dash_is_an_error(argv, option):
    # argparse would pass `--opt=--` on as an empty list or as '--', by
    # version; the reader refuses it by the option's full name, also after an
    # abbreviation and for an int option
    code, err = _run_quietly(argv)
    assert code == 2
    assert err == f"error: {option} expects one value\n"


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["eig", "classify"]), _ALPHA)
def test_alpha_fuzz_ends_in_a_verdict_or_an_error(cmd, alpha):
    code, err = _run_quietly(["satake", cmd, f"--alpha={alpha}", "--l", "2"])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error:") and "Traceback" not in err


# ints of every sort an argv can hold: negative, 0, 1, composite, prime, and past 2^64
_ARGV_INT = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([2, 3, 5, 7]),
    st.sampled_from([-(2**64), 2**31 - 1, 2**61 - 1, 2**64, 2**64 + 13, 2**89 - 1, 3**41]),
    st.integers(-(2**70), 2**70),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_ARGV_INT, _ARGV_INT, st.integers(-1, 10**5))
def test_tree_verify_argv_fuzz_ends_in_a_verdict_or_an_error(deadline, l, radius, budget):
    with deadline(5):
        code, err = _run_quietly(
            ["--budget", str(budget), "tree", "verify", "--l", str(l), "--radius", str(radius)]
        )
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.splitlines()[-1].startswith("error:")


# split at h = 0 mod 3: (1 - T)(1 - 3T), and the degree 8 series of _LOCAL_DIGESTS
_SLOPE_POLYS = st.sampled_from(
    ["1,-4,3", "1,-63,1310,-5742,-137223,1566945,-213192,-55581876,180033840"]
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_SLOPE_POLYS, _ARGV_INT,
       st.one_of(st.integers(-3, 30), st.integers(-(10**7), 10**7)))
def test_slope_factor_argv_fuzz_ends_in_a_verdict_or_an_error(deadline, poly, p, precision):
    with deadline(5):
        code, err = _run_quietly(
            ["slope", "factor", f"--poly={poly}", "--p", str(p), "--h", "0",
             "--precision", str(precision)]
        )
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.splitlines()[-1].startswith("error:")


# a split of each prime's benchmark kind: diag(1, 3) and a 6x6 seeded at p = 2
_DECOMPOSE_ENTRIES = st.sampled_from(
    ["1,0;0,3",
     "-28,0,0,-40,80,0;0,-1,0,0,0,0;0,0,5,0,0,0;-168,0,0,-148,324,0;-84,0,0,-80,174,0;0,0,0,0,0,-4"]
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_DECOMPOSE_ENTRIES, _ARGV_INT,
       st.one_of(st.integers(-3, 30), st.integers(-(10**7), 10**7)))
def test_slope_decompose_argv_fuzz_ends_in_a_verdict_or_an_error(deadline, entries, p, precision):
    with deadline(5):
        code, err = _run_quietly(
            ["slope", "decompose", f"--entries={entries}", "--p", str(p), "--h", "0",
             "--precision", str(precision)]
        )
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.splitlines()[-1].startswith("error:")


# --diag tokens: powers of l with small, huge and negative exponents, plain
# rationals, zero and malformed powers; at most six entries keep the
# solution space's 0/1 walk at 2^9 combinations
_DIAG_TOKEN = st.one_of(
    st.sampled_from(["1", "l", "l^0", "l^2", "l^-1", "-1", "2/3", "0", "1e3", "l^", "l^x", "l^2^3"]),
    st.integers(-(2**70), 2**70).map(lambda k: f"l^{k}"),
    st.integers(-8, 8).map(lambda k: f"l^{k}"),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_ARGV_INT, st.lists(_DIAG_TOKEN, min_size=1, max_size=6),
       st.one_of(st.none(), st.integers(-1, 10**7)))
@example(l=7, tokens=["l^541175", "1", "1"], budget=None)
@example(l=7, tokens=["l^541175", "1", "1"], budget=10**7)
# the dominance closure once filtered all p(400) partitions of 400, and the
# solution space built a 160000 x 160000 linear system
@example(l=2, tokens=["1"] * 400, budget=10**8)
def test_moduli_components_argv_fuzz_ends_in_a_verdict_or_an_error(deadline, l, tokens, budget):
    argv = [] if budget is None else ["--budget", str(budget)]
    argv += ["moduli", "components", f"--diag={','.join(tokens)}", "--l", str(l)]
    with deadline(5):
        code, err = _run_quietly(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.splitlines()[-1].startswith("error:")


# string options: rationals, l^k tokens, a huge decimal exponent, malformed
# tokens, coefficient lists and 'a,b;c,d' matrices
_ARGV_TEXT = st.sampled_from([
    "0", "1", "-2", "3/4", "-7/9", "2.5e-2", "1e100000", "1/0",
    "l", "l^2", "l^-1", "l^2,l,1", "l^100,1", "l^", "l^x",
    "", "x", "--", ",", ";", "1,,2", "1,2;3",
    "1,-4,3", "2,1", "0,1;1,2", "1,0;0,3", "1,1;0,3", "-1,2;3/4,0",
])
# path options: a K39 file, a labels file and a missing path, filled in by the test
_PATH_DESTS = {"path", "labels", "matrix_file"}
_ARGV_PATH = st.sampled_from(["{k39}", "{labels}", "{missing}"])


def _leaves(group):
    return sorted(cmd for g, cmd in cli._COMMANDS if g == group)


def _value_strategy(name, keywords):
    if keywords.get("action") == "store_true":
        return st.just(None)  # a flag
    if "choices" in keywords:
        return st.sampled_from(sorted(keywords["choices"]))
    if keywords.get("type") is int:
        return _ARGV_INT.map(str)
    return _ARGV_PATH if name.lstrip("-").replace("-", "_") in _PATH_DESTS else _ARGV_TEXT


def _is_required(name, keywords):
    return name[:1] != "-" or keywords.get("required", False)


@st.composite
def _parser_argv(draw):
    """An argv drawn from the CLI's command table: a subcommand, then each of
    its arguments in turn (a required one always, an optional one or not), with
    a value drawn by the argument's type, choices or destination."""
    group = draw(st.sampled_from(sorted({g for g, _ in cli._COMMANDS})))
    name = draw(st.sampled_from(_leaves(group)))
    budget = draw(st.one_of(st.none(), st.integers(-1, 10**7)))
    top_args = [] if budget is None else [f"--budget={budget}"]
    sub_args = []
    for arguments, out in ((cli._TOP, top_args), (cli._COMMANDS[group, name][1], sub_args)):
        for arg, keywords in arguments:
            if arg == "--budget" or not (_is_required(arg, keywords) or draw(st.booleans())):
                continue
            value = draw(_value_strategy(arg, keywords))
            if arg[:1] != "-":
                out.append(value)
            elif value is None:
                out.append(arg)
            else:
                out.append(f"{arg}={value}")
    return top_args + [group, name] + sub_args


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_parser_argv())
# a negative prime passed the estimate, and K39's automorphisms were searched
@example(["graph", "levelraise", "{k39}", "--prime=-1", "--aux-limit=1000000"])
# the budget admitted 40000 members and their edge operators
@example(["graph", "levelraise", "{k39}", "--prime=2", "--aux-limit=40000"])
# one division per unit of v_5(10^100000)
@example(["slope", "polygon", "--poly=1,1e100000", "--p=5"])
def test_parser_argv_fuzz_ends_in_a_verdict_or_an_error(deadline, tmp_path, argv):
    paths = {"k39": tmp_path / "k39.graph", "labels": tmp_path / "trivial.labels",
             "missing": tmp_path / "missing"}
    paths["k39"].write_text(complete_biregular(2).describe())
    paths["labels"].write_text("labels order=1 gshift=0\n")
    argv = [a.format(**paths) for a in argv]
    with deadline(5):
        code, err = _run_quietly(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.splitlines()[-1].startswith("error:")


class TestSatakeCommands:
    def test_classify(self, capsys):
        code, doc = run_json(capsys, "satake", "classify", "--alpha", "4", "--l", "2")
        assert code == 0
        assert doc["results"]["classification"] == "CharacterPlusSteinberg"

    def test_eig(self, capsys):
        code, doc = run_json(capsys, "satake", "eig", "--alpha", "-2", "--l", "2")
        assert code == 0
        assert doc["results"]["eigenvalue"] == "-9"

    def test_ve_check(self, capsys):
        code, doc = run_json(
            capsys,
            "satake", "ve-check", "--q", "2", "--psi", "1",
            "--t1", "7", "--t2", "7", "--t3", "1",
        )
        assert code == 0
        assert doc["results"]["very_eisenstein"] is True


class TestModuliCommands:
    def test_components(self, capsys):
        code, doc = run_json(
            capsys, "moduli", "components", "--diag", "l^2,l,1", "--l", "2"
        )
        assert code == 0 and doc["passed"]
        assert doc["results"]["partitions"] == [[3], [2, 1], [1, 1, 1]]

    def test_witness(self, capsys):
        code, doc = run_json(
            capsys,
            "moduli", "witness", "--diag", "l^2,l,1", "--l", "2",
            "--nilpotent", "0,1;1,2",
        )
        assert code == 0 and doc["passed"]
        assert doc["results"]["mu"] == [2, 1, 0]

    @pytest.mark.parametrize(
        "power, seconds, sha256",
        [
            ("200000", 1, "0fb3f0e0f0a7841b4bad10d8b4ffd3d8a733151765d80e043ce514e684c87d78"),
            ("600000", 2, "5e7c35a43f5b2b9c81233e0e0defde567b6297a1b8e42f0e3701ef906d81afc3"),
        ],
    )
    def test_components_of_a_huge_entry_in_time(self, capsys, deadline, power, seconds, sha256):
        # a Bareiss det long-divided the l^600000 entry (1.7 M bits) for
        # about 6 s.  Digests recorded from the det route
        with deadline(seconds):
            code, out = run(
                capsys, "--budget", "100000000000",
                "moduli", "components", f"--diag=l^{power},1,1", "--l", "7",
            )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "tokens, partitions",
        [
            # the largest input the default budget admits: 144^2 * 9^2 = 1679616
            (["1"] * 144, [[1] * 144]),
            (["l", "1"] + ["l^3"] * 98, [[2] + [1] * 98, [1] * 100]),
            # the most bare l the default budget admits: 1414^2 * 1^2 = 1999396
            (["l"] * 1414, [[1] * 1414]),
        ],
        ids=["144-ones", "l-1-and-98-cubes", "1414-bare-l"],
    )
    def test_components_cost_their_answer(self, capsys, deadline, tokens, partitions):
        # filtering the p(n) partitions of n ran for minutes here
        with deadline(5):
            code, doc = run_json(
                capsys, "moduli", "components", "--diag=" + ",".join(tokens), "--l", "2"
            )
        assert code == 0 and doc["passed"]
        assert doc["results"]["partitions"] == partitions

    def test_components_of_60_ones_in_time(self, capsys, deadline):
        # digest recorded from the route that filtered all p(60) partitions of
        # 60, which took about 16 s
        with deadline(5):
            code, out = run(
                capsys, "moduli", "components", "--diag=" + ",".join(["1"] * 60), "--l", "2"
            )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest().startswith("e3ea61ace39333e4")

    def test_pgl2(self, capsys):
        code, doc = run_json(capsys, "moduli", "pgl2", "--l", "2")
        assert code == 0 and doc["passed"]
        assert doc["results"]["solution_dimension"] == 0


class TestSlopeCommands:
    def test_series(self, capsys):
        code, doc = run_json(capsys, "slope", "series", "--entries", "1,0;0,3", "--p", "3")
        assert code == 0
        assert doc["results"]["series"] == ["1", "-4", "3"]

    def test_polygon(self, capsys):
        code, doc = run_json(capsys, "slope", "polygon", "--poly", "1,-4,3", "--p", "3")
        assert code == 0
        assert doc["results"]["slopes"] == ["0", "1"]

    def test_polygon_of_a_coefficient_of_large_valuation_in_time(self, capsys, deadline):
        # one division by p per unit of v_5(10^100000) took about 10 s; the
        # digest was recorded from that implementation
        with deadline(5):
            code, out = run(capsys, "slope", "polygon", "--poly=1,1e100000", "--p", "5")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bac2f4e5e6265d9db914d8265e73c4e8f20350d8457ff8dd5472583b5645127c"
        )

    def test_factor(self, capsys):
        code, doc = run_json(
            capsys, "slope", "factor", "--poly", "1,-4,3", "--p", "3", "--h", "0"
        )
        assert code == 0 and doc["passed"]
        assert doc["results"]["Q"] == ["1", "-1"]

    def test_factor_certifies_a_non_integral_low_factor(self, capsys):
        # Q is not 3-integral: the factors of P(3T) are reduced mod 3^(20 + 2)
        # and T -> T/3 leaves P - Q S of valuation >= 20 (21 here)
        code, doc = run_json(
            capsys, "slope", "factor", "--poly=1,1/3,2", "--p", "3", "--h", "-1"
        )
        assert code == 0 and doc["passed"] and doc["results"]["exact"] is False
        (check,) = doc["assertions"]
        assert check["name"] == "product_matches" and check["passed"]
        assert int(check["detail"]) >= 20
        assert check["detail"] == "21"

    def test_decompose(self, capsys):
        code, doc = run_json(
            capsys, "slope", "decompose", "--entries", "1,0;0,3", "--p", "3", "--h", "0"
        )
        assert code == 0 and doc["passed"]
        assert doc["results"]["q_part_dim"] == 1
        assert doc["results"]["polygon_vertices"] == [[0, "0"], [1, "0"], [2, "1"]]

    def test_decompose_computes_the_series_once(self, capsys, monkeypatch):
        calls = []
        original = slope.fredholm_series
        monkeypatch.setattr(slope, "fredholm_series", lambda U: calls.append(U) or original(U))
        code, _ = run_json(
            capsys, "slope", "decompose", "--entries", "1,1;0,3", "--p", "3", "--h", "0"
        )
        assert code == 0 and len(calls) == 1

    def test_decompose_a_non_integral_series(self, capsys):
        # P = 1 - 19/3 T + 2 T^2 is not 3-integral; P(3T) is, and its factor
        # snaps to the rational Q = 1 - T/3
        code, doc = run_json(
            capsys, "slope", "decompose", "--entries=6,0;0,1/3", "--p", "3", "--h", "0"
        )
        assert code == 0 and doc["passed"]
        assert doc["results"]["Q"] == ["1", "-1/3"] and doc["results"]["S"] == ["1", "-6"]

    def test_decompose_refusal_names_its_cause(self, capsys):
        # companion matrix of x^2 - x + 3: the slope 0 factor is irrational
        assert main(["slope", "decompose", "--entries=0,-3;1,1", "--p", "3", "--h", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: slope factor is not rational at this height;")

    def test_series_from_file(self, capsys, tmp_path):
        mf = tmp_path / "u.mat"
        mf.write_text("1,0;0,3\n")
        code, doc = run_json(
            capsys, "slope", "series", "--matrix-file", str(mf), "--p", "3"
        )
        assert code == 0
        assert doc["results"]["series"] == ["1", "-4", "3"]

    def test_series_requires_input(self, capsys):
        assert main(["slope", "series", "--p", "3"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [["slope", "series", "--p", "3"], ["slope", "decompose", "--p", "3", "--h", "0"]],
        ids=["series", "decompose"],
    )
    def test_both_matrix_sources_are_refused(self, capsys, tmp_path, argv):
        # the file's matrix once won and --entries was dropped without a word
        mf = tmp_path / "u.mat"
        mf.write_text("1,0;0,3\n")
        assert main([*argv, "--entries", "1,0;0,5", "--matrix-file", str(mf)]) == 2
        assert capsys.readouterr().err == "error: give --entries or --matrix-file, not both\n"

    def test_factor_of_a_non_integral_series_finishes(self, capsys, deadline):
        # T -> 2T makes the series 2-integral, slopes 1 | 2, 2, 2, 2
        with deadline(5):
            code = main(["slope", "factor", "--poly=1,3/14,-65/14,-5/7,18/7,-4/7",
                         "--p", "2", "--h", "0"])
        capsys.readouterr()
        assert code == 0

    def test_factor_splits_at_a_polygon_vertex(self, capsys, deadline):
        # slopes 0, 1 | 2, 2, 2: the polygon has a vertex at 2, and the split is
        # not coprime mod 2, since the roots of slopes 1 and 2 both reduce to 0
        poly = "--poly=1,3/7,-130/7,-40/7,288/7,-128/7"
        code, doc = run_json(capsys, "slope", "polygon", poly, "--p", "2")
        assert doc["results"]["slopes"] == ["0", "1", "2", "2", "2"]
        with deadline(5):
            code, doc = run_json(capsys, "slope", "factor", poly, "--p", "2", "--h", "1")
        assert code == 0 and doc["results"]["m"] == 2

    def test_master_iteration_books_its_steps(self, capsys, deadline):
        # slopes 3/7 | 1/2: the narrowest gap of the tests, 636 steps at most
        # of 2 d^2 words^2 each at d = 10
        argv = ["slope", "factor", "--poly=1,1,-2,-2,0,0,0,-8,-8,16,16", "--p", "2",
                "--h", "3/7"]
        with deadline(5):
            code, doc = run_json(capsys, *argv)
        assert code == 0 and doc["results"]["exact"]
        assert doc["results"]["Q"] == ["1", "1", "0", "0", "0", "0", "0", "-8", "-8"]
        assert main(["--budget", "100000", *argv]) == 2
        assert capsys.readouterr().err == (
            "error: 636 steps of the master factorization mod 2^50 at degree 10 would pass "
            "the budget 100000; raise --budget to run it\n"
        )

    def test_a_far_second_slope_costs_the_master_iteration_nothing(self, capsys, deadline):
        # slopes 1 | 29999, not coprime mod 2: the step count and the modulus
        # follow the low slope, so one step mod 2^47 splits it
        with deadline(5):
            code, doc = run_json(capsys, "slope", "factor", "--poly=1,2,1e30000", "--p", "2",
                                 "--h", "1")
        assert code == 0 and doc["passed"] and doc["results"]["exact"] is False
        assert doc["results"]["Q"] == ["1", "2"] and doc["results"]["m"] == 1


# The heaviest moduli and slope commands of the benchmark's local workload; the
# exit codes and stdout digests were recorded from the implementation whose
# polynomial coefficients were all Fractions.
_LOCAL_DIGESTS = [
    (["moduli", "components", "--diag", "l^2,l^2,l,l,1,1", "--l", "3"], 1,
     "26bb1796cad7c3343bbd42476e0dea7e74ae3ccfbee06d1ad77743da4291b042"),
    (["moduli", "components", "--diag", "l^5,l^4,l^3,l^2,l,1", "--l", "2"], 0,
     "0d09c97e4a03584fbc13899d0e27e197b80a44eac47c91e5b07f9d1db7acfd1b"),
    (["moduli", "components", "--diag", "l^4,l^3,l^2,l,1,1", "--l", "2"], 1,
     "280c69db37effcb7df22bc7f8dc8d82b24fbe079d4cf808b92416724698e7f63"),
    (["moduli", "components", "--diag", "l^3,l^2,l,1,1,1", "--l", "2"], 1,
     "29bbb8d845d6a2a0ee114f71e6d08bf925abcf0c53724253a34ab5ba6a9be33a"),
    (["moduli", "components", "--diag", "l^5,l^4,l^3,l^2,l,1", "--l", "3"], 0,
     "8ffb18c1bb16624988d4c2c1d00720b7eed0d6ee62581e561a8aa8e95f9dec19"),
    (["moduli", "components", "--diag", "l^4,l^3,l^2,l,1,1", "--l", "3"], 1,
     "c2218d7b9b634b9959376e490851bc670ca44fbbe7994d97317bd3dcb8f19cf9"),
    (["moduli", "components", "--diag", "l^3,l^2,l,1,1,1", "--l", "3"], 1,
     "18d23066ff590cda704bb6bcbaebe131fe59536f204ce56667a33f130f47704d"),
    (["slope", "decompose",
      "--entries=-28,0,0,-40,80,0;0,-1,0,0,0,0;0,0,5,0,0,0;-168,0,0,-148,324,0;-84,0,0,-80,174,0;0,0,0,0,0,-4",
      "--p", "2", "--h", "0"], 0,
     "ab02c2886cf338b3d0256827ebbdad2f4b34bd105899a9ad2b06ae6c14ff334f"),
    (["slope", "decompose",
      "--entries=-7,-22,0,22,-53,0;28,-65,0,44,-60,0;0,0,3,0,0,0;28,-80,0,59,-86,0;0,0,0,0,2,0;12,22,0,-22,56,5",
      "--p", "3", "--h", "0"], 0,
     "0695642f5a27e107b190c4affe0e90daf0a202e0132abf52de4378bdf17bd2b5"),
    (["slope", "factor", "--poly=1,-63,1310,-5742,-137223,1566945,-213192,-55581876,180033840",
      "--p", "3", "--h", "0"], 0,
     "80931aeea6dba8fa7f9934dc99a33c67db48c55cccb831fcb2f5eef116768ddb"),
    (["slope", "factor",
      "--poly=1,-168,-4985,752594,-17021945,80207300,309815625,-2423968750,3215625000",
      "--p", "5", "--h", "0", "--precision", "5"], 0,
     "7109fbd7c6b66de760da97ce1709ba18d48456605db57a8c7bc58dfbabb2c8dd"),
    (["tree", "verify", "--l", "2", "--radius", "6"], 0,
     "ff6ad8f7dd4b9aeebf047ff2c0e6f37520498f86209e3de767fabe31bd3da7d9"),
    (["tree", "verify", "--l", "3", "--radius", "4"], 0,
     "37ee27d2b51802d0e97b5f5506ae273f6130a730edb00d07c0074035e48b2e6b"),
    (["tree", "verify", "--l", "5", "--radius", "3"], 0,
     "038921aad22f72d28cf9dda779942d4c38c36ae8f8d9ebd809661dcad754218d"),
    # non-integral polynomials, lifted after T -> p^k T; re-recorded when the
    # Newton iteration over QQ left, after checking that (1 + T/9)(1 + T) = P
    # over QQ for the first, and that the residues mod 2^23 of Q(2T), S(2T) for
    # the second are those of oracles.newton_slope_factors on P(2T)
    (["slope", "factor", "--poly=1,10/9,1/9", "--p", "3", "--h", "-2"], 0,
     "4e4873f15fb5d9b2e9d9429ce38b0fa36019a1ca9bd4616e670eab6ea5bd8cbf"),
    (["slope", "factor", "--poly=1,1/2,3,1/4", "--p", "2", "--h", "-1"], 0,
     "4b135b33b9b5f2be3a035788e9f3ce26d5354a129614dd535501c4cff1bdadc9"),
    # the rest of the benchmark's tree ladder, recorded from the walk-identity
    # check that composed the VertexFunction operators per delta
    (["tree", "verify", "--l", "2", "--radius", "4"], 0,
     "3f4e41c8538af7cf2360347816249dca35a743bbc9a70fc024725ed89cbd3698"),
    (["tree", "verify", "--l", "2", "--radius", "5"], 0,
     "14ae68dd64d2fc412c9d7485fbed83a74891b56484a763c4a441caba49a02fd5"),
    (["tree", "verify", "--l", "3", "--radius", "3"], 0,
     "bac166dc828d673500067af768835e9d25bae0c3adfd79d40a8ab930de55634e"),
    (["tree", "verify", "--l", "5", "--radius", "2"], 0,
     "225b64a2436ead64ddab7463150cfa5645eff4c5bc0ea3fe99dcc574b19ba13d"),
    # eigenvalues 1, 3, 9 at h = 1: the factors are not coprime mod 3, so the
    # master iteration runs; recorded from the implementation whose every
    # step solved a Newton system over QQ
    (["slope", "factor", "--poly=1,-13,39,-27", "--p", "3", "--h", "1"], 0,
     "2cddf7308595da3b2bccb6d6554dbd342a31a6daf73a3b3c18dbe74a11febc72"),
    # (1-4T+3T^2)(1+T/2)(1-9T+9T^2/2): p-integral with a denominator prime to
    # 3; recorded from the implementation that solved its every Newton step
    # over QQ
    (["slope", "factor", "--poly=1,-25/2,37,-93/4,-9,27/4", "--p", "3", "--h", "0"], 0,
     "0bb46582c737b19579d29d96752dc1a77a1373548d021912f442521aea0addc0"),
    # level raising with automorphism members, on the files of _DIGEST_GRAPHS;
    # recorded from the implementation that stored each member as dense
    # integer matrices
    (["graph", "levelraise", "{k39}", "--prime", "3", "--aux", "auto", "--aux-limit", "8"], 0,
     "387ca118f66c752521d1e4a3f0b134a252cf7a69fb0317ea42488faefbfb4316"),
    (["graph", "levelraise", "{k39}", "--prime", "7", "--aux", "auto", "--aux-limit", "8"], 0,
     "f1a89f7b12dc9ee3e1650bf4b2a20f403552604745a5251f721a2aef4b5268c5"),
    (["graph", "levelraise", "{twisted}", "--prime", "3", "--aux", "auto", "--aux-limit", "8"], 0,
     "3ec8d0db07a12bcf73a4a04b721f00549cb68ed480a9737b47cd80be1a1df7f8"),
    (["graph", "levelraise", "{k39u}", "--prime", "3", "--aux", "auto", "--aux-limit", "8"], 0,
     "ae7095bfd34491b536e81b30acfd2f7e19b046bd2d86f6417b071938554cb6f8"),
    (["graph", "levelraise", "{m13}", "--prime", "3", "--aux", "auto", "--aux-limit", "8"], 0,
     "d72c1808606188eb2345be9a8559aab62421b915c310703a7b1d1092d10f1566"),
    # decompositions of rational matrices (q 1 / complement 1 and 1 / 2) and of
    # the benchmark's 8x8 u8-3-3 matrix from a file; recorded from the
    # implementation that formed the projector b(U) St(U) over QQ
    (["slope", "decompose", "--entries=1/2,1;0,3", "--p", "3", "--h", "0"], 0,
     "4703d3f3db3d5d148ae8d1f1d5718d23f4dbf72be0adbec2508e08f98bef522b"),
    (["slope", "decompose", "--entries=1/2,1,0;0,6,1;0,0,9/7", "--p", "3", "--h", "0"], 0,
     "140864fbe6c38585963e2ecb054cc57653dac27c867441de2f61fa24c8bd525f"),
    (["slope", "decompose", "--matrix-file", "{u8}", "--p", "3", "--h", "0"], 0,
     "db062c79bc339b5009ada8d8fe4f27952afea1e14bad0fdcade13304b22fd0e5"),
    # text that is not ASCII in a report: json's \uXXXX escapes; recorded from the
    # encoder that escaped every string with json's own C encoder
    (["moduli", "components", "--diag", "1", "--l", "2", "--group=\u00e9"], 0,
     "653bafc6de3604056294e49321a7f2bf6a00a7367a297c93902cdf422d8e42c3"),
]


@pytest.mark.parametrize(
    "argv, token",
    [
        (["satake", "classify", "--alpha", "1/0", "--l", "2"], "1/0"),
        (["satake", "ve-check", "--q", "2", "--psi", "2/0", "--t1", "7", "--t2", "7",
          "--t3", "1"], "2/0"),
        (["satake", "ve-check", "--q", "2", "--psi", "1", "--t1", "7/0", "--t2", "7",
          "--t3", "1"], "7/0"),
        (["slope", "factor", "--poly", "1,-4,3", "--p", "3", "--h", "1/0"], "1/0"),
        (["analytic", "ihara", "--p", "2", "--m", "1", "--degree", "1", "--delta", "3/0"],
         "3/0"),
        (["slope", "series", "--entries", "1,0;0,5/0", "--p", "3"], "5/0"),
        (["slope", "polygon", "--poly", "1,-4/0,3", "--p", "3"], "-4/0"),
        (["moduli", "components", "--diag", "l,1/0", "--l", "2"], "1/0"),
    ],
    ids=["alpha", "psi", "t1", "h", "delta", "entries", "poly", "diag"],
)
def test_zero_denominator_names_its_token(capsys, argv, token):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and repr(token) in err


_DIGEST_GRAPHS = {
    "k39": lambda: complete_biregular(2),
    "twisted": lambda: cosets.twisted_complete(2),
    "k39u": lambda: cosets.disjoint_union(complete_biregular(2), complete_biregular(2)),
    "m13": lambda: parallel_multigraph(2),
}

_DIGEST_MATRICES = {
    "u8": "1,0,4,0,2,0,-8,0;0,18,0,0,0,0,0,0;-38,0,7,-132,73,66,-50,0;0,0,0,3,0,0,0,0;"
    "0,0,2,0,2,0,-4,0;0,0,0,-24,0,15,0,0;-19,0,0,-66,38,33,-18,0;45,0,0,-66,-90,33,45,-63\n",
}


@pytest.mark.parametrize(
    "argv, code, sha256", _LOCAL_DIGESTS, ids=[f"{a[0]}-{a[1]}-{i}" for i, (a, _, _) in enumerate(_LOCAL_DIGESTS)]
)
def test_local_reports_are_byte_identical(capsys, deadline, tmp_path, argv, code, sha256):
    paths = {}
    for name, build in _DIGEST_GRAPHS.items():
        paths[name] = tmp_path / f"{name}.graph"
        paths[name].write_text(build().describe())
    for name, text in _DIGEST_MATRICES.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    argv = [a.format(**paths) for a in argv]
    with deadline(5):
        got, out = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


class TestAnalyticCommands:
    def test_ihara(self, capsys):
        code, doc = run_json(
            capsys, "analytic", "ihara", "--p", "2", "--m", "1", "--degree", "3"
        )
        assert code == 0 and doc["passed"]
        assert all(doc["results"]["rank_table"].values())

    def test_ihara_builds_one_model_per_degree(self, capsys, monkeypatch):
        from u3local import analytic

        built = []
        make_model = analytic.make_model
        monkeypatch.setattr(
            analytic, "make_model", lambda *a, **k: built.append(a) or make_model(*a, **k)
        )
        code, doc = run_json(
            capsys, "analytic", "ihara", "--p", "2", "--m", "1", "--degree", "2", "--delta", "3"
        )
        assert code == 0 and [a[2] for a in built] == [0, 1, 2]
        # the same report as when n_balls came from one more model
        assert doc == {
            "assertions": [{"name": "full_rank_at_every_degree", "passed": True}],
            "command": "analytic ihara",
            "inputs": {"degree": 2, "delta": "3", "m": 1, "p": 2, "seed": 0},
            "passed": True,
            "results": {"balls": 8, "rank_table": {"0": True, "1": True, "2": True}},
        }

    def test_ihara_rejects_negative_degree(self, capsys):
        assert main(["analytic", "ihara", "--p", "2", "--m", "1", "--degree", "-1"]) == 2
        assert "--degree must be nonnegative" in capsys.readouterr().err

    def test_weight_central(self, capsys):
        code, doc = run_json(
            capsys,
            "analytic", "weight", "--p", "3", "--level", "2",
            "--chi1", "2", "--chi2", "2", "--chi3", "2",
        )
        assert code == 0
        assert doc["results"]["central"] is True

    def test_weight_noncentral(self, capsys):
        code, doc = run_json(
            capsys,
            "analytic", "weight", "--p", "3", "--level", "2",
            "--chi1", "1", "--chi2", "0", "--chi3", "0",
        )
        assert code == 0
        assert doc["results"]["central"] is False
        assert doc["results"]["rigidity_witness"] is not None

    def test_weight_at_a_large_prime(self, capsys, deadline):
        # the primitive root mod 9999991 is tested by the primes of p - 1; the
        # digest was recorded from the implementation that walked every power
        with deadline(5):
            code, out = run(
                capsys, "--budget", "10000000", "analytic", "weight", "--p", "9999991",
                "--level", "1", "--chi1", "1", "--chi2", "0", "--chi3", "0",
            )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e3a82e5184511c5cd2d977dc4b41ad91d053f5e84292189408eba09bd5b08d4c"
        )

    def test_weight_searches_once(self, capsys, monkeypatch):
        searches = []
        search = analytic._unit_group_generators.__wrapped__
        counted = functools.cache(lambda p, k: searches.append((p, k)) or search(p, k))
        monkeypatch.setattr(analytic, "_unit_group_generators", counted)
        argv = ["analytic", "weight", "--p", "3", "--level", "12",
                "--chi1", "1", "--chi2", "0", "--chi3", "0"]
        assert main(argv) == 0
        capsys.readouterr()
        assert searches == [(3, 12)]


# report strings: quotes, backslashes, control and non-ASCII characters
_JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600'))
_JSON_SCALARS = (
    st.none() | st.booleans() | _JSON_TEXT
    | st.integers() | st.integers(min_value=-(2**200), max_value=2**200)
)


class _Tag(enum.Enum):
    WORD = "word"
    NUMBER = 7


_FRACTIONS = st.fractions(max_denominator=10**6).filter(lambda q: abs(q.numerator) < 2**200)
# what commands hand a report: Fractions, enums and Polys among the JSON
# scalars, tuples, and dicts whose keys are strings or ints
_REPORT_VALUES = st.recursive(
    _JSON_SCALARS
    | _FRACTIONS
    | st.sampled_from([*_Tag, *PrincipalSeries])
    | st.lists(_FRACTIONS | st.integers(), max_size=4).map(Poly),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_JSON_TEXT | st.integers(-3, 3), inner, max_size=4),
    max_leaves=30,
)


class TestReportContract:
    def test_report_prints_past_4300_digits(self, capsys, deadline):
        # 1e4000 is 16 000 bits, inside the default budget, and its eigenvalue
        # has 12 002 digits: past the interpreter's default limit for printing
        with deadline(2):
            code, doc = run_json(capsys, "satake", "eig", "--alpha=1e4000", "--l", "2")
        assert code == 0
        assert doc["inputs"]["alpha"] == "1" + "0" * 4000
        assert len(doc["results"]["eigenvalue"]) > 4300

    def test_largest_alpha_prints_in_seconds(self, capsys, deadline):
        # 1e499999 is just inside the default budget; its 2 M-digit eigenvalue
        # takes str() about 70 s on a 2-core VM, the conversion by halves about 1 s
        with deadline(10):
            code, out = run(capsys, "satake", "eig", "--alpha=1e499999", "--l", "2")
        assert code == 0 and len(out) > 2_000_000

    @pytest.mark.parametrize("bits", [4095, 4096, 4097, 9000, 70001])
    def test_decimal_text_is_str(self, bits):
        # str() is the reference, without the digit limit main() lifts
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            rng = random.Random(bits)
            for n in (1 << bits, (1 << bits) - 1, rng.getrandbits(bits) | 1 << (bits - 1)):
                for x in (n, -n, Fraction(n, 3), Fraction(-7, n + 1)):
                    assert cli._rational_text(x) == str(x)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_unencodable_value_is_a_type_error(self):
        # no report holds a set: it has no order of its own to print in
        with pytest.raises(TypeError, match="set"):
            cli._json_text({1}, "\n")

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            _JSON_SCALARS,
            lambda inner: st.lists(inner, max_size=4)
            | st.lists(inner, max_size=3).map(tuple)
            | st.dictionaries(_JSON_TEXT, inner, max_size=4),
            max_leaves=30,
        )
    )
    @example({"a": {}, "b": [], "c": [[], {}, ()], "d": [True, 1, False, 0, None]})
    def test_writer_is_json_dumps(self, doc):
        assert cli._json_text(doc, "\n") == json.dumps(doc, sort_keys=True, indent=2)

    @settings(max_examples=200, deadline=None)
    @given(_REPORT_VALUES)
    @example({1: Fraction(1, 2), "1": 0, 2: [PrincipalSeries.IRREDUCIBLE, Poly([1, Fraction(-7, 2)])]})
    @example((Poly([]), Poly([3]), Fraction(4), _Tag.NUMBER, {}, [()]))
    @example({1: 2})  # written as {"1": 2}
    def test_writer_converts_as_the_oracle(self, value):
        converted = jsonable(value)
        assert cli._json_text(value, "\n") == json.dumps(converted, sort_keys=True, indent=2)
        assert cli._json_text(value, None) == json.dumps(converted, sort_keys=True)

    @pytest.mark.parametrize("value", [1.5, {1}, {"a": [b"x"]}])
    def test_writer_refuses_other_types(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value, "\n")
        with pytest.raises(TypeError):
            cli._json_text(value, None)

    def test_byte_determinism(self, capsys, k39_path):
        _, out1 = run(capsys, "graph", "analyze", k39_path, "--prime", "3")
        _, out2 = run(capsys, "graph", "analyze", k39_path, "--prime", "3")
        assert out1 == out2

    def test_timing_flag_adds_field(self, capsys):
        _, doc = run_json(
            capsys, "--timing", "satake", "eig", "--alpha", "4", "--l", "2"
        )
        assert "timing_ms" in doc

    def test_table_format(self, capsys):
        code, out = run(
            capsys, "--format", "table", "satake", "eig", "--alpha", "4", "--l", "2"
        )
        assert code == 0
        assert "PASS" in out and "overall: PASS" in out

    def test_table_format_reports_timing(self, capsys):
        code, out = run(
            capsys, "--timing", "--format", "table", "satake", "eig", "--alpha", "4", "--l", "2"
        )
        assert code == 0
        *_, timing, overall = out.splitlines()
        assert re.fullmatch(r"timing_ms: \d+", timing) and overall == "overall: PASS"

    # a Fraction and an enum (classify), Polys (series, decompose), and nested
    # dicts with a null (components); recorded from the implementation that
    # wrote each result by json.dumps of its converted copy
    @pytest.mark.parametrize(
        "argv, code, sha256",
        [
            (["satake", "classify", "--alpha", "4", "--l", "2"], 0,
             "523455034d4902056151dc80144fdcfa7b54109f8f6b9122ed6f638f79316777"),
            (["satake", "classify", "--alpha", "3", "--l", "2"], 0,
             "b219bb9c51d2430bcb5a696fb86cd911aea0907325fa68381046922441e62498"),
            (["slope", "series", "--entries=1/2,1;0,3", "--p", "3"], 0,
             "513f9c6d17d659e8737dfb528f68c8dbe190d7fac77c90f3c13007172261424c"),
            (["slope", "decompose", "--entries=1/2,1;0,3", "--p", "3", "--h", "0"], 0,
             "7fb8f8ea2d7aae7b3bc43e6bd94aec6eadfee591b9fc75000728564d6a35cd51"),
            (["moduli", "components", "--diag", "l^2,l,1", "--l", "2"], 0,
             "b48c2a25bdb9864109237ca6b55a806065072e5e52bcd636b44c8c00f4ca27f3"),
            (["moduli", "components", "--diag", "l^2,l^2,l,l,1,1", "--l", "3"], 1,
             "ba082d0f4c1d99ccbcfd42e995a9dfb91c6941d5b8b546731065a839311e11e8"),
        ],
        ids=["classify-steinberg", "classify-irreducible", "series", "decompose",
             "components", "components-unwitnessed"],
    )
    def test_table_format_is_pinned(self, capsys, argv, code, sha256):
        got, out = run(capsys, "--format", "table", *argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_exit_code_tracks_assertions(self, capsys, tmp_path):
        # an exactness failure must flip the exit code; a wrong-degree graph
        # cannot even load, so instead check a passing case end to end
        code, doc = run_json(capsys, "moduli", "pgl2", "--l", "3")
        assert code == 0 and doc["passed"]


class TestParserReuse:
    SEQUENCE = [
        ["satake", "eig", "--alpha", "4", "--l", "2"],
        ["satake", "eig", "--alpha", "4"],  # --l missing: an error
        ["--budget", "100", "tree", "verify", "--l", "2", "--radius", "4"],
        ["tree", "verify", "--l", "2", "--radius", "4"],
        ["satake", "eig", "--alp=4", "--l", "2"],  # an abbreviation
    ]

    @staticmethod
    def outcome(capsys, argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_reused_parser_matches_fresh_parsers(self, capsys, monkeypatch):
        fresh = []
        for argv in self.SEQUENCE:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(self.outcome(capsys, argv))
        monkeypatch.setattr(cli, "_parser", None)
        built = []
        original = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
        reused = [self.outcome(capsys, argv) for argv in self.SEQUENCE]
        assert len(built) == 1
        assert reused == fresh
        assert [code for code, _ in reused] == [0, 2, 2, 0, 0]
        # the fourth call gets the default budget back, not 100
        assert json.loads(reused[3][1])["results"]["vertices"] > 100


def _reads_as_argparse(reader, argv):
    """The reader's outcome on argv is argparse's (``oracles.argparse_reading``):
    the same namespace where argparse reads argv, and ValueError where argparse
    exits 2 or argv holds '--' or '--opt=--', which argparse may read.  Where
    either prints a help text the other may refuse argv instead: the reader
    refuses the tokens before -h and reads none after it, where argparse reads
    every token of the level first."""
    expected = oracles.argparse_reading(argv)
    try:
        got = reader.parse_args(list(argv))
    except ValueError:
        return expected in (None, "help") or any(a == "--" or a.endswith("=--") for a in argv)
    return isinstance(got, str) or expected == vars(got)


# (argv, what the reader gives: a namespace, a help text or an error)
_READ_ROWS = [
    (["satake", "eig", "--alpha", "4", "--l", "2"], "namespace"),
    (["satake", "eig", "--alpha", "-2", "--l", "2"], "namespace"),
    (["satake", "eig", "--alpha", "-x", "--l", "2"], "error"),
    (["satake", "eig", "--alpha=-x", "--l", "2"], "namespace"),
    (["satake", "eig", "--alpha=--", "--l", "2"], "error"),
    (["satake", "eig", "--alpha", "--", "--l", "2"], "error"),
    (["satake", "eig", "--alp=4", "--l", "2"], "namespace"),
    (["-h"], "help"),
    (["satake", "eig", "-h"], "help"),
    (["--format=xml", "satake", "eig", "--alpha", "4", "--l", "2"], "error"),
    (["--format", "table", "satake", "eig", "--alpha", "4", "--l", "2"], "namespace"),
    (["graph", "levelraise", "g", "--prime", "3", "--aux=maybe"], "error"),
    (["graph", "levelraise", "g", "--prime", "3", "--aux=none", "--aux-limit", "-1"], "namespace"),
    (["satake", "eig", "--alpha", "4", "--l", "x"], "error"),
    (["--timing=1", "satake", "eig", "--alpha", "4", "--l", "2"], "error"),
    (["--timing", "satake", "eig", "--alpha", "4", "--l", "2"], "namespace"),
    (["satake", "eig", "--alpha", "4"], "error"),
    (["satake", "eig", "--alpha", "4", "--l", "2", "--budget", "5"], "error"),
    (["--budget", "5", "--budget=-6", "satake", "eig", "--alpha", "4", "--l", "2"], "namespace"),
    (["satake", "eig", "--alpha", "4", "--l", "2", "--l", "3"], "namespace"),
    (["graph", "analyze", "--prime", "3", "g"], "namespace"),
    (["graph", "analyze", "g", "h"], "error"),
    (["graph", "analyze", "--prime", "3"], "error"),
    (["satake", "nope", "--alpha", "4", "--l", "2"], "error"),
    (["satake"], "error"),
    ([], "error"),
    (["moduli", "components", "--diag", "l,1", "--l", "2", "--group", "pgl3"], "namespace"),
    # unique prefixes, at the top and at a leaf, of a flag and of --help
    (["--tim", "--bud=5", "satake", "eig", "--alp", "4", "--l=2"], "namespace"),
    (["slope", "factor", "--poly", "1,1", "--p", "3", "--h", "0", "--pr", "5"], "namespace"),
    (["satake", "eig", "--he"], "help"),
    (["analytic", "weight", "--p", "3", "--level", "1", "--chi", "2"], "error"),
    (["graph", "levelraise", "g", "--a", "none", "--prime", "3"], "error"),
    # -h at a group; a token no argument takes before -h, and a prefix of two
    # options after it, where argparse refuses both argv and prints no help
    (["satake", "-h"], "help"),
    (["satake", "--he"], "help"),
    (["satake", "--bogus", "eig", "-h"], "error"),
    (["satake", "eig", "--bogus", "-h"], "error"),
    (["graph", "levelraise", "g", "-h", "--a"], "help"),
    (["--help=1"], "error"),
    # separate values that start with '-' and that argparse reads as values
    (["moduli", "components", "--diag", "1", "--l", "2", "--group", "-"], "namespace"),
    (["moduli", "components", "--diag", "1", "--l", "2", "--group", "-x y"], "namespace"),
    (["graph", "analyze", "-"], "namespace"),
    (["satake", "eig", "--alpha", "-.5", "--l", "2"], "namespace"),
]


@st.composite
def _flat_argv(draw):
    """An argv in the forms the flat read takes and around them: each option
    as --opt=value or --opt value, sometimes repeated, the leaf's options
    before and after its positional, and now and then a top option moved past
    the command, a required option dropped or a token from the argv fuzz."""
    group = draw(st.sampled_from(sorted({g for g, _ in cli._COMMANDS})))
    name = draw(st.sampled_from(_leaves(group)))

    def words(arguments):
        options, positionals = [], []
        for arg, keywords in arguments:
            required = _is_required(arg, keywords)
            if required and draw(st.integers(0, 19)) == 0:
                continue  # a required argument dropped
            for _ in range(draw(st.integers(1 if required else 0, 2))):
                value = draw(_value_strategy(arg, keywords))
                if arg[:1] != "-":
                    positionals.append([value])
                elif value is None:
                    options.append([arg])
                elif draw(st.booleans()):
                    options.append([f"{arg}={value}"])
                else:
                    options.append([arg, value])
        for p in positionals:
            options.insert(draw(st.integers(0, len(options))), p)
        return options

    top_items, leaf_items = words(cli._TOP), words(cli._COMMANDS[group, name][1])
    if top_items and draw(st.integers(0, 9)) == 0:
        leaf_items.append(top_items.pop())  # a top option past the command
    if draw(st.integers(0, 9)) == 0:
        leaf_items.insert(draw(st.integers(0, len(leaf_items))), [draw(_ARGV_TEXT)])
    return [w for item in top_items + [[group, name]] + leaf_items for w in item]


class TestFlatRead:
    """The reader reads argv in one flat pass; its namespace, help or error is
    argparse's outcome on the same argv."""

    @pytest.mark.parametrize("argv, outcome", _READ_ROWS, ids=[" ".join(a) for a, _ in _READ_ROWS])
    def test_row(self, argv, outcome):
        reader = cli.build_parser()
        try:
            got = "help" if isinstance(reader.parse_args(argv), str) else "namespace"
        except ValueError:
            got = "error"
        assert got == outcome
        assert _reads_as_argparse(reader, argv)

    @pytest.mark.parametrize("argv", [a for a, _, _ in _LOCAL_DIGESTS],
                             ids=[str(i) for i in range(len(_LOCAL_DIGESTS))])
    def test_local_digest_argv_is_read_flat(self, argv):
        assert vars(cli.build_parser().parse_args(argv)) == oracles.argparse_reading(argv)

    @settings(max_examples=300, deadline=None)
    @given(_flat_argv())
    def test_flat_read_agrees_with_argparse(self, argv):
        assert _reads_as_argparse(cli.build_parser(), argv)

    @staticmethod
    def args(reader):
        """Every argument of the reader's table, top and leaves."""
        tables = [reader.options] + [options for options, _, _, _ in reader.leaves.values()]
        positionals = [arg for _, args, _, _ in reader.leaves.values() for arg in args]
        return [arg for table in tables for arg in table.values()] + positionals

    def test_a_reader_that_skips_the_type_call_is_caught(self, monkeypatch):
        reader = cli.build_parser()
        monkeypatch.setattr(reader, "_value", lambda arg, text: text)
        assert not all(_reads_as_argparse(reader, argv) for argv, _ in _READ_ROWS)

    def test_a_reader_that_skips_the_choices_check_is_caught(self):
        reader = cli.build_parser()
        for arg in self.args(reader):
            arg.choices = None
        assert not all(_reads_as_argparse(reader, argv) for argv, _ in _READ_ROWS)

    def test_a_reader_that_skips_the_required_check_is_caught(self):
        reader = cli.build_parser()
        for _, _, _, required in reader.leaves.values():
            required.clear()
        assert not all(_reads_as_argparse(reader, argv) for argv, _ in _READ_ROWS)

    def test_a_wrapped_parse_args_sees_one_call_per_main(self, capsys, monkeypatch):
        # the way a tracer times the read: a wrapper on the built reader's method
        calls = []
        original = cli.build_parser

        def build():
            reader = original()
            parse = reader.parse_args
            reader.parse_args = lambda *a, **k: calls.append(a) or parse(*a, **k)
            return reader

        monkeypatch.setattr(cli, "build_parser", build)
        monkeypatch.setattr(cli, "_parser", None)
        argvs = [
            ["satake", "eig", "--alpha", "4", "--l", "2"],
            ["satake", "eig", "--alp=4", "--l", "2"],  # an abbreviation
            ["satake", "eig", "--alpha", "4"],  # an error
            ["satake", "eig", "-h"],  # a help text
        ]
        for n, argv in enumerate(argvs, 1):
            assert main(argv) == (2 if n == 3 else 0)
            assert len(calls) == n
        capsys.readouterr()


# -h at the top, at each group and at each leaf, and the _READ_ROWS argv that
# argparse rejects: the sha256 of "exit code\0stdout\0stderr" of main(argv),
# recorded from the reader that writes its own help and errors
_HELP_AND_ERROR_PINS = [
    (["-h"],
     "5c3fc7fb975cbebdf33b366a2197ab69bd722925e1a7cdf75df0f2b47077562d"),
    (["tree", "-h"],
     "9c1822cf56e82d63ea6300a8e1b1c0929cee9a9b8b0000aa2e3827153b53b9fa"),
    (["graph", "-h"],
     "8712d11b0d085eabf8280973e552ec6187753f895957b49235a110178582276f"),
    (["satake", "-h"],
     "efaf7505edf078e0a052a2d4185a39d213c538fbb9924e6697c73fd2d5509b99"),
    (["moduli", "-h"],
     "be0db57b8315c07b9dee0bbb88ce4b6f06f7155c977c8b71311f89d860ebdd88"),
    (["slope", "-h"],
     "1588f93d12bbbbc87022335c928eea52326d703b4e9e3a485825ca0984420e93"),
    (["analytic", "-h"],
     "b5b8428cdfc55be8b1980b50dce55960e2e370f72fdd0d216fbec9d285d5cc0c"),
    (["tree", "verify", "-h"],
     "c8357ef40f21d012619b3dc44e031f4306342aa57a36694cd2f23af38f2f1e3d"),
    (["graph", "analyze", "-h"],
     "3f1b0bf3526e912c9ef8722ed3a7aa53622575a2e7c7bfd859e1ee66627f4706"),
    (["graph", "congruence", "-h"],
     "d4efb467a2f7c6873c37a96d319e5a58ee8ba4ce889871fd8271c4d326292c79"),
    (["graph", "levelraise", "-h"],
     "6bfe901c175a5c562d6bd067cba7b05f8005cf9ab4ab9d5bddd394a34b692150"),
    (["satake", "classify", "-h"],
     "7c6ffdf581fba7bfd1de19a1e51a06b313143ac54646677db5d49c401d4a7155"),
    (["satake", "eig", "-h"],
     "24681869f22558b92448dfe30165a86494ba0f200d556a0c6ff83218e9a35b81"),
    (["satake", "ve-check", "-h"],
     "6ac42369c63af8cfa004256001f9a73d2c44d8812fbc4151720b505b7613323f"),
    (["moduli", "components", "-h"],
     "35d3b1bd9effaac30f1661cf32f27fcc1acb6a4c98660a9394cf39d6531b0fc8"),
    (["moduli", "witness", "-h"],
     "6ea51c5c6d51d1445f5abf96cd04992572cecc1e8eb7efda3e89539864001cba"),
    (["moduli", "pgl2", "-h"],
     "511aef3b35e967003bc8791b216c4dfbf40e5aafb3fa31ed28116ff7fe8afb40"),
    (["slope", "series", "-h"],
     "6ea995b872f526db37276e89e309b487322b4337aa307fff3bfeedeaf9b3cbae"),
    (["slope", "polygon", "-h"],
     "1bad50adf2c3c11895987924003733caed0aa5c71a251d898e17b5cf5bd00849"),
    (["slope", "factor", "-h"],
     "3e1b80f3e6360017eaaebc85faa3926779179a58a9cec9d758d8cd31231268a0"),
    (["slope", "decompose", "-h"],
     "6aefb3fed73960577da60d54ab191631f530ce5bda9c1af364faf5f9c155809a"),
    (["analytic", "ihara", "-h"],
     "fc66445e747bd2dd51debaf0bb60508378859f051aa3aece8ba0f6f8d6b9718a"),
    (["analytic", "weight", "-h"],
     "29268080461c3335b9b9f1397c7993c76895ee9e8934fdfdb5f8aea233442e0c"),
    (["satake", "eig", "--alpha", "-x", "--l", "2"],
     "8ae8178585d6a3db12055a61728e43044be95c0d57aab46b4fee643320419fa9"),
    (["satake", "eig", "--alpha", "--", "--l", "2"],
     "26acf899ed19bb05403c1848a14a6eef243838631558bb315a1633979f37ae28"),
    (["--format=xml", "satake", "eig", "--alpha", "4", "--l", "2"],
     "ee2163cbe8e8238430fc6fd5c146ad951d5cf339d9741a7e3ebfd5dcdc5810e0"),
    (["graph", "levelraise", "g", "--prime", "3", "--aux=maybe"],
     "2c8010c4168ccbee1d69875044434b5193cbd058051c600cb4cef0e619c81e80"),
    (["satake", "eig", "--alpha", "4", "--l", "x"],
     "e2efde90d01d7a7419810f7db22ff6cc1135b94081c53bcedebbf8ed08d8d087"),
    (["--timing=1", "satake", "eig", "--alpha", "4", "--l", "2"],
     "6632cdabe7daad8061a1a493253d8cccc6c152fbf2a7177a3a817b294f3c5571"),
    (["satake", "eig", "--alpha", "4"],
     "4c04d06d64f4d6e1211ada1d7d8d510f8929fd3debd6a582565a34abdfc04314"),
    (["satake", "eig", "--alpha", "4", "--l", "2", "--budget", "5"],
     "7aea3d404d6f421590e564a2791d3171f2c7b78f69d95b8c4f2f24e70f8350bb"),
    (["graph", "analyze", "g", "h"],
     "2b8c619a0de526dfad3ec97df5ad8824766342716f1a1e3b8ae2ce19d19bff80"),
    (["graph", "analyze", "--prime", "3"],
     "d740326a54b5916298228d272fa3b1314ef7a3f56159868a0d5374d1f1f260d3"),
    (["satake", "nope", "--alpha", "4", "--l", "2"],
     "3f144d7a66d913279dbdf3cb2b58e7ab9d27c3dd9a3e9998a9aa06e819a87037"),
    (["satake"],
     "fe4e911f113a0b45c6a7027ed2855fba42e0f0a9c78f4b0db57c3b1a04475163"),
    ([],
     "77a80659f85d51a703711152ffffbb242b18de538b782dab3bdf09c2a4cdf17a"),
]


@pytest.mark.parametrize("argv, sha256", _HELP_AND_ERROR_PINS,
                         ids=[" ".join(a) or "(none)" for a, _ in _HELP_AND_ERROR_PINS])
def test_help_and_errors_are_pinned(capsys, argv, sha256):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv", [["-h"], ["graph", "levelraise", "-h"]], ids=["top", "leaf"])
def test_help_ignores_the_terminal_width(capsys, monkeypatch, argv):
    outs = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].startswith("usage: u3local")


_README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_commands_are_leaves_that_run(capsys, tmp_path, monkeypatch):
    # the README's shell blocks: every u3local line names a leaf of the table
    # and ends in a verdict on the k39.graph that its generator line writes
    with open(_README) as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("u3local ")]
    argvs = [shlex.split(line)[1:] for line in lines]
    assert {tuple(argv[:2]) for argv in argvs} == set(cli._COMMANDS)
    generator = next(block for block in blocks if "> k39.graph" in block)
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    subprocess.run(["sh", "-c", generator.replace("python3 ", shlex.quote(sys.executable) + " ", 1)],
                   cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    monkeypatch.chdir(tmp_path)
    for line, argv in zip(lines, argvs):
        assert main(argv) in (0, 1), line
        capsys.readouterr()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(st.characters(max_codepoint=0x7F)), st.text(st.characters(exclude_categories=()))))
@example("\"\\\b\f\n\r\t\x00\x1f\x7f/")
@example("\ud800\udfff\U0001f600\u00e9")
def test_json_string_is_json_dumps(s):
    assert cli._json_string(s) == json.dumps(s)
