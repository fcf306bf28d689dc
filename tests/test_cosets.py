import random
from fractions import Fraction

import pytest

from u3local.cosets import (
    AuxOperatorFamily,
    CosetGraph,
    DetLabeling,
    EdgeForm,
    FormTriple,
    GraphFormatError,
    LabelingError,
    StratumError,
    abelian_forms,
    complete_biregular,
    congruence_module,
    det_identity_check,
    disjoint_union,
    find_automorphisms,
    ihara_kernel_test,
    kernel_eigenvalue_check,
    level_matrix,
    level_raising_search,
    load_graph,
    load_labeling,
    map_i,
    map_iplus,
    old_new_decomposition,
    pairing,
    parallel_multigraph,
    random_biregular_graph,
    twisted_complete,
    walk_operator_v0,
)
from u3local.linalg import Matrix

# frozen by tests/freeze_congruence_fixtures.py (oracle SNF, run before the build)
K39_CONGRUENCE = {
    "torsion": [],
    "rank": 11,
    "coker_free_rank": 16,
    "gamma_ranks": (12, 11, 11, 11),
    "q12": [3, 3, 3, 3, 3, 3, 3, 9, 27],
    "q23": [],
}
M13_CONGRUENCE = {
    "torsion": [],
    "rank": 3,
    "coker_free_rank": 6,
    "gamma_ranks": (4, 3, 3, 3),
    "q12": [3, 3, 3],
    "q23": [],
}
K39_TWIST_CONGRUENCE = {"torsion": [], "q12": [3, 3, 3, 3, 3, 3, 621], "q23": []}


@pytest.fixture(scope="module")
def k39():
    return complete_biregular(2)


@pytest.fixture(scope="module")
def m13():
    return parallel_multigraph(2)


def random_triple(g, rng):
    return FormTriple(
        [Fraction(rng.randint(-9, 9)) for _ in range(g.n0)],
        [Fraction(rng.randint(-9, 9)) for _ in range(g.n1)],
    )


def random_edge_form(g, rng):
    return EdgeForm([Fraction(rng.randint(-9, 9)) for _ in range(g.nedges)])


class TestLoadGraph:
    def test_k39_valid(self, k39):
        assert (k39.n0, k39.n1, k39.nedges) == (3, 9, 27)
        assert k39.connected

    def test_m13_valid(self, m13):
        assert (m13.n0, m13.n1, m13.nedges) == (1, 3, 9)
        assert m13.multiplicity(0, 0) == 3

    def test_k39_wrong_l_rejected(self):
        with pytest.raises(GraphFormatError):
            CosetGraph(3, 3, 9, [(v, w) for v in range(3) for w in range(9)])

    def test_roundtrip_through_text(self, k39):
        again = load_graph(k39.describe())
        assert again.edges == k39.edges and again.l == k39.l

    def test_parse_errors(self):
        with pytest.raises(GraphFormatError):
            load_graph("coset-graph l=2\nv0 1\nv1 3\ne 0 5\n")
        with pytest.raises(GraphFormatError):
            load_graph("v0 1\nv1 3\n")
        with pytest.raises(GraphFormatError):
            load_graph("coset-graph l=2\nv0 1\nv1 3\nbogus 1\n")

    def test_nonprime_l_rejected(self):
        with pytest.raises(ValueError):
            CosetGraph(4, 1, 13, [(0, w) for w in range(13) for _ in range(5)])


class TestRaisingLowering:
    def test_map_i_constant(self, k39):
        out = map_i(FormTriple([1] * 3, [0] * 9), k39)
        assert out.m == [1] * 27

    def test_map_i_constant_pair_in_kernel(self, k39):
        out = map_i(FormTriple([1] * 3, [-1] * 9), k39)
        assert all(x == 0 for x in out.m)

    def test_map_i_delta(self, k39):
        out = map_i(FormTriple([1, 0, 0], [0] * 9), k39)
        assert out.m == [1 if k39.h(e) == 0 else 0 for e in range(27)]

    def test_map_iplus_ones(self, k39):
        t = map_iplus(EdgeForm([1] * 27), k39)
        assert t.f0 == [9, 9, 9] and t.f1 == [3] * 9

    def test_map_iplus_delta(self, k39):
        m = [0] * 27
        m[5] = 1
        t = map_iplus(EdgeForm(m), k39)
        v, w = k39.edges[5]
        assert t.f0[v] == 1 and sum(t.f0) == 1
        assert t.f1[w] == 1 and sum(t.f1) == 1

    def test_pairing_examples(self, k39):
        ones = EdgeForm([Fraction(1)] * 27)
        assert pairing(ones, ones) == 27
        d1, d2 = [0] * 27, [0] * 27
        d1[3] = 1
        d2[4] = 1
        assert pairing(EdgeForm(d1), EdgeForm(d1)) == 1
        assert pairing(EdgeForm(d1), EdgeForm(d2)) == 0
        with pytest.raises(StratumError):
            pairing(ones, FormTriple([1] * 3, [1] * 9))

    def test_adjointness_random(self, k39, m13):
        rng = random.Random(101)
        for g in (k39, m13):
            for _ in range(50):
                t = random_triple(g, rng)
                m = random_edge_form(g, rng)
                assert pairing(map_i(t, g), m) == pairing(t, map_iplus(m, g))

    def test_pairing_positive_definite(self, k39):
        rng = random.Random(5)
        for _ in range(20):
            t = random_triple(k39, rng)
            val = pairing(t, t)
            assert val >= 0
            if any(t.f0) or any(t.f1):
                assert val > 0


class TestLevelMatrix:
    def test_k39_blocks(self, k39):
        block = level_matrix(k39)
        assert block.report["ok"], block.report
        for i in range(3):
            assert block.composite.rows[i][i] == 9
        for j in range(9):
            assert block.composite.rows[3 + j][3 + j] == 3

    def test_k39_walk_operator(self, k39):
        t = walk_operator_v0(k39)
        assert all(t[v][v] == 0 for v in range(3))
        assert all(t[v][w] == 9 for v in range(3) for w in range(3) if v != w)

    def test_m13_walk_diagonal(self, m13):
        t = walk_operator_v0(m13)
        assert t[0][0] == 18

    def test_random_graphs_block_identity(self):
        rng = random.Random(303)
        for _ in range(5):
            g = random_biregular_graph(2, rng.choice([2, 3]), rng)
            assert level_matrix(g).report["ok"]

    def test_l3_graphs(self):
        g = parallel_multigraph(3)
        assert (g.n0, g.n1, g.nedges) == (1, 7, 28)
        block = level_matrix(g)
        assert block.report["ok"]
        assert block.composite.rows[0][0] == 28
        rng = random.Random(33)
        h = random_biregular_graph(3, 1, rng)
        assert level_matrix(h).report["ok"]
        assert kernel_eigenvalue_check(level_matrix(h))["ok"]
        assert ihara_kernel_test(h, 5)["ok"]


class TestOldNew:
    def test_k39_dims(self, k39):
        _, _, dims = old_new_decomposition(k39)
        assert dims["old"] == 11 and dims["new"] == 16
        assert dims["direct_sum"] and dims["orthogonal"]

    def test_m13_dims(self, m13):
        _, _, dims = old_new_decomposition(m13)
        assert dims["old"] == 3 and dims["new"] == 6

    def test_disjoint_union_additivity(self, k39):
        g2 = disjoint_union(k39, complete_biregular(2))
        _, _, dims = old_new_decomposition(g2)
        assert dims["old"] == 22 and dims["new"] == 32


class TestKernelEigenvalue:
    def test_k39(self, k39):
        rep = kernel_eigenvalue_check(level_matrix(k39))
        assert rep["ok"] and rep["kernel_dim"] == 1
        (vec,) = rep["kernel_basis"]
        t = FormTriple.from_stacked(vec, k39.n0)
        ratio = {Fraction(x) / Fraction(t.f0[0]) for x in t.f0}
        assert ratio == {1}  # constant on V0
        assert {Fraction(x) / Fraction(t.f0[0]) for x in t.f1} == {-1}

    def test_m13(self, m13):
        rep = kernel_eigenvalue_check(level_matrix(m13))
        assert rep["ok"] and rep["kernel_dim"] == 1

    def test_random(self):
        rng = random.Random(99)
        for _ in range(4):
            g = random_biregular_graph(2, 2, rng)
            assert kernel_eigenvalue_check(level_matrix(g))["ok"]


class TestDetIdentity:
    def test_k39_both_sides_zero(self, k39):
        rep = det_identity_check(level_matrix(k39))
        assert rep["ok"] and rep["lhs"] == 0 == rep["rhs"]

    def test_m13_nonzero(self, m13):
        rep = det_identity_check(level_matrix(m13))
        assert rep["ok"]

    def test_random(self):
        rng = random.Random(17)
        for _ in range(4):
            g = random_biregular_graph(2, 2, rng)
            assert det_identity_check(level_matrix(g))["ok"]


class TestIharaKernel:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_k39_dimension_one(self, k39, p):
        rep = ihara_kernel_test(k39, p)
        assert rep["ok"] and rep["kernel_dim"] == 1
        (vec,) = rep["kernel_basis"]
        # constant pair (c, -c) mod p
        assert len(set(vec[:3])) == 1
        assert all((a + b) % p == 0 for a in vec[:3] for b in vec[3:])

    def test_disjoint_union_dim_two(self, k39):
        g2 = disjoint_union(k39, complete_biregular(2))
        rep = ihara_kernel_test(g2, 2)
        assert rep["kernel_dim"] == 2 and rep["ok"]
        assert [c["kernel_dim"] for c in rep["per_component"]] == [1, 1]

    def test_m13(self, m13):
        rep = ihara_kernel_test(m13, 5)
        assert rep["ok"] and rep["kernel_dim"] == 1


class TestCongruenceModule:
    def test_k39_matches_oracle_fixture(self, k39):
        rep = congruence_module(k39)
        assert rep["torsion_invariants"] == K39_CONGRUENCE["torsion"]
        assert rep["old_lattice_rank"] == K39_CONGRUENCE["rank"]
        assert rep["coker_free_rank"] == K39_CONGRUENCE["coker_free_rank"]
        ranks = rep["gamma_ranks"]
        assert (
            ranks["gamma0"],
            ranks["gamma1"],
            ranks["gamma2"],
            ranks["gamma3"],
        ) == K39_CONGRUENCE["gamma_ranks"]
        assert rep["q12_invariants"] == K39_CONGRUENCE["q12"]
        assert rep["q23_invariants"] == K39_CONGRUENCE["q23"]
        assert rep["containments_ok"]

    def test_m13_matches_oracle_fixture(self, m13):
        rep = congruence_module(m13)
        assert rep["torsion_invariants"] == M13_CONGRUENCE["torsion"]
        assert rep["q12_invariants"] == M13_CONGRUENCE["q12"]
        assert rep["q23_invariants"] == M13_CONGRUENCE["q23"]
        assert rep["coker_free_rank"] == M13_CONGRUENCE["coker_free_rank"]

    def test_twist_matches_oracle_fixture(self):
        rep = congruence_module(twisted_complete(2))
        assert rep["torsion_invariants"] == K39_TWIST_CONGRUENCE["torsion"]
        assert rep["q12_invariants"] == K39_TWIST_CONGRUENCE["q12"]
        assert rep["q23_invariants"] == K39_TWIST_CONGRUENCE["q23"]

    def test_q01_rank_counts_components(self, k39):
        rep = congruence_module(k39)
        assert rep["q01_free_rank"] == k39.n_components == 1
        g2 = disjoint_union(k39, complete_biregular(2))
        assert congruence_module(g2)["q01_free_rank"] == 2


class TestLabelingAndAbelianForms:
    def test_trivial_labeling_constants(self, k39):
        lab = DetLabeling.trivial(k39)
        triple, rep = abelian_forms(k39, lab, Fraction(1))
        assert rep["eigenvalue"] == 18 and rep["ok"]
        assert triple.f0 == [1, 1, 1]

    def test_nontrivial_chi_on_trivial_shift(self, k39):
        # order-2 labels with zero shift: all labels equal, sign character still fine
        lab = DetLabeling(2, 0, [0, 0, 0], [0] * 9)
        triple, rep = abelian_forms(k39, lab, Fraction(-1))
        assert rep["eigenvalue"] == 18 and rep["ok"]

    def test_alternating_labeling_rejected(self, k39):
        # no (9,3)-biregular graph admits a genuine order-2 shift: through any
        # degree-3 special vertex, three pairwise walks cannot all flip a label
        lab = DetLabeling(2, 1, [0, 1, 0], [0] * 9)
        with pytest.raises(LabelingError):
            abelian_forms(k39, lab, Fraction(-1))

    def test_labeling_file_roundtrip(self, k39):
        text = "labels order=2 gshift=0\nv0 1 1\nv1 4 1\n"
        lab = load_labeling(text, k39)
        assert lab.order == 2 and lab.v0_labels[1] == 1 and lab.v1_labels[4] == 1

    def test_bad_chi_value(self, k39):
        with pytest.raises(ValueError):
            abelian_forms(k39, DetLabeling.trivial(k39), Fraction(2))


class TestAutomorphismsAndSearch:
    def test_find_automorphisms_k39(self, k39):
        perms = find_automorphisms(k39, limit=4)
        assert perms[0] == (list(range(3)), list(range(9)))
        assert len(perms) == 4

    def test_family_commutes(self, k39):
        perms = find_automorphisms(k39, limit=4)
        fam = AuxOperatorFamily.from_automorphisms(k39, perms[1:])
        assert len(fam.members) == 3

    def test_family_rejects_non_commuting(self, k39):
        from u3local.cosets import AuxOperator

        bad = AuxOperator(
            "bad",
            [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
            [[1 if i == j else 0 for j in range(9)] for i in range(9)],
            [[1 if i == j else 0 for j in range(27)] for i in range(27)],
        )
        with pytest.raises(ValueError):
            AuxOperatorFamily(k39, [bad])

    def test_search_p3_has_candidates(self, k39):
        perms = find_automorphisms(k39, limit=3)
        fam = AuxOperatorFamily.from_automorphisms(k39, perms[1:])
        rep = level_raising_search(k39, 3, fam)
        assert rep["congruent_integer_eigenvalues"] == [-9, 18]
        assert rep["candidates"], "expected non-abelian candidates at p = 3"
        assert rep["prediction_confirmed"]

    def test_search_p5_empty(self, k39):
        fam = AuxOperatorFamily.empty(k39)
        rep = level_raising_search(k39, 5, fam)
        assert rep["candidates"] == []
        assert rep["congruent_integer_eigenvalues"] == [18]

    def test_search_p7_empty_aux(self, k39):
        rep = level_raising_search(k39, 7, AuxOperatorFamily.empty(k39))
        assert rep["candidates"] == []

    def test_search_spectrum_report(self, k39):
        rep = level_raising_search(k39, 3, AuxOperatorFamily.empty(k39))
        assert rep["integer_walk_eigenvalues"] == [-9, -9, 18]
        assert rep["unsplit_degree"] == 0

    def test_search_with_trivial_labeling(self, k39):
        lab = DetLabeling.trivial(k39)
        rep = level_raising_search(k39, 3, AuxOperatorFamily.empty(k39), lab)
        assert rep["eigenspace_dim"] == 3  # the walk operator vanishes mod 3
        assert rep["candidates"] and rep["prediction_confirmed"]

    def test_search_rejects_foreign_family(self, k39, m13):
        fam = AuxOperatorFamily.empty(m13)
        with pytest.raises(ValueError):
            level_raising_search(k39, 3, fam)
