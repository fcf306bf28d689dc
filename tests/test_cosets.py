import random
import sys
from fractions import Fraction

import pytest

from u3local import cosets
from u3local.cosets import (
    AuxOperator,
    AuxOperatorFamily,
    CosetGraph,
    DetLabeling,
    GraphFormatError,
    LabelingError,
    _permutation_order,
    complete_biregular,
    congruence_module,
    det_identity_check,
    disjoint_union,
    find_automorphisms,
    gamma_chain,
    ihara_kernel_test,
    kernel_eigenvalue_check,
    level_matrix,
    level_raising_search,
    load_graph,
    load_labeling,
    lower,
    old_new_decomposition,
    parallel_multigraph,
    random_biregular_graph,
    twisted_complete,
    walk_operator_v0,
)
from u3local.linalg import Matrix, PrimeField, lattice_quotient_invariants

from .oracles import (
    abelian_forms,
    automorphisms_brute,
    automorphisms_two_stage,
    charpoly_cofactor,
    commutes_with_level_maps_dense,
    fraction_det,
    gamma_chain_from_composite,
    gf_rank,
    integer_roots_with_multiplicity,
    old_new_orthogonal_pairwise,
)

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
# random_biregular_graph(2, n0, Random(seed)), by (n0, seed): the two graphs on
# which the congruence module once stalled in the Smith form of q12
RANDOM_CONGRUENCE = {
    (3, 1): {
        "gamma_ranks": (12, 11, 11, 11),
        "coker_free_rank": 16,
        "q12": [3] * 6 + [357],
        "q23": [],
    },
    (4, 2): {
        "gamma_ranks": (16, 15, 15, 15),
        "coker_free_rank": 21,
        "q12": [3] * 8 + [5874],
        "q23": [],
    },
}


@pytest.fixture(scope="module")
def k39():
    return complete_biregular(2)


@pytest.fixture(scope="module")
def m13():
    return parallel_multigraph(2)


# graphs for the rank oracles; every Random(k) graph has n0 <= 4
ORACLE_GRAPHS = {
    "k39": lambda: complete_biregular(2),
    "twisted": lambda: twisted_complete(2),
    "k39u": lambda: disjoint_union(complete_biregular(2), complete_biregular(2)),
    "m13": lambda: parallel_multigraph(2),
    "random2": lambda: random_biregular_graph(2, 2, random.Random(1)),
    "random3": lambda: random_biregular_graph(2, 3, random.Random(2)),
    "random4": lambda: random_biregular_graph(2, 4, random.Random(1)),
}


def shuffled(g, seed):
    """g with its V0 labels, V1 labels and edge order permuted by Random(seed)."""
    rng = random.Random(seed)
    s0, s1 = list(range(g.n0)), list(range(g.n1))
    rng.shuffle(s0)
    rng.shuffle(s1)
    edges = [(s0[v], s1[w]) for v, w in g.edges]
    rng.shuffle(edges)
    return CosetGraph(g.l, g.n0, g.n1, edges)


# graphs for the two-stage automorphism oracle, by name
TWO_STAGE_GRAPHS = {
    **{
        f"random{n0}-{k}": (lambda n0=n0, k=k: random_biregular_graph(2, n0, random.Random(k)))
        for n0 in (4, 6, 8)
        for k in range(1, 6)
    },
    "k39u": ORACLE_GRAPHS["k39u"],
    "shuffled-union": lambda: shuffled(
        disjoint_union(complete_biregular(2), random_biregular_graph(2, 2, random.Random(1))), 5
    ),
    "k4-28": lambda: complete_biregular(3),
}


def count_rrefs(monkeypatch):
    """Record (rows, columns, characteristic) of every ``Matrix.rref`` call from now on."""
    calls = []
    original = Matrix.rref

    def spy(self):
        calls.append((*self.shape, self.field.characteristic))
        return original(self)

    monkeypatch.setattr(Matrix, "rref", spy)
    return calls


def perm_matrix(perm):
    """The integer matrix of f -> f o perm: row i has its 1 at column perm[i]."""
    return [[int(j == x) for j in range(len(perm))] for x in perm]


def shifted(rows, c):
    """rows - c * Id, as integer rows."""
    return [[x - c * (i == j) for j, x in enumerate(r)] for i, r in enumerate(rows)]


def raised(g, f):
    """The raising map i on the stacked V0 + V1 function f: inc . f."""
    return [sum(a * b for a, b in zip(r, f)) for r in g.incidence_rows()]


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

    @pytest.mark.parametrize("n0, n1", [(-1, -1), (-1, 9), (3, -2)])
    def test_negative_vertex_count_rejected(self, n0, n1):
        with pytest.raises(GraphFormatError, match="nonnegative"):
            CosetGraph(2, n0, n1, [])

    @pytest.mark.parametrize("name", ["k39", "twisted", "m13", "random4"])
    def test_multiplicity_table(self, name):
        g = ORACLE_GRAPHS[name]()
        table = g.multiplicity_table()
        assert table == [[g.multiplicity(v, w) for w in range(g.n1)] for v in range(g.n0)]

    def test_nonprime_l_rejected(self):
        with pytest.raises(ValueError):
            CosetGraph(4, 1, 13, [(0, w) for w in range(13) for _ in range(5)])

    def test_undecidable_l_is_a_format_error(self):
        # a strong pseudoprime to the bases 2..37, past the bound where
        # Miller-Rabin on them decides: the loader's own error, not is_prime's
        with pytest.raises(GraphFormatError, match="cannot decide"):
            load_graph("coset-graph l=318665857834031151167461\nv0 0\nv1 0\n")


class TestRaisingLowering:
    def test_raising_constant(self, k39):
        assert raised(k39, [1] * 3 + [0] * 9) == [1] * 27

    def test_raising_constant_pair_in_kernel(self, k39):
        assert raised(k39, [1] * 3 + [-1] * 9) == [0] * 27

    def test_raising_delta(self, k39):
        out = raised(k39, [1, 0, 0] + [0] * 9)
        assert out == [1 if k39.edges[e][0] == 0 else 0 for e in range(27)]

    def test_lower_ones(self, k39):
        assert lower(k39, [1] * 27) == [9, 9, 9] + [3] * 9

    def test_lower_delta(self, k39):
        m = [0] * 27
        m[5] = 1
        t = lower(k39, m)
        v, w = k39.edges[5]
        assert t[v] == 1 and sum(t[:3]) == 1
        assert t[3 + w] == 1 and sum(t[3:]) == 1

    def test_adjointness_random(self, k39, m13):
        rng = random.Random(101)
        for g in (k39, m13):
            for _ in range(50):
                f = [Fraction(rng.randint(-9, 9)) for _ in range(g.n0 + g.n1)]
                m = [Fraction(rng.randint(-9, 9)) for _ in range(g.nedges)]
                lhs = sum(x * y for x, y in zip(raised(g, f), m))
                assert lhs == sum(x * y for x, y in zip(f, lower(g, m)))


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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: complete_biregular(2),
            lambda: parallel_multigraph(2),
            lambda: random_biregular_graph(2, 4, random.Random(3)),
        ],
        ids=["k39", "m13", "random4"],
    )
    def test_one_row_reduction_same_bases(self, make, monkeypatch):
        g = make()
        inc = Matrix(g.incidence_rows())
        want = (inc.transpose().row_space_and_kernel()[0], inc.transpose().kernel_basis())
        calls = []
        original = Matrix.rref
        monkeypatch.setattr(Matrix, "rref", lambda self: calls.append(self) or original(self))
        old, new, _ = old_new_decomposition(g)
        assert len(calls) == 1
        assert (old, new) == want


class TestKernelEigenvalue:
    def test_k39(self, k39):
        rep = kernel_eigenvalue_check(level_matrix(k39))
        assert rep["ok"] and rep["kernel_dim"] == 1
        (vec,) = rep["kernel_basis"]
        f0, f1 = vec[: k39.n0], vec[k39.n0 :]
        ratio = {Fraction(x) / Fraction(f0[0]) for x in f0}
        assert ratio == {1}  # constant on V0
        assert {Fraction(x) / Fraction(f0[0]) for x in f1} == {-1}

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

    def test_m13_both_sides_zero(self, m13):
        # M13 is connected and T0 = [[18]] = lambda0, so both sides vanish
        rep = det_identity_check(level_matrix(m13))
        assert rep["ok"] and rep["lhs"] == 0 == rep["rhs"]

    def test_random(self):
        rng = random.Random(17)
        for _ in range(4):
            g = random_biregular_graph(2, 2, rng)
            assert det_identity_check(level_matrix(g))["ok"]

    @pytest.mark.parametrize("broken", ["v0-parts-zero", "t0-shifted"])
    def test_bareiss_without_a_kernel_witness(self, k39, broken, monkeypatch):
        # the kernel's V0 parts vanish, or T0 + Id has no eigenvalue l(l^3+1):
        # then det(l(l^3+1) Id - T0) is eliminated, not read off a witness
        block = level_matrix(k39)
        n0 = block.n0
        if broken == "v0-parts-zero":
            block.kernel = [[0] * n0 + vec[n0:] for vec in block.kernel]
        else:
            block.T0 = block.T0 + Matrix.identity(n0)
        calls = []
        det = cosets.int_matrix_det
        monkeypatch.setattr(cosets, "int_matrix_det", lambda rows: calls.append(rows) or det(rows))
        rep = det_identity_check(block)
        shifted = Matrix.identity(n0).scale(18) - block.T0
        assert len(calls) == 1
        assert rep["rhs"] == 3 ** (block.n1 - n0) * fraction_det(shifted.rows)
        assert rep["ok"] is (rep["rhs"] == 0) is (broken == "v0-parts-zero")


# graphs on which the raising-map answers meet the dense composite's
RAISING_GRAPHS = {
    **ORACLE_GRAPHS,
    **{
        f"random{n0}-{k}": (lambda n0=n0, k=k: random_biregular_graph(2, n0, random.Random(k)))
        for n0 in range(1, 9)
        for k in (1, 2)
    },
}


class TestRaisingMapQuestions:
    """What `graph analyze` asks of the composite C = inc^T inc, answered from inc."""

    @pytest.mark.parametrize("name", list(RAISING_GRAPHS))
    def test_kernel_is_the_composite_kernel(self, name):
        block = level_matrix(RAISING_GRAPHS[name]())
        assert block.kernel == block.composite.kernel_basis()

    @pytest.mark.parametrize("name", list(RAISING_GRAPHS))
    def test_adjoint_orthogonality_matches_pairing(self, name):
        old, new, dims = old_new_decomposition(RAISING_GRAPHS[name]())
        assert dims["orthogonal"] is old_new_orthogonal_pairwise(old, new) is True

    @pytest.mark.parametrize("slipped", ["rref-row", "v1-difference"])
    def test_adjoint_orthogonality_sees_a_bad_new_vector(self, slipped, monkeypatch):
        # an old vector slipped into the new basis fails both verdicts; the
        # graph is new, so its first elimination goes through the patch.
        # i(0; e0 - e1) lowers to zero on V0 and to (0; 3, -3, 0, ...) on V1.
        g = complete_biregular(2)
        bad = raised(g, [0] * 3 + [1, -1] + [0] * 7)
        original = Matrix.row_space_and_kernel
        def corrupted(self):
            old, new = original(self)
            return old, new + [old[0] if slipped == "rref-row" else bad]
        monkeypatch.setattr(Matrix, "row_space_and_kernel", corrupted)
        old, new, dims = old_new_decomposition(g)
        assert dims["orthogonal"] is old_new_orthogonal_pairwise(old, new) is False

    @pytest.mark.parametrize("name", list(RAISING_GRAPHS))
    def test_composite_rows_are_the_dense_product(self, name):
        g = RAISING_GRAPHS[name]()
        inc = Matrix(g.incidence_rows())
        assert g.composite_rows() == (inc.transpose() @ inc).rows

    def test_det_identity_on_a_trivial_kernel(self):
        # only the empty graph has a trivial kernel; Bareiss of the 0x0 composite
        block = level_matrix(CosetGraph(2, 0, 0, []))
        assert block.kernel == []
        assert det_identity_check(block) == {"lhs": 1, "rhs": 1, "ok": True}

    def test_no_elimination_of_the_composite(self, monkeypatch):
        g = random_biregular_graph(2, 8, random.Random(1))
        shapes = []
        for method in ("rref", "det", "char_poly", "kernel_basis"):
            original = getattr(Matrix, method)
            def spy(self, *args, _original=original):
                shapes.append((self.nrows, self.ncols))
                return _original(self, *args)
            monkeypatch.setattr(Matrix, method, spy)
        block = level_matrix(g)
        old_new_decomposition(g)
        assert kernel_eigenvalue_check(block)["ok"] and det_identity_check(block)["ok"]
        nv = g.n0 + g.n1
        assert (g.nedges, nv) in shapes and (nv, nv) not in shapes


# the raising graphs, two components of different shape and some l=3 graphs
UNIMODULAR_GRAPHS = {
    **RAISING_GRAPHS,
    "k39+twisted": lambda: disjoint_union(complete_biregular(2), twisted_complete(2)),
    "k4-28": lambda: complete_biregular(3),
    **{
        f"l3-random{n0}-{k}": (lambda n0=n0, k=k: random_biregular_graph(3, n0, random.Random(k)))
        for n0 in (1, 2, 3)
        for k in (1, 2)
    },
}


class TestUnimodularShortcut:
    """inc is totally unimodular, so its rational eliminations have entries in
    {0, +-1} and, reduced mod p, are the eliminations over F_p: checked here
    against a direct elimination over F_p."""

    @pytest.mark.parametrize("name", list(UNIMODULAR_GRAPHS))
    def test_rational_eliminations_reduce_to_the_mod_p_ones(self, name):
        g = UNIMODULAR_GRAPHS[name]()
        kernel, (old, new) = g.raising_kernel, g.old_new_bases
        assert {x for vec in kernel + old + new for x in vec} <= {-1, 0, 1}
        for p in (2, 3, 5, 7, 65521):
            inc = Matrix(g.incidence_rows(), PrimeField(p))
            reduced = [[[x % p for x in vec] for vec in basis] for basis in (kernel, old, new)]
            assert reduced[0] == inc.kernel_basis()
            assert tuple(reduced[1:]) == inc.transpose().row_space_and_kernel()


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

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("name", list(ORACLE_GRAPHS))
    def test_per_component_against_oracle(self, name, p):
        g = ORACLE_GRAPHS[name]()
        rep = ihara_kernel_test(g, p)
        expected = []
        for comp in range(g.n_components):
            cols = [i for i in range(g.n0 + g.n1) if g.components[i] == comp]
            rows = [
                [r[i] for i in cols]
                for r, (v, _) in zip(g.incidence_rows(), g.edges)
                if g.components[v] == comp
            ]
            expected.append({"component": comp, "kernel_dim": len(cols) - gf_rank(rows, p)})
        assert rep["per_component"] == expected
        assert rep["kernel_dim"] == g.n0 + g.n1 - gf_rank(g.incidence_rows(), p)
        assert rep["kernel_basis"] == Matrix(g.incidence_rows(), PrimeField(p)).kernel_basis()

    def test_shuffled_union_per_component(self, k39, m13):
        # interleave the vertices and edges of three components
        g = disjoint_union(disjoint_union(k39, m13), random_biregular_graph(2, 2, random.Random(1)))
        rep = ihara_kernel_test(shuffled(g, 3), 3)
        assert [c["kernel_dim"] for c in rep["per_component"]] == [1, 1, 1]
        assert rep["ok"]

    def test_two_eliminations_mod_p_whatever_the_components(self, k39, monkeypatch):
        # the graph's one rational elimination of inc, then the abelian test's
        # two mod p; a second prime reuses the rational one
        calls = count_rrefs(monkeypatch)
        g = complete_biregular(2)  # each graph is new, its elimination not yet made
        for c in (1, 2, 3):
            nv = g.n0 + g.n1
            for p, rational in ((2, [(g.nedges, nv, 0)]), (3, [])):
                calls.clear()
                rep = ihara_kernel_test(g, p)
                assert rep["components"] == c and rep["ok"]
                assert calls == rational + [(2 * c, nv, p), (c, nv, p)]
            g = disjoint_union(g, k39)


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

    @pytest.mark.parametrize("n0, seed", sorted(RANDOM_CONGRUENCE))
    def test_random_graph_matches_oracle_fixture(self, n0, seed):
        want = RANDOM_CONGRUENCE[n0, seed]
        rep = congruence_module(random_biregular_graph(2, n0, random.Random(seed)))
        assert tuple(rep["gamma_ranks"].values()) == want["gamma_ranks"]
        assert rep["coker_free_rank"] == want["coker_free_rank"]
        assert rep["q12_invariants"] == want["q12"]
        assert rep["q23_invariants"] == want["q23"]
        assert rep["containments_ok"]

    def test_desk_scale_graph_passes_containments(self):
        rep = congruence_module(random_biregular_graph(2, 24, random.Random(1)))
        assert tuple(rep["gamma_ranks"].values()) == (96, 95, 95, 95)
        assert rep["containments_ok"]

    @pytest.mark.parametrize("graph", ["k39", "random4-2"])
    def test_runs_in_integers(self, graph, k39, monkeypatch):
        # no rational elimination anywhere on the congruence path
        def refuse(*args, **kwargs):
            raise AssertionError("rational elimination on the congruence path")

        for name in ("rref", "solve"):
            monkeypatch.setattr(Matrix, name, refuse)
        g = k39 if graph == "k39" else random_biregular_graph(2, 4, random.Random(2))
        rep = congruence_module(g)
        want = K39_CONGRUENCE["q12"] if graph == "k39" else RANDOM_CONGRUENCE[4, 2]["q12"]
        assert rep["q12_invariants"] == want and rep["containments_ok"]

    def test_q01_rank_counts_components(self, k39):
        rep = congruence_module(k39)
        assert rep["q01_free_rank"] == k39.n_components == 1
        g2 = disjoint_union(k39, complete_biregular(2))
        assert congruence_module(g2)["q01_free_rank"] == 2


# the raising graphs and some l=3 ones, on which gamma2 = gamma3 is checked
GAMMA_GRAPHS = {
    **RAISING_GRAPHS,
    "k4-28": lambda: complete_biregular(3),
    "m17": lambda: parallel_multigraph(3),
    **{
        f"l3-random{n0}-{k}": (lambda n0=n0, k=k: random_biregular_graph(3, n0, random.Random(k)))
        for n0 in (1, 2)
        for k in (1, 2)
    },
}


# every GAMMA_GRAPHS graph, a disconnected pair of non-isomorphic components,
# and l=3 random graphs up to n0 = 4
SYMMETRY_GRAPHS = {
    **GAMMA_GRAPHS,
    "k39+twisted": lambda: disjoint_union(complete_biregular(2), twisted_complete(2)),
    **{
        f"l3-random{n0}-{k}": (lambda n0=n0, k=k: random_biregular_graph(3, n0, random.Random(k)))
        for n0 in (3, 4)
        for k in (1, 2)
    },
}


def _is_symmetric(rows):
    return all(rows[i][j] == rows[j][i] for i in range(len(rows)) for j in range(i))


class TestWalkSymmetry:
    """T0 is symmetric because ``_two_walks`` yields both orders of each pair
    of edges at a star; the rank argument for integer walk eigenvalues rests
    on it, so a change to the enumeration that breaks it must fail here."""

    @pytest.mark.parametrize("name", list(SYMMETRY_GRAPHS))
    def test_walk_v0_is_symmetric(self, name):
        assert _is_symmetric(SYMMETRY_GRAPHS[name]().walk_v0)

    def test_one_way_walk_is_caught(self, monkeypatch):
        original = cosets._two_walks

        def one_way(g, side):
            walks = original(g, side)
            next(walks)  # drops the walk a -> b and keeps b -> a
            yield from walks

        monkeypatch.setattr(cosets, "_two_walks", one_way)
        assert not _is_symmetric(complete_biregular(2).walk_v0)


# every SYMMETRY_GRAPHS graph (K39 twice among them) and the empty graph
EIGENVALUE_GRAPHS = {**SYMMETRY_GRAPHS, "empty": lambda: CosetGraph(2, 0, 0, [])}


def _spectrum_disagreements(name):
    """The primes p in 2, 3, 5, 7 at which the search's integer walk
    eigenvalues, or those congruent to l(l^3+1) mod p, differ from the char
    poly route: integer roots of the cofactor char poly of T0, by synthetic
    division."""
    g = EIGENVALUE_GRAPHS[name]()
    lam = g.l * (g.l**3 + 1)
    roots = integer_roots_with_multiplicity(charpoly_cofactor(g.walk_v0), lam)
    bad = []
    for p in (2, 3, 5, 7):
        rep = level_raising_search(g, p, AuxOperatorFamily.empty(g))
        congruent = sorted(set(r for r in roots if (r - lam) % p == 0))
        got = (rep["integer_walk_eigenvalues"], rep["congruent_integer_eigenvalues"])
        if got != (roots, congruent):
            bad.append(p)
    return bad


class TestIntegerWalkEigenvalues:
    """The search lists the integer eigenvalues of T0 from one char poly mod
    2^61 - 1 and exact ranks; the char poly route over Q is the oracle."""

    @pytest.mark.parametrize("name", list(EIGENVALUE_GRAPHS))
    def test_agrees_with_the_char_poly_route(self, name):
        assert _spectrum_disagreements(name) == []

    def test_rank_mod_3_is_caught(self, monkeypatch):
        # T0 = 9 (J - I) on K39 vanishes mod 3
        monkeypatch.setattr(cosets, "int_matrix_rank", lambda rows: gf_rank(rows, 3))
        assert _spectrum_disagreements("k39")

    def test_multiplicity_one_is_caught(self, monkeypatch):
        monkeypatch.setattr(cosets, "int_matrix_rank", lambda rows: len(rows) - 1)
        assert _spectrum_disagreements("k39u")

    def test_only_the_target_eigenvalue_is_caught(self, monkeypatch):
        # a char poly that vanishes only at l(l^3+1) = 18 drops K39's -9
        monkeypatch.setattr(Matrix, "char_poly", lambda m: [-18 % m.field.p, 1])
        assert _spectrum_disagreements("k39")


class TestGammaChainConstruction:
    """gamma3 lowers one Hermite basis of the old lattice, and gamma2 is the
    same list; the oracle builds gamma3 from the composite's columns and gamma2
    from the lowered saturation of the raw incidence columns, so that its
    gamma2 = gamma3 is the saturation theorem exercised, not assumed."""

    @pytest.mark.parametrize("name", list(GAMMA_GRAPHS))
    def test_matches_the_composite_construction(self, name):
        g = GAMMA_GRAPHS[name]()
        got, want = gamma_chain(g), gamma_chain_from_composite(g)
        assert want.gamma2 == want.gamma3
        assert got.gamma0 == want.gamma0
        assert got.gamma1 == want.gamma1
        assert got.gamma2 == want.gamma2
        assert got.gamma3 == want.gamma3

    @pytest.mark.parametrize("name", [*GAMMA_GRAPHS, "k39+k39"])
    def test_congruence_module_matches_the_chain_quotients(self, name):
        # the report reads q12 off the Smith form of the composite; the
        # quotient coordinates of the chain's lattices give it independently
        if name == "k39+k39":
            g = disjoint_union(complete_biregular(2), complete_biregular(2))
        else:
            g = GAMMA_GRAPHS[name]()
        chain = gamma_chain(g)
        rep = congruence_module(g)
        assert rep["q12_invariants"] == lattice_quotient_invariants(chain.gamma1, chain.gamma2)
        assert rep["q23_invariants"] == lattice_quotient_invariants(chain.gamma2, chain.gamma3)
        assert rep["gamma_ranks"] == {
            name: len(getattr(chain, name)) for name in ("gamma0", "gamma1", "gamma2", "gamma3")
        }
        assert rep["containments_ok"]


class TestLabelingAndAbelianForms:
    def test_trivial_labeling_constants(self, k39):
        lab = DetLabeling(1, 0, [0] * 3, [0] * 9)
        (f0, _), rep = abelian_forms(k39, lab, Fraction(1))
        assert rep["eigenvalue"] == 18 and rep["ok"]
        assert f0 == [1, 1, 1]

    def test_nontrivial_chi_on_trivial_shift(self, k39):
        # order-2 labels with zero shift: all labels equal, sign character still fine
        lab = DetLabeling(2, 0, [0, 0, 0], [0] * 9)
        _, rep = abelian_forms(k39, lab, Fraction(-1))
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
            abelian_forms(k39, DetLabeling(1, 0, [0] * 3, [0] * 9), Fraction(2))


class TestAutomorphismsAndSearch:
    def test_find_automorphisms_k39(self, k39):
        perms = find_automorphisms(k39, limit=4)
        assert perms[0] == (list(range(3)), list(range(9)))
        assert len(perms) == 4

    def test_family_commutes(self, k39):
        perms = find_automorphisms(k39, limit=4)
        fam = AuxOperatorFamily.from_automorphisms(k39, perms[1:])
        assert len(fam.members) == 3

    def test_family_rejects_misshapen_operator(self, k39):
        cases = [[list(range(n)) for n in sizes] for sizes in ((3, 8), (2, 9), (4, 9), (3, 10))]
        for k in range(2):  # a repeated entry in sigma or tau
            cases.append([list(range(n)) for n in (3, 9)])
            cases[-1][k][1] = 0
        for perms in cases:
            with pytest.raises(ValueError, match="needs permutations of 3 and 9 points"):
                AuxOperatorFamily(k39, [AuxOperator("shape", *perms)])

    def test_family_rejects_a_pair_that_changes_multiplicities(self):
        # twisted K39 has parallel edges; swapping V1 vertices 0 and 2 alone
        # sends a vertex pair to one of another multiplicity
        g = twisted_complete(2)
        tau = [2, 1, 0] + list(range(3, g.n1))
        with pytest.raises(ValueError, match="does not preserve edge multiplicities"):
            AuxOperatorFamily(g, [AuxOperator("swap", list(range(g.n0)), tau)])

    @pytest.mark.parametrize("name", ["k39", "twisted", "random4"])
    def test_commutation_matches_dense_oracle(self, name):
        g = ORACLE_GRAPHS[name]()
        fam = AuxOperatorFamily.from_automorphisms(g, find_automorphisms(g, limit=4))
        assert len(fam.members) >= 2
        for op in fam.members:
            expanded = map(perm_matrix, (op.sigma, op.tau, op.edge_map))
            assert commutes_with_level_maps_dense(g, *expanded)

    @pytest.mark.parametrize("perm", [[0], [1, 0], [1, 2, 0, 4, 3], [2, 0, 1, 3, 5, 6, 4, 8, 7]])
    def test_permutation_order_is_the_least_power_to_identity(self, perm):
        power, order = list(perm), 1
        while power != list(range(len(perm))):
            power, order = [perm[i] for i in power], order + 1
        assert _permutation_order(perm) == order

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

    def test_search_with_trivial_labeling(self, k39):
        lab = DetLabeling(1, 0, [0] * 3, [0] * 9)
        rep = level_raising_search(k39, 3, AuxOperatorFamily.empty(k39), lab)
        assert rep["eigenspace_dim"] == 3  # the walk operator vanishes mod 3
        assert rep["candidates"] and rep["prediction_confirmed"]

    @pytest.mark.parametrize("name, p, matching", [("k39", 3, 12), ("random4", 2, 17)])
    def test_search_duplicate_names(self, name, p, matching):
        g = ORACLE_GRAPHS[name]()
        perms = find_automorphisms(g, limit=4)[1:]
        fam = AuxOperatorFamily.from_automorphisms(g, perms)
        distinct = level_raising_search(g, p, fam)
        renamed = [AuxOperator("x", op.sigma, op.tau) for op in fam.members]
        same = level_raising_search(g, p, AuxOperatorFamily(g, renamed))

        def values(rep):
            return [
                {**c, "aux_eigenvalues": [v for _, v in c["aux_eigenvalues"]]}
                for c in rep["candidates"]
            ]

        assert values(same) == values(distinct)
        assert [c["matching_new_dim"] for c in same["candidates"]] == [matching]
        assert [n for n, _ in same["candidates"][0]["aux_eigenvalues"]] == ["x"] * len(perms)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("name", list(ORACLE_GRAPHS))
    def test_search_dims_against_oracle(self, name, p):
        g = ORACLE_GRAPHS[name]()
        fam = AuxOperatorFamily.from_automorphisms(g, find_automorphisms(g, limit=4)[1:])
        rep = level_raising_search(g, p, fam)
        t0 = shifted(walk_operator_v0(g), rep["target_eigenvalue_mod_p"])
        inc_t = [list(col) for col in zip(*g.incidence_rows())]
        assert rep["eigenspace_dim"] == g.n0 - gf_rank(t0, p)
        assert rep["new_space_dim"] == g.nedges - gf_rank(inc_t, p)
        ops = {op.name: op for op in fam.members}
        for cand in rep["candidates"]:
            on_v0, on_edges = list(t0), list(inc_t)
            for name, c in cand["aux_eigenvalues"]:
                on_v0 += shifted(perm_matrix(ops[name].sigma), c)
                on_edges += shifted(perm_matrix(ops[name].edge_map), c)
            assert cand["candidate_dim"] == g.n0 - gf_rank(on_v0, p)
            assert cand["matching_new_dim"] == g.nedges - gf_rank(on_edges, p)
            assert cand["occurs_in_new_space"] == (cand["matching_new_dim"] > 0)

    def test_abelian_test_is_one_elimination(self, k39, monkeypatch):
        # with no auxiliary members: the T0 eigenspace, the abelian span and
        # the abelian test, one elimination mod p each, whatever the eigenspace
        # dimension; the new space is the graph's one rational elimination of
        # inc^T, made on first use and reused after
        calls = count_rrefs(monkeypatch)
        dims = set()
        new = complete_biregular(2)
        for g, p, fresh in ((new, 5, True), (new, 3, False), (disjoint_union(k39, k39), 3, True)):
            calls.clear()
            rep = level_raising_search(g, p, AuxOperatorFamily.empty(g))
            dims.add(rep["eigenspace_dim"])
            rational = [c for c in calls if c[2] == 0]
            assert len(calls) - len(rational) == 3
            assert rational == ([(g.n0 + g.n1, g.nedges, 0)] if fresh else [])
        assert len(dims) == 3

    @pytest.mark.parametrize("name", ["k39", "twisted", "m13", "random2"])
    def test_find_automorphisms_against_brute_force(self, name, monkeypatch):
        g = ORACLE_GRAPHS[name]()
        expected = automorphisms_brute(g, 8)

        def no_scan(self, v, w):
            raise AssertionError("find_automorphisms should read the multiplicity table")

        monkeypatch.setattr(CosetGraph, "multiplicity", no_scan)
        assert find_automorphisms(g, limit=8) == expected

    @pytest.mark.parametrize("limit", [1, 3, 8, 30])
    @pytest.mark.parametrize("name", list(TWO_STAGE_GRAPHS))
    def test_find_automorphisms_against_two_stage(self, name, limit):
        g = TWO_STAGE_GRAPHS[name]()
        assert find_automorphisms(g, limit) == automorphisms_two_stage(g, limit)

    @pytest.mark.parametrize("n0, count", [(16, 1), (24, 2), (32, 1)])
    def test_find_automorphisms_former_stall(self, n0, count, deadline):
        # whole-sigma enumeration ran for minutes on these graphs
        with deadline(30):
            perms = find_automorphisms(random_biregular_graph(2, n0, random.Random(1)), 4)
        assert len(perms) == count
        assert perms[0] == (list(range(n0)), list(range(3 * n0)))

    def test_find_automorphisms_does_not_recurse_per_vertex(self):
        # 128 vertices against a limit of 100 frames above this one
        g = random_biregular_graph(2, 32, random.Random(1))
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            perms = find_automorphisms(g, 1)
        finally:
            sys.setrecursionlimit(previous)
        assert perms == [(list(range(32)), list(range(96)))]

    def test_search_rejects_foreign_family(self, k39, m13):
        fam = AuxOperatorFamily.empty(m13)
        with pytest.raises(ValueError):
            level_raising_search(k39, 3, fam)
