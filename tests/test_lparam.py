import itertools
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from u3local import lparam
from u3local.linalg import Matrix
from u3local.lparam import (
    DegenerationWitness,
    NoWitnessError,
    components_through,
    degeneration_witness,
    dominated_partitions,
    is_degenerate_satake,
    jordan_partition,
    pgl2_check,
    solution_space,
    stratum_witnesses,
)

from .oracles import (
    dominates,
    fraction_inverse,
    jordan_type_by_ranks,
    jordan_types_by_combinations,
    partitions_recursive,
    solution_space_by_system,
)


def matrix_unit(n: int, i: int, j: int) -> Matrix:
    return Matrix.from_support(n, n, {(i, j): 1})


def jordan_representative(partition: tuple[int, ...]) -> Matrix:
    """Block nilpotent matrix in Jordan form with the given block sizes."""
    support = {}
    offset = 0
    for part in partition:
        for i in range(offset, offset + part - 1):
            support[i, i + 1] = 1
        offset += part
    return Matrix.from_support(offset, offset, support)


def diag(*entries):
    return [Fraction(x) for x in entries]


class TestSolutionSpace:
    def test_gl2_degenerate(self):
        assert solution_space(diag(2, 1), 2) == [(0, 1)]

    def test_gl2_identity(self):
        assert solution_space(diag(1, 1), 2) == []

    def test_gl3_two_steps(self):
        assert solution_space(diag(4, 2, 1), 2) == [(0, 1), (1, 2)]

    def test_dimension_counts_ratios(self):
        rng = random.Random(61)
        for _ in range(40):
            l = rng.choice([2, 3])
            n = rng.randint(1, 4)
            entries = [Fraction(l) ** rng.randint(0, 3) for _ in range(n)]
            s = diag(*entries)
            dim = len(solution_space(s, l))
            expected = sum(
                1
                for i in range(n)
                for j in range(n)
                if i != j and entries[i] == l * entries[j]
            )
            assert dim == expected

    def test_singular_phi_rejected(self):
        with pytest.raises(ValueError, match="^s must be invertible diagonal$"):
            solution_space(diag(0, 1), 2)

    @pytest.mark.parametrize("l", [2, 3, Fraction(3), 1])
    def test_matches_the_linear_system_in_order(self, l):
        # entries u * l^k share a unit u often enough for many pairs s_i = l s_j;
        # at l = 1 every E_ii joins the basis
        rng = random.Random(f"system:{l}")
        for _ in range(30):
            n = rng.randint(1, 5)
            entries = [
                rng.choice([1, -1, Fraction(2, 3)]) * Fraction(l) ** rng.randint(-1, 2)
                for _ in range(n)
            ]
            rows = [[x if i == j else 0 for j in range(n)] for i, x in enumerate(entries)]
            units = [matrix_unit(n, i, j).rows for i, j in solution_space(entries, l)]
            assert units == solution_space_by_system(rows, l)

    def test_no_elimination(self, monkeypatch):
        calls = []
        rref = Matrix.rref
        monkeypatch.setattr(Matrix, "rref", lambda m: calls.append(m.shape) or rref(m))
        assert len(solution_space(diag(4, 2, 2, 1), 2)) == 4
        assert calls == []

    def test_int_diagonal_stays_on_ints(self):
        pairs = solution_space([9, 3, 1], 3)
        assert pairs == [(0, 1), (1, 2)]
        assert solution_space([9, 3, 1], Fraction(3)) == pairs
        assert solution_space(diag(9, 3, 1), Fraction(3)) == pairs
        reps = lparam._jordan_types([9, 3, 1], 3)
        assert all(type(x) is int for N in reps.values() for row in N.rows for x in row)

    def test_witnesses_build_no_unit_matrix(self, monkeypatch):
        calls = []
        from_support = Matrix.from_support
        monkeypatch.setattr(
            Matrix, "from_support", lambda *a: calls.append(a) or from_support(*a)
        )
        assert stratum_witnesses([4, 2, 1, 1], 2)[3, 1]["verified"]
        assert calls == []


class TestJordan:
    def test_zero(self):
        assert jordan_partition(Matrix.zeros(3, 3)) == (1, 1, 1)

    def test_single_unit(self):
        assert jordan_partition(matrix_unit(2, 0, 1)) == (2,)

    def test_regular_gl3(self):
        n = matrix_unit(3, 0, 1) + matrix_unit(3, 1, 2)
        assert jordan_partition(n) == (3,)

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ValueError):
            jordan_partition(Matrix.identity(2))

    def test_orbit_enumeration(self):
        assert set(dominated_partitions((3,))) == {(3,), (2, 1), (1, 1, 1)}
        assert list(dominated_partitions((1,))) == [(1,)]
        assert len(list(dominated_partitions((4,)))) == 5
        for n in range(1, 6):
            for part in partitions_recursive(n):
                assert jordan_partition(jordan_representative(part)) == part

    def test_invariant_under_conjugation(self):
        rng = random.Random(67)
        for _ in range(25):
            n = rng.randint(2, 4)
            part = rng.choice(list(partitions_recursive(n)))
            N = jordan_representative(part)
            g = _random_invertible(rng, n)
            assert jordan_partition(g @ N @ Matrix(fraction_inverse(g.rows))) == part


def _random_invertible(rng, n):
    while True:
        g = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for __ in range(n)])
        if g.det() != 0:
            return g


def _random_unimodular(rng, n):
    """A product of integer elementary matrices, so det = 1 and the inverse is
    integral; the identity for n = 1."""
    g = Matrix.identity(n)
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        support = {(k, k): 1 for k in range(n)}
        support[i, j] = rng.choice((-2, -1, 1, 2))
        g = g @ Matrix.from_support(n, n, support)
    return g


class TestJordanAgainstOracle:
    """Powers by ``_matmul`` and ranks by ``fraction_rank``, all n of them."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_partition_conjugated(self, n):
        rng = random.Random(f"jordan:{n}")
        for part in partitions_recursive(n):
            g = _random_unimodular(rng, n)
            N = g @ jordan_representative(part) @ Matrix(fraction_inverse(g.rows))
            assert jordan_type_by_ranks(N.rows) == part
            assert jordan_partition(N) == part

    @pytest.mark.parametrize("exponents", [(5, 4, 3, 2, 1, 0), (2, 2, 1, 1, 0, 0)])
    def test_every_combination_of_a_solution_space(self, exponents):
        pairs = solution_space(diag(*(3**e for e in exponents)), 3)
        assert len(pairs) == sum(1 for a in exponents for b in exponents if a == b + 1)
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            N = Matrix.from_support(6, 6, dict.fromkeys(itertools.compress(pairs, bits), 1))
            assert jordan_partition(N) == jordan_type_by_ranks(N.rows)

    @pytest.mark.parametrize(
        "blocks",
        [
            [[1]],
            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 2]],  # ranks 4, 3, 2, 1, 1
            [[0, 1, 0], [0, 0, 0], [0, 0, -1]],  # ranks 3, 2, 1, 1
        ],
    )
    def test_ranks_that_stop_falling_are_not_nilpotent(self, blocks):
        n = len(blocks)
        g = _random_unimodular(random.Random(n), n)
        N = g @ Matrix(blocks) @ Matrix(fraction_inverse(g.rows))
        assert jordan_type_by_ranks(N.rows) is None
        with pytest.raises(ValueError, match="^matrix is not nilpotent$"):
            jordan_partition(N)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_no_power_past_the_nilpotency_index(self, n, monkeypatch):
        rng = random.Random(f"index:{n}")
        products = []
        original = Matrix.__matmul__
        for part in partitions_recursive(n):
            g = _random_unimodular(rng, n)
            N = g @ jordan_representative(part) @ Matrix(fraction_inverse(g.rows))
            products.clear()
            monkeypatch.setattr(
                Matrix, "__matmul__", lambda a, b: products.append(1) or original(a, b)
            )
            assert jordan_partition(N) == part
            monkeypatch.undo()
            # the products are N^2, ..., N^k for the index k = the largest block
            assert len(products) <= part[0] - 1


def _powers(exponents, l):
    return [Fraction(l) ** e for e in exponents]


# the benchmark's moduli FAIL and HEAVY diagonals, an unsorted chain, two diagonals
# of two chains each and one block of 3 x 4 pairs
_WALK_CASES = [
    *((_powers(e, l), l) for e in [(2, 2, 1, 1, 0, 0), (5, 4, 3, 2, 1, 0),
                                  (4, 3, 2, 1, 0, 0), (3, 2, 1, 0, 0, 0),
                                  (0, 1, 0, 2, 1, 0)] for l in (2, 3)),
    (diag(2, -1, -2, 1, 4, -4), 2),
    (diag(3, 1, Fraction(1, 2), Fraction(3, 2), Fraction(3, 4), 6), 2),
    (_powers((1, 1, 1, 0, 0, 0, 0), 2), 2),
]
_oracle_types: dict = {}


def _walk_mismatches(cases):
    """The cases whose types, first-seen order or representative supports
    differ from those of the 2^dim product loop."""
    bad = []
    for entries, l in cases:
        key = (tuple(entries), l)
        if key not in _oracle_types:
            _oracle_types[key] = list(jordan_types_by_combinations(entries, l).items())
        n = len(entries)
        got = [
            (part, [(i, j) for i in range(n) for j in range(n) if N.rows[i][j]])
            for part, N in lparam._jordan_types(entries, l).items()
        ]
        if got != _oracle_types[key]:
            bad.append((entries, l))
    return bad


class TestJordanTypesAgainstOracle:
    """The block walk against the product loop over all 0/1 combinations."""

    def test_fixed_diagonals(self):
        assert _walk_mismatches(_WALK_CASES) == []

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.lists(st.tuples(st.sampled_from([1, -1, 5]), st.integers(0, 3)), max_size=6),
    )
    def test_unit_multiples_of_powers(self, l, entries):
        assert _walk_mismatches([([u * Fraction(l) ** e for u, e in entries], l)]) == []

    def test_last_combination_per_type_is_caught(self, monkeypatch):
        monkeypatch.setattr(lparam, "min", max, raising=False)
        assert _walk_mismatches(_WALK_CASES)

    def test_dropped_cross_block_products_are_caught(self, monkeypatch):
        monkeypatch.setattr(
            lparam, "_block_product", lambda C, P: tuple((0,) * len(P[0]) for _ in C)
        )
        assert _walk_mismatches(_WALK_CASES)

    @pytest.mark.parametrize("entries, l", [((1, 1), 1), ((2, 1), 1), ((-1, 1), -1)])
    def test_l_of_order_two_is_not_nilpotent(self, entries, l):
        # the classes close into cycles: the sum of the basis is not nilpotent
        for types in (lparam._jordan_types, jordan_types_by_combinations):
            with pytest.raises(ValueError, match="^matrix is not nilpotent$"):
                types(diag(*entries), l)

    def test_no_square_elimination(self, monkeypatch):
        rows, calls = [], []
        rref = Matrix.rref
        monkeypatch.setattr(Matrix, "rref", lambda m: rows.append(m.nrows) or rref(m))
        monkeypatch.setattr(
            lparam, "jordan_partition", lambda N: calls.append(N) or jordan_partition(N)
        )
        assert all(w["verified"] for w in stratum_witnesses([9, 9, 3, 3, 1, 1], 3).values() if w)
        assert 6 not in rows and calls == []

    def test_one_block_memory(self):
        # 2^12 combinations of the 3 x 4 block between the classes of 2 and 1:
        # only that block's choices are ever held
        tracemalloc.start()
        try:
            reps = lparam._jordan_types(_powers((1, 1, 1, 0, 0, 0, 0), 2), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reps) == 4 and peak < 4_000_000


class TestPartitionsAgainstOracle:
    """The recursion on the largest part, filtered by ``dominates``."""

    @staticmethod
    def _mismatches(n_max):
        return [
            lam
            for n in range(1, n_max + 1)
            for lam in partitions_recursive(n)
            if list(dominated_partitions(lam))
            != [mu for mu in partitions_recursive(n) if dominates(lam, mu)]
        ]

    def test_dominated_partitions(self):
        assert self._mismatches(12) == []

    @pytest.mark.parametrize("n", range(16))
    def test_partitions_of_n(self, n):
        assert list(dominated_partitions((n,))) == list(partitions_recursive(n))

    def test_dropped_prefix_cap_is_caught(self, monkeypatch):
        # every prefix capped at n: all partitions of n, dominated or not
        monkeypatch.setattr(
            lparam, "itertools", SimpleNamespace(accumulate=lambda lam: [sum(lam)] * len(lam))
        )
        assert self._mismatches(4)

    def test_closure_filters_nothing(self):
        assert components_through(diag(8, 4, 2, 1), 2) == set(partitions_recursive(4))


class TestComponentsThrough:
    def test_gl2(self):
        assert components_through(diag(2, 1), 2) == {(1, 1), (2,)}
        assert components_through(diag(1, 1), 2) == {(1, 1)}

    def test_gl3_full_flag(self):
        assert components_through(diag(4, 2, 1), 2) == {(1, 1, 1), (2, 1), (3,)}

    def test_matches_degeneracy(self):
        for l in (2, 3):
            for n in (1, 2, 3):
                for entries in itertools.product(
                    [Fraction(l) ** k for k in range(4)], repeat=n
                ):
                    s = diag(*entries)
                    comps = components_through(s, l)
                    assert ((1,) * n in comps)
                    nontrivial = any(p != (1,) * n for p in comps)
                    assert nontrivial == is_degenerate_satake(s, l)

    @pytest.mark.parametrize(
        "entries, l",
        [
            ((2, 1), 2),
            ((1, 1), 2),
            ((4, 2, 1), 2),
            ((8, 2, 1), 2),
            ((9, 3, 1), 3),
            ((4, 2, 2, 1), 2),
        ],
    )
    def test_witness_keys_match(self, entries, l):
        s = diag(*entries)
        witnesses = stratum_witnesses(s, l)
        assert set(witnesses) == components_through(s, l)
        assert list(witnesses) == sorted(witnesses, reverse=True)

    @pytest.mark.xfail(
        strict=True,
        reason="the dominance closure runs over the whole nilpotent cone, not the "
        "solution space: N = a*E01 + b*E12 + c*E13 has N^2 = ab*E02 + ac*E03, so "
        "no N in it has type 2|2",
    )
    def test_closure_stays_in_solution_space(self):
        assert (2, 2) not in components_through(diag(4, 2, 1, 1), 2)


class TestDegenerateSatake:
    def test_examples(self):
        assert is_degenerate_satake(diag(2, 1), 2)
        assert not is_degenerate_satake(diag(1, 1), 2)
        assert is_degenerate_satake(diag(8, 2, 1), 2)  # the pair (2, 1) has ratio 2

    def test_ratio_l_not_any_power(self):
        assert not is_degenerate_satake(diag(4, 1), 2)


class TestWitness:
    def test_gl3_chain(self):
        s = diag(4, 2, 1)
        N = matrix_unit(3, 0, 1) + matrix_unit(3, 1, 2)
        w = degeneration_witness(s, N, 2)
        assert w.mu == (2, 1, 0)
        assert w.scaling_verified and w.path_on_stratum and w.specializes_to_zero

    def test_gl2_single(self):
        w = degeneration_witness(diag(2, 1), matrix_unit(2, 0, 1), 2)
        assert w.mu == (1, 0)
        assert w.scaling_verified

    def test_zero_matrix(self):
        w = degeneration_witness(diag(2, 1), Matrix.zeros(2, 2), 2)
        assert w.mu == (0, 0)

    def test_inconsistent_support(self):
        s = diag(2, 1)
        bad = matrix_unit(2, 0, 1) + matrix_unit(2, 1, 0)
        with pytest.raises(NoWitnessError):
            degeneration_witness(s, bad, 2)

    def test_symbolic_scaling_on_random_solutions(self):
        rng = random.Random(71)
        for _ in range(20):
            l = rng.choice([2, 3])
            n = rng.randint(2, 4)
            entries = [Fraction(l) ** rng.randint(0, 3) for _ in range(n)]
            s = diag(*entries)
            pairs = solution_space(s, l)
            if not pairs:
                continue
            N = Matrix.from_support(n, n, {ij: 1 for ij in pairs if rng.random() < 0.7})
            try:
                w = degeneration_witness(s, N, l)
            except NoWitnessError:
                continue
            assert w.scaling_verified and w.path_on_stratum


class TestPgl2:
    def test_no_intersection(self):
        for l in (2, 3):
            rep = pgl2_check(l)
            assert rep["solution_dimension"] == 0
            assert rep["not_intersection_point"]
            assert rep["gl2_contrast_dimension"] == 1

    def test_l_one_rejected(self):
        with pytest.raises(ValueError):
            pgl2_check(1)


def test_dominance_basics():
    assert dominates((3,), (2, 1)) and dominates((2, 1), (1, 1, 1))
    assert not dominates((2, 1), (3,))
    assert not dominates((2, 2), (3,)) or dominates((3, 1), (2, 2))
