import itertools
import random
from fractions import Fraction

import pytest

from u3local.linalg import Matrix
from u3local.lparam import (
    DegenerationWitness,
    NoWitnessError,
    TameParameterPoint,
    components_through,
    degeneration_witness,
    dominates,
    is_degenerate_satake,
    jordan_partition,
    jordan_representative,
    matrix_unit,
    nilpotent_orbits,
    partitions_of,
    pgl2_check,
    solution_space,
    stratum_witnesses,
    verify_point,
)


def diag(*entries):
    n = len(entries)
    m = Matrix.zeros(n, n)
    for i, x in enumerate(entries):
        m.rows[i][i] = Fraction(x)
    return m


class TestSolutionSpace:
    def test_gl2_degenerate(self):
        basis = solution_space(diag(2, 1), 2)
        assert len(basis) == 1
        assert basis[0] == matrix_unit(2, 0, 1)

    def test_gl2_identity(self):
        assert solution_space(diag(1, 1), 2) == []

    def test_gl3_two_steps(self):
        basis = solution_space(diag(4, 2, 1), 2)
        assert len(basis) == 2
        mats = {tuple(tuple(r) for r in b.rows) for b in basis}
        assert tuple(tuple(r) for r in matrix_unit(3, 0, 1).rows) in mats
        assert tuple(tuple(r) for r in matrix_unit(3, 1, 2).rows) in mats

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
        with pytest.raises(ValueError):
            solution_space(diag(0, 1), 2)

    def test_nondiagonal_phi(self):
        # conjugating diag(2,1) keeps the dimension
        g = Matrix([[1, 1], [0, 1]])
        phi = g @ diag(2, 1) @ g.inverse()
        assert len(solution_space(phi, 2)) == 1


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
        parts3 = {p for p, _ in nilpotent_orbits(3)}
        assert parts3 == {(3,), (2, 1), (1, 1, 1)}
        assert {p for p, _ in nilpotent_orbits(1)} == {(1,)}
        assert len(nilpotent_orbits(4)) == 5

    def test_invariant_under_conjugation(self):
        rng = random.Random(67)
        for _ in range(25):
            n = rng.randint(2, 4)
            part = rng.choice(list(partitions_of(n)))
            N = jordan_representative(part)
            g = _random_invertible(rng, n)
            assert jordan_partition(g @ N @ g.inverse()) == part


def _random_invertible(rng, n):
    while True:
        g = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for __ in range(n)])
        if g.det() != 0:
            return g


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
            basis = solution_space(s, l)
            if not basis:
                continue
            N = Matrix.zeros(n, n)
            for b in basis:
                if rng.random() < 0.7:
                    N = N + b
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


class TestVerifyPoint:
    def test_valid(self):
        pt = TameParameterPoint(diag(2, 1), matrix_unit(2, 0, 1), 2)
        assert verify_point(pt)

    def test_identity_phi_fails(self):
        pt = TameParameterPoint(Matrix.identity(2), matrix_unit(2, 0, 1), 2)
        assert not verify_point(pt)

    def test_zero_always_valid(self):
        pt = TameParameterPoint(diag(7, 5), Matrix.zeros(2, 2), 3)
        assert verify_point(pt)

    def test_non_nilpotent_fails(self):
        m = Matrix([[0, 1], [0, 0]]) + Matrix.identity(2)
        pt = TameParameterPoint(diag(2, 1), m, 2)
        assert not verify_point(pt)


def test_dominance_basics():
    assert dominates((3,), (2, 1)) and dominates((2, 1), (1, 1, 1))
    assert not dominates((2, 1), (3,))
    assert not dominates((2, 2), (3,)) or dominates((3, 1), (2, 2))
