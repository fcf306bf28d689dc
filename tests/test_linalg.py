import random
from fractions import Fraction

import pytest

from u3local.linalg import (
    Matrix,
    PrimeField,
    int_matrix_det,
    lattice_basis,
    lattice_contains,
    lattice_quotient_invariants,
    lattice_saturation,
    smith_normal_form,
)

from .oracles import charpoly_cofactor, snf_minor_gcd, snf_reduction


def rand_int_rows(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for __ in range(m)]


class TestSmithNormalForm:
    def test_examples(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
        assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
        assert smith_normal_form([[0]]) == [0]
        assert smith_normal_form([]) == []

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(3)
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = rand_int_rows(rng, m, n)
            assert smith_normal_form(rows) == snf_minor_gcd(rows)

    def test_against_reduction_oracle_larger(self):
        # naive reduction suffers entry blowup, so keep these moderate
        rng = random.Random(5)
        for _ in range(20):
            m, n = rng.randint(4, 6), rng.randint(4, 6)
            rows = rand_int_rows(rng, m, n, -6, 6)
            assert smith_normal_form(rows) == snf_reduction(rows)

    def test_unimodular_invariance(self):
        rng = random.Random(9)
        for _ in range(25):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            rows = rand_int_rows(rng, m, n)
            base = smith_normal_form(rows)
            left = _random_unimodular(rng, m)
            right = _random_unimodular(rng, n)
            twisted = _mm(_mm(left, rows), right)
            assert smith_normal_form(twisted) == base

    def test_transforms_realize_diagonal(self):
        rng = random.Random(13)
        for _ in range(25):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = rand_int_rows(rng, m, n)
            f, U, V = smith_normal_form(rows, transforms=True)
            D = _mm(_mm(U, rows), V)
            for i in range(m):
                for j in range(n):
                    assert D[i][j] == (f[i] if i == j else 0)
            assert abs(int_matrix_det(U)) == 1
            assert abs(int_matrix_det(V)) == 1


def _mm(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _random_unimodular(rng, n):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


class TestCharPoly:
    def test_examples(self):
        p = 7
        assert Matrix([[1, 0], [0, p]]).char_poly() == [Fraction(p), Fraction(-(1 + p)), Fraction(1)]
        assert Matrix([[0, 1], [0, 0]]).char_poly() == [0, 0, 1]
        assert Matrix([[0, 1], [1, 0]]).char_poly() == [-1, 0, 1]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2, 3]]).char_poly()

    def test_against_cofactor_oracle(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(1, 5)
            rows = rand_int_rows(rng, n, n)
            assert Matrix(rows).char_poly() == charpoly_cofactor(rows)

    @pytest.mark.parametrize("p", [2, 3])
    def test_prime_field_against_cofactor_oracle(self, p):
        # n >= p included: a method that divides by k = 1..n fails there
        rng = random.Random(29 + p)
        gf = PrimeField(p)
        for n in range(1, 6):
            for _ in range(8):
                rows = rand_int_rows(rng, n, n, -4, 4)
                want = [int(c) % p for c in charpoly_cofactor(rows)]
                assert [c.v for c in Matrix(rows, gf).char_poly()] == want

    def test_cayley_hamilton(self):
        rng = random.Random(23)
        for n in range(1, 7):
            rows = rand_int_rows(rng, n, n, -4, 4)
            M = Matrix(rows)
            cs = M.char_poly()
            acc = Matrix.zeros(n, n)
            ident = Matrix.identity(n)
            for c in reversed(cs):
                acc = (M @ acc) + ident.scale(c)
            assert acc == Matrix.zeros(n, n)


class TestKernelAndRank:
    def test_examples(self):
        assert len(Matrix([[0, 0], [0, 0]]).kernel_basis()) == 2
        assert Matrix.identity(3).kernel_basis() == []
        (v,) = Matrix([[1, 1]]).kernel_basis()
        assert v[0] == -v[1] != 0

    def test_rank_nullity(self):
        rng = random.Random(31)
        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            M = Matrix(rand_int_rows(rng, m, n))
            ker = M.kernel_basis()
            assert M.rank() + len(ker) == n
            for v in ker:
                assert all(x == 0 for x in M.apply(v))

    def test_kernel_mod_p(self):
        gf = PrimeField(5)
        M = Matrix([[1, 2], [2, 4]], gf)
        (v,) = M.kernel_basis()
        assert all(x == 0 for x in M.apply(v))

    def test_solve_and_inverse(self):
        M = Matrix([[2, 1], [1, 1]])
        x = M.solve([Fraction(3), Fraction(2)])
        assert M.apply(x) == [Fraction(3), Fraction(2)]
        assert M.inverse() @ M == Matrix.identity(2)
        assert Matrix([[1, 1], [1, 1]]).solve([1, 0]) is None

    def test_det_matches_bareiss(self):
        rng = random.Random(37)
        for _ in range(30):
            n = rng.randint(1, 6)
            rows = rand_int_rows(rng, n, n)
            assert Matrix(rows).det() == int_matrix_det(rows)


class TestLattices:
    def test_basis_and_saturation(self):
        cols = [[2, 0], [0, 4]]
        basis = lattice_basis(cols, 2)
        assert lattice_contains(basis, [2, 0]) and lattice_contains(basis, [0, 4])
        assert not lattice_contains(basis, [1, 0])
        sat = lattice_saturation([[2, 0], [0, 4]], 2)
        assert lattice_contains(sat, [1, 0]) and lattice_contains(sat, [0, 1])

    def test_quotient_invariants(self):
        big = lattice_basis([[1, 0], [0, 1]], 2)
        small = lattice_basis([[2, 0], [0, 6]], 2)
        assert lattice_quotient_invariants(big, small) == [2, 6]
        assert lattice_quotient_invariants(big, big) == []

    def test_quotient_rejects_non_sublattice(self):
        big = lattice_basis([[2, 0], [0, 2]], 2)
        with pytest.raises(ValueError):
            lattice_quotient_invariants(big, [[1, 0]])
