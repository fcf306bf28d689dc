import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from u3local import cosets, linalg
from u3local.linalg import (
    QQ,
    Matrix,
    PrimeField,
    int_matrix_det,
    int_matrix_rank,
    lattice_basis,
    lattice_contains,
    lattice_quotient_invariants,
    lattice_saturation,
    smith_normal_form,
)

from .oracles import (
    charpoly_cofactor,
    fraction_det,
    fraction_kernel,
    fraction_matvec,
    fraction_rank,
    lattice_coordinates_fraction,
    snf_minor_gcd,
    snf_reduction,
)


def rand_int_rows(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for __ in range(m)]


def _square(max_n=6, lo=-5, hi=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def _rect(max_n=6, lo=-5, hi=5):
    return st.tuples(st.integers(1, max_n), st.integers(1, max_n)).flatmap(
        lambda mn: st.lists(
            st.lists(st.integers(lo, hi), min_size=mn[1], max_size=mn[1]),
            min_size=mn[0],
            max_size=mn[0],
        )
    )


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

    def test_former_blowup_matrix(self):
        # the elementary-operation Smith form ran past 60 s here, its entries
        # reaching thousands of bits
        rows = [
            [5, -7, -2, 5, 0, -9],
            [-4, 8, -9, -3, 0, 0],
            [2, -8, -9, 5, -7, 0],
            [-6, -3, -5, -9, -9, 6],
            [8, 0, -5, -5, 9, 8],
            [3, -1, 8, 3, 8, -7],
        ]
        assert smith_normal_form(rows) == snf_minor_gcd(rows) == [1, 1, 1, 1, 2, 284158]

    @settings(max_examples=60, deadline=None)
    @given(_rect(max_n=5, lo=-9, hi=9))
    def test_dense_against_minor_gcd_oracle(self, rows):
        assert smith_normal_form(rows) == snf_minor_gcd(rows)

    def test_matrix_input(self):
        assert smith_normal_form(Matrix([[2, 0], [0, Fraction(6, 2)]])) == [1, 6]

    @settings(max_examples=200, deadline=None)
    @given(
        _rect(max_n=7, lo=-4, hi=4),
        st.sampled_from([1, 1, 2, 3, 6]),
        st.sets(st.integers(0, 6), max_size=3),
        st.sets(st.integers(0, 6), max_size=3),
    )
    @example([[-2]], 1, set(), set())
    @example([[1, 2], [3, 1]], 3, set(), set())
    @example([[2, 3], [3, 2]], 1, set(), set())
    @example([[1, 1, 0], [1, 0, 1]], 2, {0}, {2})
    def test_against_reduction_oracle(self, rows, factor, zero_rows, zero_cols):
        # zero rows and columns, and a common factor that leaves no unit
        rows = [
            [0 if i in zero_rows or j in zero_cols else factor * x for j, x in enumerate(r)]
            for i, r in enumerate(rows)
        ]
        assert smith_normal_form(rows) == snf_reduction(rows)

    @settings(max_examples=100, deadline=None)
    @given(_rect(max_n=6).map(lambda rows: [[(0, 2, -2, 3, -3, 5)[x % 6] for x in r] for r in rows]))
    def test_unit_free_blocks_against_reduction_oracle(self, rows):
        # no entry is +-1, so only the gcd step and the Hermite forms act
        assert smith_normal_form(rows) == snf_reduction(rows)

    def test_a_lone_negative_entry(self):
        assert smith_normal_form([[-2]]) == [2]
        assert smith_normal_form([[0, -3], [0, 0]]) == [3, 0]

    def test_the_gcd_step_scales_the_later_invariants(self):
        # 3 [[1, 2], [3, 1]] has no unit: the pass divides by 3, eliminates a
        # unit, divides the 1x1 remainder -5 by 5 and eliminates again
        assert linalg._unit_pivot_pass([[3, 6], [9, 3]]) == ([3, 15], 15, [])
        assert smith_normal_form([[3, 6], [9, 3]]) == [3, 15]

    def test_a_unit_free_block_of_gcd_1_goes_to_the_hermite_forms(self):
        rows = [[2, 3, 0], [0, 2, 3], [3, 0, 2]]
        assert linalg._unit_pivot_pass(rows) == ([], 1, rows)
        assert smith_normal_form(rows) == snf_reduction(rows) == [1, 1, 35]

    def test_units_go_least_fill_in_first(self):
        # the pivot has the least Markowitz count (row entries - 1)(column
        # entries - 1) of every unit, by brute force over random sparse blocks
        rng = random.Random(4)
        for _ in range(200):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(m)]
            sparse = {i: {j: x for j, x in enumerate(r) if x} for i, r in enumerate(rows)}
            sparse = {i: r for i, r in sparse.items() if r}
            cols = {j: {i for i, r in sparse.items() if j in r} for j in range(n)}
            costs = {
                (i, j): (len(r) - 1) * (len(cols[j]) - 1)
                for i, r in sparse.items()
                for j, x in r.items()
                if abs(x) == 1
            }
            got = linalg._least_fill_unit(sparse, cols)
            if costs:
                assert costs[got] == min(costs.values())
            else:
                assert got is None


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
                assert Matrix(rows, gf).char_poly() == want

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7)])
    def test_empty_matrix(self, field):
        assert Matrix([], field).char_poly() == [1]

    @pytest.mark.parametrize("p", [0, 2, 5])
    @pytest.mark.parametrize("fraction", [False, True])
    def test_no_entry_goes_through_the_field(self, p, fraction, monkeypatch):
        # the Hessenberg reduction works on plain ints mod p, and the QQ route
        # (p = 0) clears denominators first, so no entry is converted by PrimeField.of
        rng = random.Random(31 + p)
        rows = rand_int_rows(rng, 6, 6, -4, 4)
        if fraction:
            rows[2][3] = Fraction(5, 3)
        field = PrimeField(p) if p else QQ
        M = Matrix(rows, field)
        calls = []
        of = PrimeField.of
        monkeypatch.setattr(PrimeField, "of", lambda self, x: calls.append(x) or of(self, x))
        cp = M.char_poly()
        assert not calls
        want = charpoly_cofactor(rows)
        if p:
            assert cp == [PrimeField(p).of(c) for c in want]
        else:
            assert cp == want

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

    def test_solve_example(self):
        M = Matrix([[2, 1], [1, 1]])
        x = M.solve([Fraction(3), Fraction(2)])
        assert M.apply(x) == [Fraction(3), Fraction(2)]
        assert Matrix([[1, 1], [1, 1]]).solve([1, 0]) is None

    def test_det_matches_bareiss(self):
        rng = random.Random(37)
        for _ in range(30):
            n = rng.randint(1, 6)
            rows = rand_int_rows(rng, n, n)
            assert Matrix(rows).det() == fraction_det(rows)


@st.composite
def _low_rank(draw, square=False, max_n=6, max_k=3):
    """A product of integer m x k and k x n matrices (rank at most k, and k = 0
    allowed), with some of its columns then set to zero."""
    m = draw(st.integers(1, max_n))
    n = m if square else draw(st.integers(1, max_n))
    k = draw(st.integers(0, max_k))
    a, b = draw(_rows(m, k, st.integers(-3, 3))), draw(_rows(k, n, st.integers(-3, 3)))
    zero = draw(st.sets(st.integers(0, n - 1)))
    return [
        [0 if j in zero else sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
        for i in range(m)
    ]


class TestBareiss:
    """One Bareiss elimination gives the determinant and the integer rank: a
    column with no pivot is skipped, and the pivots are counted."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(_low_rank(), _rect(max_n=7)))
    def test_int_matrix_rank_is_the_rational_rank(self, rows):
        assert int_matrix_rank(rows) == fraction_rank(rows)

    @pytest.mark.parametrize(
        "rows, rank",
        [
            ([], 0),
            ([[], []], 0),
            ([[0, 0, 0]], 0),
            ([[0, 1, 2], [0, 2, 4], [0, 3, 7]], 2),
            ([[0, 0, 5], [0, 0, 1]], 1),
            ([[1, 2], [2, 4], [3, 6], [1, 3]], 2),
            ([[2, 4, 6, 8, 10]], 1),
            ([[Fraction(4, 2), 0], [0, Fraction(3)]], 2),
        ],
    )
    def test_int_matrix_rank_examples(self, rows, rank):
        assert int_matrix_rank(rows) == rank == fraction_rank(rows)

    def test_int_matrix_rank_refuses_half(self):
        with pytest.raises(ValueError):
            int_matrix_rank([[Fraction(1, 2)]])

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_square(), _low_rank(square=True)), st.data())
    def test_det_over_every_field(self, rows, data):
        want = fraction_det(rows)
        assert Matrix(rows).det() == want
        halves = [[Fraction(x, data.draw(st.integers(1, 4))) for x in r] for r in rows]
        assert Matrix(halves).det() == fraction_det(halves)
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        assert Matrix(rows, PrimeField(p)).det() == want.numerator % p

    def test_det_of_singular_and_empty_matrices(self):
        for field in (QQ, PrimeField(5)):
            assert Matrix([[1, 2], [2, 4]], field).det() == 0
            assert Matrix([[0, 1], [0, 3]], field).det() == 0
            assert Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]], field).det() == 0
            assert Matrix([], field).det() == 1
        assert Matrix([[5, 0], [0, 1]], PrimeField(5)).det() == 0
        with pytest.raises(ValueError):
            Matrix([[1, 2]]).det()


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


class TestIntegralityGate:
    """The integer layer refuses what is not an integer instead of truncating it."""

    def test_smith_form_refuses_half(self):
        with pytest.raises(ValueError):
            smith_normal_form([[Fraction(1, 2), 0], [0, 3]])

    def test_lattice_basis_refuses_float(self):
        with pytest.raises(TypeError):
            lattice_basis([[0.5, 1]], 2)

    def test_int_det_refuses_half(self):
        with pytest.raises(ValueError):
            int_matrix_det([[Fraction(1, 2)]])

    def test_int_det_refuses_float(self):
        with pytest.raises(TypeError):
            int_matrix_det([[2.5]])

    def test_str_refused(self):
        with pytest.raises(TypeError):
            smith_normal_form([["3"]])

    def test_integral_fractions_accepted(self):
        assert smith_normal_form([[Fraction(4, 2), 0], [0, Fraction(3)]]) == [1, 6]
        assert int_matrix_det([[Fraction(6, 3), 1], [0, 1]]) == 2
        assert type(int_matrix_det([[Fraction(6, 3)]])) is int
        assert lattice_basis([[Fraction(2), 4]], 2) == [[2, 4]]


class TestEntryTypes:
    def test_ints_stay_ints(self):
        M = Matrix([[2, 4], [6, 8]])
        assert all(type(x) is int for r in M.rows for x in r)
        assert type(M.det()) is int and M.det() == -8
        red, _ = Matrix([[2, 4], [1, 3]]).rref()
        assert all(type(x) is int for r in red.rows for x in r)

    def test_fraction_only_after_inexact_division(self):
        assert QQ.div(6, 3) == 2 and type(QQ.div(6, 3)) is int
        assert QQ.div(1, 3) == Fraction(1, 3)
        assert type(QQ.div(Fraction(4), 2)) is int
        assert Matrix([[3, 1]]).kernel_basis() == [[Fraction(-1, 3), 1]]

    def test_fractions_kept_as_given(self):
        assert type(Matrix([[Fraction(2)]]).rows[0][0]) is Fraction

    def test_rational_field_refuses_float(self):
        with pytest.raises(TypeError):
            QQ.of(0.1)
        with pytest.raises(TypeError):
            Matrix([[1, 0.5]])

    def test_prime_field_refuses_float(self):
        gf = PrimeField(5)
        with pytest.raises(TypeError):
            gf.of(2.5)
        with pytest.raises(TypeError):
            Matrix([[1, 2.0]], gf)

    def test_prime_field_entries(self):
        gf = PrimeField(5)
        assert gf.of(-1) == 4 and gf.of(Fraction(1, 2)) == 3
        with pytest.raises(ZeroDivisionError):
            gf.of(Fraction(1, 5))
        assert Matrix([[7, -1]], gf).rows == [[2, 4]]

    @pytest.mark.parametrize("op", ["add", "sub", "matmul"])
    @pytest.mark.parametrize("fields", [(3, 5), (None, 3)], ids=["gf3-gf5", "qq-gf3"])
    def test_mixed_characteristics_rejected(self, op, fields):
        a, b = (QQ if p is None else PrimeField(p) for p in fields)
        x, y = Matrix([[1, 2], [0, 1]], a), Matrix([[1, 0], [2, 1]], b)
        apply = {"add": lambda: x + y, "sub": lambda: x - y, "matmul": lambda: x @ y}[op]
        with pytest.raises(ValueError, match="mixed characteristics"):
            apply()

    def test_from_support(self):
        M = Matrix.from_support(2, 3, {(0, 2): 5, (1, 0): Fraction(1, 2)})
        assert M.shape == (2, 3) and M.rows == [[0, 0, 5], [Fraction(1, 2), 0, 0]]
        assert Matrix.from_support(2, 2, {}) == Matrix.zeros(2, 2)

    def test_from_support_reduces_over_prime_field(self):
        gf = PrimeField(3)
        M = Matrix.from_support(1, 1, {(0, 0): 5}, gf)
        assert M.rows == [[2]] and M == Matrix([[2]], gf)

    def test_from_support_refuses_float(self):
        with pytest.raises(TypeError):
            Matrix.from_support(2, 2, {(0, 1): 0.5})
        with pytest.raises(TypeError):
            Matrix.from_support(2, 2, {(0, 1): 2.0}, PrimeField(3))

    @pytest.mark.parametrize("pos", [(2, 0), (0, 2), (-1, 0)])
    def test_from_support_refuses_entry_outside(self, pos):
        with pytest.raises(ValueError, match="outside"):
            Matrix.from_support(2, 2, {pos: 1})

    def test_equal_primes_combine(self):
        x = Matrix([[1, 2]], PrimeField(3))
        y = Matrix([[2, 2]], PrimeField(3))
        assert (x + y).rows == [[0, 1]]


def _entries(x):
    """Every scalar inside a matrix, vector, list of vectors or scalar."""
    if isinstance(x, Matrix):
        return [e for r in x.rows for e in r]
    if isinstance(x, list):
        return [e for v in x for e in _entries(v)]
    return [x]


class TestRationalProperties:
    """Over QQ on random integer matrices, against Fraction-only oracles."""

    @settings(max_examples=60, deadline=None)
    @given(_rect())
    def test_rank_and_kernel(self, rows):
        M = Matrix(rows)
        n = len(rows[0])
        rank = fraction_rank(rows)
        ker = M.kernel_basis()
        assert M.rank() == rank
        assert len(ker) == n - rank
        assert all(fraction_matvec(rows, v) == [0] * len(rows) for v in ker)
        assert not ker or fraction_rank(ker) == len(ker)
        assert not any(isinstance(x, float) for x in _entries(ker))

    @settings(max_examples=60, deadline=None)
    @given(_square())
    def test_det_and_char_poly(self, rows):
        M = Matrix(rows)
        d = M.det()
        assert type(d) is int and d == fraction_det(rows)
        cp = M.char_poly()
        assert cp == charpoly_cofactor(rows)
        assert not any(isinstance(x, float) for x in cp)

    @settings(max_examples=60, deadline=None)
    @given(_rect(), st.data())
    def test_solve(self, rows, data):
        b = data.draw(st.lists(st.integers(-5, 5), min_size=len(rows), max_size=len(rows)))
        x = Matrix(rows).solve(b)
        consistent = fraction_rank(rows) == fraction_rank([r + [c] for r, c in zip(rows, b)])
        assert (x is not None) == consistent
        if x is not None:
            assert fraction_matvec(rows, x) == b
            assert not any(isinstance(v, float) for v in x)


class TestPrimeFieldProperties:
    """Over GF(p): entries stay ints in [0, p) and kernels are kernels."""

    @staticmethod
    def _reduced(x, p):
        return all(type(e) is int and 0 <= e < p for e in _entries(x))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 5]), _rect(lo=-7, hi=7), st.integers(-7, 7))
    def test_entries_stay_reduced(self, p, rows, c):
        gf = PrimeField(p)
        M = Matrix(rows, gf)
        Mt = M.transpose()
        outputs = [M, M + M, M - M.scale(c), M.scale(c), M @ Mt, Mt @ M]
        outputs += [M.apply([c] * M.ncols), M.rref()[0], M.kernel_basis()]
        outputs += [Mt.row_space_and_kernel()[0]]
        x = M.solve([c] * M.nrows)
        if x is not None:
            outputs.append(x)
        S = M @ Mt
        outputs += [S.det(), S.char_poly()]
        for out in outputs:
            assert self._reduced(out, p), out

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 5]), _rect(lo=-7, hi=7))
    def test_kernel_and_rank_nullity(self, p, rows):
        M = Matrix(rows, PrimeField(p))
        ker = M.kernel_basis()
        for v in ker:
            assert all(sum(a * b for a, b in zip(r, v)) % p == 0 for r in rows)
        assert M.rank() + len(ker) == len(rows[0])


def _rows(m, n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)


def _near_2_40(max_m=3, max_n=5):
    """Wide matrices (so with a kernel) whose entries are +-(2^40 + d), |d| <= 2^10."""
    entry = st.tuples(st.sampled_from([1, -1]), st.integers(-(2**10), 2**10)).map(
        lambda sd: sd[0] * (2**40 + sd[1])
    )
    return st.integers(1, max_m).flatmap(
        lambda m: st.integers(m + 1, max_n).flatmap(lambda n: _rows(m, n, entry))
    )


def _composite_graph(which):
    if which == "K39":
        return cosets.complete_biregular(2)
    if which == "K39+K39":
        return cosets.disjoint_union(cosets.complete_biregular(2), cosets.complete_biregular(2))
    return cosets.random_biregular_graph(2, which, random.Random(1))


class TestModularRoute:
    """Integer matrices over QQ: the rref kernel and the char poly, which goes
    by way of F_p, must equal the Fraction oracles in value (the QQ rref may
    leave an integral Fraction where the oracle has an int)."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_kernel_of_rank_deficient_products(self, data):
        m, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        k = data.draw(st.integers(0, min(m, n) - 1))
        a = data.draw(_rows(m, k, st.integers(-9, 9)))
        b = data.draw(_rows(k, n, st.integers(-9, 9)))
        rows = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
        assert Matrix(rows).kernel_basis() == fraction_kernel(rows)

    @settings(max_examples=40, deadline=None)
    @example(rows=[[2**40 + 1, 2**40 + 3, -(2**40)]])
    @given(_near_2_40())
    def test_kernel_with_entries_near_2_40(self, rows):
        assert Matrix(rows).kernel_basis() == fraction_kernel(rows)

    @settings(max_examples=10, deadline=None)
    @given(st.one_of(st.sampled_from(["K39", "K39+K39"]), st.integers(1, 16)))
    def test_kernel_of_the_level_composite(self, which):
        rows = cosets.level_matrix(_composite_graph(which)).composite.rows
        assert Matrix(rows).kernel_basis() == fraction_kernel(rows)

    @settings(max_examples=60, deadline=None)
    @given(_square(max_n=6, lo=-(10**6), hi=10**6))
    def test_char_poly_of_integer_matrices(self, rows):
        cp = Matrix(rows).char_poly()
        assert cp == charpoly_cofactor(rows)
        assert all(type(c) is int for c in cp)

    @settings(max_examples=40, deadline=None)
    @given(_square(max_n=5), st.data())
    def test_char_poly_with_a_fraction_entry(self, rows, data):
        n = len(rows)
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows[i][j] = Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 9)))
        assert Matrix(rows).char_poly() == charpoly_cofactor(rows)


def _generators(max_n=5, max_k=6, lo=-6, hi=6):
    """(ambient dimension n, up to max_k integer generators of length n)."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n), max_size=max_k),
        )
    )


def _combination(coeffs, vecs, n):
    return [sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(n)]


def _torsion_order(rows) -> int:
    """Index of the lattice spanned by the rows in its saturation."""
    order = 1
    for d in snf_reduction(rows):
        order *= d or 1
    return order


class TestLatticeProperties:
    """The Hermite normal form lattice layer against a Fraction-solve oracle."""

    @settings(max_examples=80, deadline=None)
    @given(_generators())
    def test_basis_is_hermite_normal_form(self, gens):
        n, cols = gens
        basis = lattice_basis(cols, n)
        assert len(basis) == fraction_rank(cols)
        prev = -1
        for k, b in enumerate(basis):
            c = next(j for j, x in enumerate(b) if x)
            assert c > prev and b[c] > 0
            assert all(0 <= basis[j][c] < b[c] for j in range(k))
            prev = c

    @settings(max_examples=80, deadline=None)
    @given(_generators())
    def test_basis_spans_the_generated_lattice(self, gens):
        n, cols = gens
        basis = lattice_basis(cols, n)
        assert all(lattice_coordinates_fraction(basis, g) is not None for g in cols)
        if fraction_rank(cols) == len(cols):
            assert all(lattice_coordinates_fraction(cols, b) is not None for b in basis)
        elif cols:
            # generators inside the basis lattice, of the same rank: the two
            # lattices agree exactly when their indices in the saturation do
            assert _torsion_order(cols) == _torsion_order(basis)

    @settings(max_examples=80, deadline=None)
    @given(_generators(), st.data())
    def test_contains_matches_oracle(self, gens, data):
        n, cols = gens
        basis = lattice_basis(cols, n)
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(cols), max_size=len(cols)))
        member = _combination(coeffs, cols, n)
        other = data.draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
        assert lattice_contains(basis, member)
        for vec in (member, other):
            want = lattice_coordinates_fraction(basis, vec) is not None
            assert lattice_contains(basis, vec) == want
            assert lattice_contains(cols, vec) == want  # generators in no particular form

    @settings(max_examples=80, deadline=None)
    @given(_generators(max_k=4), st.data())
    def test_quotient_invariants_match_oracle(self, gens, data):
        n, cols = gens
        big = lattice_basis(cols, n)
        r = len(big)
        mult = data.draw(
            st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r), min_size=r, max_size=r)
        )
        small = [_combination(row, big, n) for row in mult]
        coords = [lattice_coordinates_fraction(big, v) for v in small]
        want = [d for d in snf_reduction([list(c) for c in zip(*coords)]) if d != 1]
        assert lattice_quotient_invariants(big, small) == want
        if fraction_rank(cols) == len(cols):
            # the invariants do not depend on the basis of the bigger lattice
            assert lattice_quotient_invariants(cols, small) == want

    @settings(max_examples=80, deadline=None)
    @given(_generators(max_k=3), st.data())
    def test_saturation_matches_oracles(self, gens, data):
        # integer combinations of a few vectors, zero generators among them:
        # rank-deficient whenever there are more generators than vectors
        n, base = gens
        row = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
        mult = data.draw(st.lists(row, max_size=6))
        cols = [_combination(c, base, n) for c in mult] + [[0] * n]
        sat = lattice_saturation(cols, n)
        assert len(sat) == fraction_rank(cols)
        assert all(lattice_contains(sat, g) for g in cols)
        # rank r, holding the generators, Z^n/sat torsion-free: the saturation
        assert all(d == 1 for d in snf_minor_gcd(sat))

    def test_quotient_names_why_a_vector_is_outside(self):
        big = lattice_basis([[2, 0]], 2)
        with pytest.raises(ValueError, match="not divisible"):
            lattice_quotient_invariants(big, [[1, 0]])
        with pytest.raises(ValueError, match="not in the span"):
            lattice_quotient_invariants(big, [[0, 1]])
