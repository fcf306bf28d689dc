import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from u3local.linalg import Matrix, rational_reconstruction
from u3local.poly import Poly
from u3local.scalars import INF, padic_valuation
from u3local.slope import (
    NoBreakError,
    _invertible_on,
    _solve_mod_prime_power,
    _stable_under,
    SlopePrecisionError,
    fredholm_series,
    newton_polygon,
    slope_decomposition,
    slope_factorization,
)

from .oracles import fredholm_interpolation


def diag(*entries):
    n = len(entries)
    m = Matrix.zeros(n, n)
    for i, x in enumerate(entries):
        m.rows[i][i] = Fraction(x)
    return m


def random_unimodular(rng, n):
    g = Matrix.identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = Fraction(rng.randint(-2, 2))
            g.rows[i] = [a + c * b for a, b in zip(g.rows[i], g.rows[j])]
    return g


class TestFredholm:
    def test_examples(self):
        assert fredholm_series(diag(1, 3)) == Poly([1, -4, 3])
        assert fredholm_series(Matrix.zeros(2, 2)) == Poly.one()
        assert fredholm_series(Matrix([[0, 1], [0, 0]])) == Poly.one()

    def test_reversed_charpoly(self):
        rng = random.Random(81)
        for _ in range(20):
            n = rng.randint(1, 5)
            U = Matrix([[Fraction(rng.randint(-4, 4)) for _ in range(n)] for __ in range(n)])
            cp = Poly(U.char_poly())
            assert fredholm_series(U) == cp.reverse(n)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    @example([[0, 1], [0, 0]])
    @example([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    @example([[0, 0], [0, 0]])
    @example([[1, 2], [2, 4]])
    def test_matches_interpolation_oracle(self, rows):
        assert list(fredholm_series(Matrix(rows)).coeffs) == fredholm_interpolation(rows)


class TestNewtonPolygon:
    def test_example(self):
        np = newton_polygon(Poly([1, -4, 3]), 3)
        assert np.vertices == [(0, 0), (1, 0), (2, 1)]
        assert np.slopes() == [Fraction(0), Fraction(1)]

    def test_constant(self):
        np = newton_polygon(Poly.one(), 5)
        assert np.vertices == [(0, 0)] and np.segments == []

    def test_single_slope(self):
        for p in (2, 3, 5):
            np = newton_polygon(Poly([1, -p]), p)
            assert np.slopes() == [Fraction(1)]

    def test_skips_zero_coefficients(self):
        # 1 + p^2 T^2: polygon from (0,0) to (2,2), slope 1 with length 2
        np = newton_polygon(Poly([1, 0, 9]), 3)
        assert np.slopes() == [Fraction(1), Fraction(1)]

    def test_half_slope(self):
        np = newton_polygon(Poly([1, 0, -3]), 3)
        assert np.slopes() == [Fraction(1, 2), Fraction(1, 2)]

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            newton_polygon(Poly([3, 1]), 3)
        with pytest.raises(ValueError):
            newton_polygon(Poly.zero(), 3)

    def test_matches_planted_valuations(self):
        rng = random.Random(87)
        for _ in range(20):
            p = rng.choice([2, 3, 5])
            vals = sorted(rng.randint(0, 3) for _ in range(rng.randint(1, 5)))
            eigs = [Fraction(p) ** v * rng.choice([1, 2 if p != 2 else 3]) for v in vals]
            P = Poly.one()
            for lam in eigs:
                P = P * Poly([1, -lam])
            got = newton_polygon(P, p).slopes()
            assert got == [Fraction(padic_valuation(lam, p)) for lam in eigs]


class TestSlopeFactorization:
    def test_split_example(self):
        fact = slope_factorization(Poly([1, -4, 3]), 0, 3)
        assert fact.exact
        assert fact.Q == Poly([1, -1]) and fact.S == Poly([1, -3])

    def test_trivial_high_bound(self):
        P = Poly([1, -4, 3])
        fact = slope_factorization(P, 5, 3)
        assert fact.Q == P and fact.S == Poly.one()

    def test_trivial_no_low_part(self):
        P = fredholm_series(diag(3, 3))
        fact = slope_factorization(P, 0, 3)
        assert fact.Q == Poly.one() and fact.S == P

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            slope_factorization(Poly([2, 1]), 0, 3)

    def test_three_eigenvalues(self):
        P = Poly.one()
        for lam in (1, 3, 9):
            P = P * Poly([1, -lam])
        fact = slope_factorization(P, 1, 3)
        assert fact.exact
        assert fact.Q == Poly([1, -1]) * Poly([1, -3])
        assert fact.S == Poly([1, -9])

    def test_rational_but_irrational_roots(self):
        # eigenvalues +-sqrt(2) (valuation 0) and 3*5 (valuation 1) at p = 3:
        # the slope-0 factor 1 - 2T^2 is rational even though its roots are not
        P = Poly([1, -2]).__mul__(Poly([1])) * Poly([1, 0, -2]) // Poly([1, -2])
        P = Poly([1, 0, -2]) * Poly([1, -15])
        fact = slope_factorization(P, 0, 3)
        assert fact.exact
        assert fact.Q == Poly([1, 0, -2]) and fact.S == Poly([1, -15])

    def test_irrational_factor_mod_p(self):
        # reciprocal roots of 1 - T + 3T^2 are conjugate irrationals with
        # 3-adic valuations 0 and 1; the slope-0 factor is 1 - lam T with lam
        # the unit root of x^2 - x + 3, computed independently by Newton below
        P = Poly([1, -1, 3])
        fact = slope_factorization(P, 0, 3, precision=20)
        assert not fact.exact and fact.precision == 20
        assert fact.residual_valuation(P) >= 20
        lam = Fraction(1)
        for _ in range(8):  # Newton for x^2 - x + 3 from the unit residue 1
            lam = lam - (lam * lam - lam + 3) / (2 * lam - 1)
        assert padic_valuation(lam * lam - lam + 3, 3) >= 22
        got = -fact.Q.coeffs[1]
        assert padic_valuation(got - lam, 3) >= 20

    def test_validates_leading_coefficient(self):
        # h along a fractional slope: whole segment goes into Q, break at vertex
        P = Poly([1, 0, -3])
        fact = slope_factorization(P, Fraction(1, 2), 3)
        assert fact.Q == P and fact.S == Poly.one()
        fact0 = slope_factorization(P, 0, 3)
        assert fact0.Q == Poly.one() and fact0.S == P


def _counting_solve(monkeypatch):
    """Patch Matrix.solve to count its calls; returns the list of calls."""
    calls = []
    original = Matrix.solve
    monkeypatch.setattr(Matrix, "solve", lambda self, b: calls.append(b) or original(self, b))
    return calls


class TestNewtonStepRoute:
    """The Newton step solves on ints mod p^work when it can, over QQ otherwise."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(1, 30),
        st.integers(1, 8).flatmap(
            lambda d: st.tuples(
                st.lists(st.lists(st.integers(-60, 60), min_size=d, max_size=d),
                         min_size=d, max_size=d),
                st.lists(st.integers(-(10**20), 10**20), min_size=d, max_size=d),
            )
        ),
    )
    @example(3, 5, ([[1, 3], [3, 9]], [1, 2]))  # det 0
    @example(3, 5, ([[1, 1], [1, 4]], [0, 1]))  # det 3: invertible over QQ only
    def test_matches_the_residues_of_the_rational_solution(self, p, k, system):
        rows, rhs = system
        got = _solve_mod_prime_power(rows, rhs, p, k)
        det = Matrix(rows).det()
        if det % p == 0:
            assert got is None
            return
        q = p**k
        want = [Fraction(x).numerator * pow(Fraction(x).denominator, -1, q) % q
                for x in Matrix(rows).solve(rhs)]
        assert got == want

    def test_degree_8_split_never_solves_over_qq(self, monkeypatch):
        # the heaviest slope factor of the local workload: every Newton system
        # has a unit determinant
        P = Poly([1, -63, 1310, -5742, -137223, 1566945, -213192, -55581876, 180033840])
        calls = _counting_solve(monkeypatch)
        fact = slope_factorization(P, 0, 3)
        assert fact.exact and fact.Q * fact.S == P
        assert calls == []

    def test_a_denominator_prime_to_p_never_solves_over_qq(self, monkeypatch):
        # p-integral with the coefficients 1/2 and 9/2: the steps solve on their
        # residues mod 3^work, and the product is certified against P itself
        P = Poly([1, -4, 3]) * Poly([1, Fraction(1, 2)]) * Poly([1, -9, Fraction(9, 2)])
        calls = _counting_solve(monkeypatch)
        fact = slope_factorization(P, 0, 3)
        assert fact.exact and fact.Q * fact.S == P
        assert fact.Q == Poly([1, -1]) * Poly([1, Fraction(1, 2)])
        assert calls == []

    def test_non_unit_resultant_falls_back_to_qq(self, monkeypatch):
        # eigenvalues 1, 3, 9 at h = 1: the factors' resultant has v_3 = 1
        P = Poly([1, -1]) * Poly([1, -3]) * Poly([1, -9])
        calls = _counting_solve(monkeypatch)
        fact = slope_factorization(P, 1, 3)
        assert calls
        assert fact.exact
        assert fact.Q == Poly([1, -1]) * Poly([1, -3]) and fact.S == Poly([1, -9])


class TestRationalReconstruction:
    def test_roundtrip(self):
        rng = random.Random(91)
        for _ in range(50):
            p = rng.choice([2, 3, 5])
            M = p**40
            x = Fraction(rng.randint(-999, 999), rng.choice([1, 2, 3, 5, 7, 11]))
            if x.denominator % p == 0:
                continue
            c = x.numerator * pow(x.denominator, -1, M) % M
            assert rational_reconstruction(c, M) == x


class TestSlopeDecomposition:
    def test_exposes_the_factored_series(self):
        U = Matrix([[1, 2, 0], [0, 3, 1], [0, 0, 9]])
        dec = slope_decomposition(U, 0, 3)
        assert dec.series == fredholm_series(U)
        assert dec.factorization.Q * dec.factorization.S == dec.series

    def test_example_diag(self):
        dec = slope_decomposition(diag(1, 3), 0, 3)
        assert dec.report["ok"], dec.report
        assert len(dec.q_part_basis) == 1
        (v,) = dec.q_part_basis
        assert v[1] == 0 and v[0] != 0  # span(e1)
        qt = dec.factorization.Q.reverse(1)
        qt_U = qt.at_matrix(diag(1, 3))
        assert qt_U.apply([1, 0]) == [0, 0]
        assert qt_U.apply([0, 1]) == [0, Fraction(2)]

    def test_identity_full(self):
        dec = slope_decomposition(Matrix.identity(3), 0, 5)
        assert len(dec.q_part_basis) == 3 and not dec.complement_basis
        assert dec.report["ok"]

    def test_nilpotent_empty(self):
        dec = slope_decomposition(Matrix([[0, 1], [0, 0]]), 0, 3)
        assert not dec.q_part_basis and len(dec.complement_basis) == 2
        assert dec.report["ok"]

    def test_singular_with_mixed_slopes(self):
        # eigenvalues 1 (slope 0), p (slope 1), 0 (no slope): q-part picks only 1
        rng = random.Random(95)
        for p in (2, 3, 5):
            g = random_unimodular(rng, 3)
            U = g @ diag(1, p, 0) @ g.inverse()
            dec = slope_decomposition(U, 0, p)
            assert dec.report["ok"], dec.report
            assert len(dec.q_part_basis) == 1
            assert len(dec.complement_basis) == 2

    def test_planted_random_matrices(self):
        rng = random.Random(97)
        for _ in range(10):
            p = rng.choice([2, 3, 5])
            n = rng.randint(2, 4)
            vals = [rng.randint(0, 3) for _ in range(n)]
            units = [rng.choice([1, -1, 1 + p]) for _ in range(n)]
            eigs = [u * Fraction(p) ** v for u, v in zip(units, vals)]
            g = random_unimodular(rng, n)
            U = g @ diag(*eigs) @ g.inverse()
            h = rng.randint(0, 3)
            dec = slope_decomposition(U, h, p)
            assert dec.report["ok"], (eigs, h, dec.report)
            assert len(dec.q_part_basis) == sum(1 for v in vals if v <= h)

    def test_base_change_on_stable_subspace(self):
        # block upper-triangular: the span of e1, e2 is stable; decomposing the
        # block agrees with intersecting the global pieces
        p = 3
        U = Matrix([[1, 0, 1], [0, 3, 2], [0, 0, 9]])
        block = Matrix([[1, 0], [0, 3]])
        dec_global = slope_decomposition(U, 0, p)
        dec_block = slope_decomposition(block, 0, p)
        global_in_w = [v[:2] for v in dec_global.q_part_basis if v[2] == 0]
        a = Matrix(global_in_w)
        b = Matrix([list(v) for v in dec_block.q_part_basis])
        assert a.rank() == b.rank()
        stacked = Matrix(global_in_w + [list(v) for v in dec_block.q_part_basis])
        assert stacked.rank() == a.rank()

    def test_irrational_split_raises(self):
        # companion matrix of x^2 - x + 3: eigenvalue valuations 0 and 1 but no
        # rational eigenvector, so the exact splitting must refuse
        U = Matrix([[0, -3], [1, 1]])
        with pytest.raises(SlopePrecisionError):
            slope_decomposition(U, 0, 3)


class TestSubspaceChecks:
    """The rank comparisons behind the stability and invertibility checks of
    ``slope_decomposition``, on subspaces where they must fail."""

    def test_stable_under(self):
        U = Matrix([[1, 1, 0], [0, 2, 0], [0, 0, 3]])
        assert _stable_under(U, [[1, 0, 0]])  # an eigenvector
        assert _stable_under(U, [[1, 0, 0], [0, 1, 0]])
        assert not _stable_under(U, [[0, 1, 0]])  # U e2 = e1 + 2 e2
        assert not _stable_under(U, [[0, 1, 0], [0, 0, 1]])
        assert _stable_under(U, [])

    def test_invertible_on(self):
        N = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 2]])
        assert _invertible_on(N, [[0, 0, 1]])
        # span(e1, e2) is stable, but N is singular on it
        assert _stable_under(N, [[1, 0, 0], [0, 1, 0]])
        assert not _invertible_on(N, [[1, 0, 0], [0, 1, 0]])
        assert not _invertible_on(N, [[1, 0, 0]])  # N e1 = 0
        assert _invertible_on(N, [])

    def test_invertible_on_needs_stability(self):
        # injective on span(e1), but the image e1 + e2 leaves it
        L = Matrix([[1, 0], [1, 1]])
        assert not _invertible_on(L, [[1, 0]])
        assert _invertible_on(L, [[0, 1]])
