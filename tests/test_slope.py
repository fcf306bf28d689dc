import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from u3local import slope
from u3local.linalg import Matrix, rational_reconstruction
from u3local.poly import Poly
from u3local.scalars import INF, padic_valuation
from u3local.slope import (
    RECONSTRUCTION_MARGIN,
    NoBreakError,
    _hensel_lift,
    _invertible_on,
    _stable_under,
    SlopePrecisionError,
    fredholm_series,
    newton_polygon,
    slope_decomposition,
    slope_factorization,
)

from .oracles import (
    fraction_inverse,
    fredholm_interpolation,
    newton_slope_factors,
    poly_residues,
    solve_mod_prime_power,
)


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


def _counting_master(monkeypatch):
    """Patch the master iteration to count its calls; returns the list of calls."""
    calls = []
    original = slope._master_factor
    monkeypatch.setattr(
        slope, "_master_factor", lambda *args: calls.append(args) or original(*args)
    )
    return calls


class TestSplitRoutes:
    """A split that is coprime mod p after T -> p^k T is Hensel-lifted on ints;
    every other split runs the master iteration on ints.  Neither solves a
    linear system.  The mod p^k solve of the old Newton route is kept as an
    oracle."""

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
        got = solve_mod_prime_power(rows, rhs, p, k)
        det = Matrix(rows).det()
        if det % p == 0:
            assert got is None
            return
        q = p**k
        want = [Fraction(x).numerator * pow(Fraction(x).denominator, -1, q) % q
                for x in Matrix(rows).solve(rhs)]
        assert got == want

    @pytest.mark.parametrize(
        "P, want",
        [
            # the heaviest slope factor of the local workload: its factors
            # are coprime mod 3, so the split is lifted
            (Poly([1, -63, 1310, -5742, -137223, 1566945, -213192, -55581876, 180033840]),
             None),
            # p-integral with the coefficients 1/2 and 9/2: the lift runs on
            # their residues mod 3^work
            (Poly([1, -4, 3]) * Poly([1, Fraction(1, 2)]) * Poly([1, -9, Fraction(9, 2)]),
             Poly([1, -1]) * Poly([1, Fraction(1, 2)])),
            # slopes 0 | 1, 2, 2: an integral series with k = 0
            (Poly([1, -2]) * Poly([1, -6]) * Poly([1, 0, 81]), Poly([1, -2])),
        ],
        ids=["degree-8", "denominator-prime-to-p", "k-0"],
    )
    def test_coprime_split_never_enters_the_master_route(self, monkeypatch, P, want):
        solves, masters = _counting_solve(monkeypatch), _counting_master(monkeypatch)
        fact = slope_factorization(P, 0, 3)
        assert fact.exact and fact.Q * fact.S == P
        assert want is None or fact.Q == want
        assert solves == [] and masters == []

    def test_a_split_made_coprime_by_scaling_is_lifted(self, monkeypatch):
        # slopes -2 | 0 at p = 3: T -> 9T makes the low part the slope-0 part
        masters = _counting_master(monkeypatch)
        fact = slope_factorization(Poly([1, Fraction(10, 9), Fraction(1, 9)]), -2, 3)
        assert fact.exact and fact.Q == Poly([1, Fraction(1, 9)])
        assert masters == []

    def test_non_unit_resultant_runs_the_master_iteration(self, monkeypatch):
        # eigenvalues 1, 3, 9 at h = 1: the factors' resultant has v_3 = 1
        P = Poly([1, -1]) * Poly([1, -3]) * Poly([1, -9])
        solves, masters = _counting_solve(monkeypatch), _counting_master(monkeypatch)
        fact = slope_factorization(P, 1, 3)
        assert solves == [] and len(masters) == 1
        assert fact.exact
        assert fact.Q == Poly([1, -1]) * Poly([1, -3]) and fact.S == Poly([1, -9])

    @pytest.mark.parametrize(
        "P, h, p",
        [
            (Poly([1, -1]) * Poly([1, -3]) * Poly([1, -9]), 1, 3),
            # slopes 0, 3/7 x 7 | 1/2 x 2: the narrowest gap here
            (Poly([1, 1, -2, -2, 0, 0, 0, -8, -8, 16, 16]), Fraction(3, 7), 2),
            # binomials: slopes 1/2, 1/2 | 3/2, 3/2
            (Poly([1, 0, -5]) * Poly([1, 0, -125]), Fraction(1, 2), 5),
        ],
        ids=["1-3-9", "3/7-1/2", "binomials"],
    )
    def test_master_steps_gain_the_bound(self, monkeypatch, P, h, p):
        # each step raises w(E) = min_i v_p(E_i) - s i by at least t - s, and
        # the loop ends within ceil((work - w(Q0)) / (t - s)) steps
        errors = []
        original = slope._divmod
        monkeypatch.setattr(slope, "_divmod", lambda e, *a: errors.append(e) or original(e, *a))
        masters = _counting_master(monkeypatch)
        fact = slope_factorization(P, h, p)
        assert fact.exact and fact.Q * fact.S == P
        ((P1, m, s, t, _, work, _),) = masters
        weights = [min(padic_valuation(x, p) - s * i for i, x in enumerate(e) if x) for e in errors]
        assert all(b - a >= t - s for a, b in zip(weights, weights[1:]))
        w_q = padic_valuation(P1[m], p) - s * m  # w of Q0 = P1 mod T^(m+1)
        assert weights[0] >= w_q + (t - s)
        assert 0 < len(errors) <= math.ceil((work - w_q) / (t - s))


# factors 1 - lam T with lam = +-u p^e, u from small numerators and
# denominators (5 and 7 among them), and binomials 1 - u p^a T^b, whose b
# reciprocal roots have slope a/b
_LAMBDA_UNITS = st.builds(Fraction, st.sampled_from([1, -1, 2, -3, 5, 7]), st.sampled_from([1, 1, 5, 7]))


def _slope_factors(p):
    unit = _LAMBDA_UNITS.filter(lambda u: u.numerator % p and u.denominator % p)
    linear = st.builds(lambda u, e: (Poly([1, -u * Fraction(p) ** e]), Fraction(e)),
                       unit, st.integers(-2, 3))
    binomial = st.builds(
        lambda u, a, b: (Poly([1] + [0] * (b - 1) + [-u * Fraction(p) ** a]), Fraction(a, b)),
        unit, st.integers(-2, 4), st.integers(2, 3),
    )
    return st.lists(linear | binomial, min_size=2, max_size=5)


class TestEveryVertex:
    """``slope_factorization`` at every vertex of the polygon of a product of
    known factors: the low factor is the product of those of slope <= h, on
    the nose, whichever route the split takes."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(st.just(p), _slope_factors(p))))
    @example((3, [(Poly([1, -1]), Fraction(0)), (Poly([1, -3]), Fraction(1)),
                  (Poly([1, -9]), Fraction(2))]))
    @example((2, [(Poly([1, 0, -2]), Fraction(1, 2)), (Poly([1, 0, -8]), Fraction(3, 2))]))
    # slopes 3/2, 3/2 | 2: a loop that stops at v_2(E) >= work leaves Q wrong in
    # its last digits, and the snap fails
    @example((2, [(Poly([1, -4]), Fraction(2)), (Poly([1, 0, -8]), Fraction(3, 2))]))
    @example((2, [(Poly([1, Fraction(-1, 2)]), Fraction(-1)), (Poly([1, -1]), Fraction(0)),
                  (Poly([1, 2]), Fraction(1))]))
    def test_low_factor_is_the_product_of_the_low_factors(self, drawn):
        p, factors = drawn
        P = Poly.one()
        for f, _ in factors:
            P = P * f
        slopes = sorted({s for _, s in factors})
        for h in slopes[:-1]:
            want = Poly.one()
            for f, s in factors:
                if s <= h:
                    want = want * f
            # precision 40 leaves room for the heights of five factors at p = 2
            fact = slope_factorization(P, h, p, precision=40)
            assert fact.exact
            assert fact.Q == want and fact.Q * fact.S == P


def _integral_factors(p):
    """Factors 1 + a T and 1 + b T + c T^2 of a p-integral series: a and c carry
    p^0..p^2, so their reciprocal roots are units or not, and the
    denominators are prime to p."""
    den = st.sampled_from([1, 1, 2, 3, 5, 7]).filter(lambda x: x % p)
    coeff = st.builds(Fraction, st.integers(-40, 40), den)
    power = st.sampled_from([1, 1, p, p * p])
    linear = st.builds(lambda a, u: [1, a * u], coeff, power)
    quadratic = st.builds(lambda b, c, u: [1, b, c * u], coeff, coeff, power)
    return st.lists(linear | quadratic, min_size=2, max_size=4)


class TestHenselLift:
    """``_hensel_lift`` against the Newton iteration on linear systems that
    ``slope_factorization`` ran before it (``oracles.newton_slope_factors``)."""

    @staticmethod
    def lift(P, h, p, precision):
        m = newton_polygon(P, p).length_at_most(h)
        d = P.degree
        Q = P.truncate(m + 1)
        S = (P * Q.series_inverse(d - m + 1)).truncate(d - m + 1)
        return m, _hensel_lift(P, Q, S, m, p, precision + RECONSTRUCTION_MARGIN)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.tuples(st.just(p), _integral_factors(p))),
        st.integers(1, 40),
    )
    @example((3, [[1, -1], [1, -3]]), 1)
    @example((2, [[1, 0, Fraction(1, 3)], [1, 1, 2], [1, 4]]), 40)
    def test_residues_match_the_newton_route(self, drawn, precision):
        p, factors = drawn
        P = Poly.one()
        for f in factors:
            P = P * Poly(f)
        d = P.degree
        assume(0 < newton_polygon(P, p).length_at_most(0) < d)
        # at h = 0 the low factor holds the unit roots, so both reduce to
        # coprime factors mod p
        m, got = self.lift(P, 0, p, precision)
        assert got is not None
        work = precision + RECONSTRUCTION_MARGIN
        want = [poly_residues(f, p, work) for f in newton_slope_factors(P, m, p, work)]
        assert list(got) == want

    def test_declines_factors_with_a_common_root_mod_p(self):
        # eigenvalues 1, 3, 9 at h = 1: Qt = T(T - 1) and St = T mod 3
        P = Poly([1, -1]) * Poly([1, -3]) * Poly([1, -9])
        assert self.lift(P, 1, 3, 20) == (2, None)


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
            U = g @ diag(1, p, 0) @ Matrix(fraction_inverse(g.rows))
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
            U = g @ diag(*eigs) @ Matrix(fraction_inverse(g.rows))
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

    # the 6x6 p = 3 decomposition of the local workload: q 3 / complement 3
    _U6 = Matrix([
        [-7, -22, 0, 22, -53, 0], [28, -65, 0, 44, -60, 0], [0, 0, 3, 0, 0, 0],
        [28, -80, 0, 59, -86, 0], [0, 0, 0, 0, 2, 0], [12, 22, 0, -22, 56, 5],
    ])

    def test_integer_matrix_stays_on_ints(self, monkeypatch):
        operands = []
        original = Matrix.__matmul__
        monkeypatch.setattr(
            Matrix, "__matmul__", lambda a, b: operands.extend((a, b)) or original(a, b)
        )
        dec = slope_decomposition(self._U6, 0, 3)
        assert dec.report["ok"], dec.report
        assert dec.q_part_basis and dec.complement_basis
        for v in dec.q_part_basis + dec.complement_basis:
            assert all(type(x) is int for x in v)
        assert operands
        assert not any(isinstance(x, Fraction) for m in operands for row in m.rows for x in row)

    def test_projector_checks_catch_a_doubled_bezout_cofactor(self, monkeypatch):
        original = slope.xgcd

        def doubled(a, b):
            g, s, t = original(a, b)
            return g, s, t * 2

        monkeypatch.setattr(slope, "xgcd", doubled)
        dec = slope_decomposition(self._U6, 0, 3)
        assert not dec.report["projector_idempotent"]
        assert not dec.report["projector_fixes_q_part"]
        assert not dec.report["ok"]


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
