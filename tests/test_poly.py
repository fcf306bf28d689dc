import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from u3local.linalg import QQ, Matrix, PrimeField
from u3local.poly import Poly, xgcd

from .oracles import (
    fraction_poly_add,
    fraction_poly_at_matrix,
    fraction_poly_divmod,
    fraction_poly_eval,
    fraction_poly_gcd,
    fraction_poly_mul,
    fraction_poly_series_inverse,
    fraction_poly_sub,
)


def rand_poly(rng, maxdeg=5, lo=-5, hi=5):
    return Poly([rng.randint(lo, hi) for _ in range(rng.randint(0, maxdeg + 1))])


def test_normalization_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).is_zero()
    assert Poly([]).degree == -1


@pytest.mark.parametrize("bad", [0.1, "1/2", 1.0])
def test_float_and_str_coefficients_refused(bad):
    with pytest.raises(TypeError):
        Poly([bad, 1])


def test_integral_coefficients_stored_as_ints():
    p = Poly([2, Fraction(1, 2), True, Fraction(4, 2)])
    assert p.coeffs == (2, Fraction(1, 2), 1, 2)
    assert [type(c) for c in p.coeffs] == [int, Fraction, int, int]
    for bad in (0.5, "2"):
        with pytest.raises(TypeError):
            Poly([1, bad])


def test_arithmetic_ring_axioms_spot():
    rng = random.Random(2)
    for _ in range(50):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a


def test_divmod_roundtrip():
    rng = random.Random(4)
    for _ in range(60):
        a = rand_poly(rng, 6)
        b = rand_poly(rng, 3)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree or r.is_zero()


def test_reverse_and_eval():
    p = Poly([1, -4, 3])
    assert p.reverse() == Poly([3, -4, 1])
    assert p.reverse(3) == Poly([0, 3, -4, 1])
    assert p(Fraction(1, 3)) == 0
    with pytest.raises(ValueError):
        p.reverse(1)


def test_series_inverse():
    p = Poly([1, -4, 3])
    n = 6
    assert (p * p.series_inverse(n)).truncate(n) == Poly.one()
    with pytest.raises(ZeroDivisionError):
        Poly([0, 1]).series_inverse(3)


def test_xgcd_bezout():
    rng = random.Random(8)
    for _ in range(40):
        a, b = rand_poly(rng, 4), rand_poly(rng, 4)
        g, u, v = xgcd(a, b)
        assert u * a + v * b == g
        if not g.is_zero():
            assert g.coeffs[-1] == 1
            assert (a % g).is_zero() and (b % g).is_zero()


def test_at_matrix_cayley_hamilton():
    M = Matrix([[1, 2], [3, 4]])
    cp = Poly(M.char_poly())
    assert cp.at_matrix(M) == Matrix.zeros(2, 2)


# --- against the Fraction-list oracles ----------------------------------------

coefficients = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
)
coefficient_lists = st.lists(coefficients, max_size=6)


def _oracle(poly):
    return [Fraction(c) for c in poly.coeffs]


def _ints_where_integral(values):
    """Every integral value is an int, never a Fraction with denominator 1."""
    return all(type(c) is int if c.denominator == 1 else type(c) is Fraction for c in values)


def _checked(poly, expected):
    assert _oracle(poly) == expected
    assert _ints_where_integral(poly.coeffs)


@settings(max_examples=150, deadline=None)
@given(coefficient_lists, coefficient_lists)
def test_ring_operations_match_the_oracle(a, b):
    pa, pb = Poly(a), Poly(b)
    fa, fb = _oracle(pa), _oracle(pb)
    _checked(pa, fraction_poly_sub(a, []))
    _checked(pa + pb, fraction_poly_add(fa, fb))
    _checked(pa - pb, fraction_poly_sub(fa, fb))
    _checked(pa * pb, fraction_poly_mul(fa, fb))
    if not pb.is_zero():
        q, r = pa.divmod(pb)
        eq, er = fraction_poly_divmod(fa, fb)
        _checked(q, eq)
        _checked(r, er)


@settings(max_examples=150, deadline=None)
@given(coefficient_lists, coefficient_lists)
def test_xgcd_matches_the_oracle(a, b):
    pa, pb = Poly(a), Poly(b)
    g, u, v = xgcd(pa, pb)
    _checked(g, fraction_poly_gcd(_oracle(pa), _oracle(pb)))
    assert u * pa + v * pb == g
    assert _ints_where_integral(u.coeffs) and _ints_where_integral(v.coeffs)


@settings(max_examples=150, deadline=None)
@given(coefficient_lists, st.integers(0, 6), coefficients)
def test_series_inverse_and_evaluation_match_the_oracle(a, n, x):
    pa = Poly(a)
    value = pa(x)
    assert value == fraction_poly_eval(_oracle(pa), x)
    if all(type(c) is int for c in (x, *pa.coeffs)):
        assert type(value) is int
    if pa.is_zero() or pa.coeffs[0] == 0:
        with pytest.raises(ZeroDivisionError):
            pa.series_inverse(n)
    else:
        _checked(pa.series_inverse(n), fraction_poly_series_inverse(_oracle(pa), n))


square_entries = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=150, deadline=None)
@given(coefficient_lists, square_entries, st.booleans())
def test_at_matrix_over_qq_matches_the_oracle(a, rows, fraction_entries):
    if fraction_entries:
        rows = [[Fraction(x, 2) for x in r] for r in rows]
    pa = Poly(a)
    got = pa.at_matrix(Matrix(rows))
    assert got.field is QQ and got.shape == (len(rows), len(rows))
    assert got.rows == fraction_poly_at_matrix(_oracle(pa), rows)
    if not fraction_entries:
        assert all(_ints_where_integral(r) for r in got.rows)


@settings(max_examples=150, deadline=None)
@given(coefficient_lists, square_entries, st.sampled_from([2, 3, 5, 7, 11]))
def test_at_matrix_over_gf_p_matches_the_oracle(a, rows, p):
    pa = Poly(a)
    field = PrimeField(p)
    M = Matrix(rows, field)
    if any(c.denominator % p == 0 for c in _oracle(pa)):
        with pytest.raises(ZeroDivisionError):
            pa.at_matrix(M)
        return
    got = pa.at_matrix(M)
    assert got.field is field
    expected = fraction_poly_at_matrix(_oracle(pa), rows)
    assert got.rows == [[x.numerator * pow(x.denominator, -1, p) % p for x in r] for r in expected]
    assert all(type(x) is int for r in got.rows for x in r)
