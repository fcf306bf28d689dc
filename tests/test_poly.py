import random
from fractions import Fraction

import pytest

from u3local.linalg import Matrix
from u3local.poly import Poly, xgcd


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


def test_int_and_fraction_coefficients_stored_as_fractions():
    p = Poly([2, Fraction(1, 2), True])
    assert p.coeffs == (2, Fraction(1, 2), 1)
    assert all(type(c) is Fraction for c in p.coeffs)


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
