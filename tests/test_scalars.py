import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from u3local.scalars import (
    INF,
    MILLER_RABIN_BOUND,
    PAdicScalar,
    PrecisionLossError,
    is_prime,
    padic_valuation,
    rational_mod_prime_power,
)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert [n for n in range(2, 50) if is_prime(n)] == primes
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert is_prime(2**31 - 1)


def test_is_prime_refuses_past_the_miller_rabin_bound():
    # 399165290221 * 798330580441: a strong pseudoprime to every base 2, ..., 37
    n = MILLER_RABIN_BOUND
    assert n == 399165290221 * 798330580441
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(n)
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(2**89 - 1)
    # below the bound the bases decide, and a small factor decides at any size
    assert is_prime(2**61 - 1)
    assert not is_prime(2**89 + 1) and not is_prime(3**41)


def test_padic_valuation_examples():
    assert padic_valuation(8, 2) == 3
    assert padic_valuation(Fraction(1, 9), 3) == -2
    assert padic_valuation(Fraction(10, 3), 5) == 1
    assert padic_valuation(0, 7) == INF
    assert padic_valuation(Fraction(0), 2) == INF


def test_padic_valuation_rejects_composite():
    with pytest.raises(ValueError):
        padic_valuation(10, 6)
    with pytest.raises(ValueError):
        padic_valuation(10, 1)


@given(
    st.fractions(min_value=-1000, max_value=1000),
    st.fractions(min_value=-1000, max_value=1000),
    st.sampled_from([2, 3, 5, 7]),
)
def test_valuation_additive_on_products(a, b, p):
    if a == 0 or b == 0:
        assert padic_valuation(a * b, p) == INF
    else:
        assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)


def test_rational_mod_prime_power():
    assert rational_mod_prime_power(Fraction(1, 2), 3, 2) == 5  # 2*5 = 10 = 1 mod 9
    assert rational_mod_prime_power(Fraction(7), 2, 3) == 7
    with pytest.raises(ValueError):
        rational_mod_prime_power(Fraction(1, 2), 2, 4)


class TestPAdicScalar:
    def test_roundtrip(self):
        x = PAdicScalar.from_rational(Fraction(18), 3, 6)
        assert x.v == 2 and x.unit == 2
        assert x.rational_representative() == 18

    def test_zero_marker(self):
        z = PAdicScalar.zero(5)
        assert z.is_zero()
        assert (z * PAdicScalar.from_rational(7, 5)).is_zero()

    def test_mul_adds_valuations(self):
        random.seed(7)
        for _ in range(60):
            p = random.choice([2, 3, 5])
            a = Fraction(random.randint(1, 500), random.randint(1, 500))
            b = Fraction(random.randint(1, 500), random.randint(1, 500))
            xa = PAdicScalar.from_rational(a, p)
            xb = PAdicScalar.from_rational(b, p)
            assert (xa * xb).v == padic_valuation(a, p) + padic_valuation(b, p)

    def test_mul_associative_to_precision(self):
        random.seed(11)
        for _ in range(60):
            p = random.choice([2, 3, 5])
            xs = [
                PAdicScalar.from_rational(
                    Fraction(random.randint(1, 300), random.randint(1, 300)), p, 20
                )
                for _ in range(3)
            ]
            a, b, c = xs
            assert ((a * b) * c).congruent(a * (b * c))

    def test_add_respects_representatives(self):
        a = PAdicScalar.from_rational(Fraction(5), 3, 8)
        b = PAdicScalar.from_rational(Fraction(4), 3, 8)
        assert (a + b).congruent(PAdicScalar.from_rational(9, 3, 8))

    def test_add_precision_loss_signalled(self):
        a = PAdicScalar.from_rational(7, 5, 4)
        b = PAdicScalar.from_rational(-7, 5, 4)
        with pytest.raises(PrecisionLossError):
            a + b

    def test_inverse(self):
        x = PAdicScalar.from_rational(Fraction(3, 4), 5, 10)
        y = x.inverse()
        assert (x * y).congruent(PAdicScalar.from_rational(1, 5, 10))
        assert y.v == -x.v

    def test_unit_must_be_unit(self):
        with pytest.raises(ValueError):
            PAdicScalar(3, 0, 6, 4)

    def test_sub_partial_cancellation_reduces_precision(self):
        # 1 + 3^2*u  minus  1: digits below 3^2 cancel, valuation climbs to 2
        a = PAdicScalar.from_rational(10, 3, 6)
        b = PAdicScalar.from_rational(1, 3, 6)
        d = a - b
        assert d.v == 2 and d.prec == 4
        assert d.rational_representative() == 9
