from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from u3local.scalars import (
    INF,
    MILLER_RABIN_BOUND,
    int_valuation,
    is_prime,
    padic_valuation,
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



def _valuation_by_single_divisions(n, p):
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@given(
    st.integers(-(10**30), 10**30),
    st.sampled_from([2, 3, 5, 7, 101]),
    st.integers(0, 300),
)
def test_int_valuation_matches_single_divisions(unit, p, v):
    n = unit * p**v
    assert int_valuation(n, p) == _valuation_by_single_divisions(n, p)
    assert int_valuation(unit, p) == _valuation_by_single_divisions(unit, p)


def test_int_valuation_of_a_large_power_in_time(deadline):
    # one division per unit of valuation took seconds at v_5(10^100000)
    with deadline(5):
        assert int_valuation(-3 * 10**100000, 5) == 100000
