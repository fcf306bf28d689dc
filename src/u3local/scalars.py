"""Exact scalar arithmetic: rationals, primality and p-adic valuations.

The rational type is the standard library ``fractions.Fraction`` (always
stored reduced, positive denominator).  Prime-field
elements are plain ints in [0, p), handled by ``linalg.PrimeField``; this
module holds everything valuation-flavoured, and the budget check that work
whose cost grows with its input passes before it starts.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf  # valuation of zero


def within_budget(estimate: int, budget: int | None, work: str):
    """Refuse work whose estimated size passes the budget (None: no bound),
    before it starts."""
    if budget is not None and estimate > budget:
        raise ValueError(f"{work} would pass the budget {budget}; raise --budget to run it")


# the least strong pseudoprime to the twelve prime bases 2, ..., 37
# (Sorenson-Webster, Math. Comp. 86, 2017): Miller-Rabin on those bases
# decides primality below it
MILLER_RABIN_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2, ..., 37.  An n without a
    factor up to 37 at or past ``MILLER_RABIN_BOUND`` raises ``ValueError``:
    those bases cannot decide it."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(
            f"cannot decide whether {n} is prime: Miller-Rabin on the bases 2, ..., 37 "
            f"decides only below {MILLER_RABIN_BOUND}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def int_valuation(n: int, p: int) -> int | float:
    """v_p(n) for an integer n; INF for n = 0.  Assumes p prime.

    Strips p, p^2, p^4, ... while each divides, then steps back down through
    the same powers, so v_p(n) = v costs O(log v) divisions, not v."""
    if n == 0:
        return INF
    n, powers = abs(n), [p]  # powers[i] = p^(2^i)
    while n % powers[-1] == 0:
        n //= powers[-1]
        powers.append(powers[-1] ** 2)
    # 2^k - 1 is stripped, k = len(powers) - 1, and the rest is below 2^k
    v = (1 << (len(powers) - 1)) - 1
    for i in range(len(powers) - 2, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


def padic_valuation(x, p: int) -> int | float:
    """v_p of an integer or rational: v_p(num) - v_p(den).  INF for zero."""
    require_prime(p)
    if isinstance(x, int):
        return int_valuation(x, p)
    x = Fraction(x)
    if x == 0:
        return INF
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)

