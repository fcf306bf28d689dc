"""Exact scalar arithmetic: rationals, primality, p-adic valuations and scalars.

The rational type is the standard library ``fractions.Fraction`` (always
stored reduced, positive denominator), re-exported as ``Rat``.  Prime-field
elements are plain ints in [0, p), handled by ``linalg.PrimeField``; this
module holds everything valuation-flavoured.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rat = Fraction

INF = math.inf  # valuation of zero


class PrecisionLossError(ArithmeticError):
    """Raised when a p-adic operation cannot certify a single digit of its result."""


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
    """v_p(n) for an integer n; INF for n = 0.  Assumes p prime."""
    if n == 0:
        return INF
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
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


def rational_mod_prime_power(x: Fraction, p: int, k: int) -> int:
    """Canonical representative of a p-integral rational modulo p^k."""
    x = Fraction(x)
    q = p**k
    den = x.denominator
    if den % p == 0:
        raise ValueError(f"{x} is not p-integral at p={p}")
    return x.numerator * pow(den, -1, q) % q


class PAdicScalar:
    """A p-adic number known to finite precision: x = p^v * u with u a unit mod p^prec.

    Exact zero is carried as a distinguished marker (valuation INF).  Any
    operation that would consume every known digit raises
    PrecisionLossError instead of returning unflagged garbage.
    """

    __slots__ = ("p", "v", "unit", "prec")

    def __init__(self, p: int, v, unit: int, prec: int):
        require_prime(p)
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.p = p
        self.prec = prec
        if v is INF:
            self.v = INF
            self.unit = 0
            return
        unit %= p**prec
        if unit % p == 0:
            raise ValueError("unit part must be invertible mod p")
        self.v = int(v)
        self.unit = unit

    @classmethod
    def zero(cls, p: int, prec: int = 20) -> "PAdicScalar":
        return cls(p, INF, 0, prec)

    @classmethod
    def from_rational(cls, x, p: int, prec: int = 20) -> "PAdicScalar":
        x = Fraction(x)
        if x == 0:
            return cls.zero(p, prec)
        v = padic_valuation(x, p)
        unit_rat = x / Fraction(p) ** v
        return cls(p, v, rational_mod_prime_power(unit_rat, p, prec), prec)

    def is_zero(self) -> bool:
        return self.v is INF

    def rational_representative(self) -> Fraction:
        """The canonical lift p^v * unit; exact zero lifts to 0."""
        if self.is_zero():
            return Fraction(0)
        return Fraction(self.p) ** self.v * self.unit

    def _check_compatible(self, other: "PAdicScalar") -> None:
        if not isinstance(other, PAdicScalar):
            raise TypeError("expected a PAdicScalar")
        if self.p != other.p:
            raise ValueError("mixed primes")

    def __mul__(self, other):
        self._check_compatible(other)
        prec = min(self.prec, other.prec)
        if self.is_zero() or other.is_zero():
            return PAdicScalar.zero(self.p, prec)
        return PAdicScalar(self.p, self.v + other.v, self.unit * other.unit, prec)

    def __add__(self, other):
        self._check_compatible(other)
        if self.is_zero() and other.is_zero():
            return PAdicScalar.zero(self.p, min(self.prec, other.prec))
        if self.is_zero():
            return PAdicScalar(other.p, other.v, other.unit, min(self.prec + other.v, other.prec))
        if other.is_zero():
            return PAdicScalar(self.p, self.v, self.unit, min(other.prec + self.v, self.prec))
        p = self.p
        # absolute precision of each term, then of the sum
        abs_prec = min(self.v + self.prec, other.v + other.prec)
        vm = min(self.v, other.v)
        digits = abs_prec - vm
        mod = p**digits
        s = (self.unit * p ** (self.v - vm) + other.unit * p ** (other.v - vm)) % mod
        if s == 0:
            raise PrecisionLossError(
                f"sum is 0 mod {p}^{digits}: no digit of the result is certified"
            )
        w = int_valuation(s, p)
        rel = digits - w
        if rel < 1:
            raise PrecisionLossError("cancellation consumed all known digits")
        return PAdicScalar(p, vm + w, (s // p**w) % p**rel, rel)

    def __neg__(self):
        if self.is_zero():
            return self
        return PAdicScalar(self.p, self.v, -self.unit, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def inverse(self) -> "PAdicScalar":
        if self.is_zero():
            raise ZeroDivisionError("exact zero has no inverse")
        q = self.p**self.prec
        return PAdicScalar(self.p, -self.v, pow(self.unit, -1, q), self.prec)

    def __truediv__(self, other):
        return self * other.inverse()

    def congruent(self, other: "PAdicScalar") -> bool:
        """Equality to the precision both sides carry."""
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.v != other.v:
            return False
        k = min(self.prec, other.prec)
        return (self.unit - other.unit) % self.p**k == 0

    def __repr__(self):
        if self.is_zero():
            return f"PAdicScalar(p={self.p}, 0)"
        return f"PAdicScalar(p={self.p}, {self.unit}*{self.p}^{self.v} + O({self.p}^{self.v + self.prec}))"
