"""Degree functions, the rank-one spherical eigenvalue dictionary, principal
series classification, and eigensystem pattern tests.

The walk operator at an inert prime l acts on the unramified vector through a
scalar depending on a single parameter alpha.  That scalar is pinned down by
three facts: it is symmetric under alpha <-> 1/alpha, it is degree one in
alpha + 1/alpha, and it takes the two dictionary values

    alpha = l^2  ->  l(l^3+1)        (reducible: character + Steinberg)
    alpha = -l   ->  -(l^3+1)        (reducible: two unramified factors)

The closed form is solved from those constraints on first use of each l, and
is cross checked against explicit radial eigenfunctions on tree balls in the
tests.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache

from .linalg import Matrix
from .scalars import padic_valuation, require_prime


def gaussian_binomial(n: int, i: int, q: int) -> int:
    """Number of i-dimensional subspaces of an n-dimensional space over a
    q-element field; symmetric in i <-> n-i."""
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    num = den = 1
    for k in range(i):
        num *= q ** (n - k) - 1
        den *= q ** (k + 1) - 1
    assert num % den == 0
    return num // den


def deg_inert_Tl(l: int) -> int:
    """Coset degree of the distance-2 walk operator: l(l^3+1), the number of
    nearest same-kind vertices in the biregular tree."""
    require_prime(l)
    return l * (l**3 + 1)


class SatakeParam:
    """Rank-one unramified parameter: a nonzero rational alpha at the prime l."""

    def __init__(self, alpha: Fraction, l: int):
        self.alpha = Fraction(alpha)
        require_prime(l)
        if self.alpha == 0:
            raise ValueError("alpha must be nonzero")
        self.l = l

    def _key(self):
        return self.alpha, self.l

    def __eq__(self, other):
        return isinstance(other, SatakeParam) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@lru_cache(maxsize=16)  # bounded: a process may meet many primes l
def _dictionary_coefficients(l: int) -> tuple[Fraction, Fraction]:
    """Solve c0 + c1*(a + 1/a) through the two dictionary points exactly.  The
    pairs of the last 16 primes l are kept, so repeated calls at one l solve
    it once."""
    pts = [
        (Fraction(l) ** 2, Fraction(l * (l**3 + 1))),
        (Fraction(-l), Fraction(-(l**3 + 1))),
    ]
    m = Matrix([[1, a + 1 / a] for a, _ in pts])
    c0, c1 = m.solve([val for _, val in pts])
    return c0, c1


def spherical_eigenvalue(s: SatakeParam) -> Fraction:
    """Walk eigenvalue as a function of the parameter; symmetric in alpha <-> 1/alpha.

    Works out to (l-1) + l^2 (alpha + 1/alpha), but is solved from the two
    dictionary constraints (once per l) rather than hard-coded.
    """
    c0, c1 = _dictionary_coefficients(s.l)
    return c0 + c1 * (s.alpha + 1 / s.alpha)


class PrincipalSeries(enum.Enum):
    IRREDUCIBLE = "Irreducible"
    CHARACTER_PLUS_STEINBERG = "CharacterPlusSteinberg"
    TWO_UNRAMIFIED_FACTORS = "TwoUnramifiedFactors"


def classify_principal_series(s: SatakeParam) -> PrincipalSeries:
    """Reducibility type of the unramified principal series at parameter alpha."""
    l = Fraction(s.l)
    if s.alpha in (l**2, 1 / l**2):
        return PrincipalSeries.CHARACTER_PLUS_STEINBERG
    if s.alpha in (-l, -1 / l):
        return PrincipalSeries.TWO_UNRAMIFIED_FACTORS
    return PrincipalSeries.IRREDUCIBLE


class SplitEigensystem:
    """Eigenvalues of the three standard operators at a split prime q."""

    def __init__(self, q: int, t1: Fraction, t2: Fraction, t3: Fraction):
        require_prime(q)
        self.q = q
        self.t1, self.t2, self.t3 = Fraction(t1), Fraction(t2), Fraction(t3)
        if self.t3 == 0:
            raise ValueError("t3 must be invertible")

    def _key(self):
        return self.q, self.t1, self.t2, self.t3

    def __eq__(self, other):
        return isinstance(other, SplitEigensystem) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def very_eisenstein_check(es: SplitEigensystem, psi_val: Fraction) -> bool:
    """True iff the eigensystem matches the abelian pattern

        t1 = (1+q+q^2)/psi,  t2 = (1+q+q^2)/psi^2,  t3 = 1/psi^3,

    which is the degree-weighted character eigensystem: deg(t1) = deg(t2)
    = 1+q+q^2 and deg(t3) = 1 with one inverse character power per
    determinant valuation."""
    psi = Fraction(psi_val)
    if psi == 0:
        raise ValueError("psi must be invertible")
    deg = gaussian_binomial(3, 1, es.q)
    return (
        es.t1 == deg / psi
        and es.t2 == deg / psi**2
        and es.t3 == 1 / psi**3
    )


def level_raising_condition(lam, l: int, p: int | None = None) -> bool:
    """Exact mode: lam = l(l^3+1).  Mod-p mode: lam = l(l^3+1) (mod p)."""
    target = Fraction(deg_inert_Tl(l))
    lam = Fraction(lam)
    if p is None:
        return lam == target
    return padic_valuation(lam - target, p) >= 1
