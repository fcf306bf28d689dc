"""Dense polynomials over the rationals, coefficient index = degree.

Coefficients are plain Python numbers, as ``linalg.Matrix`` entries over QQ
are: an integral coefficient is an ``int``, any other a ``Fraction``.  Every
division goes through ``QQ.div``, so a quotient that is integral comes back
as an int, and a polynomial built from integral input computes on ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .linalg import QQ, Matrix


class Poly:
    """Immutable polynomial with exact rational coefficients.

    The stored tuple never has a trailing zero; the zero polynomial is ().
    Integral coefficients are stored as ints (``True`` and ``Fraction(4, 2)``
    included), the others as Fractions.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if type(c) is int else QQ.exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls):
        return cls([])

    @classmethod
    def one(cls):
        return cls([1])

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i <= self.degree else 0

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] - other[i] for i in range(n)])

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.coeffs[-1]
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i]:
                f = QQ.div(rem[i], lead)
                q[i - d] = f
                for j in range(d + 1):
                    rem[i - d + j] -= f * other.coeffs[j]
        return Poly(q), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def truncate(self, n):
        """Coefficients of degree < n."""
        return Poly(self.coeffs[:n])

    def reverse(self, degree=None):
        """T^m * P(1/T) for m = degree (defaults to deg P)."""
        m = self.degree if degree is None else degree
        if m < self.degree:
            raise ValueError("reversal degree below the actual degree")
        return Poly([self[m - i] for i in range(m + 1)])

    def series_inverse(self, n):
        """Multiplicative inverse mod T^n; requires an invertible constant term."""
        if self.is_zero() or self.coeffs[0] == 0:
            raise ZeroDivisionError("constant term is not invertible")
        c0, inv = self.coeffs[0], []
        for k in range(n):
            s = sum(self[j] * inv[k - j] for j in range(1, k + 1))
            inv.append(QQ.div(int(k == 0) - s, c0))
        return Poly(inv)

    def at_matrix(self, M: Matrix) -> Matrix:
        """Evaluate at a square matrix (Horner).

        Over GF(p) each coefficient goes through ``field.of``.  Over QQ, Horner
        runs on d P, whose coefficients are ints (d the lcm of the coefficient
        denominators), and each entry of the result is divided by d once.
        """
        if not M.is_square():
            raise ValueError("polynomial of a non-square matrix")
        n, field = M.nrows, M.field
        p, d = field.characteristic, 1
        if p:
            cs = [field.of(c) for c in self.coeffs]
        else:
            d = lcm(*(c.denominator for c in self.coeffs if type(c) is Fraction))
            cs = [c.numerator * (d // c.denominator) for c in self.coeffs]
        acc = Matrix.zeros(n, n, field)
        for k, c in enumerate(reversed(cs)):
            if k:
                acc = M @ acc
            for i, row in enumerate(acc.rows):
                row[i] = (row[i] + c) % p if p else row[i] + c
        if d == 1:
            return acc
        return Matrix._wrap([[QQ.div(x, d) for x in row] for row in acc.rows], QQ, n)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*T^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(terms) + ")"


def xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with u*a + v*b = g, g monic (or zero)."""
    r0, r1 = a, b
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = QQ.div(1, r0.coeffs[-1])
    return r0 * inv, s0 * inv, t0 * inv
