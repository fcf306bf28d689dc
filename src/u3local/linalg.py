"""Dense exact linear algebra over the rationals, prime fields, and the integers.

Matrices are small (at most a few hundred rows) so everything uses plain
elimination with exact arithmetic; there is deliberately no floating point
anywhere in this module, and a float entry is refused with ``TypeError``.

Entries are plain Python numbers.  Over QQ they are ``int`` or ``Fraction``:
ints stay ints through addition, multiplication and exact division, and every
division goes through ``field.div``, never ``/``, so two ints never meet true
division.  A ``Fraction`` comes from an inexact division or from the input,
and arithmetic with it stays a ``Fraction`` even where the value is integral
(the QQ ``rref`` can leave ``Fraction(-1, 1)``), so compare entries by value.
Over GF(p) entries are ints in [0, p), reduced after every operation.

Kernels, ranks and solutions come from the one ``rref`` over every field.
The determinant, over every field, and the exact rank of an integer matrix
(``int_matrix_rank``) come from one fraction-free Bareiss elimination, on
which an integer matrix stays integral.
Every ``char_poly`` is one integer Hessenberg reduction mod p: over GF(p)
directly, over QQ on the matrix cleared of denominators, modulo primes
descending from 2^61 - 1 (found on first use, not at import), combined by CRT
until the modulus passes a bound on the coefficients.

The integer layer rests on one elimination, the Hermite normal form routine
``lattice_basis``.  The Smith form returns the invariant factors only (there
are no transform matrices): a sparse pass eliminates the +-1 pivots, least
fill-in first, and divides out common factors, and the Hermite forms of rows
and columns alternate only on the block that pass leaves.  Saturation is the
integer kernel of the integer kernel; membership and quotient coordinates
come from back substitution on the Hermite pivots.  Non-integral input raises
rather than being truncated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .scalars import is_prime, require_prime


class RationalField:
    characteristic = 0

    @staticmethod
    def of(x):
        """An exact rational entry: ints and Fractions are kept as given."""
        if type(x) is int or type(x) is Fraction:
            return x
        if isinstance(x, int):
            return int(x)
        raise TypeError(f"not an exact rational: {x!r}")

    @staticmethod
    def div(a, b):
        """a / b, as an int when the quotient is integral, else as a Fraction."""
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return Fraction(a, b) if r else q
        return RationalField.exact(a / b)  # a / b is a Fraction: one side is not an int

    @staticmethod
    def exact(x):
        """x as an int when it is integral, else as a Fraction: the one form of
        an exact rational.  Anything else raises ``TypeError``, as ``of`` does."""
        if type(x) is Fraction:
            return x.numerator if x.denominator == 1 else x
        return RationalField.of(x)

    @staticmethod
    def reduce_row(row):
        return row

    def __repr__(self):
        return "QQ"


class PrimeField:
    """F_p with elements represented by the ints 0, ..., p-1."""

    def __init__(self, p: int):
        self.p = self.characteristic = require_prime(p)

    def of(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise TypeError(f"not an element of GF({self.p}): {x!r}")

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return a * pow(b, -1, self.p) % self.p

    def reduce_row(self, row):
        p = self.p
        return [x % p for x in row]

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


class Matrix:
    """Dense matrix over an exact field (rationals by default)."""

    def __init__(self, rows, field=QQ):
        of = field.of
        self.field = field
        self.rows = [[of(x) for x in r] for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def _wrap(cls, rows, field, ncols=0):
        """A matrix on rows that already hold valid entries of the field."""
        m = cls.__new__(cls)
        m.field, m.rows, m.nrows = field, rows, len(rows)
        m.ncols = len(rows[0]) if rows else ncols
        return m

    @classmethod
    def identity(cls, n, field=QQ):
        return cls._wrap([[int(i == j) for j in range(n)] for i in range(n)], field)

    @classmethod
    def zeros(cls, m, n, field=QQ):
        return cls._wrap([[0] * n for _ in range(m)], field, n)

    @classmethod
    def from_support(cls, m, n, support, field=QQ):
        """The m x n matrix with the entries {(i, j): value} and zeros elsewhere;
        every value goes through ``field.of``."""
        rows = [[0] * n for _ in range(m)]
        of = field.of
        for (i, j), x in support.items():
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"entry ({i}, {j}) lies outside a {m}x{n} matrix")
            rows[i][j] = of(x)
        return cls._wrap(rows, field, n)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_square(self):
        return self.nrows == self.ncols

    def copy(self):
        return Matrix._wrap([list(r) for r in self.rows], self.field, self.ncols)

    def transpose(self):
        if not self.nrows:
            return Matrix._wrap([[] for _ in range(self.ncols)], self.field)
        return Matrix._wrap([list(c) for c in zip(*self.rows)], self.field)

    def _check_operand(self, other, need_same_shape=True):
        # QQ and the GF(p) are told apart by their characteristic
        if self.field.characteristic != other.field.characteristic:
            raise ValueError("mixed characteristics")
        if need_same_shape and self.shape != other.shape:
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field.characteristic == other.field.characteristic
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __add__(self, other):
        self._check_operand(other)
        red = self.field.reduce_row
        return Matrix._wrap(
            [red([a + b for a, b in zip(r, s)]) for r, s in zip(self.rows, other.rows)],
            self.field,
            self.ncols,
        )

    def __sub__(self, other):
        self._check_operand(other)
        red = self.field.reduce_row
        return Matrix._wrap(
            [red([a - b for a, b in zip(r, s)]) for r, s in zip(self.rows, other.rows)],
            self.field,
            self.ncols,
        )

    def scale(self, c):
        c = self.field.of(c)
        red = self.field.reduce_row
        return Matrix._wrap([red([c * x for x in r]) for r in self.rows], self.field, self.ncols)

    def __matmul__(self, other):
        self._check_operand(other, need_same_shape=False)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        red = self.field.reduce_row
        out = []
        for r in self.rows:
            acc = [0] * other.ncols
            for a, orow in zip(r, other.rows):
                if a:
                    acc = [x + a * y for x, y in zip(acc, orow)]
            out.append(red(acc))
        return Matrix._wrap(out, self.field, other.ncols)

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        if len(vec) != self.ncols:
            raise ValueError("length mismatch")
        of = self.field.of
        support = [(k, x) for k, x in enumerate(map(of, vec)) if x]
        return self.field.reduce_row([sum(r[k] * x for k, x in support) for r in self.rows])

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        m = self.copy()
        rows, ncols = m.rows, m.ncols
        p, div = self.field.characteristic, self.field.div
        pivots = []
        r = 0
        for c in range(ncols):
            pr = next((i for i in range(r, m.nrows) if rows[i][c]), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            pv = rows[r][c]
            if pv != 1:
                rows[r] = [div(x, pv) if x else 0 for x in rows[r]]
            # the pivot row is zero left of c; eliminate with its nonzero entries only
            support = [(j, x) for j, x in enumerate(rows[r]) if x]
            for i in range(m.nrows):
                row = rows[i]
                f = row[c]
                if f and i != r:
                    if p:
                        for j, x in support:
                            row[j] = (row[j] - f * x) % p
                    else:
                        for j, x in support:
                            row[j] -= f * x
            pivots.append(c)
            r += 1
            if r == m.nrows:
                break
        return m, pivots

    def rank(self):
        return len(self.rref()[1])

    def row_space_and_kernel(self):
        """Bases of the row space (the nonzero rows of the rref) and of the right
        kernel {v : M v = 0}, as lists of field elements, from one row reduction:
        for each free column fc, the kernel vector that is 1 at fc and
        -red[r][fc] at the r-th pivot."""
        red, pivots = self.rref()
        of, pivset = self.field.of, set(pivots)
        kernel = []
        for fc in range(self.ncols):
            if fc in pivset:
                continue
            v = [0] * self.ncols
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = of(-red.rows[r][fc])
            kernel.append(v)
        return red.rows[: len(pivots)], kernel

    def kernel_basis(self):
        """Basis of the right kernel {v : M v = 0}, as lists of field elements:
        the vector of each free column of the rref, 1 there and 0 on the other
        free columns."""
        return self.row_space_and_kernel()[1]

    def solve(self, b):
        """One solution of M x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise ValueError("length mismatch")
        of = self.field.of
        aug = Matrix._wrap(
            [list(r) + [of(b[i])] for i, r in enumerate(self.rows)], self.field
        )
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [0] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = red.rows[r][self.ncols]
        return x

    def det(self):
        """Determinant by Bareiss elimination (``_bareiss``): every division is
        exact, so an integer matrix stays integral throughout."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        rank, sign, last = self._bareiss()
        return self.field.of(sign * last) if rank == self.nrows else 0

    def _bareiss(self):
        """Fraction-free (Bareiss) forward elimination: (rank, sign, last pivot).

        Each step takes the first row with a nonzero entry in the leading column
        of the block still to eliminate; a column with no such row adds no pivot
        and is dropped.  After k pivots an entry is the (k+1)-minor on the pivot
        rows and columns and its own row and column (Sylvester's identity), so
        every division by the previous pivot is exact and an integer matrix
        divides with ``//``.  Full rank on a square matrix gives det = sign *
        last pivot, sign from the row swaps.
        """
        div = self.field.div
        ints = not self.field.characteristic and all(type(x) is int for r in self.rows for x in r)
        a = self.rows  # the trailing block still to eliminate; rows are never written
        rank, sign, prev = 0, 1, 1
        while a and a[0]:
            pr = next((i for i, r in enumerate(a) if r[0]), None)
            if pr is None:
                a = [r[1:] for r in a]
                continue
            if pr:
                a = [a[pr]] + a[1:pr] + [a[0]] + a[pr + 1 :]
                sign = -sign
            pk, tail = a[0][0], a[0][1:]
            rest = []
            for r in a[1:]:
                f = r[0]
                if ints:
                    rest.append([(x * pk - f * y) // prev for x, y in zip(r[1:], tail)])
                else:
                    rest.append([div(x * pk - f * y, prev) for x, y in zip(r[1:], tail)])
            a, prev, rank = rest, pk, rank + 1
        return rank, sign, prev

    def char_poly(self):
        """Coefficients of det(xI - M), degree-ascending, exact.

        Reduces M to upper Hessenberg form by similarity, then expands along the
        subdiagonal (Cohen, Alg. 2.2.9), on ints mod p (``_hessenberg_char_poly``).
        It divides only by pivots, so it is valid over every field, GF(p) with
        p <= n included.  Over QQ, M = A/d with A integral and d the lcm of the
        entry denominators: the char poly of A comes modulo word-size primes,
        combined by CRT (``_modular_char_poly``), and the coefficient of x^k of
        M's is A's divided by d^(n-k).
        """
        if not self.is_square():
            raise ValueError("characteristic polynomial of a non-square matrix")
        if self.field.characteristic:
            return _hessenberg_char_poly([list(r) for r in self.rows], self.field.p)
        d = lcm(*(x.denominator for r in self.rows for x in r if type(x) is Fraction))
        coeffs = _modular_char_poly([[int(d * x) for x in r] for r in self.rows])
        return [QQ.div(c, d ** (self.nrows - k)) for k, c in enumerate(coeffs)]

    def to_int_rows(self):
        return _as_int_rows(self.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


def _hessenberg_char_poly(h, p):
    """det(xI - H) mod p for the square rows h of ints in [0, p) (overwritten),
    degree-ascending: the Hessenberg reduction and subdiagonal expansion of
    ``Matrix.char_poly``.  Each pivot is inverted once, and every entry written
    is reduced by one ``% p``."""
    n = len(h)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        h[piv], h[m] = h[m], h[piv]
        for row in h:
            row[piv], row[m] = row[m], row[piv]
        hm, inv = h[m], pow(h[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if not u:
                continue
            h[i] = [(a - u * b) % p for a, b in zip(h[i], hm)]
            for row in h:
                if row[i]:
                    row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]  # polys[k]: char poly of the leading k x k block
    for k in range(n):
        nxt, prod = [0] + polys[k], 1
        for i in range(k, -1, -1):
            c = h[i][k] * prod % p
            if c:
                nxt[: i + 1] = [a - c * x for a, x in zip(nxt, polys[i])]
            if i:
                prod = prod * h[i][i - 1] % p
        polys.append([x % p for x in nxt])
    return polys[n]


# ---------------------------------------------------------------------------
# the char poly of an integer matrix by way of F_p
# ---------------------------------------------------------------------------
#
# The matrix is reduced modulo word-size primes, and the char polys mod p are
# combined by the Chinese remainder theorem (von zur Gathen-Gerhard, Modern
# Computer Algebra, ch. 5) until the modulus passes a coefficient bound.
# ``rational_reconstruction`` is the p-adic slope factorization's lift of a
# residue to a small fraction.

_WORD_PRIMES = []  # the primes below 2^61, descending, as far as found so far


def _word_primes():
    """The primes from 2^61 - 1 downward.  One scan finds each prime the first
    time any caller needs it; later callers reuse the list."""
    k = 0
    while True:
        if k == len(_WORD_PRIMES):
            q = _WORD_PRIMES[-1] - 2 if _WORD_PRIMES else (1 << 61) - 1
            while not is_prime(q):
                q -= 2
            _WORD_PRIMES.append(q)
        yield _WORD_PRIMES[k]
        k += 1


def rational_reconstruction(c: int, modulus: int) -> Fraction | None:
    """Small fraction a/b with a = c b (mod modulus), via half extended Euclid."""
    c %= modulus
    bound = isqrt(modulus // 2)
    a0, a1 = modulus, c
    b0, b1 = 0, 1
    while a1 > bound:
        if a1 == 0:
            return None
        q = a0 // a1
        a0, a1 = a1, a0 - q * a1
        b0, b1 = b1, b0 - q * b1
    if b1 == 0 or abs(b1) > bound or gcd(abs(b1), modulus) != 1:
        return None
    frac = Fraction(a1, b1)
    if (frac.numerator - c * frac.denominator) % modulus != 0:
        return None
    return frac


def _crt(a: int, m: int, b: int, p: int) -> int:
    """The x in [0, m p) with x = a (mod m) and x = b (mod p), for a prime p not
    dividing m and a in [0, m)."""
    return a + m * ((b - a) * pow(m, -1, p) % p)


def _modular_char_poly(rows):
    """det(xI - M) of a square integer matrix as ints.

    The Hessenberg reduction is valid over every field, so every prime gives
    the char poly mod p.  The combined coefficients are lifted to (-m/2, m/2]
    once the modulus m exceeds 2 (1 + R)^n, R the largest absolute row sum:
    every eigenvalue has |lambda| <= R (Gershgorin), so the coefficient of x^k
    is at most binomial(n, k) R^(n-k) <= (1 + R)^n in absolute value.
    """
    n = len(rows)
    bound = 2 * (1 + max((sum(abs(x) for x in r) for r in rows), default=0)) ** n
    modulus, coeffs = 1, [0] * (n + 1)
    for p in _word_primes():
        cp = _hessenberg_char_poly([[x % p for x in r] for r in rows], p)
        coeffs = [_crt(a, modulus, b, p) for a, b in zip(coeffs, cp)]
        modulus *= p
        if modulus > bound:
            return [c - modulus if 2 * c > modulus else c for c in coeffs]


def _int_row(row) -> list[int]:
    """The entries of row as a new list of ints.  A non-integral ``Fraction``
    raises ``ValueError``; anything but an int or a ``Fraction`` (a float, a
    str) raises ``TypeError``, so nothing is silently truncated."""
    if all(type(x) is int for x in row):
        return list(row)
    out = []
    for x in row:
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"not an integer: {x}")
            x = x.numerator
        elif not isinstance(x, int):
            raise TypeError(f"not an integer: {x!r}")
        out.append(int(x))
    return out


def _as_int_rows(mat) -> list[list[int]]:
    return [_int_row(r) for r in (mat.rows if isinstance(mat, Matrix) else mat)]


def smith_normal_form(mat) -> list[int]:
    """Invariant factors d_1 | d_2 | ... | d_min(m,n) of an integer matrix.

    A sparse pre-pass (``_unit_pivot_pass``) eliminates the +-1 pivots, least
    fill-in first, and divides out the gcd of what is left whenever no unit
    remains; only the small remainder goes to the Hermite forms.  Those
    alternate between the rows and the columns until the echelon basis is
    diagonal (Kannan-Bachem, SIAM J. Comput. 8, 1979).  Each round's leading
    pivot divides the last one, and a round that keeps it leaves its row and
    column clear, so the rounds end; ``lattice_basis`` keeps the entries
    reduced throughout.  The diagonal then gets its divisibility chain from
    gcd/lcm exchanges, and zeros pad the invariants to length min(m, n).
    """
    rows = _as_int_rows(mat)
    size = min(len(rows), len(rows[0])) if rows else 0
    if not size:
        return []
    diag, scale, rows = _unit_pivot_pass(rows)
    if rows:
        diag += [scale * d for d in _hermite_diagonal(rows)]
    return diag + [0] * (size - len(diag))


def _unit_pivot_pass(rows):
    """(invariants, scale, remainder) of the int rows: every +-1 pivot, chosen
    least fill-in first, is eliminated, and when no unit is left the remaining
    block is divided by the gcd of its entries, which multiplies the scale.

    The Schur complement of a unit pivot has the invariants of the block less
    one invariant 1, and a block divided by g has its invariants divided by g,
    so the invariants are the scale at each pivot, then the scale times those
    of the remainder (dense rows over the columns it still meets; none when
    everything was eliminated).  The scale only grows by factors, so the
    list keeps the divisibility chain.
    """
    sparse = {}  # row index -> {column: nonzero entry}
    cols = {}  # column -> the row indices with a nonzero entry there
    for i, r in enumerate(rows):
        entries = {j: x for j, x in enumerate(r) if x}
        if entries:
            sparse[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)
    diag, scale = [], 1
    while sparse:
        pivot = _least_fill_unit(sparse, cols)
        if pivot is None:
            g = gcd(*(x for r in sparse.values() for x in r.values()))
            if g == 1:
                break
            scale *= g
            for r in sparse.values():
                for j in r:
                    r[j] //= g
            continue
        i, j = pivot
        prow = sparse.pop(i)
        u = prow.pop(j)  # +-1, its own inverse
        for c in prow:
            cols[c].discard(i)
        cols[j].discard(i)
        for k in cols.pop(j):
            row = sparse[k]
            f = row.pop(j) * u
            for c, x in prow.items():
                y = row.get(c, 0) - f * x
                if y:
                    if c not in row:
                        cols[c].add(k)
                    row[c] = y
                else:
                    del row[c]
                    cols[c].discard(k)
            if not row:
                del sparse[k]
        diag.append(scale)
    live = sorted(j for j, on in cols.items() if on)
    return diag, scale, [[r.get(j, 0) for j in live] for r in sparse.values()]


def _least_fill_unit(sparse, cols):
    """The (row, column) of a +-1 entry with the least Markowitz count
    (row entries - 1)(column entries - 1), the most fill-in its elimination
    can cause; None when no entry is a unit.

    A unit alone in its column costs nothing.  Every other unit lies in a
    column of at least ``floor`` entries, so rows are visited shortest first
    and the scan stops at the first row whose length rules out a better count.
    """
    floor = None  # the fewest entries of a column with two or more
    for j, on in cols.items():
        if len(on) == 1:
            (i,) = on
            if sparse[i][j] in (1, -1):
                return i, j
        elif len(on) > 1 and (floor is None or len(on) < floor):
            floor = len(on)
    if floor is None:
        return None
    best, best_cost = None, None
    for i in sorted(sparse, key=lambda i: len(sparse[i])):
        r = sparse[i]
        rc = len(r) - 1
        if best is not None and rc * (floor - 1) >= best_cost:
            break
        for j, x in r.items():
            if x in (1, -1):
                cost = rc * (len(cols[j]) - 1)
                if best is None or cost < best_cost:
                    best, best_cost = (i, j), cost
    return best


def _hermite_diagonal(rows) -> list[int]:
    """The nonzero invariant factors of the int rows, from alternating row and
    column Hermite forms and a gcd/lcm sweep of their diagonal.  Elimination
    on the smallest entry with Euclid steps instead gives the same invariants
    but was 3-5x slower on the unit-free composite remainders of
    ``random_biregular_graph(2, n0, Random(1))`` at n0 = 48, 75 and 150 (8.0
    against 2.4 s at 150, entries up to 1404 bits; Python 3.11, 2-core VM),
    since nothing keeps its entries reduced."""
    width = len(rows[0])
    while True:
        rows = lattice_basis(rows, width)
        if all(r[k] and not any(r[k + 1 :]) for k, r in enumerate(rows)):
            break
        width, rows = len(rows), [list(c) for c in zip(*rows)]
    diag = [r[k] for k, r in enumerate(rows)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def _bezout(x: int, y: int) -> tuple[int, int]:
    """(r, s) with r*x + s*y = gcd(x, y)."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def int_matrix_det(rows) -> int:
    """Exact determinant of an integer matrix (``Matrix.det`` after an
    integrality check)."""
    return Matrix(_as_int_rows(rows)).det()


def int_matrix_rank(rows) -> int:
    """Exact rank over Q of an integer matrix: the pivots of the Bareiss
    elimination behind ``Matrix.det``, after an integrality check."""
    return Matrix(_as_int_rows(rows))._bareiss()[0]


# ---------------------------------------------------------------------------
# integer lattices, given by generator matrices (columns generate)
# ---------------------------------------------------------------------------
#
# A lattice basis is kept in Hermite normal form (Cohen, A Course in
# Computational Algebraic Number Theory, Sec. 2.4.2), as a list of basis vectors
# b_0, ..., b_{r-1}: the first nonzero entry of b_k (its pivot) lies strictly
# right of the pivot of b_{k-1} and is positive, and every entry of an earlier
# vector in the pivot column of b_k lies in [0, pivot).  Entries must be kept
# reduced as the basis is built, or they blow up (Domich-Kannan-Trotter 1987
# bound them by a determinant modulus, which needs full rank; the chain
# lattices here have corank one per component).  Membership and coordinates
# then come from back substitution on the pivots, in integers.


def lattice_basis(gen_cols: list[list[int]], ambient_dim: int) -> list[list[int]]:
    """Hermite normal form basis (as columns) of the lattice generated by the
    given integer columns.

    Each generator is reduced into an echelon basis keyed by pivot column: a
    multiple of the pivot row clears its leading entry, or a unimodular Bezout
    step replaces the pivot by the gcd.  A row is stored only after its entries
    in the later pivot columns are reduced, which keeps the entries of every
    later reduction bounded.
    """
    by_pivot = {}  # pivot column -> basis vector with a positive pivot

    def store(c, h):
        if h[c] < 0:
            h = [-x for x in h]
        for c2 in sorted(k for k in by_pivot if k > c):
            b = by_pivot[c2]
            q = h[c2] // b[c2]
            if q:
                h[c2:] = [x - q * y for x, y in zip(h[c2:], b[c2:])]
        by_pivot[c] = h

    for gen in gen_cols:
        v = _int_row(gen)
        if len(v) != ambient_dim:
            raise ValueError("generator length does not match the ambient dimension")
        c = 0
        while True:
            while c < ambient_dim and not v[c]:
                c += 1
            if c == ambient_dim:
                break
            h = by_pivot.get(c)
            if h is None:
                store(c, v)
                break
            a, b = h[c], v[c]
            q, r = divmod(b, a)
            if r:
                # [[s, t], [-b/g, a/g]] is unimodular: h gets the pivot g = gcd(a, b)
                s, t = _bezout(a, b)
                g = s * a + t * b
                store(c, [s * x + t * y for x, y in zip(h, v)])
                v = [(a // g) * y - (b // g) * x for x, y in zip(h, v)]
            else:
                v[c:] = [y - q * x for x, y in zip(h[c:], v[c:])]
            c += 1
    pivots = sorted(by_pivot)
    basis = [by_pivot[c] for c in pivots]
    # reduce above each pivot, left to right: b_k is zero left of its pivot, so
    # later steps leave the columns already reduced alone
    for k, c in enumerate(pivots):
        bk, p = basis[k], basis[k][c]
        for j in range(k):
            bj = basis[j]
            q = bj[c] // p
            if q:
                bj[c:] = [x - q * y for x, y in zip(bj[c:], bk[c:])]
    return basis


def _integer_kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of {x in Z^ncols : every row . x = 0}.

    The generators (column j, e_j) span {(A x, x)}; in the Hermite normal form
    of that lattice the vectors with a zero first block span its part with
    A x = 0.
    """
    m = len(rows)
    if any(len(r) != ncols for r in rows):
        raise ValueError("row length does not match the number of columns")
    gens = [[r[j] for r in rows] + [int(i == j) for i in range(ncols)] for j in range(ncols)]
    return [h[m:] for h in lattice_basis(gens, m + ncols) if not any(h[:m])]


def lattice_saturation(gen_cols: list[list[int]], ambient_dim: int) -> list[list[int]]:
    """Basis of (span_Q of the lattice) intersected with Z^ambient_dim: the
    integer kernel of the integer kernel of the generators."""
    return _integer_kernel(_integer_kernel(gen_cols, ambient_dim), ambient_dim)


def _echelon(basis_cols: list[list[int]], ambient_dim: int):
    """(basis, pivot columns) of the lattice: the given columns themselves when
    they are already in echelon form (as ``lattice_basis`` returns them), else
    their Hermite normal form."""
    pivots, c = [], 0
    for b in basis_cols:
        if len(b) != ambient_dim or any(b[:c]):
            break
        while c < ambient_dim and not b[c]:
            c += 1
        if c == ambient_dim:
            break
        pivots.append(c)
        c += 1
    else:
        return basis_cols, pivots
    basis = lattice_basis(basis_cols, ambient_dim)
    return basis, _echelon(basis, ambient_dim)[1]


def _coordinates(basis, pivots, vec) -> list[int]:
    """Integer coordinates of vec in an echelon basis, by back substitution on
    its pivots.  Raises ValueError when vec lies outside the lattice."""
    x = list(vec)
    coords = []
    for b, c in zip(basis, pivots):
        q, r = divmod(x[c], b[c])
        if r:
            raise ValueError(f"not contained: entry {c} is not divisible by its pivot")
        if q:
            x[c:] = [u - q * w for u, w in zip(x[c:], b[c:])]
        coords.append(q)
    if any(x):
        raise ValueError("not in the span")
    return coords


def lattice_quotient_invariants(big: list[list[int]], small: list[list[int]]) -> list[int]:
    """Invariant factors of (lattice big)/(lattice small); requires small within big.

    Both lattices are given by basis columns of equal rank.  The quotient is
    finite exactly when the ranks agree.  The invariants are those of the
    small matrix of coordinates of ``small`` against the echelon basis of
    ``big``.
    """
    if not big and not small:
        return []
    basis, pivots = _echelon(big, len((big or small)[0]))
    try:
        coords = [_coordinates(basis, pivots, col) for col in small]
    except ValueError as exc:
        raise ValueError(f"second lattice does not lie inside the first: {exc}") from None
    return [d for d in smith_normal_form([list(r) for r in zip(*coords)]) if d != 1]


def lattice_contains(basis_cols: list[list[int]], vec: list[int]) -> bool:
    basis, pivots = _echelon(basis_cols, len(vec))
    try:
        _coordinates(basis, pivots, vec)
    except ValueError:
        return False
    return True
