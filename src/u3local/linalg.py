"""Dense exact linear algebra over the rationals, prime fields, and the integers.

Matrices are small (at most a few hundred rows) so everything uses plain
elimination with exact arithmetic; there is deliberately no floating point
anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import require_prime


class FpElement:
    """Element of the prime field F_p.  Arithmetic stays reduced mod p."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            return FpElement(self.p, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else FpElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else FpElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else FpElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else FpElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.v * pow(o.v, -1, self.p))

    def __neg__(self):
        return FpElement(self.p, -self.v)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.p
        return isinstance(other, FpElement) and other.p == self.p and other.v == self.v

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.p, self.v))

    def __repr__(self):
        return f"{self.v} (mod {self.p})"


class RationalField:
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def of(x):
        return Fraction(x)

    def __repr__(self):
        return "QQ"


class PrimeField:
    def __init__(self, p: int):
        self.p = require_prime(p)
        self.zero = FpElement(p, 0)
        self.one = FpElement(p, 1)

    def of(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise ValueError("mixed characteristics")
            return x
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return FpElement(self.p, x.numerator * pow(x.denominator, -1, self.p))
        return FpElement(self.p, int(x))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


class Matrix:
    """Dense matrix over an exact field (rationals by default)."""

    def __init__(self, rows, field=QQ):
        self.field = field
        self.rows = [[field.of(x) for x in r] for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n, field=QQ):
        return cls(
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)],
            field,
        )

    @classmethod
    def zeros(cls, m, n, field=QQ):
        return cls([[field.zero] * n for _ in range(m)], field)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_square(self):
        return self.nrows == self.ncols

    def copy(self):
        m = Matrix.__new__(Matrix)
        m.field = self.field
        m.rows = [list(r) for r in self.rows]
        m.nrows, m.ncols = self.nrows, self.ncols
        return m

    def transpose(self):
        return Matrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.field,
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and all(
                self.rows[i][j] == other.rows[i][j]
                for i in range(self.nrows)
                for j in range(self.ncols)
            )
        )

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [self.rows[i][j] + other.rows[i][j] for j in range(self.ncols)]
                for i in range(self.nrows)
            ],
            self.field,
        )

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [self.rows[i][j] - other.rows[i][j] for j in range(self.ncols)]
                for i in range(self.nrows)
            ],
            self.field,
        )

    def scale(self, c):
        c = self.field.of(c)
        return Matrix([[c * x for x in r] for r in self.rows], self.field)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        z = self.field.zero
        out = []
        bt = other.transpose().rows
        for r in self.rows:
            out.append([sum((r[k] * col[k] for k in range(self.ncols)), z) for col in bt])
        return Matrix(out, self.field)

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        if len(vec) != self.ncols:
            raise ValueError("length mismatch")
        z = self.field.zero
        vec = [self.field.of(x) for x in vec]
        return [sum((r[k] * vec[k] for k in range(self.ncols)), z) for r in self.rows]

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        m = self.copy()
        rows, ncols = m.rows, m.ncols
        pivots = []
        r = 0
        for c in range(ncols):
            pr = next((i for i in range(r, m.nrows) if rows[i][c]), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            pv = rows[r][c]
            rows[r] = [x / pv for x in rows[r]]
            for i in range(m.nrows):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == m.nrows:
                break
        return m, pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis of the right kernel {v : M v = 0}, as lists of field elements."""
        red, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivset]
        basis = []
        zero, one = self.field.zero, self.field.one
        for fc in free:
            v = [zero] * self.ncols
            v[fc] = one
            for r, pc in enumerate(pivots):
                v[pc] = -red.rows[r][fc]
            basis.append(v)
        return basis

    def column_space_basis(self):
        """Basis of the column space, as lists (vectors in the row-count space)."""
        red, pivots = self.transpose().rref()
        return [list(red.rows[i]) for i in range(len(pivots))]

    def solve(self, b):
        """One solution of M x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise ValueError("length mismatch")
        aug = Matrix(
            [list(r) + [self.field.of(b[i])] for i, r in enumerate(self.rows)], self.field
        )
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [self.field.zero] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = red.rows[r][self.ncols]
        return x

    def det(self):
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        m = self.copy()
        rows = m.rows
        n = m.nrows
        det = self.field.one
        for c in range(n):
            pr = next((i for i in range(c, n) if rows[i][c]), None)
            if pr is None:
                return self.field.zero
            if pr != c:
                rows[c], rows[pr] = rows[pr], rows[c]
                det = -det
            det = det * rows[c][c]
            inv = self.field.one / rows[c][c]
            for i in range(c + 1, n):
                if rows[i][c]:
                    f = rows[i][c] * inv
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
        return det

    def inverse(self):
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = Matrix(
            [
                list(self.rows[i])
                + [self.field.one if j == i else self.field.zero for j in range(n)]
                for i in range(n)
            ],
            self.field,
        )
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix([r[n:] for r in red.rows], self.field)

    def char_poly(self):
        """Coefficients of det(xI - M), degree-ascending, exact.

        Reduces M to upper Hessenberg form by similarity, then expands along the
        subdiagonal (Cohen, Alg. 2.2.9).  It divides only by pivots, so it is
        valid over every field, GF(p) with p <= n included.
        """
        if not self.is_square():
            raise ValueError("characteristic polynomial of a non-square matrix")
        n, zero, one = self.nrows, self.field.zero, self.field.one
        h = self.copy().rows
        for m in range(1, n - 1):
            piv = next((i for i in range(m, n) if h[i][m - 1]), None)
            if piv is None:
                continue
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
            for i in range(m + 1, n):
                u = h[i][m - 1] / h[m][m - 1]
                h[i] = [a - u * b for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] += u * row[i]
        polys = [[one]]  # polys[k]: char poly of the leading k x k block
        for k in range(n):
            nxt, prod = [zero] + polys[k], one
            for i in range(k, -1, -1):
                c = h[i][k] * prod
                for d, x in enumerate(polys[i]):
                    nxt[d] -= c * x
                if i:
                    prod *= h[i][i - 1]
            polys.append(nxt)
        return polys[n]

    def to_int_rows(self):
        out = []
        for r in self.rows:
            row = []
            for x in r:
                f = Fraction(x)
                if f.denominator != 1:
                    raise ValueError("matrix is not integral")
                row.append(f.numerator)
            out.append(row)
        return out

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


def _as_int_rows(mat) -> list[list[int]]:
    if isinstance(mat, Matrix):
        return mat.to_int_rows()
    return [[int(x) for x in r] for r in mat]


def smith_normal_form(mat, transforms: bool = False):
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Elementary row/column reduction, pivoting on the smallest nonzero entry.
    With transforms=True returns (factors, U, V) with U*M*V diagonal and
    U, V unimodular (as integer row-lists).
    """
    a = _as_int_rows(mat)
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0 or n == 0:
        return ([], [], []) if transforms else []
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def addmul_col(dst, src, c):
        for r in a:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    size = min(m, n)
    while t < size:
        # smallest nonzero pivot in the remaining block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            progressed = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    addmul_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        progressed = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    addmul_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        progressed = True
            if not progressed:
                break
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(size - 1):
            x, y = a[i][i], a[i + 1][i + 1]
            if y % (x or 1) != 0 or (x == 0 and y != 0):
                # fold entry i+1 into column i and re-reduce the 2x2 block
                addmul_col(i, i + 1, 1)
                g = gcd(x, y)
                # Bezout: r*x + s*y = g
                r, s = _bezout(x, y)
                # new row i := r*row_i + s*row_{i+1}; row_{i+1} adjusted to keep U unimodular
                ri, rj = a[i][:], a[i + 1][:]
                ui, uj = U[i][:], U[i + 1][:]
                a[i] = [r * p + s * q for p, q in zip(ri, rj)]
                U[i] = [r * p + s * q for p, q in zip(ui, uj)]
                xg, yg = x // g, y // g
                a[i + 1] = [-yg * p + xg * q for p, q in zip(ri, rj)]
                U[i + 1] = [-yg * p + xg * q for p, q in zip(ui, uj)]
                # clear the off-diagonal residue left in the 2x2 block
                q = a[i + 1][i] // a[i][i]
                addmul_row(i + 1, i, -q)
                q = a[i][i + 1] // a[i][i]
                addmul_col(i + 1, i, -q)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    factors = [a[i][i] for i in range(size)]
    return (factors, U, V) if transforms else factors


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
    """Exact determinant of an integer matrix (Bareiss fraction-free elimination)."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pr is None:
                return 0
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# integer lattices, given by generator matrices (columns generate)
# ---------------------------------------------------------------------------


def lattice_basis(gen_cols: list[list[int]], ambient_dim: int) -> list[list[int]]:
    """Basis (as columns) of the lattice generated by the given integer columns."""
    if not gen_cols:
        return []
    rows = [[col[i] for col in gen_cols] for i in range(ambient_dim)]
    factors, U, _ = smith_normal_form(rows, transforms=True)
    uinv = _int_inverse(U)
    basis = []
    for k, d in enumerate(factors):
        if d != 0:
            basis.append([d * uinv[i][k] for i in range(ambient_dim)])
    return basis


def lattice_saturation(gen_cols: list[list[int]], ambient_dim: int) -> list[list[int]]:
    """Basis of (span_Q of the lattice) intersected with Z^ambient_dim."""
    if not gen_cols:
        return []
    rows = [[col[i] for col in gen_cols] for i in range(ambient_dim)]
    factors, U, _ = smith_normal_form(rows, transforms=True)
    uinv = _int_inverse(U)
    return [[uinv[i][k] for i in range(ambient_dim)] for k, d in enumerate(factors) if d != 0]


def lattice_quotient_invariants(big: list[list[int]], small: list[list[int]]) -> list[int]:
    """Invariant factors of (lattice big)/(lattice small); requires small within big.

    Both lattices are given by basis columns of equal rank.  The quotient is
    finite exactly when the ranks agree.
    """
    if not big and not small:
        return []
    amb = len(big[0])
    B = Matrix([[Fraction(big[j][i]) for j in range(len(big))] for i in range(amb)])
    coords = []
    for col in small:
        x = B.solve([Fraction(c) for c in col])
        if x is None:
            raise ValueError("second lattice does not lie inside the first")
        if any(f.denominator != 1 for f in x):
            raise ValueError("second lattice is not contained in the first")
        coords.append([f.numerator for f in x])
    rows = [[coords[j][i] for j in range(len(coords))] for i in range(len(big))]
    return [d for d in smith_normal_form(rows) if d != 1]


def lattice_contains(basis_cols: list[list[int]], vec: list[int]) -> bool:
    if not basis_cols:
        return all(v == 0 for v in vec)
    amb = len(basis_cols[0])
    B = Matrix([[Fraction(basis_cols[j][i]) for j in range(len(basis_cols))] for i in range(amb)])
    x = B.solve([Fraction(v) for v in vec])
    return x is not None and all(f.denominator == 1 for f in x)


def _int_inverse(rows: list[list[int]]) -> list[list[int]]:
    """Inverse of a unimodular integer matrix, returned with integer entries."""
    inv = Matrix([[Fraction(x) for x in r] for r in rows]).inverse()
    return [[f.numerator for f in r] for r in inv.rows]
