"""p-adic slope machinery at matrix scale.

The characteristic series det(1 - T U) of a square matrix plays the role of
the Fredholm series.  It is the characteristic polynomial of U, from one
Hessenberg reduction, with its coefficients reversed.  Its Newton polygon at
p reads off the valuations of the eigenvalues of U (one slope per eigenvalue,
counted with multiplicity).  For a slope bound h the series factors as
P = Q S with Q collecting exactly the reciprocal roots of valuation <= h,
computed by a quadratically convergent Hensel/Newton iteration started from
the polygon truncation.  For p-integral P (a denominator prime to p included)
the iterates are ints reduced mod p^work, work = precision +
RECONSTRUCTION_MARGIN, and each Newton linearization is solved on the residues
of its coefficients over Z/p^work with unit pivots, while the error P - Q S is
taken against P itself; a step whose system has no unit pivot (its
determinant is divisible by p), and every step of a P that is not p-integral,
solves over QQ instead.  When the true factor has rational
coefficients of moderate height the iteration is snapped to it by rational
reconstruction and everything downstream is exact; otherwise the factors are
reported modulo p^precision.

The decomposition splits the ambient space into ker Qt(U) and its polynomial
complement, where Qt(T) = T^m Q(1/T); the projector comes from a Bezout
identity between Qt and the complementary factor of the characteristic
polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix, rational_reconstruction
from .poly import Poly, xgcd
from .scalars import INF, padic_valuation, require_prime


class NoBreakError(ValueError):
    """The requested slope bound does not split the polygon at a vertex."""


class SlopePrecisionError(ArithmeticError):
    """The iteration could not certify the factorization at the working precision."""


RECONSTRUCTION_MARGIN = 25


def fredholm_series(U: Matrix) -> Poly:
    """det(1 - T U), the reversed characteristic polynomial T^n det(1/T - U).

    Degree <= n with constant term 1; the coefficients are the signed
    elementary symmetric functions of the eigenvalues.  The characteristic
    polynomial comes from one Hessenberg reduction (``Matrix.char_poly``).
    """
    if not U.is_square():
        raise ValueError("matrix must be square")
    p = Poly(U.char_poly()).reverse(U.nrows)
    assert p(0) == 1
    return p


class NewtonPolygon:
    """Lower convex hull of (i, v_p(a_i)); slopes weakly increasing."""

    def __init__(
        self,
        p: int,
        vertices: list[tuple[int, Fraction]],
        segments: list[tuple[Fraction, int]] | None = None,
    ):
        self.p = p
        self.vertices = vertices
        self.segments = [] if segments is None else segments

    def slopes(self) -> list[Fraction]:
        out = []
        for slope, length in self.segments:
            out.extend([slope] * length)
        return out

    def length_at_most(self, h) -> int:
        h = Fraction(h)
        return sum(length for slope, length in self.segments if slope <= h)


def newton_polygon(P: Poly, p: int) -> NewtonPolygon:
    """Polygon of a polynomial with unit constant term."""
    require_prime(p)
    if P.is_zero():
        raise ValueError("zero polynomial has no polygon")
    if padic_valuation(P.coeffs[0], p) != 0:
        raise ValueError("constant term must be a p-adic unit")
    points = [
        (i, Fraction(padic_valuation(c, p)))
        for i, c in enumerate(P.coeffs)
        if c != 0
    ]
    hull = [points[0]]
    for pt in points[1:]:
        while len(hull) >= 2 and _turns_up(hull[-2], hull[-1], pt):
            hull.pop()
        hull.append(pt)
    segments = []
    for (i0, v0), (i1, v1) in zip(hull, hull[1:]):
        segments.append((Fraction(v1 - v0, i1 - i0), i1 - i0))
    return NewtonPolygon(p, hull, segments)


def _turns_up(a, b, c):
    # drop b if it lies on or above the chord a-c
    return (b[1] - a[1]) * (c[0] - a[0]) >= (c[1] - a[1]) * (b[0] - a[0])


class SlopeFactorization:
    """P = Q * S with Q collecting the reciprocal roots of valuation <= h.

    exact=True means the equality holds over the rationals on the nose;
    otherwise it holds coefficientwise modulo p^precision.
    """

    def __init__(
        self, Q: Poly, S: Poly, h: Fraction, m: int, p: int, precision: int | None, exact: bool
    ):
        self.Q, self.S = Q, S
        self.h, self.m, self.p = h, m, p
        self.precision = precision
        self.exact = exact

    def residual_valuation(self, P: Poly):
        return _valuation(P - self.Q * self.S, self.p)


def _valuation(f: Poly, p: int):
    """The least v_p of a nonzero coefficient of f; INF for the zero polynomial."""
    return min((padic_valuation(c, p) for c in f.coeffs if c != 0), default=INF)


def slope_factorization(P: Poly, h, p: int, precision: int = 20) -> SlopeFactorization:
    """Split off the slope <= h part of P (constant term 1) at the prime p."""
    require_prime(p)
    if precision < 1:
        raise ValueError("precision must be at least 1")
    h = Fraction(h)
    if P.is_zero() or P.coeffs[0] != 1:
        raise ValueError("need P(0) = 1")
    d = P.degree
    polygon = newton_polygon(P, p)
    m = polygon.length_at_most(h)
    if m == 0:
        return SlopeFactorization(Poly.one(), P, h, 0, p, None, exact=True)
    if m == d:
        return SlopeFactorization(P, Poly.one(), h, d, p, None, exact=True)
    if all(i != m for i, _ in polygon.vertices):
        raise NoBreakError(f"no polygon vertex at horizontal position {m}")

    integral = _valuation(P, p) >= 0
    work = precision + RECONSTRUCTION_MARGIN
    Q = P.truncate(m + 1)
    S = (P * Q.series_inverse(d - m + 1)).truncate(d - m + 1)
    best = -1
    stall = 0
    for _ in range(80):
        E = P - Q * S
        ev = _valuation(E, p)
        if ev >= work:
            break
        if ev <= best:
            stall += 1
            if stall >= 4:
                raise SlopePrecisionError("iteration stalled before reaching precision")
        else:
            best = ev
            stall = 0
        dq, ds = _newton_step(Q, S, E, m, d, p, work)
        Q, S = Q + dq, S + ds
        if integral:  # a non-integral iterate is left untouched
            Q = _residues(Q, p, work) or Q
            S = _residues(S, p, work) or S
    else:
        raise SlopePrecisionError("iteration budget exhausted")

    exact = _try_exact_snap(P, Q, h, p, work, integral)
    if exact is not None:
        return exact

    Qa = _residues(Q, p, precision) or Q
    Sa = _residues(S, p, precision) or S
    fact = SlopeFactorization(Qa, Sa, h, m, p, precision, exact=False)
    if fact.residual_valuation(P) < precision and (Qa is Q or Sa is S):
        # reducing only one factor of a non-integral pair costs the residual the
        # valuation of the other; the unreduced pair keeps it
        fact = SlopeFactorization(Q, S, h, m, p, precision, exact=False)
    if fact.residual_valuation(P) < precision:
        raise SlopePrecisionError("could not certify the factorization mod p^precision")
    _validate_split(fact, p, h, integral)
    return fact


def _newton_step(Q, S, E, m, d, p, work):
    """Solve S dq + Q ds = E with dq(0) = ds(0) = 0, deg dq <= m, deg ds <= d-m.

    When every coefficient is p-integral the system is solved on their
    residues mod p^work, which gives the residues of the rational solution
    whenever its determinant is a p-adic unit; a system with no unit pivot, or
    with a coefficient that is not p-integral (as every non-integral P has), is
    solved over QQ on the coefficients themselves.
    """

    def system(Q, S, E):
        # column b of each block holds the coefficients of S T^b (or Q T^b) in
        # degrees 1..d, that is S[j - b] in row j
        rows = [
            [S[j - b] for b in range(1, m + 1)] + [Q[j - b] for b in range(1, d - m + 1)]
            for j in range(1, d + 1)
        ]
        return rows, [E[j] for j in range(1, d + 1)]

    sol = None
    residues = [_residues(f, p, work) for f in (Q, S, E)]
    if None not in residues:
        sol = _solve_mod_prime_power(*system(*residues), p, work)
    if sol is None:
        rows, rhs = system(Q, S, E)
        sol = Matrix(rows).solve(rhs)
    if sol is None:
        raise SlopePrecisionError("linearized system is singular; factors not coprime")
    dq = Poly([0] + list(sol[:m]))
    ds = Poly([0] + list(sol[m:]))
    return dq, ds


def _solve_mod_prime_power(rows, rhs, p: int, k: int) -> list[int] | None:
    """The solution of the square int system rows x = rhs modulo p^k, as ints
    in [0, p^k); None when some column has no unit pivot, that is when the
    determinant is divisible by p.

    Gauss-Jordan over Z/p^k: each pivot is a p-adic unit, inverted mod p^k.  A
    unit determinant makes the rational solution p-integral, and its residues
    are the unique solution mod p^k, so the two routes agree.
    """
    q = p**k
    n = len(rows)
    a = [[x % q for x in row] + [b % q] for row, b in zip(rows, rhs)]
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] % p), None)
        if pr is None:
            return None
        a[c], a[pr] = a[pr], a[c]
        inv = pow(a[c][c], -1, q)
        # columns left of c are zero outside their pivot rows
        pivot = [x * inv % q for x in a[c][c:]]
        a[c][c:] = pivot
        for i in range(n):
            f = a[i][c]
            if f and i != c:
                a[i][c:] = [(x - f * y) % q for x, y in zip(a[i][c:], pivot)]
    return [row[n] for row in a]


def _residues(f: Poly, p: int, k: int) -> Poly | None:
    """f with each coefficient replaced by its int representative mod p^k, or
    None when some coefficient is not p-integral."""
    q = p**k
    out = []
    for c in f.coeffs:
        if c.denominator % p == 0:
            return None
        out.append(c.numerator * pow(c.denominator, -1, q) % q)
    return Poly(out)


def _try_exact_snap(P, Q, h, p, work, integral):
    """Reconstruct a rational candidate for Q and verify it divides P exactly."""
    if not integral:
        return None
    residues = _residues(Q, p, work)
    if residues is None:
        return None
    modulus = p**work
    cand = [1]
    for rep in residues.coeffs[1:]:
        rec = rational_reconstruction(rep, modulus)
        if rec is None:
            return None
        cand.append(rec)
    Qe = Poly(cand)
    if Qe.degree != Q.degree:
        return None
    quo, rem = P.divmod(Qe)
    if not rem.is_zero():
        return None
    fact = SlopeFactorization(Qe, quo, Fraction(h), Qe.degree, p, None, exact=True)
    try:
        _validate_split(fact, p, Fraction(h), integral)
    except SlopePrecisionError:
        return None
    return fact


def _validate_split(fact: SlopeFactorization, p, h, integral):
    if fact.Q.degree >= 1:
        if any(s > h for s in newton_polygon(fact.Q, p).slopes()):
            raise SlopePrecisionError("low factor carries a slope above the bound")
        if integral and _valuation(fact.Q, p) < 0:
            raise SlopePrecisionError("low factor is not integral")
    if fact.S.degree >= 1 and fact.exact:
        if any(s <= h for s in newton_polygon(fact.S, p).slopes()):
            raise SlopePrecisionError("high factor carries a slope at or below the bound")
    if fact.Q.coeffs and fact.Q.coeffs[-1] == 0:
        raise SlopePrecisionError("low factor lost its leading coefficient")


class SlopeDecomposition:
    """Splitting into the slope <= h part and its polynomial complement."""

    def __init__(
        self,
        q_part_basis: list[list[Fraction]],
        complement_basis: list[list[Fraction]],
        projector: Matrix,
        factorization: SlopeFactorization,
        series: Poly,
        report: dict | None = None,
    ):
        self.q_part_basis = q_part_basis
        self.complement_basis = complement_basis
        self.projector = projector
        self.factorization = factorization
        self.series = series  # det(1 - T U), the series that was factored
        self.report = {} if report is None else report


def slope_decomposition(U: Matrix, h, p: int, precision: int = 20) -> SlopeDecomposition:
    """Split the space into ker Qt(U) and its complement, with a Bezout projector.

    Qt(U) vanishes on the first summand and is invertible on the second; both
    are U-stable and their dimensions are m and n - m.  Requires the slope
    factorization to land exactly (rational coefficients); a genuinely
    irrational factor raises SlopePrecisionError.
    """
    if not U.is_square():
        raise ValueError("matrix must be square")
    n = U.nrows
    h = Fraction(h)
    P = fredholm_series(U)
    fact = slope_factorization(P, h, p, precision)
    if not fact.exact:
        raise SlopePrecisionError(
            "slope factor is not rational at this height; exact splitting unavailable"
        )
    d = P.degree
    m = fact.Q.degree
    qt = fact.Q.reverse(m)
    # complement factor of the characteristic polynomial: x^(n-d) * reversed S
    st_full = Poly([0] * (n - d) + list(fact.S.reverse(d - m).coeffs))
    qt_U = qt.at_matrix(U)
    st_U = st_full.at_matrix(U)
    q_part = qt_U.kernel_basis()
    complement = st_U.kernel_basis()
    # xgcd returns a monic g, so a coprime pair gives a*qt + b*st = 1 exactly
    g, _, b = xgcd(qt, st_full)
    if g.degree != 0:
        raise SlopePrecisionError("factors of the characteristic polynomial not coprime")
    projector = b.at_matrix(U) @ st_U
    checks = {
        "q_dim_matches_polygon": len(q_part) == m,
        "dims_sum": len(q_part) + len(complement) == n,
        "qt_annihilates_q_part": all(
            all(x == 0 for x in qt_U.apply(v)) for v in q_part
        ),
        "qt_invertible_on_complement": _invertible_on(qt_U, complement),
        "projector_idempotent": projector @ projector == projector,
        "projector_commutes": projector @ U == U @ projector,
        "projector_fixes_q_part": all(
            projector.apply(v) == v for v in q_part
        ),
        "projector_kills_complement": all(
            all(x == 0 for x in projector.apply(v)) for v in complement
        ),
        "u_stable_q_part": _stable_under(U, q_part),
        "u_stable_complement": _stable_under(U, complement),
    }
    return SlopeDecomposition(
        q_part, complement, projector, fact, P, {"ok": all(checks.values()), **checks}
    )


def _stable_under(op: Matrix, basis) -> bool:
    """Whether op maps the span of the independent vectors ``basis`` into itself."""
    return Matrix(basis + [op.apply(v) for v in basis]).rank() == len(basis)


def _invertible_on(op: Matrix, basis) -> bool:
    """Whether op maps the span of the independent vectors ``basis`` onto itself."""
    images = [op.apply(v) for v in basis]
    return Matrix(images).rank() == len(basis) == Matrix(basis + images).rank()
