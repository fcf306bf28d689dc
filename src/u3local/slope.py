"""p-adic slope machinery at matrix scale.

The characteristic series det(1 - T U) of a square matrix plays the role of
the Fredholm series.  It is the characteristic polynomial of U, from one
Hessenberg reduction, with its coefficients reversed.  Its Newton polygon at
p reads off the valuations of the eigenvalues of U (one slope per eigenvalue,
counted with multiplicity).  For a slope bound h the series factors as
P = Q S with Q collecting exactly the reciprocal roots of valuation <= h,
computed from the polygon truncation Q0 = P mod T^(m+1) and S0 = P/Q0 mod
T^(d-m+1).  Residues are taken mod p^work, work = precision +
RECONSTRUCTION_MARGIN.  When P is p-integral (a denominator prime to p
included) and the monic reversals Qt0, St0 (Qt(T) = T^m Q(1/T)) are coprime
mod p, which is the split of the slope-0 part from the positive slopes, the
reversals are Hensel-lifted on int lists together with one Bezout pair
s Qt + t St = 1, found mod p and lifted alongside (von zur Gathen-Gerhard,
Modern Computer Algebra, Alg. 15.10): the modulus about doubles each step
up to p^work, and every step costs O(d^2) products of ints.  Monic lifts of
coprime factors are unique, so these are the residues of the true factors.
Every other split runs a quadratically convergent Newton iteration over QQ
from Q0 and S0, each step solving a d x d linear system; its iterates are
reduced mod p^work when they are p-integral.  Either way the error P - Q S
is taken against P itself and must vanish mod p^work.  When the true factor
has rational coefficients of moderate height the factors are snapped to it
by rational reconstruction and everything downstream is exact; otherwise
they are reported modulo p^precision.

The decomposition splits the ambient space into ker Qt(U) and its polynomial
complement, where Qt(T) = T^m Q(1/T); the projector comes from a Bezout
identity b Qt + c St = 1 between Qt and the complementary factor St of the
characteristic polynomial.  It is formed over one denominator, as
Pi = (D b)(U) St(U) with D the lcm of the denominators of b, and checked by
identities on Pi (Pi^2 = D Pi, Pi v = D v on ker Qt(U)), so an integer U
keeps every matrix product and kernel vector on ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .linalg import QQ, Matrix, rational_reconstruction
from .poly import Poly, xgcd
from .scalars import INF, int_valuation, require_prime


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
    if _coeff_valuation(P.coeffs[0], p) != 0:
        raise ValueError("constant term must be a p-adic unit")
    points = [(i, _coeff_valuation(c, p)) for i, c in enumerate(P.coeffs) if c]
    hull = [points[0]]
    for pt in points[1:]:
        while len(hull) >= 2 and _turns_up(hull[-2], hull[-1], pt):
            hull.pop()
        hull.append(pt)
    segments = []
    for (i0, v0), (i1, v1) in zip(hull, hull[1:]):
        segments.append((Fraction(v1 - v0, i1 - i0), i1 - i0))
    return NewtonPolygon(p, [(i, Fraction(v)) for i, v in hull], segments)


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


def _coeff_valuation(c, p: int):
    """v_p of a coefficient (an int or a Fraction); INF for zero.  The callers
    have checked that p is prime."""
    if type(c) is int:
        return int_valuation(c, p)
    return int_valuation(c.numerator, p) - int_valuation(c.denominator, p)


def _valuation(f: Poly, p: int):
    """The least v_p of a nonzero coefficient of f; INF for the zero polynomial."""
    return min((_coeff_valuation(c, p) for c in f.coeffs if c), default=INF)


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
    if integral:  # a lifted pair passes the certificate on the loop's first pass
        Q, S = _hensel_lift(P, Q, S, m, p, work) or (Q, S)
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
        dq, ds = _newton_step(Q, S, E, m, d)
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


def _newton_step(Q, S, E, m, d):
    """Solve S dq + Q ds = E with dq(0) = ds(0) = 0, deg dq <= m, deg ds <= d-m.

    The QQ route of the iteration: it runs on every split that
    ``_hensel_lift`` declines (P not p-integral, or Qt, St not coprime mod p,
    so that the determinant of the system, the resultant of Qt and St up to
    sign, is divisible by p) and solves the system over QQ on the
    coefficients themselves.
    """
    # column b of each block holds the coefficients of S T^b (or Q T^b) in
    # degrees 1..d, that is S[j - b] in row j: a window of the padded list
    s, q = ([0] * d + list(f.coeffs) + [0] * d for f in (S, Q))
    cols = [s[d + 1 - b : 2 * d + 1 - b] for b in range(1, m + 1)]
    cols += [q[d + 1 - b : 2 * d + 1 - b] for b in range(1, d - m + 1)]
    e = list(E.coeffs[1 : d + 1])
    sol = Matrix([list(row) for row in zip(*cols)]).solve(e + [0] * (d - len(e)))
    if sol is None:
        raise SlopePrecisionError("linearized system is singular; factors not coprime")
    dq = Poly([0] + list(sol[:m]))
    ds = Poly([0] + list(sol[m:]))
    return dq, ds


def _hensel_lift(P, Q, S, m, p, work):
    """For a p-integral P: Q and S replaced by the residues mod p^work of the
    true factors, as ints in [0, p^work); None unless the monic reversals Qt,
    St of Q and S (degrees m and d - m) are coprime mod p with Qt St equal to
    P's reversal Pt mod p.

    The quadratic Hensel step on int lists, lowest degree first, g = Qt and
    h = St: from Pt = g h and s g + t h = 1 mod p^k, with deg s < deg h and
    deg t < deg g, the error e = Pt - g h gives g + (t e rem g) and
    h + (s e rem h), whose product is Pt mod p^2k; with b = s g + t h - 1 on
    the new pair, s - (s b rem h) and t - (t b rem g) are its Bezout pair mod
    p^2k.  The exponents halve down from work (45, 23, 12, 6, 3, 2, 1), so
    each step at most doubles k, and the last step skips the cofactors.
    """
    d = P.degree
    f = _residues(P, p, work).reverse(d).coeffs
    g, h = (list(_residues(F, p, 1).reverse(n).coeffs) for F, n in ((Q, m), (S, d - m)))
    if any((x - y) % p for x, y in zip(f, _mul(g, h))):
        return None
    bezout = _bezout_mod_p(g, h, p)
    if bezout is None:
        return None
    s, t = bezout
    ks = [work]
    while ks[-1] > 1:
        ks.append((ks[-1] + 1) // 2)
    ks.pop()  # k = 1: the reductions mod p
    while ks:
        q = p ** ks.pop()
        e = [(x - y) % q for x, y in zip(f, _mul(g, h))]
        g = [(x + y) % q for x, y in zip(g, _rem(_mul(t, e), g, q))] + [1]
        h = [(x + y) % q for x, y in zip(h, _rem(_mul(s, e), h, q))] + [1]
        if ks:
            b = [x + y for x, y in zip(_mul(s, g), _mul(t, h))]
            b[0] -= 1
            s = [(x - y) % q for x, y in zip(s, _rem(_mul(s, b), h, q))]
            t = [(x - y) % q for x, y in zip(t, _rem(_mul(t, b), g, q))]
    return Poly(g[::-1]), Poly(h[::-1])


def _bezout_mod_p(g, h, p):
    """(s, t) with s g + t h = 1 mod p, as lists of deg h and deg g int
    coefficients, for monic int lists g and h; None when they share a factor
    mod p.  The extended Euclidean algorithm, one leading term at a time."""
    a, b = [g, [1], []], [h, [], [1]]  # each [r, s, t] with s g + t h = r mod p
    while b[0]:
        inv = pow(b[0][-1], -1, p)
        while len(a[0]) >= len(b[0]):
            c, k = a[0][-1] * inv, len(a[0]) - len(b[0])
            a = [_sub_mod(x, [0] * k + [c * y for y in z], p) for x, z in zip(a, b)]
        a, b = b, a
    r, s, t = a
    if len(r) != 1:
        return None
    c = pow(r[0], -1, p)
    s = [x * c % p for x in s] + [0] * len(h)
    t = [x * c % p for x in t] + [0] * len(g)
    return s[: len(h) - 1], t[: len(g) - 1]


def _sub_mod(a, b, p):
    """a - b mod p for int lists, without trailing zeros."""
    n = max(len(a), len(b))
    out = [(x - y) % p for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]
    while out and not out[-1]:
        out.pop()
    return out


def _mul(a, b):
    """The product of two int coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _rem(a, g, q):
    """The remainder of the int list a (at least as long as g) by the monic g,
    mod q: deg g coefficients."""
    a, n = list(a), len(g) - 1
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] % q
        if c:
            for j in range(n):
                a[i - n + j] -= c * g[j]
    return [x % q for x in a[:n]]


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
    """Splitting into the slope <= h part and its polynomial complement.

    The bases are integer vectors (each kernel vector scaled by the lcm of its
    denominators); ``projector`` is the rational projector onto the first
    summand along the second."""

    def __init__(
        self,
        q_part_basis: list[list[int]],
        complement_basis: list[list[int]],
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
    are U-stable and their dimensions are m and n - m.  The projector checks
    run on Pi = D b(U) St(U), which is an integer matrix when U is one.
    Requires the slope factorization to land exactly (rational coefficients);
    otherwise SlopePrecisionError names why: the series is not p-integral, so
    no exact factor was sought, or the factor is not rational.
    """
    if not U.is_square():
        raise ValueError("matrix must be square")
    n = U.nrows
    h = Fraction(h)
    P = fredholm_series(U)
    fact = slope_factorization(P, h, p, precision)
    if not fact.exact:
        # the exact snap is tried only on a p-integral series
        cause = (
            f"series det(1 - T U) is not {p}-integral, so no exact slope factor was sought"
            if _valuation(P, p) < 0
            else "slope factor is not rational at this height"
        )
        raise SlopePrecisionError(f"{cause}; exact splitting unavailable")
    d = P.degree
    m = fact.Q.degree
    qt = fact.Q.reverse(m)
    # complement factor of the characteristic polynomial: x^(n-d) * reversed S
    st_full = Poly([0] * (n - d) + list(fact.S.reverse(d - m).coeffs))
    qt_U = qt.at_matrix(U)
    st_U = st_full.at_matrix(U)
    q_part = _integer_kernel(qt_U)
    complement = _integer_kernel(st_U)
    # xgcd returns a monic g, so a coprime pair gives a*qt + b*st = 1 exactly,
    # and Pi = (D b)(U) St(U) is D times the projector
    g, _, b = xgcd(qt, st_full)
    if g.degree != 0:
        raise SlopePrecisionError("factors of the characteristic polynomial not coprime")
    D = lcm(*(c.denominator for c in b.coeffs))
    pi = (b * D).at_matrix(U) @ st_U
    checks = {
        "q_dim_matches_polygon": len(q_part) == m,
        "dims_sum": len(q_part) + len(complement) == n,
        "qt_annihilates_q_part": all(
            all(x == 0 for x in qt_U.apply(v)) for v in q_part
        ),
        "qt_invertible_on_complement": _invertible_on(qt_U, complement),
        "projector_idempotent": pi @ pi == pi.scale(D),
        "projector_commutes": pi @ U == U @ pi,
        "projector_fixes_q_part": all(
            pi.apply(v) == [D * x for x in v] for v in q_part
        ),
        "projector_kills_complement": all(
            all(x == 0 for x in pi.apply(v)) for v in complement
        ),
        "u_stable_q_part": _stable_under(U, q_part),
        "u_stable_complement": _stable_under(U, complement),
    }
    projector = Matrix._wrap([[QQ.div(x, D) for x in row] for row in pi.rows], QQ, n)
    return SlopeDecomposition(
        q_part, complement, projector, fact, P, {"ok": all(checks.values()), **checks}
    )


def _integer_kernel(op: Matrix) -> list[list[int]]:
    """``kernel_basis`` with each vector scaled by the lcm of its denominators:
    the same span, on ints."""
    out = []
    for v in op.kernel_basis():
        d = lcm(*(x.denominator for x in v))
        out.append([x.numerator * (d // x.denominator) for x in v])
    return out


def _stable_under(op: Matrix, basis) -> bool:
    """Whether op maps the span of the independent vectors ``basis`` into itself."""
    return Matrix(basis + [op.apply(v) for v in basis]).rank() == len(basis)


def _invertible_on(op: Matrix, basis) -> bool:
    """Whether op maps the span of the independent vectors ``basis`` onto itself."""
    images = [op.apply(v) for v in basis]
    return Matrix(images).rank() == len(basis) == Matrix(basis + images).rank()
