"""p-adic slope machinery at matrix scale.

The characteristic series det(1 - T U) of a square matrix plays the role of
the Fredholm series.  It is the characteristic polynomial of U, from one
Hessenberg reduction, with its coefficients reversed.  Its Newton polygon at
p reads off the valuations of the eigenvalues of U (one slope per eigenvalue,
counted with multiplicity).  For a slope bound h the series factors as
P = Q S with Q(0) = 1 and Q collecting exactly the reciprocal roots of
valuation <= h.  The split runs on P1(T) = P(p^k T), with the least k >= 0
that makes P1 p-integral (a denominator prime to p included), on its int
residues mod p^work, work = precision + RECONSTRUCTION_MARGIN + k d, since
T -> T/p^k costs up to k d digits.  A split coprime mod p (the slope-0 part
from the positive slopes) is Hensel-lifted (``_hensel_lift``); every other
runs the master factorization iteration (``_master_factor``), whose step
count is known before it starts; neither solves a linear system.  When the
true factor has rational coefficients of moderate height, the residues of
Q(p^k T) are snapped to it by rational reconstruction and the snap is checked
by exact division of P, so everything downstream is exact; otherwise the
factors are reported modulo p^precision.

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
from math import ceil, floor, lcm

from .linalg import QQ, Matrix, rational_reconstruction
from .poly import Poly, xgcd
from .scalars import INF, int_valuation, require_prime, within_budget


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
        """The least v_p of a nonzero coefficient of P - Q S; INF when it is 0."""
        E = P - self.Q * self.S
        return min((_coeff_valuation(c, self.p) for c in E.coeffs if c), default=INF)


def _coeff_valuation(c, p: int):
    """v_p of a coefficient (an int or a Fraction); INF for zero.  The callers
    have checked that p is prime."""
    if type(c) is int:
        return int_valuation(c, p)
    return int_valuation(c.numerator, p) - int_valuation(c.denominator, p)


def slope_factorization(
    P: Poly, h, p: int, precision: int = 20, budget: int | None = None
) -> SlopeFactorization:
    """Split off the slope <= h part of P (constant term 1) at the prime p;
    past ``budget`` (None: no bound) a ValueError refuses the split unstarted."""
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

    # T -> p^k T adds k to every slope, and v_p(a_i) >= i * (first slope), so
    # k = max(0, max_i -floor(v_p(a_i) / i)) makes P1 p-integral; T -> T / p^k
    # costs coefficient i of a factor k i digits, so k d more are worked
    k = max(0, -floor(polygon.segments[0][0]))
    work = precision + RECONSTRUCTION_MARGIN + k * d
    words = -(-work * p.bit_length() // 64)
    # a lift step costs about d^2 products of numbers of such words, bounded
    # by d^3 words^2; the master route books its steps itself
    within_budget(d**3 * words**2, budget, f"precision {precision} mod {p} at degree {d}")
    P1 = _scaled(P, p**k) if k else P
    Q = P1.truncate(m + 1)
    S = (P1 * Q.series_inverse(d - m + 1)).truncate(d - m + 1)
    lifted = _hensel_lift(P1, Q, S, m, p, work)
    if lifted is None:
        s = max(slope for slope, _ in polygon.segments if slope <= h) + k
        t = min(slope for slope, _ in polygon.segments if slope > h) + k
        lifted = _master_factor(P1, m, s, t, p, work, budget)
    Q1, S1 = lifted

    exact = _try_exact_snap(P, Q1, k, h, p, work)
    if exact is not None:
        return exact
    # P1 = Q1 S1 mod p^(precision + k d) leaves P - Q S of valuation >= precision
    q = p ** (precision + k * d)
    Q, S = (_scaled(Poly([c % q for c in F.coeffs]), Fraction(1, p**k)) for F in (Q1, S1))
    fact = SlopeFactorization(Q, S, h, m, p, precision, exact=False)
    if fact.residual_valuation(P) < precision:
        raise SlopePrecisionError("could not certify the factorization mod p^precision")
    if any(s > h for s in newton_polygon(Q, p).slopes()):
        raise SlopePrecisionError("low factor carries a slope above the bound")
    return fact


def _scaled(f: Poly, r) -> Poly:
    """f(r T)."""
    return Poly([c * r**i for i, c in enumerate(f.coeffs)])


def _master_factor(P1, m, s, t, p, work, budget):
    """The residues mod p^work of the factors Q (slopes <= s, Q(0) = 1) and S
    of a p-integral P1 whose polygon breaks at m between the slopes s < t, by
    the master factorization iteration (Kedlaya, p-adic Differential
    Equations, CUP 2010, ch. 2) in the Gauss norm w(f) = min_i v_p(f_i) - s i.
    Q's top term a_m = p^y u attains w(Q) = y - s m, and w(S - 1) >= t - s.
    E = P1 - Q S = A Q + B with deg B < m gives Q + B and S + A, whose error
    -B (S - 1) - A B is at least t - s higher in w while w(E) >= w(Q) + t - s,
    as it is from Q = P1 mod T^(m+1) and S = 1 on; so the steps are bounded
    before the loop.  Any norm w_c with s <= c < t would do, and c = s takes
    the fewest steps at the least modulus, neither growing with t.  It stops
    at w(E) >= work, not v_p(E) >= work: Q's later corrections are as small as
    w(E) + s i in degree i.  The ints are kept mod p^M, M = work + ceil(s d),
    which moves E by at least work in w; each leading coefficient of the
    division is A_j a_m with v_p(A_j) >= t - s + s j >= 0, so a_m is divided
    on ints, its y digits lost to A but not to the product A Q."""
    d = P1.degree
    M = work + ceil(s * d)
    q = p**M
    f = list(_residues(P1, p, M).coeffs)
    f += [0] * (d + 1 - len(f))  # a top coefficient may vanish mod p^M
    y = int_valuation(f[m], p)
    steps = ceil((work - y + s * m) / (t - s))
    words = -(-M * p.bit_length() // 64)
    within_budget(steps * 2 * d * d * words**2, budget,
                  f"{steps} steps of the master factorization mod {p}^{M} at degree {d}")
    py = p**y
    inv = pow(f[m] // py, -1, q)
    # w(E) >= work: p^ceil(work + s i) divides E_i in every degree i
    moduli = [p ** ceil(work + s * i) for i in range(d + 1)]
    Q, S = f[: m + 1], [1] + [0] * (d - m)
    for _ in range(steps + 1):
        E = [x - z for x, z in zip(f, _mul(Q, S))]
        if not any(e % r for e, r in zip(E, moduli)):
            break
        A, B = _divmod(E, Q, q, py, inv)
        Q = [(x + z) % q for x, z in zip(Q, B + [0])]
        S = [(x + z) % q for x, z in zip(S, A)]
    else:
        raise SlopePrecisionError(f"the master iteration did not reach {p}^{work} in {steps} steps")
    u = Q[0]  # a unit: Q(0) = 1 mod p all along
    w = pow(u, -1, q)
    return Poly([x * w % q for x in Q]), Poly([x * u % q for x in S])


def _divmod(e, g, q, py=1, inv=1):
    """(A, B) with e = A g + B mod q and deg B < deg g, for int lists, where g's
    top coefficient is py u with u inv = 1 mod q and every leading coefficient
    the division meets is divisible by py; the defaults divide by a monic g."""
    r, n = list(e), len(g) - 1
    a = [0] * (len(r) - n)
    for j in range(len(r) - 1, n - 1, -1):
        x = r[j] % q // py * inv % q
        if x:  # the top term r[j] - x g[n] vanishes mod q and is not read again
            a[j - n] = x
            for i in range(n):
                r[j - n + i] -= x * g[i]
    return a, [x % q for x in r[:n]]


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
        g = [(x + y) % q for x, y in zip(g, _divmod(_mul(t, e), g, q)[1])] + [1]
        h = [(x + y) % q for x, y in zip(h, _divmod(_mul(s, e), h, q)[1])] + [1]
        if ks:
            b = [x + y for x, y in zip(_mul(s, g), _mul(t, h))]
            b[0] -= 1
            s = [(x - y) % q for x, y in zip(s, _divmod(_mul(s, b), h, q)[1])]
            t = [(x - y) % q for x, y in zip(t, _divmod(_mul(t, b), g, q)[1])]
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


def _residues(f: Poly, p: int, k: int) -> Poly:
    """The p-integral f with each coefficient replaced by its int
    representative mod p^k."""
    q = p**k
    return Poly([c.numerator * pow(c.denominator, -1, q) % q for c in f.coeffs])


def _try_exact_snap(P, Q1, k, h, p, work):
    """Reconstruct a rational candidate for Q(p^k T) from its residues Q1 mod
    p^work and verify that the Q it gives divides P exactly."""
    cand = [1] + [rational_reconstruction(rep, p**work) for rep in Q1.coeffs[1:]]
    if None in cand:
        return None
    Qe = _scaled(Poly(cand), Fraction(1, p**k)) if k else Poly(cand)
    quo, rem = P.divmod(Qe)
    # m slopes of Qe at most h leave the d - m of P / Qe above it
    if Qe.degree != Q1.degree or not rem.is_zero():
        return None
    if max(newton_polygon(Qe, p).slopes()) > h:
        return None
    return SlopeFactorization(Qe, quo, h, Qe.degree, p, None, exact=True)


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


def slope_decomposition(
    U: Matrix, h, p: int, precision: int = 20, budget: int | None = None
) -> SlopeDecomposition:
    """Split the space into ker Qt(U) and its complement, with a Bezout projector.

    Qt(U) vanishes on the first summand and is invertible on the second; both
    are U-stable and their dimensions are m and n - m.  The projector checks
    run on Pi = D b(U) St(U), which is an integer matrix when U is one.
    Requires the slope factorization (``budget`` as there) to land exactly;
    otherwise SlopePrecisionError says that the factor is not rational.
    """
    if not U.is_square():
        raise ValueError("matrix must be square")
    n = U.nrows
    h = Fraction(h)
    P = fredholm_series(U)
    fact = slope_factorization(P, h, p, precision, budget)
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
