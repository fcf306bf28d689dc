"""Truncated model of the locally analytic induced module and its dual.

The model fixes three lower-triangular coordinates Z21, Z31, Z32.  A vector
assigns to each of the p^(3m) residue balls a polynomial of total degree <= D
with exact rational coefficients.  The translation action of the root
direction shifts the 21-coordinate: within a ball it is the substitution
Z21 -> Z21 + delta with delta = a / p^m, across balls it permutes ball indices
and substitutes the leftover integral offset.  The dual carries the transpose
action, and the pairing is the coefficientwise sum of products.

The rank test realizes the triangular induction that kills abelian dual
vectors: differences T(Z^beta) - Z^beta for beta of degree <= D+1 with a
positive 21-exponent span the whole degree <= D space, exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import Matrix
from .scalars import padic_valuation, rational_mod_prime_power, require_prime

DEFAULT_BALL_BUDGET = 32768


class ModelSizeError(ValueError):
    """The requested ball count exceeds the budget."""


class ShiftError(ValueError):
    """The shift is not p-integral, so it does not act on the model."""


@dataclass(frozen=True)
class AnalyticModel:
    """Shape data: prime p, radius exponent m (r = p^-m), degree bound D."""

    p: int
    m: int
    degree_bound: int

    def __post_init__(self):
        require_prime(self.p)
        if self.m < 1 or self.degree_bound < 0:
            raise ValueError("need m >= 1 and a nonnegative degree bound")

    @property
    def ball_side(self) -> int:
        return self.p**self.m

    @property
    def n_balls(self) -> int:
        return self.ball_side**3

    def balls(self):
        side = self.ball_side
        for c21 in range(side):
            for c31 in range(side):
                for c32 in range(side):
                    yield (c21, c31, c32)

    def monomials(self, bound=None):
        d = self.degree_bound if bound is None else bound
        return [
            (i, j, k)
            for i in range(d + 1)
            for j in range(d + 1 - i)
            for k in range(d + 1 - i - j)
        ]


def make_model(p: int, m: int, degree_bound: int, budget: int = DEFAULT_BALL_BUDGET):
    model = AnalyticModel(p, m, degree_bound)
    # p >= 2: past the budget's bit length, 3m is past the budget without the power
    if 3 * m > budget.bit_length() or model.n_balls > budget:
        raise ModelSizeError(f"{p}^{3 * m} balls exceed the budget {budget}")
    return model


@dataclass
class AnalyticVector:
    """Per-ball polynomials in Z21, Z31, Z32 of total degree <= the model bound."""

    model: AnalyticModel
    coeffs: dict = field(default_factory=dict)  # ball -> {(i,j,k): Fraction}

    def __post_init__(self):
        clean = {}
        for ball, poly in self.coeffs.items():
            entry = {}
            for mono, c in poly.items():
                c = Fraction(c)
                if sum(mono) > self.model.degree_bound:
                    raise ValueError(f"monomial {mono} exceeds the degree bound")
                if c:
                    entry[tuple(mono)] = c
            if entry:
                clean[tuple(ball)] = entry
        self.coeffs = clean

    @classmethod
    def monomial(cls, model, ball, mono, coeff=1):
        return cls(model, {tuple(ball): {tuple(mono): Fraction(coeff)}})

    def coefficient(self, ball, mono) -> Fraction:
        return self.coeffs.get(tuple(ball), {}).get(tuple(mono), Fraction(0))

    def __add__(self, other):
        if self.model != other.model:
            raise ValueError("model mismatch")
        out = {b: dict(p) for b, p in self.coeffs.items()}
        for b, poly in other.coeffs.items():
            tgt = out.setdefault(b, {})
            for mono, c in poly.items():
                tgt[mono] = tgt.get(mono, Fraction(0)) + c
        return AnalyticVector(self.model, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return AnalyticVector(
            self.model,
            {b: {m: c * x for m, x in poly.items()} for b, poly in self.coeffs.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, AnalyticVector)
            and self.model == other.model
            and self.coeffs == other.coeffs
        )


class DualVector(AnalyticVector):
    """Same shape as AnalyticVector; pairs coefficientwise."""


def _shift_data(model: AnalyticModel, a: Fraction):
    """Per-ball routing for the shift a: ball c draws from ball sigma(c) with a
    p-integral leftover offset delta(c)."""
    a = Fraction(a)
    if a != 0 and padic_valuation(a, model.p) < 0:
        raise ShiftError(f"shift {a} is not p-integral")
    side = model.ball_side
    a_res = rational_mod_prime_power(a, model.p, model.m) if a else 0
    routing = {}
    for c21 in range(side):
        src = (c21 + a_res) % side
        delta = (Fraction(c21) + a - src) / side
        routing[c21] = (src, delta)
    return routing


def _substitute_z21(poly: dict, delta: Fraction) -> dict:
    """Z21 -> Z21 + delta on a single-ball polynomial."""
    if delta == 0:
        return dict(poly)
    out = {}
    for (i, j, k), c in poly.items():
        for t in range(i + 1):
            add = c * math.comb(i, t) * delta ** (i - t)
            if add:
                key = (t, j, k)
                out[key] = out.get(key, Fraction(0)) + add
    return {m: c for m, c in out.items() if c}


def translate_action(f: AnalyticVector, a) -> AnalyticVector:
    """Action of the root-direction shift by a on analytic vectors.

    Within-ball (v_p(a) >= m) this is the pure substitution Z21 -> Z21 + a/p^m;
    smaller positive valuations also permute the ball indices.  No character
    factor appears: lower unipotent times lower unipotent stays lower unipotent.
    """
    routing = _shift_data(f.model, Fraction(a))
    out = {}
    for ball in f.model.balls():
        src21, delta = routing[ball[0]]
        src_ball = (src21, ball[1], ball[2])
        poly = f.coeffs.get(src_ball)
        if poly:
            moved = _substitute_z21(poly, delta)
            if moved:
                out[ball] = moved
    return AnalyticVector(f.model, out)


def translate_dual(lam: DualVector, a) -> DualVector:
    """Dual action: the adjoint of translate_action(., -a), so that

        <f . shift(a), lam> = <f, lam . shift(-a)>

    holds on the nose (the usual inverse-on-the-dual convention)."""
    routing = _shift_data(lam.model, -Fraction(a))
    out = {}
    for ball, mu in lam.coeffs.items():
        src21, delta = routing[ball[0]]
        target = (src21, ball[1], ball[2])
        tgt = out.setdefault(target, {})
        # transpose of the substitution: row (i,j,k) collects C(i,t) delta^(i-t) mu[(t,j,k)]
        for (i, j, k) in lam.model.monomials():
            total = Fraction(0)
            for t in range(i + 1):
                c = mu.get((t, j, k))
                if c:
                    total += math.comb(i, t) * delta ** (i - t) * c
            if total:
                tgt[(i, j, k)] = tgt.get((i, j, k), Fraction(0)) + total
    return DualVector(lam.model, out)


def dual_pairing(f: AnalyticVector, lam: DualVector) -> Fraction:
    """Ball-by-ball, coefficientwise sum of products."""
    if f.model != lam.model:
        raise ValueError("model mismatch")
    total = Fraction(0)
    for ball, poly in f.coeffs.items():
        mu = lam.coeffs.get(ball)
        if mu:
            for mono, c in poly.items():
                y = mu.get(mono)
                if y:
                    total += c * y
    return total


def ihara_rank_test(model: AnalyticModel, delta) -> bool:
    """Differences of translated monomials span the whole truncated space.

    Working inside one ball, form T(Z^beta) - Z^beta for all monomials of
    total degree <= D+1 with 21-exponent >= 1, where T substitutes
    Z21 + delta.  Each difference lands in degree <= D and keeps the Z31, Z32
    exponents (j, k) of beta, so the differences form square blocks by (j, k)
    of side D+1-j-k; they span the truncated space exactly when every block
    has full rank.  Row i of a block is C(i, t) delta^(i-t) whatever j and k
    are, so one block per side n = 1..D+1 is ranked, the one at k = 0.  True
    for every nonzero delta over the rationals.
    """
    delta = Fraction(delta)
    if delta == 0:
        raise ValueError("delta must be nonzero")
    d = model.degree_bound
    for side in range(1, d + 2):
        j = d + 1 - side
        rows = [[0] * side for _ in range(side)]
        for i in range(1, side + 1):
            diff = _substitute_z21({(i, j, 0): Fraction(1)}, delta)
            diff[(i, j, 0)] -= 1
            for (t, jj, kk), c in diff.items():
                if c:
                    assert (jj, kk) == (j, 0) and t < side, "difference left its block"
                    rows[i - 1][t] = c
        if Matrix(rows).rank() < side:
            return False
    return True


# ---------------------------------------------------------------------------
# weights: triples of characters of the truncated unit group
# ---------------------------------------------------------------------------


def unit_group_generators(p: int, k: int) -> list[tuple[int, int]]:
    """Canonical generators (value, order) of the units mod p^k."""
    require_prime(p)
    if k < 1:
        raise ValueError("level must be >= 1")
    return list(_unit_group_generators(p, k))


@functools.cache
def _unit_group_generators(p: int, k: int) -> tuple[tuple[int, int], ...]:
    # every Character built at (p, k) asks again, so the search runs once
    q = p**k
    if p == 2:
        if k == 1:
            return ()
        if k == 2:
            return ((3, 2),)
        return ((q - 1, 2), (5, 2 ** (k - 2)))
    order = (p - 1) * p ** (k - 1)
    for g in range(2, q):
        if math.gcd(g, p) == 1 and _mult_order(g, q) == order:
            return ((g, order),)
    raise RuntimeError("no primitive root found")


def _mult_order(g: int, q: int) -> int:
    x = g % q
    n = 1
    while x != 1:
        x = x * g % q
        n += 1
    return n


@dataclass(frozen=True)
class Character:
    """Character of the units mod p^k, stored by exponents at canonical generators.

    The value at generator g_i of order n_i is the n_i-th root of unity with
    exponent exps[i]; comparisons and ratios happen at the exponent level.
    """

    p: int
    k: int
    exps: tuple[int, ...]

    def __post_init__(self):
        gens = unit_group_generators(self.p, self.k)
        if len(self.exps) != len(gens):
            raise ValueError(f"need {len(gens)} exponents for p={self.p}, k={self.k}")
        object.__setattr__(
            self, "exps", tuple(e % order for e, (_, order) in zip(self.exps, gens))
        )

    @classmethod
    def trivial(cls, p, k):
        return cls(p, k, tuple(0 for _ in unit_group_generators(p, k)))

    @classmethod
    def from_generator_images(cls, p, k, images):
        """Build from (generator value, exponent) pairs in any order.

        The generators may be any family that generates the unit group; the
        exponent for a generator g is read against a root of unity of order
        equal to the multiplicative order of g.  Inconsistent or
        non-generating data is rejected.
        """
        q = p**k
        group_order = q // p * (p - 1)
        canonical = unit_group_generators(p, k)
        exponent = math.lcm(*(order for _, order in canonical))
        # chi(x) as an exponent of a primitive `exponent`-th root of unity
        value = {1 % q: 0}
        frontier = [1 % q]
        gens = []
        for g, e in images:
            g %= q
            if math.gcd(g, q) != 1:
                raise ValueError(f"{g} is not a unit mod {q}")
            n = _mult_order(g, q)  # divides the group exponent
            gens.append((g, (e % n) * (exponent // n)))
        while frontier:
            x = frontier.pop()
            for g, step in gens:
                y = x * g % q
                val = (value[x] + step) % exponent
                if y in value:
                    if value[y] != val:
                        raise ValueError("images are inconsistent with a character")
                else:
                    value[y] = val
                    frontier.append(y)
        if len(value) != group_order:
            raise ValueError("given elements do not generate the unit group")
        exps = []
        for g, order in canonical:
            t = value[g % q]
            assert t * order % exponent == 0
            exps.append(t * order // exponent)
        return cls(p, k, tuple(exps))

    def is_trivial(self):
        return all(e == 0 for e in self.exps)

    def ratio(self, other: "Character") -> "Character":
        if (self.p, self.k) != (other.p, other.k):
            raise ValueError("characters live at different levels")
        return Character(
            self.p, self.k, tuple(a - b for a, b in zip(self.exps, other.exps))
        )


@dataclass(frozen=True)
class Weight:
    """A triple of characters of the truncated unit group."""

    chi1: Character
    chi2: Character
    chi3: Character

    def __post_init__(self):
        keys = {(c.p, c.k) for c in (self.chi1, self.chi2, self.chi3)}
        if len(keys) != 1:
            raise ValueError("all three characters must share p and level")


def central_weight_test(w: Weight) -> bool:
    """True iff the three characters coincide."""
    return w.chi1 == w.chi2 == w.chi3


def torus_rigidity_witness(w: Weight):
    """A unit t with chi1(t) != chi2(t), or None when chi1 = chi2.

    Any such t forces a scalar fixed by all the ratio values to vanish.
    """
    ratio = w.chi1.ratio(w.chi2)
    if ratio.is_trivial():
        return None
    p, k = ratio.p, ratio.k
    q = p**k
    gens = unit_group_generators(p, k)
    # scan the group for a witness (it exists: some generator has nonzero exponent)
    for idx, (g, order) in enumerate(gens):
        if ratio.exps[idx] % order != 0:
            return g % q
    raise AssertionError("nontrivial ratio without a witness generator")


def torus_rigidity_check(w: Weight) -> bool:
    """Nontrivial chi1/chi2 forces the fixed scalar space to be zero.

    Vacuously true for central pairs; otherwise verified by producing a unit
    whose ratio value is a nontrivial root of unity.
    """
    ratio = w.chi1.ratio(w.chi2)
    if ratio.is_trivial():
        return True
    return torus_rigidity_witness(w) is not None
