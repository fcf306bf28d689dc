import math
import random
from fractions import Fraction

import pytest

from u3local.analytic import (
    AnalyticVector,
    Character,
    DualVector,
    ModelSizeError,
    ShiftError,
    Weight,
    central_weight_test,
    dual_pairing,
    ihara_rank_test,
    make_model,
    torus_rigidity_check,
    torus_rigidity_witness,
    translate_action,
    translate_dual,
    unit_group_generators,
)

from .oracles import ihara_rank_per_block


@pytest.fixture(scope="module")
def model21():
    return make_model(2, 1, 4)


@pytest.fixture(scope="module")
def model31():
    return make_model(3, 1, 2)


Z21, Z31, Z32 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
ONE = (0, 0, 0)


def rand_vector(model, rng, support_balls=3):
    balls = list(model.balls())
    out = {}
    for ball in rng.sample(balls, min(support_balls, len(balls))):
        poly = {}
        for mono in rng.sample(model.monomials(), 3):
            poly[mono] = Fraction(rng.randint(-5, 5))
        out[ball] = poly
    return AnalyticVector(model, out)


class TestModel:
    def test_ball_counts(self):
        assert make_model(2, 1, 4).n_balls == 8
        assert make_model(3, 1, 2).n_balls == 27
        assert make_model(2, 2, 1).n_balls == 64

    def test_budget(self):
        with pytest.raises(ModelSizeError):
            make_model(5, 3, 1, budget=1000)

    def test_budget_refuses_a_huge_radius_exponent(self, deadline):
        # the ball count 2^(3 * 10^12) is never formed
        with deadline(5):
            with pytest.raises(ModelSizeError, match=r"2\^3000000000000 balls"):
                make_model(2, 10**12, 0)

    def test_monomial_count(self, model21):
        d = model21.degree_bound
        assert len(model21.monomials()) == math.comb(d + 3, 3)


class TestTranslateAction:
    def test_within_ball_linear(self, model21):
        f = AnalyticVector.monomial(model21, (0, 0, 0), Z21)
        out = translate_action(f, Fraction(2))  # a = p, delta = 1
        assert out.coefficient((0, 0, 0), Z21) == 1
        assert out.coefficient((0, 0, 0), ONE) == 1

    def test_within_ball_square(self, model21):
        f = AnalyticVector.monomial(model21, (0, 0, 0), (2, 0, 0))
        out = translate_action(f, Fraction(2))
        assert out.coefficient((0, 0, 0), (2, 0, 0)) == 1
        assert out.coefficient((0, 0, 0), Z21) == 2
        assert out.coefficient((0, 0, 0), ONE) == 1

    def test_constant_unchanged(self, model21):
        f = AnalyticVector.monomial(model21, (1, 0, 1), ONE, 7)
        assert translate_action(f, Fraction(2)) == f

    def test_cross_ball_permutation(self, model21):
        # shift by 1 (valuation 0 < m) moves ball residue 1 to residue 0
        f = AnalyticVector.monomial(model21, (1, 0, 0), Z21)
        out = translate_action(f, Fraction(1))
        assert out.coefficient((0, 0, 0), Z21) == 1
        assert not out.coeffs.get((1, 0, 0))

    def test_cross_ball_with_offset(self, model21):
        # from ball 1, shifting z by 1 lands in ball 0 with Z-offset 1
        f = AnalyticVector.monomial(model21, (0, 0, 0), Z21)
        out = translate_action(f, Fraction(1))
        assert out.coefficient((1, 0, 0), Z21) == 1
        assert out.coefficient((1, 0, 0), ONE) == 1

    def test_malformed_shift(self, model21):
        with pytest.raises(ShiftError):
            translate_action(AnalyticVector(model21), Fraction(1, 2))

    def test_group_law(self, model21, model31):
        rng = random.Random(7)
        for model in (model21, model31):
            p = model.p
            for _ in range(10):
                f = rand_vector(model, rng)
                a = Fraction(rng.randint(0, 3 * p)) / rng.choice([1, 3 if p == 2 else 2])
                b = Fraction(rng.randint(0, 3 * p))
                if a.denominator % p == 0 or b.denominator % p == 0:
                    continue
                lhs = translate_action(translate_action(f, a), b)
                rhs = translate_action(f, a + b)
                assert lhs == rhs


class TestDualPairing:
    def test_monomial_delta(self, model21):
        f = AnalyticVector.monomial(model21, (0, 0, 0), Z21)
        lam = DualVector.monomial(model21, (0, 0, 0), Z21)
        mism = DualVector.monomial(model21, (0, 0, 0), Z31)
        assert dual_pairing(f, lam) == 1
        assert dual_pairing(f, mism) == 0

    def test_linear_combination(self, model21):
        f = AnalyticVector(
            model21, {(0, 0, 0): {Z21: Fraction(1), Z32: Fraction(2)}}
        )
        lam = DualVector(model21, {(0, 0, 0): {Z21: Fraction(3), Z32: Fraction(5)}})
        assert dual_pairing(f, lam) == 13

    def test_model_mismatch(self, model21, model31):
        with pytest.raises(ValueError):
            dual_pairing(AnalyticVector(model21), DualVector(model31))

    def test_duality_convention(self, model21, model31):
        rng = random.Random(11)
        for model in (model21, model31):
            p = model.p
            for _ in range(12):
                f = rand_vector(model, rng)
                lam = DualVector(model, rand_vector(model, rng).coeffs)
                a = Fraction(rng.randint(0, 2 * p * p))
                lhs = dual_pairing(translate_action(f, a), lam)
                rhs = dual_pairing(f, translate_dual(lam, -a))
                assert lhs == rhs


class TestIharaRank:
    @pytest.mark.parametrize("p,m,d", [(2, 1, 3), (3, 1, 5), (2, 1, 0)])
    def test_full_rank(self, p, m, d):
        assert ihara_rank_test(make_model(p, m, d), Fraction(1))

    def test_delta_independence(self):
        model = make_model(2, 1, 3)
        rng = random.Random(13)
        for _ in range(5):
            delta = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
            assert ihara_rank_test(model, delta)

    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError):
            ihara_rank_test(make_model(2, 1, 2), 0)

    @pytest.mark.parametrize("delta", [Fraction(1), Fraction(3), Fraction(-1, 2)])
    @pytest.mark.parametrize("d", range(7))
    def test_one_block_per_side_matches_every_block(self, d, delta):
        assert ihara_rank_test(make_model(2, 1, d), delta) is ihara_rank_per_block(d, delta)

    def test_triangular_structure(self):
        # the difference of a translated monomial has leading term delta * i * Z^(beta - e21)
        model = make_model(2, 1, 4)
        delta = Fraction(3)
        f = AnalyticVector.monomial(model, (0, 0, 0), (2, 1, 0))
        shifted = translate_action(f, Fraction(2) * delta)  # within-ball shift by delta
        diff = shifted - f
        assert diff.coefficient((0, 0, 0), (1, 1, 0)) == 2 * delta
        assert all(sum(m) <= 3 for m in diff.coeffs.get((0, 0, 0), {}))


class TestCharacters:
    def test_generators_odd(self):
        ((g, order),) = unit_group_generators(3, 2)
        assert order == 6
        assert pow(g, 6, 9) == 1 and pow(g, 3, 9) != 1 and pow(g, 2, 9) != 1

    def test_generators_two(self):
        assert unit_group_generators(2, 1) == []
        assert unit_group_generators(2, 2) == [(3, 2)]
        gens = unit_group_generators(2, 3)
        assert gens == [(7, 2), (5, 2)]

    def test_central_weight(self):
        chi = Character(3, 2, (2,))
        other = Character(3, 2, (1,))
        assert central_weight_test(Weight(chi, chi, chi))
        assert not central_weight_test(Weight(chi, chi, other))

    def test_trivial_vs_tame(self):
        triv = Character.trivial(3, 2)
        tame = Character(3, 2, (3,))  # order-2 character: exponent 3 of 6
        assert not central_weight_test(Weight(triv, triv, tame))

    def test_normalization_from_generator_order(self):
        # same character handed over with the generators listed in either order
        a = Character.from_generator_images(2, 3, [(7, 1), (5, 1)])
        b = Character.from_generator_images(2, 3, [(5, 1), (7, 1)])
        assert a == b == Character(2, 3, (1, 1))

    def test_from_images_nonstandard_generators(self):
        # 2 generates the units mod 9; reading the exponent back off the
        # canonical primitive root gives the same character
        chi = Character.from_generator_images(3, 2, [(2, 1)])
        g, order = unit_group_generators(3, 2)[0]
        assert pow(2, _dlog(g, 2, 9), 9) == g
        assert chi == Character(3, 2, (_dlog(g, 2, 9) % order,))

    def test_inconsistent_images_rejected(self):
        with pytest.raises(ValueError):
            # -1 has order 2 mod 9 is false (order of 8 is 2), but exponent 1 on
            # a non-generating set must be rejected
            Character.from_generator_images(3, 2, [(8, 1)])

    def test_rigidity(self):
        chi = Character(3, 2, (1,))
        triv = Character.trivial(3, 2)
        w = Weight(chi, triv, triv)
        assert torus_rigidity_check(w)
        t = torus_rigidity_witness(w)
        assert t is not None
        assert torus_rigidity_witness(Weight(chi, chi, triv)) is None
        assert torus_rigidity_check(Weight(chi, chi, chi))

    def test_rigidity_order_two(self):
        chi = Character(3, 2, (3,))  # exact order 2
        w = Weight(chi, Character.trivial(3, 2), chi)
        assert torus_rigidity_check(w) and torus_rigidity_witness(w) is not None


def _dlog(target, base, q):
    x = 1
    for k in range(q):
        if x == target % q:
            return k
        x = x * base % q
    raise AssertionError("no discrete log")
