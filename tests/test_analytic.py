import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from u3local.analytic import (
    Character,
    _unit_group_generators,
    ModelSizeError,
    Weight,
    _substitute_z21,
    central_weight_test,
    ihara_rank_test,
    make_model,
    torus_rigidity_check,
    torus_rigidity_witness,
    unit_group_generators,
)

from .oracles import ihara_rank_per_block, mult_order_walk

Z21 = (1, 0, 0)
ONE = (0, 0, 0)


def rand_poly(rng, degree_bound=4, terms=4):
    monos = [
        (i, j, k)
        for i in range(degree_bound + 1)
        for j in range(degree_bound + 1 - i)
        for k in range(degree_bound + 1 - i - j)
    ]
    return {m: Fraction(rng.randint(-5, 5)) for m in rng.sample(monos, terms)}


def nonzero(poly):
    return {m: c for m, c in poly.items() if c}


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

    def test_shape_refused(self):
        with pytest.raises(ValueError):
            make_model(4, 1, 2)  # not prime
        with pytest.raises(ValueError):
            make_model(2, 0, 2)
        with pytest.raises(ValueError):
            make_model(2, 1, -1)


class TestTranslateAction:
    # inside one ball the translation by delta is the substitution Z21 -> Z21 + delta
    def test_within_ball_linear(self):
        out = _substitute_z21({Z21: Fraction(1)}, Fraction(1))
        assert out == {Z21: 1, ONE: 1}

    def test_within_ball_square(self):
        out = _substitute_z21({(2, 0, 0): Fraction(1)}, Fraction(1))
        assert out == {(2, 0, 0): 1, Z21: 2, ONE: 1}

    def test_constant_unchanged(self):
        f = {ONE: Fraction(7), (0, 2, 1): Fraction(-3)}
        assert _substitute_z21(f, Fraction(5, 3)) == f

    def test_group_law(self):
        rng = random.Random(7)
        for _ in range(20):
            f = rand_poly(rng)
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            lhs = _substitute_z21(_substitute_z21(f, a), b)
            assert lhs == _substitute_z21(f, a + b)
            assert _substitute_z21(f, Fraction(0)) == nonzero(f)


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
        delta = Fraction(3)
        diff = _substitute_z21({(2, 1, 0): Fraction(1)}, delta)
        diff[(2, 1, 0)] -= 1
        assert diff[(1, 1, 0)] == 2 * delta
        assert all(sum(m) <= 3 for m, c in diff.items() if c)


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

    @pytest.mark.parametrize("p,k", [(2, 4), (2, 5), (3, 3), (5, 2), (7, 2), (11, 1)])
    def test_generators_generate_the_units(self, p, k):
        q = p**k
        subgroup = {1}
        for g, order in unit_group_generators(p, k):
            assert pow(g, order, q) == 1
            divisors = [r for r in range(2, order + 1) if order % r == 0]
            assert all(pow(g, order // r, q) != 1 for r in divisors)
            subgroup = {x * pow(g, e, q) % q for x in subgroup for e in range(order)}
        assert subgroup == {u for u in range(1, q) if u % p}

    @given(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]), st.integers(1, 3))
    def test_generator_is_the_least_by_the_order_walk(self, p, k):
        # the prime-factor test picks the same smallest generator as walking powers
        q = p**k
        ((g, order),) = _unit_group_generators(p, k)
        assert mult_order_walk(g, q) == order == (p - 1) * p ** (k - 1)
        assert all(mult_order_walk(h, q) < order for h in range(2, g) if h % p)

    def test_generator_mod_a_square_needs_the_p_part(self):
        # 5 is the least primitive root mod 40487, but 5^40486 = 1 mod 40487^2,
        # so the generator mod the square must also pass the test at r = p
        p = 40487
        assert _unit_group_generators(p, 1) == ((5, p - 1),)
        assert pow(5, p - 1, p * p) == 1
        assert _unit_group_generators(p, 2) == ((10, (p - 1) * p),)

    def test_normalization_from_generator_order(self):
        # exponents are read modulo the order of their generator
        assert Character(2, 3, (3, 5)) == Character(2, 3, (1, 1))
        assert Character(3, 2, (-1,)) == Character(3, 2, (5,))

    def test_wrong_exponent_count_rejected(self):
        with pytest.raises(ValueError):
            Character(3, 2, (1, 1))
        with pytest.raises(ValueError):
            Character(2, 3, (1,))

    def test_levels_must_agree(self):
        chi = Character(3, 2, (1,))
        other = Character(3, 1, (1,))
        with pytest.raises(ValueError):
            chi.ratio(other)
        with pytest.raises(ValueError):
            Weight(chi, chi, other)
        assert chi.ratio(Character(3, 2, (4,))) == Character(3, 2, (3,))

    def test_central_weight(self):
        chi = Character(3, 2, (2,))
        other = Character(3, 2, (1,))
        assert central_weight_test(Weight(chi, chi, chi))
        assert not central_weight_test(Weight(chi, chi, other))

    def test_trivial_vs_tame(self):
        triv = Character(3, 2, (0,))
        tame = Character(3, 2, (3,))  # order-2 character: exponent 3 of 6
        assert not central_weight_test(Weight(triv, triv, tame))

    def test_rigidity(self):
        chi = Character(3, 2, (1,))
        triv = Character(3, 2, (0,))
        w = Weight(chi, triv, triv)
        assert torus_rigidity_check(w)
        t = torus_rigidity_witness(w)
        assert t is not None
        assert torus_rigidity_witness(Weight(chi, chi, triv)) is None
        assert torus_rigidity_check(Weight(chi, chi, chi))

    def test_rigidity_order_two(self):
        chi = Character(3, 2, (3,))  # exact order 2
        w = Weight(chi, Character(3, 2, (0,)), chi)
        assert torus_rigidity_check(w) and torus_rigidity_witness(w) is not None

