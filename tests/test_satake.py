import random
from fractions import Fraction

import pytest

from u3local import satake
from u3local.linalg import Matrix
from u3local.satake import (
    PrincipalSeries,
    SatakeParam,
    SplitEigensystem,
    classify_principal_series,
    deg_inert_Tl,
    gaussian_binomial,
    level_raising_condition,
    spherical_eigenvalue,
    very_eisenstein_check,
)
from u3local.tree import TreeBall

from .oracles import count_subspaces_brute, count_subspaces_echelon


class TestGaussianBinomial:
    def test_projective_line_of_planes(self):
        assert gaussian_binomial(3, 1, 2) == 7
        for q in (2, 3, 5):
            assert gaussian_binomial(3, 1, q) == 1 + q + q * q

    def test_trivial_cases(self):
        assert gaussian_binomial(4, 0, 3) == 1
        assert gaussian_binomial(4, 4, 3) == 1

    def test_grassmannian_2_4(self):
        assert gaussian_binomial(4, 2, 2) == 35

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gaussian_binomial(3, 4, 2)

    def test_symmetry(self):
        for n in range(7):
            for i in range(n + 1):
                for q in (2, 3, 4, 5):
                    assert gaussian_binomial(n, i, q) == gaussian_binomial(n, n - i, q)

    def test_against_echelon_oracle(self):
        for n in range(1, 7):
            for i in range(n + 1):
                for q in (2, 3, 4, 5):
                    assert gaussian_binomial(n, i, q) == count_subspaces_echelon(n, i, q)

    def test_against_brute_force_oracle(self):
        import math

        for n in range(1, 5):
            for i in range(n + 1):
                for p in (2, 3):
                    # literal enumeration only where the combo count stays small
                    if p**n <= 100 and math.comb(p**n - 1, i) <= 5000:
                        assert gaussian_binomial(n, i, p) == count_subspaces_brute(n, i, p)


class TestDegrees:
    def test_values(self):
        assert deg_inert_Tl(2) == 18
        assert deg_inert_Tl(3) == 84
        assert deg_inert_Tl(5) == 630

    def test_matches_tree_count(self):
        for l in (2, 3):
            ball = TreeBall(l, 2)
            assert len(list(ball.distance_two(0))) == deg_inert_Tl(l)


def interior_samples(ball: TreeBall, per_shell=3):
    out = []
    for shell in (2, 4):
        found = []
        for v in range(ball.size):
            if ball.dist[v] == shell:
                found.append(v)
                if len(found) == per_shell:
                    break
        out.extend(found)
    return out


def radial_tree_oracle(ball: TreeBall, alpha: Fraction, samples) -> list[Fraction]:
    """Ratios (T g)(v) / g(v) for the pure radial mode g = (alpha/l^2)^(d/2),
    computed by literally walking the ball at interior vertices off the root."""
    x = Fraction(alpha) / ball.l**2
    mode = [x ** (d // 2) for d in range(0, ball.radius + 1)]
    ratios = []
    for v in samples:
        total = Fraction(0)
        for w in ball.neighbors(v):
            for u in ball.neighbors(w):
                if u != v:
                    total += mode[ball.dist[u]]
        ratios.append(total / mode[ball.dist[v]])
    return ratios


class TestSphericalEigenvalue:
    def test_dictionary_points(self):
        for l in (2, 3, 5):
            assert spherical_eigenvalue(SatakeParam(Fraction(l) ** 2, l)) == l * (l**3 + 1)
            assert spherical_eigenvalue(SatakeParam(Fraction(-l), l)) == -(l**3 + 1)

    def test_symmetry_under_inversion(self):
        rng = random.Random(41)
        for _ in range(25):
            l = rng.choice([2, 3, 5])
            a = Fraction(rng.randint(1, 40), rng.randint(1, 40)) * rng.choice([1, -1])
            assert spherical_eigenvalue(SatakeParam(a, l)) == spherical_eigenvalue(
                SatakeParam(1 / a, l)
            )
        assert spherical_eigenvalue(SatakeParam(Fraction(1, 9), 3)) == 84

    def test_dictionary_is_solved_once_per_l(self, monkeypatch):
        solves = []
        original = Matrix.solve
        monkeypatch.setattr(Matrix, "solve", lambda m, b: solves.append(b) or original(m, b))
        satake._dictionary_coefficients.cache_clear()
        for l in (2, 3, 2, 3, 7):
            for a in (Fraction(5), Fraction(-7, 3)):
                assert spherical_eigenvalue(SatakeParam(a, l)) == (l - 1) + l**2 * (a + 1 / a)
        assert len(solves) == 3

    def test_closed_form(self):
        for l in (2, 3):
            for a in (Fraction(5), Fraction(-7, 3)):
                got = spherical_eigenvalue(SatakeParam(a, l))
                assert got == (l - 1) + l**2 * (a + 1 / a)

    @pytest.mark.parametrize("l", [2, 3])
    def test_against_radial_tree_oracle(self, l):
        ball = TreeBall(l, 6, vertex_budget=5_000_000)
        samples = interior_samples(ball)
        rng = random.Random(43)
        alphas = [Fraction(l) ** 2, Fraction(-l)]
        while len(alphas) < 22:
            a = Fraction(rng.randint(1, 30), rng.randint(1, 30)) * rng.choice([1, -1])
            if a != 0:
                alphas.append(a)
        for a in alphas:
            expected = spherical_eigenvalue(SatakeParam(a, l))
            ratios = radial_tree_oracle(ball, a, samples)
            assert ratios, "oracle found no interior sample vertices"
            assert all(r == expected for r in ratios), (a, ratios, expected)

    def test_dictionary_points_are_root_eigenfunctions(self):
        # at the two dictionary values the pure mode extends across the root:
        # (T g)(root) = l(l^3+1) * g(1) equals lambda * g(0)
        for l in (2, 3):
            for a in (Fraction(l) ** 2, Fraction(-l)):
                x = a / l**2
                assert deg_inert_Tl(l) * x == spherical_eigenvalue(SatakeParam(a, l))


class TestClassification:
    def test_paper_dictionary(self):
        assert (
            classify_principal_series(SatakeParam(Fraction(4), 2))
            is PrincipalSeries.CHARACTER_PLUS_STEINBERG
        )
        assert (
            classify_principal_series(SatakeParam(Fraction(-2), 2))
            is PrincipalSeries.TWO_UNRAMIFIED_FACTORS
        )
        assert (
            classify_principal_series(SatakeParam(Fraction(1), 2))
            is PrincipalSeries.IRREDUCIBLE
        )

    def test_inverse_parameters(self):
        assert (
            classify_principal_series(SatakeParam(Fraction(1, 4), 2))
            is PrincipalSeries.CHARACTER_PLUS_STEINBERG
        )
        assert (
            classify_principal_series(SatakeParam(Fraction(-1, 3), 3))
            is PrincipalSeries.TWO_UNRAMIFIED_FACTORS
        )

    def test_consistency_with_raising_condition(self):
        rng = random.Random(47)
        params = [Fraction(4), Fraction(1, 4), Fraction(-2), Fraction(9), Fraction(1, 9)]
        for _ in range(40):
            params.append(Fraction(rng.randint(1, 30), rng.randint(1, 30)) * rng.choice([1, -1]))
        for l in (2, 3):
            for a in params:
                s = SatakeParam(a, l)
                steinberg = (
                    classify_principal_series(s) is PrincipalSeries.CHARACTER_PLUS_STEINBERG
                )
                raised = level_raising_condition(spherical_eigenvalue(s), l)
                assert steinberg == raised


class TestVeryEisenstein:
    def test_psi_one(self):
        assert very_eisenstein_check(SplitEigensystem(2, 7, 7, 1), Fraction(1))

    def test_psi_minus_one(self):
        assert very_eisenstein_check(SplitEigensystem(2, -7, 7, -1), Fraction(-1))

    def test_rejects(self):
        assert not very_eisenstein_check(SplitEigensystem(2, 0, 0, 1), Fraction(1))

    def test_unit_rescaling_invariance(self):
        rng = random.Random(53)
        for _ in range(30):
            q = rng.choice([2, 5])
            psi = Fraction(rng.randint(1, 9)) * rng.choice([1, -1])
            deg = 1 + q + q * q
            es = SplitEigensystem(q, deg / psi, deg / psi**2, 1 / psi**3)
            assert very_eisenstein_check(es, psi)
            u = Fraction(rng.randint(1, 9)) * rng.choice([1, -1])
            scaled = SplitEigensystem(q, es.t1 / u, es.t2 / u**2, es.t3 / u**3)
            assert very_eisenstein_check(scaled, u * psi)

    def test_invalid_psi(self):
        with pytest.raises(ValueError):
            very_eisenstein_check(SplitEigensystem(2, 7, 7, 1), Fraction(0))


class TestRaisingCondition:
    def test_exact(self):
        assert level_raising_condition(18, 2)
        assert not level_raising_condition(17, 2)

    def test_mod_p(self):
        assert level_raising_condition(-9, 2, p=3)
        assert not level_raising_condition(0, 2, p=5)
        assert level_raising_condition(Fraction(18), 2, p=7)
