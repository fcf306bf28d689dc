"""The contract of the package's plain value classes: value equality and hashing
where values are compared, validation and coercion in ``__init__``, a fresh
container per instance, and the witness fields that reach a report."""

import json
from fractions import Fraction

import pytest

from u3local.analytic import AnalyticModel, Character, Weight
from u3local.cli import main
from u3local.cosets import BlockHeckeOperator, DetLabeling, LabelingError
from u3local.linalg import Matrix
from u3local.poly import Poly
from u3local.satake import SatakeParam, SplitEigensystem
from u3local.slope import NewtonPolygon, SlopeDecomposition, SlopeFactorization


class TestValueEquality:
    def test_characters_equal_after_reduction_hash_equal(self):
        a, b = Character(2, 3, (3, 5)), Character(2, 3, (1, 1))
        assert a == b and hash(a) == hash(b)
        assert a.exps == (1, 1)
        assert len({a, b, Character(3, 2, (-1,)), Character(3, 2, (5,))}) == 2
        assert Character(3, 2, (1,)) != Character(3, 2, (2,))
        assert Character(3, 2, (1,)) != Character(3, 1, (1,))

    def test_weights_compare_by_characters(self):
        chi, psi = Character(3, 2, (1,)), Character(3, 2, (7,))
        assert Weight(chi, chi, chi) == Weight(psi, psi, psi)
        assert hash(Weight(chi, chi, chi)) == hash(Weight(psi, psi, psi))
        assert Weight(chi, chi, chi) != Weight(chi, chi, Character(3, 2, (0,)))

    def test_frozen_classes_compare_and_hash_by_value(self):
        pairs = [
            (SatakeParam(4, 2), SatakeParam(Fraction(8, 2), 2)),
            (SplitEigensystem(2, 7, 7, 1), SplitEigensystem(2, Fraction(7), 7, Fraction(2, 2))),
            (AnalyticModel(2, 1, 3), AnalyticModel(2, 1, 3)),
        ]
        for a, b in pairs:
            assert a is not b and a == b and hash(a) == hash(b)
        assert SatakeParam(4, 2) != SatakeParam(4, 3)
        assert SatakeParam(4, 2) != (Fraction(4), 2)

    def test_coercion_to_fractions(self):
        assert type(SatakeParam(3, 2).alpha) is Fraction
        es = SplitEigensystem(2, 7, 7, 1)
        assert all(type(t) is Fraction for t in (es.t1, es.t2, es.t3))


class TestValidation:
    def test_satake_alpha_zero(self):
        with pytest.raises(ValueError, match="alpha must be nonzero"):
            SatakeParam(0, 2)

    def test_split_t3_zero(self):
        with pytest.raises(ValueError, match="t3 must be invertible"):
            SplitEigensystem(2, 7, 7, 0)

    def test_model_m_zero(self):
        with pytest.raises(ValueError, match="need m >= 1"):
            AnalyticModel(2, 0, 1)
        with pytest.raises(ValueError, match="need m >= 1"):
            AnalyticModel(2, 1, -1)

    def test_character_exponent_count(self):
        with pytest.raises(ValueError, match="need 2 exponents for p=2, k=3"):
            Character(2, 3, (1,))

    def test_weight_mixed_levels(self):
        with pytest.raises(ValueError, match="share p and level"):
            Weight(Character(3, 2, (1,)), Character(3, 2, (1,)), Character(3, 1, (1,)))

    def test_labeling_order_and_reduction(self):
        with pytest.raises(LabelingError, match="group order must be >= 1"):
            DetLabeling(0, 0, [0], [0])
        lab = DetLabeling(3, 7, [4, -1], [5])
        assert (lab.gshift, lab.v0_labels, lab.v1_labels) == (1, [1, 2], [2])


class TestFreshContainers:
    def test_report_and_segments_are_per_instance(self):
        m = Matrix([[1]])
        ops = [BlockHeckeOperator(2, 1, 1, m, m, m, m, m, []) for _ in range(2)]
        ops[0].report["ok"] = True
        assert ops[1].report == {}
        fact = SlopeFactorization(Poly.one(), Poly.one(), Fraction(0), 0, 2, None, exact=True)
        decs = [SlopeDecomposition([], [], m, fact, Poly.one()) for _ in range(2)]
        decs[0].report["ok"] = True
        assert decs[1].report == {}
        polys = [NewtonPolygon(2, [(0, Fraction(0))]) for _ in range(2)]
        polys[0].segments.append((Fraction(1), 1))
        assert polys[1].segments == [] and polys[1].slopes() == []


def test_components_witness_renders_its_four_fields(capsys):
    code = main(["moduli", "components", "--diag", "l^2,l,1", "--l", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    entries = [w for w in doc["results"]["witnesses"].values() if w is not None]
    assert entries
    for entry in entries:
        assert set(entry["witness"]) == {
            "mu", "path_on_stratum", "scaling_verified", "specializes_to_zero"
        }
        assert isinstance(entry["witness"]["mu"], list)
