"""Degree distribution construction, moments, and sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from irsa_sim.distributions import (
    DegreeDistribution,
    avg_degree,
    fixed_l3,
    from_name,
    ideal_soliton,
    modified_soliton,
    sample_degrees,
)

# Independent copy of the twelve published coefficients, used as the oracle
# for the fixed distribution's moments.
L3_TABLE = {
    2: "0.4977", 3: "0.2207", 4: "0.0381", 5: "0.0756", 6: "0.0398",
    7: "0.0009", 8: "0.0088", 9: "0.0068", 11: "0.0030", 14: "0.0429",
    15: "0.0081", 16: "0.0576",
}


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


class TestIdealSoliton:
    def test_y2_atoms(self):
        dist = ideal_soliton(2)
        assert dist.atoms == ((1, Fraction(1, 2)), (2, Fraction(1, 2)))

    def test_y3_atoms_and_exact_sum(self):
        dist = ideal_soliton(3)
        atoms = dict(dist.atoms)
        assert atoms[1] == Fraction(1, 3)
        assert atoms[2] == Fraction(1, 2)
        assert atoms[3] == Fraction(1, 6)
        assert sum(p for _, p in dist.atoms) == 1

    @pytest.mark.parametrize("Y", [2, 3, 10, 100, 1000, 10_000])
    def test_mean_is_harmonic_identity(self, Y):
        # avg = 1/Y + H_{Y-1}
        expected = float(Fraction(1, Y) + harmonic(Y - 1))
        assert avg_degree(ideal_soliton(Y)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("Y", [1, 0, -3])
    def test_rejects_small_parameter(self, Y):
        with pytest.raises(ValueError):
            ideal_soliton(Y)


class TestModifiedSoliton:
    def test_y10_degree2_mass(self):
        dist = modified_soliton(10)
        assert dict(dist.atoms)[2] == Fraction(1, 2) + Fraction(1, 90)

    def test_y10_mean(self):
        # H_9 + (sum of degrees 2..10)/90 = H_9 + 54/90
        expected = float(harmonic(9) + Fraction(54, 90))
        assert avg_degree(modified_soliton(10)) == pytest.approx(expected, abs=1e-12)
        assert avg_degree(modified_soliton(10)) == pytest.approx(3.428968, abs=1e-5)

    @pytest.mark.parametrize("Y", [2, 3, 7, 10, 50, 300])
    def test_exact_normalisation(self, Y):
        dist = modified_soliton(Y)
        assert sum(p for _, p in dist.atoms) == 1
        assert abs(float(dist.probabilities.sum()) - 1.0) < 1e-12

    def test_no_degree_one_atom(self):
        assert modified_soliton(10).atoms[0][0] == 2

    def test_rejects_small_parameter(self):
        with pytest.raises(ValueError):
            modified_soliton(1)


class TestFixedL3:
    def test_published_coefficients(self):
        dist = fixed_l3()
        assert dict(dist.atoms)[2] == Fraction("0.4977")
        assert sorted(d for d, _ in dist.atoms) == sorted(L3_TABLE)

    def test_sum_is_one(self):
        total = sum((Fraction(c) for c in L3_TABLE.values()), Fraction(0))
        assert total == 1
        assert abs(float(fixed_l3().probabilities.sum()) - 1.0) < 1e-12

    def test_mean(self):
        expected = float(sum(d * Fraction(c) for d, c in L3_TABLE.items()))
        assert avg_degree(fixed_l3()) == pytest.approx(expected, abs=1e-12)
        assert avg_degree(fixed_l3()) == pytest.approx(4.2413, abs=1e-3)


class TestAvgDegree:
    def test_single_atom(self):
        dist = DegreeDistribution("point", ((2, Fraction(1)),))
        assert avg_degree(dist) == 2.0


class TestValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            DegreeDistribution("bad", ((1, Fraction(1, 2)), (2, Fraction(1, 4))))

    def test_degrees_sorted_distinct(self):
        with pytest.raises(ValueError):
            DegreeDistribution("bad", ((2, Fraction(1, 2)), (1, Fraction(1, 2))))
        with pytest.raises(ValueError):
            DegreeDistribution("bad", ((2, Fraction(1, 2)), (2, Fraction(1, 2))))

    def test_degrees_at_least_one(self):
        with pytest.raises(ValueError):
            DegreeDistribution("bad", ((0, Fraction(1)),))

    def test_negative_probability(self):
        with pytest.raises(ValueError):
            DegreeDistribution("bad", ((1, Fraction(3, 2)), (2, Fraction(-1, 2))))


class TestFromName:
    def test_dispatch(self):
        assert from_name("l3").name == "l3"
        assert from_name("ideal_soliton", 5).max_degree == 5
        assert from_name("modified_soliton", 10).name == "modified_soliton_Y10"

    def test_l3_takes_no_parameter(self):
        with pytest.raises(ValueError):
            from_name("l3", 10)

    def test_soliton_requires_parameter(self):
        with pytest.raises(ValueError):
            from_name("modified_soliton")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            from_name("zipf", 4)


class TestSampling:
    def test_degenerate(self):
        dist = DegreeDistribution("point", ((3, Fraction(1)),))
        rng = np.random.default_rng(0)
        assert (sample_degrees(dist, rng, 100) == 3).all()

    def test_modified_soliton_mean_within_clt_bound(self):
        dist = modified_soliton(10)
        rng = np.random.default_rng(123)
        n = 1_000_000
        samples = sample_degrees(dist, rng, n)
        mean = float(sum(d * p for d, p in dist.atoms))
        second = float(sum(d * d * p for d, p in dist.atoms))
        se = math.sqrt((second - mean * mean) / n)
        assert abs(samples.mean() - mean) < 3 * se

    def test_ideal_soliton_degree1_frequency(self):
        rng = np.random.default_rng(7)
        samples = sample_degrees(ideal_soliton(2), rng, 1_000_000)
        assert abs(np.mean(samples == 1) - 0.5) < 0.002

    @pytest.mark.parametrize(
        "dist",
        [ideal_soliton(50), modified_soliton(10), fixed_l3()],
        ids=["ideal", "modified", "l3"],
    )
    def test_chi_square_goodness_of_fit(self, dist):
        rng = np.random.default_rng(99)
        n = 100_000
        samples = sample_degrees(dist, rng, n)
        observed = np.array([np.sum(samples == d) for d in dist.degrees])
        expected = dist.probabilities * n
        _, p_value = stats.chisquare(observed, expected)
        assert p_value > 1e-3
