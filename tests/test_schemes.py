"""Rate and energy assignment formulas for the three schemes."""

import math
from fractions import Fraction

import numpy as np
import pytest

from irsa_sim.schemes import (
    ChannelConfig,
    InfeasibleOperatingPointError,
    SchemeConfig,
    TuningParameterError,
    build_profile,
    es_from_reference,
    hat_es_from_rate,
    pa_mean_energy,
    pa_powers,
    rate_irsa,
    rate_rs,
)


def harmonic(n):
    return float(sum(Fraction(1, i) for i in range(1, n + 1)))


L2_AVG = harmonic(9) + 0.6  # mean degree of the Y=10 soliton variant


def db(x):
    return 10 * math.log10(x)


class TestEsFromReference:
    def test_every_slot_occupied_limit(self):
        cfg = ChannelConfig(K=10, M=50, L_cu=100, tilde_Es=0.3)
        assert es_from_reference(cfg, 50) == pytest.approx(0.3, rel=1e-12)

    def test_low_load_extreme(self):
        # G = 0.05 -> M = 6000: Es/N0 = 6000*0.0009/l_avg = +1.97 dB.
        cfg = ChannelConfig(K=300, M=6000, L_cu=100, tilde_Es=0.0009)
        es = es_from_reference(cfg, L2_AVG)
        assert es == pytest.approx(6000 * 0.0009 / L2_AVG, rel=1e-12)
        assert db(es) == pytest.approx(1.97, abs=0.01)

    def test_high_load_extreme(self):
        cfg = ChannelConfig(K=300, M=200, L_cu=100, tilde_Es=0.0009)
        assert db(es_from_reference(cfg, L2_AVG)) == pytest.approx(-12.8, abs=0.01)

    def test_requires_reference_energy(self):
        cfg = ChannelConfig(K=10, M=20, L_cu=100, hat_R=10.0)
        with pytest.raises(ValueError):
            es_from_reference(cfg, 3.0)

    def test_rejects_nonpositive_average_degree(self):
        cfg = ChannelConfig(K=10, M=20, L_cu=100, tilde_Es=0.3)
        with pytest.raises(ValueError, match="l_avg: must be positive"):
            es_from_reference(cfg, 0.0)


class TestRateIrsa:
    def test_unit_snr(self):
        assert rate_irsa(1.0, 1.0, 2) == pytest.approx(1.0, rel=1e-12)

    def test_snr_three(self):
        assert rate_irsa(3.0, 1.0, 2) == pytest.approx(2.0, rel=1e-12)

    def test_inverse_of_energy_from_rate(self):
        assert rate_irsa(hat_es_from_rate(10.0, 100, 1.0), 1.0, 100) == pytest.approx(
            10.0, rel=1e-12
        )

    def test_mutual_inverse_over_range(self):
        for snr in np.geomspace(1e-4, 10, 40):
            rate = rate_irsa(snr, 1.0, 100)
            assert hat_es_from_rate(rate, 100, 1.0) == pytest.approx(snr, rel=1e-12)


class TestHatEsFromRate:
    def test_nominal_rate_ten(self):
        # 2^0.2 - 1, the interference-free noise floor of the energy plots.
        es = hat_es_from_rate(10.0, 100, 1.0)
        assert es == pytest.approx(2 ** 0.2 - 1, rel=1e-12)
        assert db(es) == pytest.approx(-8.2769, abs=1e-4)

    def test_half_rate_per_dimension(self):
        assert hat_es_from_rate(50.0, 100, 2.5) == pytest.approx(2.5, rel=1e-12)

    def test_vanishing_rate(self):
        assert hat_es_from_rate(1e-9, 100, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            hat_es_from_rate(0.0, 100, 1.0)


class TestRateRs:
    def test_degree_one_is_baseline(self):
        for alpha in (0.1, 0.7, 2.0):
            assert rate_rs(1, 0.2, 1.0, 100, alpha, 1.2, 2.5) == pytest.approx(
                rate_irsa(0.2, 1.0, 100), rel=1e-12
            )

    def test_alpha_zero_is_baseline(self):
        for l in (1, 2, 5, 9):
            assert rate_rs(l, 0.2, 1.0, 100, 0.0, 1.2, 2.5) == pytest.approx(
                rate_irsa(0.2, 1.0, 100), rel=1e-12
            )

    def test_worked_example(self):
        # l=3, alpha=1, beta=1, r_avg=2, Es/N0=0.1: 50*log2(1 + 0.1 + 0.2/1.1).
        expected = 50 * math.log2(1 + 0.1 + 0.2 / 1.1)
        assert rate_rs(3, 0.1, 1.0, 100, 1.0, 1.0, 2.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_rejects_nonpositive_denominator(self):
        # (beta*r_avg - 1)*Es + N0 <= 0
        with pytest.raises(TuningParameterError):
            rate_rs(3, 2.0, 1.0, 100, 1.0, 0.1, 1.0)

    def test_strictly_increasing_in_degree(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            es = float(rng.uniform(0.01, 2.0))
            alpha = float(rng.uniform(0.05, 2.0))
            beta = float(rng.uniform(0.5, 2.0))
            r_avg = float(rng.uniform(1.0, 6.0))
            if (beta * r_avg - 1) * es + 1.0 <= 0:
                continue
            rates = [rate_rs(l, es, 1.0, 100, alpha, beta, r_avg) for l in range(1, 8)]
            assert all(b > a for a, b in zip(rates, rates[1:]))


class TestPaPowers:
    def test_mean_energy_worked_example(self):
        # hat_Es/N0 = 0.1, r_avg = 3, l_avg = 3 -> (1-3)*0.1 + 3 = 2.8.
        hat_R = rate_irsa(0.1, 1.0, 100)
        cfg = ChannelConfig(K=30, M=10, L_cu=100, hat_R=hat_R)
        assert pa_mean_energy(cfg, 3.0, 3.0) == pytest.approx(0.1 / 2.8, rel=1e-12)

    def test_defining_identity(self):
        # l_avg * bar_Es / ((r_avg-1) bar_Es + N0) = hat_Es/N0 exactly.
        rng = np.random.default_rng(4)
        for _ in range(300):
            l_avg = float(rng.uniform(1.5, 8.0))
            r_avg = float(rng.uniform(0.2, 6.0))
            hat_es = float(rng.uniform(0.01, 0.5))
            n0 = float(rng.uniform(0.5, 2.0))
            if (1 - r_avg) * hat_es / n0 + l_avg <= 0.05:
                continue
            hat_R = rate_irsa(hat_es, n0, 100)
            cfg = ChannelConfig(K=10, M=10, L_cu=100, N0=n0, hat_R=hat_R)
            bar = pa_mean_energy(cfg, l_avg, r_avg)
            lhs = l_avg * bar / ((r_avg - 1) * bar + n0)
            assert lhs == pytest.approx(hat_es / n0, rel=1e-12)

    def test_no_interference_limit(self):
        # r_avg = 1: bar_Es = hat_Es/l_avg and each device spreads hat_Es
        # over its replicas.
        cfg = ChannelConfig(K=4, M=4, L_cu=100, hat_R=10.0)
        hat_es = hat_es_from_rate(10.0, 100, 1.0)
        degrees = np.array([1, 2, 4, 5])
        profile = pa_powers(degrees, cfg, 1.0, 3.0, 1.0)
        assert pa_mean_energy(cfg, 3.0, 1.0) == pytest.approx(hat_es / 3.0, rel=1e-12)
        assert profile.energies == pytest.approx(hat_es / degrees, rel=1e-12)

    def test_per_device_total_energy_degree_independent(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            K = int(rng.integers(2, 40))
            degrees = rng.integers(1, 12, size=K)
            l_avg = float(rng.uniform(1.5, 6.0))
            r_avg = float(rng.uniform(0.3, 5.0))
            hat_R = float(rng.uniform(1.0, 20.0))
            mu = float(rng.uniform(1.0, 3.0))
            cfg = ChannelConfig(K=K, M=17, L_cu=100, hat_R=hat_R)
            if (1 - r_avg) * hat_es_from_rate(hat_R, 100, 1.0) + l_avg <= 0.05:
                continue
            profile = pa_powers(degrees, cfg, mu, l_avg, r_avg)
            totals = degrees * profile.energies
            assert np.ptp(totals) <= 1e-9 * totals.mean()

    def test_energy_strictly_decreasing_in_degree(self):
        cfg = ChannelConfig(K=6, M=10, L_cu=100, hat_R=10.0)
        degrees = np.array([1, 2, 3, 5, 9, 16])
        profile = pa_powers(degrees, cfg, 1.3, 4.0, 3.0)
        assert np.all(np.diff(profile.energies) < 0)

    def test_infeasible_operating_point(self):
        # (1 - r_avg)*hat_Es/N0 + l_avg <= 0 at large r_avg and hat_Es.
        cfg = ChannelConfig(K=10, M=2, L_cu=2, hat_R=2.0)  # hat_Es/N0 = 3
        with pytest.raises(InfeasibleOperatingPointError):
            pa_powers(np.array([2, 3]), cfg, 1.0, 2.0, 5.0)


class TestSchemeConfig:
    def test_rs_requires_alpha_beta(self):
        with pytest.raises(ValueError):
            SchemeConfig("RS", alpha=0.5)
        with pytest.raises(ValueError):
            SchemeConfig("RS", beta=1.0)

    def test_pa_requires_mu(self):
        with pytest.raises(ValueError):
            SchemeConfig("PA")
        with pytest.raises(ValueError):
            SchemeConfig("PA", mu=0.5)

    def test_parameters_only_where_required(self):
        with pytest.raises(ValueError):
            SchemeConfig("IRSA", alpha=1.0)
        with pytest.raises(ValueError):
            SchemeConfig("RS", alpha=0.5, beta=1.0, mu=2.0)
        with pytest.raises(ValueError):
            SchemeConfig("PA", mu=2.0, beta=1.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            SchemeConfig("CRDSA")


class TestBuildProfile:
    def test_uniform_energy_for_baseline_and_rs(self):
        cfg = ChannelConfig(K=5, M=10, L_cu=100, tilde_Es=0.01)
        degrees = np.array([2, 3, 4, 2, 5])
        for scheme in (SchemeConfig("IRSA"), SchemeConfig("RS", alpha=0.5, beta=1.0)):
            profile = build_profile(degrees, cfg, scheme, 3.0)
            assert profile.Es == pytest.approx(10 * 0.01 / 3.0, rel=1e-12)
            assert np.all(profile.energies == profile.Es)

    def test_rs_thresholds_invert_rates(self):
        cfg = ChannelConfig(K=4, M=8, L_cu=100, tilde_Es=0.02)
        degrees = np.array([1, 2, 3, 6])
        scheme = SchemeConfig("RS", alpha=0.7, beta=1.1)
        profile = build_profile(degrees, cfg, scheme, 3.0)
        for i in range(4):
            back = 0.5 * 100 * math.log2(1 + profile.sinr_thresholds[i])
            assert back == pytest.approx(profile.rates[i], rel=1e-12)

    def test_rs_threshold_without_one(self):
        cfg = ChannelConfig(K=2, M=8, L_cu=100, tilde_Es=0.02)
        degrees = np.array([2, 3])
        with_one = build_profile(
            degrees, cfg, SchemeConfig("RS", alpha=0.7, beta=1.1), 3.0
        )
        without = build_profile(
            degrees, cfg,
            SchemeConfig("RS", alpha=0.7, beta=1.1, rmax_includes_one=False), 3.0,
        )
        assert without.sinr_thresholds == pytest.approx(
            1.0 + with_one.sinr_thresholds, rel=1e-12
        )

    def test_pa_rates_are_nominal(self):
        cfg = ChannelConfig(K=3, M=6, L_cu=100, hat_R=10.0)
        profile = build_profile(np.array([2, 3, 4]), cfg, SchemeConfig("PA", mu=1.5), 3.0)
        assert np.all(profile.rates == 10.0)
        assert profile.Es is None
        assert np.all(profile.sinr_thresholds == pytest.approx(2 ** 0.2 - 1, rel=1e-12))
