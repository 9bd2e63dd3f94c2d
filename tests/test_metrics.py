"""Per-trial scalar measures and the closed-form energy levels."""

import math
from fractions import Fraction

import numpy as np
import pytest

from irsa_sim.decoder import decode_frame
from irsa_sim.distributions import avg_degree, fixed_l3, modified_soliton, sample_degrees
from irsa_sim.frame_graph import FrameGraph, build_frame
from irsa_sim.metrics import (
    gamma_irsa_min,
    reference_capacity,
    to_db,
    trial_metrics,
)
from irsa_sim.schemes import (
    ChannelConfig,
    InfeasibleOperatingPointError,
    SchemeConfig,
    build_profile,
    hat_es_from_rate,
)
from oracles import gamma_pa_analytic, jensen_bound_rs, rate_rs

L2_AVG = float(sum(Fraction(1, i) for i in range(1, 10)) + Fraction(3, 5))


def c_ref(cfg, l_avg):
    """C_ref of an IRSA profile at ``l_avg``: the common-energy reference."""
    profile = build_profile(np.array([1]), cfg, SchemeConfig("IRSA"), l_avg)
    return reference_capacity(profile, cfg)


class TestCRef:
    def test_unit_case(self):
        # K*tilde/N0 = 1, M = 1, L = 2 -> 1 bit.
        cfg = ChannelConfig(K=4, M=1, L_cu=2, tilde_Es=0.25)
        assert c_ref(cfg, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_reference_operating_point(self):
        cfg = ChannelConfig(K=300, M=375, L_cu=100, tilde_Es=0.0009)
        expected = 0.5 * 100 * 375 * math.log2(1 + 0.27)
        assert c_ref(cfg, L2_AVG) == pytest.approx(expected, rel=1e-12)

    def test_linear_in_channel_uses(self):
        a = c_ref(ChannelConfig(K=30, M=40, L_cu=50, tilde_Es=0.001), 3.0)
        b = c_ref(ChannelConfig(K=30, M=40, L_cu=100, tilde_Es=0.001), 3.0)
        assert b == pytest.approx(2 * a, rel=1e-12)


class TestTrialMetrics:
    def _run(self, K, M, es, scheme, l_avg, seed=0):
        rng = np.random.default_rng(seed)
        dist = modified_soliton(6)
        g = build_frame(K, M, dist, rng)
        cfg = ChannelConfig(K=K, M=M, L_cu=100, tilde_Es=es * l_avg / M)
        profile = build_profile(g.degrees, cfg, scheme, l_avg)
        result = decode_frame(g, profile, scheme, cfg)
        return g, cfg, profile, result

    def test_empty_decode(self):
        g = FrameGraph(2, [[0, 1], [0, 1]])
        cfg = ChannelConfig(K=2, M=2, L_cu=100, tilde_Es=0.5)
        scheme = SchemeConfig("IRSA")
        profile = build_profile(g.degrees, cfg, scheme, 2.0)
        m = trial_metrics(decode_frame(g, profile, scheme, cfg), profile, cfg)
        assert m.T == 0.0 and m.eta == 0.0 and m.eta_max == 0.0 and m.gamma == 0.0

    def test_baseline_efficiency_identity(self):
        # eta = T * log2(1+Es/N0) / log2(1 + K l_avg Es / (M N0)) whenever
        # every decoded rate is the common single-slot rate.
        l_avg = avg_degree(modified_soliton(6))
        g, cfg, profile, result = self._run(
            40, 50, 0.1, SchemeConfig("IRSA"), l_avg, seed=3
        )
        m = trial_metrics(result, profile, cfg)
        expected = (
            m.T
            * math.log2(1 + profile.Es / cfg.N0)
            / math.log2(1 + cfg.K * l_avg * profile.Es / (cfg.M * cfg.N0))
        )
        assert m.eta == pytest.approx(expected, rel=1e-12)

    def test_single_rs_user_sum(self):
        g = FrameGraph(4, [[0, 1]])
        cfg = ChannelConfig(K=1, M=4, L_cu=100, tilde_Es=0.1)
        scheme = SchemeConfig("RS", alpha=0.5, beta=1.0)
        l_avg = 2.0
        profile = build_profile(g.degrees, cfg, scheme, l_avg)
        result = decode_frame(g, profile, scheme, cfg)
        assert result.decoded.all()
        m = trial_metrics(result, profile, cfg)
        es = cfg.M * cfg.tilde_Es / l_avg
        r_avg = (cfg.K / cfg.M) * l_avg
        assert m.gamma * cfg.M == pytest.approx(
            rate_rs(2, es, 1.0, 100, 0.5, 1.0, r_avg), rel=1e-12
        )

    def test_gamma_is_eta_scaled(self):
        l_avg = avg_degree(modified_soliton(6))
        for seed in range(5):
            g, cfg, profile, result = self._run(
                30, 35, 0.05, SchemeConfig("RS", alpha=0.3, beta=1.0), l_avg, seed=seed
            )
            m = trial_metrics(result, profile, cfg)
            c = reference_capacity(profile, cfg)
            assert m.gamma == pytest.approx(m.eta * c / cfg.M, rel=1e-12)
            assert m.eta_max >= m.eta - 1e-12

    def test_energy_metric_uniform_power(self):
        l_avg = avg_degree(modified_soliton(6))
        g, cfg, profile, result = self._run(
            25, 30, 0.2, SchemeConfig("IRSA"), l_avg, seed=9
        )
        m = trial_metrics(result, profile, cfg)
        expected = to_db(float(g.degrees.mean()) * profile.Es / cfg.N0)
        assert m.energy_per_user_db == pytest.approx(expected, rel=1e-12)


class TestGammaPaAnalytic:
    def test_no_interference_limit(self):
        assert gamma_pa_analytic(1.7, 0.2, 1.0, 3.0, 1.0) == pytest.approx(
            1.7 * 0.2, rel=1e-12
        )

    def test_reference_operating_point(self):
        # hat_R=10, L=100 at G=0.8 under the Y=10 soliton variant.
        hat_es = hat_es_from_rate(10.0, 100, 1.0)
        val = gamma_pa_analytic(1.0, hat_es, 1.0, L2_AVG, 0.8 * L2_AVG)
        x = (0.8 * L2_AVG - 1.0) * hat_es
        expected = hat_es * (1.0 + x / (x + L2_AVG))
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(0.159152, abs=1e-5)
        assert to_db(val) == pytest.approx(-7.982, abs=2e-3)

    def test_exact_relation_to_realised_energy(self):
        # The analytic level uses the published closed form; the realised
        # per-device energy follows the energy-balance solution.  Their
        # ratio is (1+x)/((1-x)(1+2x)) with x = (r_avg-1)hat_Es/(N0 l_avg),
        # an identity that pins both sides.
        rng = np.random.default_rng(13)
        for _ in range(500):
            K = int(rng.integers(2, 30))
            degrees = rng.integers(1, 10, size=K)
            l_avg = float(rng.uniform(1.5, 6.0))
            r_avg = float(rng.uniform(0.3, 5.0))
            hat_R = float(rng.uniform(1.0, 15.0))
            mu = float(rng.uniform(1.0, 2.5))
            hat_es = hat_es_from_rate(hat_R, 100, 1.0)
            if (1 - r_avg) * hat_es + l_avg <= 0.05:
                continue
            x = (r_avg - 1) * hat_es / l_avg
            if 1 + 2 * x <= 0.05:
                continue
            cfg = ChannelConfig(K=K, M=7, L_cu=100, hat_R=hat_R)
            from irsa_sim.schemes import pa_powers

            profile = pa_powers(degrees, cfg, mu, l_avg, r_avg)
            realised = float((degrees * profile.energies).mean())
            analytic = gamma_pa_analytic(mu, hat_es, 1.0, l_avg, r_avg)
            assert realised == pytest.approx(
                analytic * (1 + x) / ((1 - x) * (1 + 2 * x)), rel=1e-9
            )

    def test_low_snr_agreement_with_realised(self):
        # In the low-SNR regime the closed form and the realised energy
        # agree to second order.
        hat_es = hat_es_from_rate(10.0, 100, 1.0)
        analytic = gamma_pa_analytic(1.0, hat_es, 1.0, L2_AVG, 0.8 * L2_AVG)
        cfg = ChannelConfig(K=4, M=5, L_cu=100, hat_R=10.0)
        from irsa_sim.schemes import pa_powers

        profile = pa_powers(np.array([2, 3, 4, 5]), cfg, 1.0, L2_AVG, 0.8 * L2_AVG)
        realised = float((np.array([2, 3, 4, 5]) * profile.energies).mean())
        assert analytic == pytest.approx(realised, rel=0.02)

    def test_infeasible(self):
        with pytest.raises(InfeasibleOperatingPointError):
            gamma_pa_analytic(1.0, 3.0, 1.0, 2.0, 5.0)


class TestGammaIrsaMin:
    def test_l3_level(self):
        hat_es = hat_es_from_rate(10.0, 100, 1.0)
        g_irsa, g_min = gamma_irsa_min(hat_es, 1.0, avg_degree(fixed_l3()))
        assert to_db(g_irsa) == pytest.approx(-2.00194843403453, abs=1e-6)
        assert to_db(g_min) == pytest.approx(-8.2769383591424, abs=1e-6)

    def test_l2_level(self):
        hat_es = hat_es_from_rate(10.0, 100, 1.0)
        g_irsa, _ = gamma_irsa_min(hat_es, 1.0, L2_AVG)
        assert to_db(g_irsa) == pytest.approx(-2.92530371556497, abs=1e-6)

    def test_unit_degree_collapses(self):
        g_irsa, g_min = gamma_irsa_min(0.3, 1.0, 1.0)
        assert g_irsa == g_min


class TestJensenBound:
    def test_degenerate_distribution_equality(self):
        # One-point degree distribution: the bound is the exact mean.
        es, alpha, beta, r_avg = 0.05, 0.8, 1.1, 2.0
        exact = rate_rs(4, es, 1.0, 100, alpha, beta, r_avg)
        assert jensen_bound_rs(es, 1.0, 100, alpha, beta, 4.0, r_avg) == pytest.approx(
            exact, rel=1e-12
        )

    def test_dominates_analytic_mean(self):
        # Strict concavity: the bound sits above the exact expectation for
        # any non-degenerate degree distribution.
        rng = np.random.default_rng(37)
        dists = [modified_soliton(10), fixed_l3(), modified_soliton(4)]
        for _ in range(1000):
            dist = dists[int(rng.integers(0, len(dists)))]
            es = float(rng.uniform(0.002, 0.5))
            alpha = float(rng.uniform(0.05, 2.0))
            beta = float(rng.uniform(0.7, 2.0))
            l_avg = avg_degree(dist)
            r_avg = float(rng.uniform(0.3, 1.2)) * l_avg
            if (beta * r_avg - 1) * es + 1.0 <= 1e-3:
                continue
            exact = sum(
                float(p) * rate_rs(int(d), es, 1.0, 100, alpha, beta, r_avg)
                for d, p in dist.atoms
            )
            bound = jensen_bound_rs(es, 1.0, 100, alpha, beta, l_avg, r_avg)
            assert bound >= exact - 1e-12

    def test_dominates_monte_carlo_mean(self):
        dist = modified_soliton(10)
        l_avg = avg_degree(dist)
        es, alpha, beta = 0.05, 0.8, 1.0
        r_avg = 0.8 * l_avg
        rng = np.random.default_rng(41)
        degrees = sample_degrees(dist, rng, 100_000)
        rates = np.array(
            [rate_rs(int(d), es, 1.0, 100, alpha, beta, r_avg) for d in range(2, 11)]
        )
        samples = rates[degrees - 2]
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        bound = jensen_bound_rs(es, 1.0, 100, alpha, beta, l_avg, r_avg)
        assert samples.mean() <= bound + 3 * se

    def test_low_snr_gap_below_half_percent(self):
        dist = modified_soliton(10)
        l_avg = avg_degree(dist)
        for es in (0.01, 0.005, 0.001):
            r_avg = 0.8 * l_avg
            exact = sum(
                float(p) * rate_rs(int(d), es, 1.0, 100, 0.8, 1.0, r_avg)
                for d, p in dist.atoms
            )
            bound = jensen_bound_rs(es, 1.0, 100, 0.8, 1.0, l_avg, r_avg)
            assert (bound - exact) / exact < 0.005
