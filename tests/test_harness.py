"""Sweep orchestration: determinism, aggregation, and the tuners."""

import dataclasses
import math

import numpy as np
import pytest

from irsa_sim import harness
from irsa_sim.decoder import decode_frame, success_thresholds
from irsa_sim.distributions import avg_degree, fixed_l3, from_name, modified_soliton
from irsa_sim.frame_graph import build_frame
from irsa_sim.harness import (
    CompareConfig,
    MetricStats,
    RunningStats,
    SweepSpec,
    TuningConfig,
    compare_rs_pa,
    make_point,
    mix64,
    run_point,
    run_sweep,
    run_tuned_sweep,
    trial_rng,
    tune_mu,
    tune_rs,
)
from irsa_sim.metrics import TrialMetrics, reference_capacity, to_db, trial_metrics
from irsa_sim.schemes import (
    InfeasibleOperatingPointError,
    SchemeConfig,
    TuningParameterError,
    build_profile,
    hat_es_from_rate,
    rs_sinr_target,
)
from oracles import rate_rs


# The tuning of the tests that need a single (alpha, beta) pair.
ONE_PAIR = TuningConfig(alpha_grid=(0.2,), beta_grid=(1.0,))


def small_rs_spec(**kw):
    base = dict(
        scheme="RS", dist_name="modified_soliton", dist_Y=4, K=24,
        G_grid=(0.6,), trials=20, seed=5, tilde_Es_over_N0=0.004,
        alpha=0.3, beta=1.0,
    )
    base.update(kw)
    return SweepSpec(**base)


def frame_outcome(point, graph, scheme):
    """The profile built on the frame's own degrees, and its decode."""
    profile = build_profile(graph.degrees, point.cfg, scheme, point.l_avg)
    return profile, decode_frame(graph, profile, scheme, point.cfg)


def run_trial(point, scheme, trial):
    """The measures of one trial of ``scheme`` at the point, as run_point
    adds them."""
    (metrics,) = harness._trials(point, scheme, [trial])
    return metrics


def reference_metrics(point, scheme, trial):
    """One trial of ``scheme`` at the point in three steps: build_profile on
    the frame's degrees, decode_frame, and the measures as masks over the
    per-message arrays."""
    rng = trial_rng(point.seed, point.g_index, trial)
    graph = build_frame(point.cfg.K, point.cfg.M, point.dist, rng)
    profile, result = frame_outcome(point, graph, scheme)
    mask = result.decoded
    S = float(profile.rates[mask].sum())
    S_max = float(result.genie_rate[mask].sum()) if mask.any() else 0.0
    C = reference_capacity(profile, point.cfg)
    M = point.cfg.M
    per_user = float((profile.degrees * profile.energies).mean())
    return TrialMetrics(
        T=int(mask.sum()) / M, S=S, S_max=S_max, C_ref=C, eta=S / C, eta_max=S_max / C,
        gamma=S / M, gamma_max=S_max / M, energy_per_user_db=to_db(per_user / point.cfg.N0),
    )


class TestMix64:
    def test_deterministic_and_spread(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)
        seen = {mix64(s, g, t) for s in range(4) for g in range(4) for t in range(4)}
        assert len(seen) == 64

    def test_order_sensitive(self):
        assert mix64(1, 2) != mix64(2, 1)


class TestRunTrial:
    def test_bit_identical_reruns(self):
        spec = small_rs_spec()
        point = make_point(spec, 0)
        a = run_trial(point, spec.scheme_config(), 7)
        b = run_trial(point, spec.scheme_config(), 7)
        assert a == b

    def test_trials_differ(self):
        spec = small_rs_spec(trials=50)
        point = make_point(spec, 0)
        values = {run_trial(point, spec.scheme_config(), t).eta for t in range(50)}
        assert len(values) > 1

    def test_single_user_single_slot(self):
        spec = SweepSpec(
            scheme="IRSA", dist_name="ideal_soliton", dist_Y="M", K=1,
            G_grid=(1.0,), trials=4, seed=0, tilde_Es_over_N0=0.5,
        )
        # Y = M = 1 is below the soliton minimum; use a 2-slot frame with a
        # degenerate draw instead: K=1, G=0.5 -> M=2, Y=2.
        spec = dataclasses.replace(spec, G_grid=(0.5,))
        point = make_point(spec, 0)
        m = run_trial(point, spec.scheme_config(), 0)
        assert m.T in (0.5, 1.0)  # one message over two slots always decodes
        assert m.T == 0.5

    def test_propagates_infeasible_points(self):
        # max degree 4 cannot fit in M = 3 slots.
        spec = small_rs_spec(G_grid=(8.0,))
        with pytest.raises(Exception, match="max degree"):
            make_point(spec, 0)


class TestRunningStats:
    def test_mean_and_se_match_numpy(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=37)
        acc = RunningStats()
        for x in xs:
            acc.add(float(x))
        assert acc.mean == pytest.approx(xs.mean(), rel=1e-12)
        assert acc.se == pytest.approx(xs.std(ddof=1) / math.sqrt(len(xs)), rel=1e-9)

    def test_single_observation_has_no_se(self):
        acc = RunningStats()
        acc.add(1.0)
        assert acc.mean == 1.0 and acc.se is None

    def test_constant_series_has_zero_se(self):
        acc = RunningStats()
        for _ in range(1000):
            acc.add(-17.3)
        assert acc.se == 0.0


class TestRunSweep:
    def test_one_record_per_grid_point(self):
        grid = tuple(round(0.05 * i, 2) for i in range(1, 31))
        spec = SweepSpec(
            scheme="IRSA", dist_name="modified_soliton", dist_Y=4, K=12,
            G_grid=grid, trials=2, seed=1, tilde_Es_over_N0=0.01,
        )
        records = run_sweep(spec)
        assert len(records) == 30
        for g, r in zip(grid, records):
            assert r.G == g
            assert r.M == round(12 / g)

    def test_single_trial_reports_undefined_se(self):
        spec = small_rs_spec(trials=1)
        rec = run_sweep(spec)[0]
        assert rec.T_mean is not None
        assert rec.T_se is None and rec.eta_se is None and rec.gamma_se is None

    def test_aggregates_match_per_trial_recomputation(self):
        spec = small_rs_spec(trials=40)
        rec = run_sweep(spec)[0]
        point = make_point(spec, 0)
        ts = [run_trial(point, spec.scheme_config(), t).T for t in range(40)]
        etas = [run_trial(point, spec.scheme_config(), t).eta for t in range(40)]
        assert rec.T_mean == pytest.approx(np.mean(ts), rel=1e-12)
        assert rec.T_se == pytest.approx(np.std(ts, ddof=1) / math.sqrt(40), rel=1e-9)
        assert rec.eta_mean == pytest.approx(np.mean(etas), rel=1e-12)

    def test_infeasible_point_is_flagged_not_fatal(self):
        spec = small_rs_spec(G_grid=(0.6, 8.0))
        records = run_sweep(spec)
        assert records[0].note == "" and records[0].T_mean is not None
        assert "infeasible" in records[1].note and records[1].T_mean is None

    def test_too_few_slots_for_the_distribution_are_flagged(self):
        # G=700 leaves M=0 slots; G=300 leaves M=1, below the soliton's Y >= 2.
        spec = SweepSpec(
            scheme="IRSA", dist_name="ideal_soliton", dist_Y="M", K=300,
            G_grid=(700.0, 300.0, 1.0), trials=2, tilde_Es_over_N0=0.0009,
        )
        records = run_sweep(spec)
        assert [r.M for r in records] == [0, 1, 300]
        for rec in records[:2]:
            assert "infeasible" in rec.note and rec.T_mean is None
        assert records[2].note == "" and records[2].T_mean is not None
        rs = dataclasses.replace(spec, scheme="RS", G_grid=(700.0,))
        tuning = TuningConfig(alpha_grid=(0.5,), beta_grid=(1.0,), tune_trials=2)
        assert not tune_rs(rs, tuning)[0].feasible
        pa = dataclasses.replace(
            spec, scheme="PA", G_grid=(700.0,), tilde_Es_over_N0=None, hat_R_bits=8.0
        )
        assert not tune_mu(pa, 0, tuning, "mean_fraction", 0.9).feasible

    def test_deterministic_under_seed(self):
        a = run_sweep(small_rs_spec(trials=15))[0]
        b = run_sweep(small_rs_spec(trials=15))[0]
        assert a == b
        c = run_sweep(small_rs_spec(trials=15, seed=6))[0]
        assert c.T_mean != a.T_mean or c.eta_mean != a.eta_mean


class TestRunPointMatchesFrameOracle:
    """run_point reads one degree table per point; every aggregate equals,
    bit for bit, the one over profiles built on each frame's degrees."""

    @pytest.mark.parametrize("scheme", ["IRSA", "RS", "PA"])
    @pytest.mark.parametrize("dist_name,dist_Y", [("l3", None), ("modified_soliton", 6)])
    def test_bit_identical(self, scheme, dist_name, dist_Y):
        spec = SweepSpec(
            scheme=scheme, dist_name=dist_name, dist_Y=dist_Y, K=60,
            G_grid=(0.5, 0.9, 1.3), trials=12, seed=4, tilde_Es_over_N0=0.002,
            hat_R_bits=8.0 if scheme == "PA" else None,
            alpha=0.6 if scheme == "RS" else None, beta=1.0 if scheme == "RS" else None,
            mu=1.1 if scheme == "PA" else None,
        )
        partial = 0
        scheme = spec.scheme_config()
        for g_index in range(len(spec.G_grid)):
            point = make_point(spec, g_index)
            want = MetricStats()
            for t in range(spec.trials):
                want.add(reference_metrics(point, scheme, t))
            got = run_point(point, scheme, spec.trials)
            for name, stats in got.stats.items():
                ref = want.stats[name]
                assert (stats.n, stats.total, stats.centre, stats.m2) == (
                    ref.n, ref.total, ref.centre, ref.m2
                ), name
            partial += 0 < want.stats["T"].mean < point.G
        assert partial  # some point decodes part of its frames


class TestOneTableRule:
    """Sweeps and tuners read the same table, over the distribution's
    support, so they agree on which points they can serve."""

    def test_degree_outside_the_support_does_not_flag(self):
        # At Es/N0 = 8e-17 a degree-1 RS device's rate rounds to 0 bits,
        # while every degree l3 draws (2 and up) keeps a positive rate.
        K, G, es = 60, 0.5, 8e-17
        spec = SweepSpec(
            scheme="RS", dist_name="l3", K=K, G_grid=(G,), trials=4, seed=2,
            tilde_Es_over_N0=es * avg_degree(fixed_l3()) / round(K / G), alpha=1.0, beta=1.0,
        )
        point = make_point(spec, 0)
        with pytest.raises(InfeasibleOperatingPointError, match="round to 0 bits"):
            build_profile(np.array([1]), point.cfg, spec.scheme_config(), point.l_avg)
        (record,) = run_sweep(spec)
        (tuning,) = tune_rs(spec, TuningConfig(alpha_grid=(1.0,), beta_grid=(1.0,), tune_trials=3))
        assert record.note == "" and record.T_mean == G
        assert tuning.feasible and tuning.T_mean == G


class TestTuneRs:
    def test_alpha_zero_feasible_at_low_load(self):
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=4, K=30,
            G_grid=(0.3,), trials=20, seed=3, tilde_Es_over_N0=0.004,
        )
        tunings = tune_rs(spec, TuningConfig(alpha_grid=(0.0, 0.4), beta_grid=(1.0,), tune_trials=20))
        assert tunings[0].feasible
        assert tunings[0].T_mean >= 0.97 * 0.3

    def test_rejects_grid_without_admissible_pairs(self):
        # At very low load the interference estimate needs beta*r_avg*Es
        # large enough; tiny beta leaves the denominator negative.
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=10, K=300,
            G_grid=(0.05,), trials=5, seed=3, tilde_Es_over_N0=0.0009,
        )
        tunings = tune_rs(
            spec, TuningConfig(alpha_grid=(0.5,), beta_grid=(0.5, 1.0, 2.0), tune_trials=2)
        )
        assert not tunings[0].feasible
        assert "no admissible" in tunings[0].note

    def test_tuned_sweep_carries_parameters(self):
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=4, K=30,
            G_grid=(0.4,), trials=25, seed=9, tilde_Es_over_N0=0.004,
        )
        records, tunings = run_tuned_sweep(
            spec, TuningConfig(alpha_grid=(0.0, 0.3, 0.9), beta_grid=(1.0, 1.5), tune_trials=15)
        )
        assert tunings[0].feasible
        assert records[0].alpha == tunings[0].alpha
        assert records[0].beta == tunings[0].beta
        assert records[0].T_mean is not None

    def test_selection_prefers_higher_eta(self):
        # With throughput not binding, a larger alpha gives strictly larger
        # eta, so the tuner must pick the largest feasible alpha.
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=4, K=20,
            G_grid=(0.2,), trials=20, seed=13, tilde_Es_over_N0=0.01,
        )
        tunings = tune_rs(
            spec, TuningConfig(alpha_grid=(0.05, 0.2, 0.5), beta_grid=(1.5,), tune_trials=20)
        )
        assert tunings[0].feasible
        assert tunings[0].alpha == 0.5

    def test_throughput_cap_binds_below_the_load(self):
        # The cap lowers the throughput target below 0.97*G, so the feasible
        # set can only grow and the chosen efficiency can only rise.
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=4, K=30,
            G_grid=(0.6, 1.0), trials=5, seed=3, tilde_Es_over_N0=0.004,
        )
        free = TuningConfig(alpha_grid=(0.0, 0.4, 1.0, 2.0), beta_grid=(1.0, 2.0), tune_trials=10)
        capped = tune_rs(spec, dataclasses.replace(free, throughput_cap=0.5))
        free = tune_rs(spec, free)
        factor = harness.RS_THROUGHPUT_FACTOR
        for t, f in zip(capped, free):
            assert t.target == factor * 0.5 < factor * t.G
            assert f.target == factor * f.G
            assert t.feasible and t.T_mean >= t.target
            assert t.eta_mean >= f.eta_mean

    def test_tunes_rate_selection_whatever_the_spec_scheme(self):
        # The RS tuners build RS candidates themselves: an IRSA spec is
        # tuned exactly as the same spec marked RS.
        spec = SweepSpec(
            scheme="IRSA", dist_name="modified_soliton", dist_Y=4, K=20,
            G_grid=(0.2,), trials=5, seed=13, tilde_Es_over_N0=0.01,
        )
        rs = dataclasses.replace(spec, scheme="RS")
        tuning = TuningConfig(alpha_grid=(0.05, 0.5), beta_grid=(1.5,), tune_trials=4)
        tunings = tune_rs(spec, tuning)
        assert tunings == tune_rs(rs, tuning)
        # The tuned sweep tunes the scheme its spec names: the RS spec's
        # records carry the pairs chosen on the IRSA spec.
        records, _ = run_tuned_sweep(rs, tuning)
        assert records[0].alpha is not None
        assert [(r.alpha, r.beta) for r in records] == [(t.alpha, t.beta) for t in tunings]


class TestTuneMu:
    def test_single_user_matches_closed_form(self):
        # K=1: no interference, so the message decodes iff
        # mu >= N0 / ((r_avg-1) bar_Es + N0); the tuner must return the
        # smallest grid value above that.
        spec = SweepSpec(
            scheme="PA", dist_name="modified_soliton", dist_Y=3, K=1,
            G_grid=(0.1,), trials=10, seed=2, hat_R_bits=10.0, L_cu=100,
        )
        point = make_point(spec, 0)
        hat_es = hat_es_from_rate(10.0, 100, 1.0)
        r_avg = point.cfg.G * point.l_avg
        bar = hat_es / ((1 - r_avg) * hat_es + point.l_avg)
        mu_star = 1.0 / ((r_avg - 1) * bar + 1.0)
        expected = 1.0 + 0.01 * math.ceil(round((mu_star - 1.0) / 0.01, 9))
        tuning = tune_mu(spec, 0, TuningConfig(tune_trials=10), "mean_fraction", 0.9)
        assert tuning.feasible
        assert tuning.mu == pytest.approx(expected, abs=1e-9)

    def test_fraction_monotonic_in_mu(self):
        spec = SweepSpec(
            scheme="PA", dist_name="modified_soliton", dist_Y=4, K=30,
            G_grid=(0.7,), trials=1, seed=8, hat_R_bits=8.0, L_cu=100,
        )
        from irsa_sim.decoder import decode_frame
        from irsa_sim.frame_graph import build_frame
        from irsa_sim.schemes import build_profile

        base = make_point(spec, 0)
        frames = [
            build_frame(base.cfg.K, base.cfg.M, base.dist, trial_rng(11, 0, t))
            for t in range(30)
        ]
        fractions = []
        for mu in (1.0, 1.1, 1.25, 1.5, 2.0, 3.0):
            scheme = SchemeConfig("PA", mu=mu)
            total = sum(
                decode_frame(
                    g, build_profile(g.degrees, base.cfg, scheme, base.l_avg),
                    scheme, base.cfg,
                ).decoded_count
                for g in frames
            )
            fractions.append(total / (30 * base.cfg.K))
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    def test_infeasible_when_mu_cap_too_low(self):
        # The static criterion cannot be met at high load with the power
        # margin capped barely above one.
        spec = SweepSpec(
            scheme="PA", dist_name="modified_soliton", dist_Y=4, K=60,
            G_grid=(2.5,), trials=10, seed=4, hat_R_bits=12.0, L_cu=100,
        )
        tuning = tune_mu(
            spec, 0, TuningConfig(tune_trials=10, mu_max=1.02), "static_reliability", 0.95
        )
        assert not tuning.feasible
        assert tuning.mu is None
        assert "no mu" in tuning.note

    def test_infeasible_energy_balance_is_flagged(self):
        # High load and high nominal rate leave the energy balance without
        # a positive solution.
        spec = SweepSpec(
            scheme="PA", dist_name="modified_soliton", dist_Y=4, K=60,
            G_grid=(2.5,), trials=10, seed=4, hat_R_bits=40.0, L_cu=100,
        )
        tuning = tune_mu(spec, 0, TuningConfig(tune_trials=10), "mean_fraction", 0.9)
        assert not tuning.feasible
        assert tuning.mu is None

    def test_overflowing_top_of_the_mu_grid_is_flagged(self):
        # mu_max = 1e307 leaves a finite grid of 1e7 steps whose top energy
        # summed over the frame overflows.
        spec = SweepSpec(
            scheme="PA", dist_name="l3", K=60, G_grid=(0.5,), trials=2, seed=4, hat_R_bits=10.0,
        )
        tuning = tune_mu(
            spec, 0, TuningConfig(tune_trials=2, mu_max=1e307, mu_resolution=1e300),
            "mean_fraction", 0.9,
        )
        assert not tuning.feasible and tuning.mu is None
        assert tuning.note.startswith("mu: the frame energy K*mu*l_i*E_i/N0 overflows")

    def test_static_criterion_needs_more_power(self):
        spec = SweepSpec(
            scheme="PA", dist_name="modified_soliton", dist_Y=4, K=40,
            G_grid=(0.8,), trials=40, seed=6, hat_R_bits=10.0, L_cu=100,
        )
        tuning = TuningConfig(tune_trials=40)
        lo = tune_mu(spec, 0, tuning, "mean_fraction", 0.9)
        hi = tune_mu(spec, 0, tuning, "static_reliability", 0.99)
        assert lo.feasible and hi.feasible
        assert hi.mu >= lo.mu

    def test_rejects_unknown_criterion(self):
        with pytest.raises(ValueError, match="mu_criterion: must be one of"):
            TuningConfig(mu_criterion="vibes")

    @pytest.mark.parametrize(
        "settings, found",
        [
            ({"mu_resolution": -0.5}, "mu_resolution: must be positive"),
            ({"throughput_cap": -1.0}, "throughput_cap: must be positive"),
            ({"tune_trials": 0}, "tune_trials: must be >= 1"),
            ({"mu_max": 1e308, "mu_resolution": 1e-320}, "mu_resolution: too fine"),
            ({"alpha_grid": ()}, "alpha_grid: must be non-empty"),
        ],
    )
    def test_settings_are_checked_when_built(self, settings, found):
        # The tuners read their settings from TuningConfig alone, so no
        # out-of-range value reaches them.
        with pytest.raises(ValueError, match=found):
            TuningConfig(**settings)

    def test_rejects_spec_without_power_adaptation(self):
        # mu is not a parameter of rate selection: tuning it is an error,
        # not a silently ignored value.
        with pytest.raises(ValueError, match="mu: not a parameter for RS"):
            tune_mu(small_rs_spec(), 0, TuningConfig(tune_trials=2), "mean_fraction", 0.9)


class TestTunedPaSweep:
    def test_records_carry_mu_and_energy_refs(self):
        spec = SweepSpec(
            scheme="PA", dist_name="modified_soliton", dist_Y=4, K=30,
            G_grid=(0.5,), trials=20, seed=3, hat_R_bits=8.0, L_cu=100,
        )
        records, tunings = run_tuned_sweep(spec, TuningConfig(tune_trials=20))
        assert tunings[0].feasible
        rec = records[0]
        assert rec.mu == tunings[0].mu
        hat_es = hat_es_from_rate(8.0, 100, 1.0)
        assert rec.gamma_min_db == pytest.approx(to_db(hat_es), rel=1e-12)
        assert rec.gamma_irsa_db == pytest.approx(
            to_db(hat_es * rec.l_avg), rel=1e-12
        )


class TestCompare:
    def test_rows_and_baseline_energy(self):
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=4, K=32,
            G_grid=(0.8,), trials=15, seed=7, tilde_Es_over_N0=0.004,
        )
        l_avg = avg_degree(modified_soliton(4))
        rows = compare_rs_pa(
            spec,
            TuningConfig(alpha_grid=(0.2, 0.6, 1.2), beta_grid=(1.0,), tune_trials=15),
            CompareConfig((-16.0,), min_throughput=0.6),
        )
        schemes = [r.scheme for r in rows]
        assert schemes == ["RS", "IRSA", "PA"]
        rs, irsa, pa = rows
        assert rs.T_mean >= 0.6
        assert rs.energy_per_user_db == pytest.approx(
            to_db(l_avg * 10 ** (-16.0 / 10.0)), rel=1e-9
        )
        # Baseline energy is the closed form at the achieved rate.
        expected = to_db(l_avg * hat_es_from_rate(irsa.rate_bits, 100, 1.0))
        assert irsa.energy_per_user_db == pytest.approx(expected, rel=1e-9)
        assert pa.rate_bits == rs.rate_bits
        assert pa.mu is not None and pa.T_mean >= 0.6 - 0.05

    def test_overflowing_rate_is_a_flagged_row(self, monkeypatch):
        # A rate whose interference-free energy overflows flags the rows
        # that need that energy instead of raising OverflowError.
        spec = small_rs_spec(G_grid=(0.8,), alpha=None, beta=None)
        scheme = SchemeConfig("RS", alpha=0.2, beta=1.0)
        monkeypatch.setattr(harness, "_tune_rs_for_rate", lambda *a: (scheme, 0.7, 1e5))
        rows = compare_rs_pa(spec, ONE_PAIR, CompareConfig((-16.0,)))
        assert [(r.scheme, r.rate_bits) for r in rows] == [("RS", 1e5), ("IRSA", 1e5), ("PA", 1e5)]
        assert rows[0].note == "" and rows[0].T_mean == 0.7
        for row in rows[1:]:
            assert row.note.startswith("rate_bits: must be below 51200 bits at L_cu = 100")
            assert row.energy_per_user_db is None and row.T_mean is None

    def pa_rows_at_rate_10(self, monkeypatch, **settings):
        # Rate selection "reaches" 10 bits at T = 0.7 with G = 0.5: power
        # adaptation must then decode a fraction 0.7 / 0.5 = 1.4 of messages.
        spec = SweepSpec(
            scheme="RS", dist_name="l3", K=60, G_grid=(0.5,), trials=2, seed=3,
            tilde_Es_over_N0=0.004,
        )
        scheme = SchemeConfig("RS", alpha=0.2, beta=1.0)
        monkeypatch.setattr(harness, "_tune_rs_for_rate", lambda *a: (scheme, 0.7, 10.0))
        tuning = dataclasses.replace(ONE_PAIR, tune_trials=2, **settings)
        return compare_rs_pa(spec, tuning, CompareConfig((-16.0,), min_throughput=0.7))

    def test_pa_target_is_the_floor_over_the_load(self, monkeypatch):
        # The comparison's own target may exceed 1, beyond any target_fraction.
        rows = self.pa_rows_at_rate_10(monkeypatch)
        assert [(r.scheme, r.rate_bits) for r in rows] == [("RS", 10.0), ("IRSA", 10.0), ("PA", 10.0)]
        assert rows[2].note == "no mu <= 10.0 reaches mean_fraction target 1.4"
        assert rows[2].mu is None and rows[2].T_mean is None

    def test_takes_no_mu_criterion(self, monkeypatch):
        # The PA side always uses the mean-fraction rule at min_throughput/G,
        # whatever criterion the tuning names.
        static = self.pa_rows_at_rate_10(monkeypatch, mu_criterion="static_reliability")
        assert static == self.pa_rows_at_rate_10(monkeypatch)

    def test_throughput_floor_compares_exact_totals(self, monkeypatch):
        # 30 tuning frames decoding 293 of M = 375 slots and 30 decoding 292
        # total exactly 0.78 of 60 * 375, while the mean of the per-frame
        # ratios rounds below 0.78: the floor must hold.
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=10, K=300,
            G_grid=(0.8,), trials=2, seed=1, tilde_Es_over_N0=0.0009,
        )
        per_frame = [293] * 30 + [292] * 30
        acc = RunningStats()
        for count in per_frame:
            acc.add(count / 375)
        assert acc.mean < 0.78 == sum(per_frame) / (60 * 375)
        shared = harness._rs_candidate_trials

        def exact_tie(*args):
            point, tables, counts, rate_sums = shared(*args)
            counts[:] = per_frame
            return point, tables, counts, rate_sums

        monkeypatch.setattr(harness, "_rs_candidate_trials", exact_tie)
        tuning = harness._tune_rs_for_rate(
            spec, TuningConfig(alpha_grid=(0.5,), beta_grid=(1.0,), tune_trials=60), 0.78
        )
        assert tuning is not None and tuning[0].alpha == 0.5

    def test_rate_ranking_matches_rate_rs(self):
        # The comparison ranks candidates by the expectation of their rate
        # tables; it orders them as the per-degree rate_rs sums do.
        rng = np.random.default_rng(11)
        alphas = (0.0, 0.05, 0.3, 0.97, 1.0, 2.5)
        betas = (0.5, 0.7071, 1.0, 2.0)
        points = 0
        while points < 300:
            name = ("l3", "ideal_soliton", "modified_soliton")[rng.integers(3)]
            Y = None if name == "l3" else int(rng.integers(2, 30))
            K = int(rng.integers(20, 400))
            G = float(rng.uniform(0.05, 2.0))
            M = round(K / G)
            if M < from_name(name, Y).max_degree:
                continue
            spec = SweepSpec(
                scheme="RS", dist_name=name, dist_Y=Y, K=K, G_grid=(G,), trials=1,
                tilde_Es_over_N0=float(10.0 ** rng.uniform(-5.0, 1.0)),
            )
            point = make_point(spec, 0)
            es = point.cfg.M * point.cfg.tilde_Es / point.l_avg
            r_avg = point.cfg.G * point.l_avg
            schemes, by_rate_rs = [], []
            for a in alphas:
                for b in betas:
                    try:
                        mean = sum(
                            float(p) * rate_rs(int(d), es, 1.0, 100, a, b, r_avg)
                            for d, p in point.dist.atoms
                        )
                    except TuningParameterError:
                        continue
                    schemes.append(SchemeConfig("RS", alpha=a, beta=b))
                    by_rate_rs.append(mean)
            if not schemes:
                continue
            tables = harness._degree_tables(point, schemes)
            want = sorted(range(len(schemes)), key=lambda i: -by_rate_rs[i])
            assert harness._by_mean_rate(point, tables) == want
            points += 1

    def test_requires_single_g(self):
        spec = small_rs_spec(G_grid=(0.4, 0.8))
        with pytest.raises(ValueError):
            compare_rs_pa(spec, ONE_PAIR, CompareConfig((-16.0,)))


class TestPaperAnchors:
    """Published curve values not already covered by the acceptance gate."""

    def test_irsa_modified_soliton_collapse_point(self):
        # The Y=10 soliton baseline at G=0.9 sits mid-collapse near 0.52.
        spec = SweepSpec(
            scheme="IRSA", dist_name="modified_soliton", dist_Y=10, K=300,
            G_grid=(0.9,), trials=300, seed=5, tilde_Es_over_N0=0.0009,
        )
        rec = run_sweep(spec)[0]
        assert rec.T_mean == pytest.approx(0.5221, abs=0.05)

    def test_compare_low_energy_point(self):
        # Feeding Es/N0 = -18.06 dB to rate selection at G=0.8 yields an
        # average rate near 3.56 bits at l_avg*Es/N0 = -12.71 dB, and power
        # adaptation reaches that rate no more than ~1 dB worse.
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=10, K=300,
            G_grid=(0.8,), trials=60, seed=17, tilde_Es_over_N0=0.0009,
        )
        alpha_grid = (0.8, 1.2, 1.8, 2.6, 3.6, 5.0)
        beta_grid = (0.7071, 1.0, 1.4142)
        rows = compare_rs_pa(
            spec,
            TuningConfig(alpha_grid=alpha_grid, beta_grid=beta_grid, tune_trials=30),
            CompareConfig((-18.06,), min_throughput=0.78),
        )
        rs, irsa, pa = rows
        assert rs.energy_per_user_db == pytest.approx(-12.71, abs=0.05)
        assert rs.T_mean >= 0.78
        assert rs.rate_bits == pytest.approx(3.56, abs=0.6)
        # Baseline energy at the nominal rate 10 is the closed-form level.
        l_avg = avg_degree(modified_soliton(10))
        assert to_db(l_avg * hat_es_from_rate(10.0, 100, 1.0)) == pytest.approx(
            -2.92530371556497, abs=1e-6
        )
        assert pa.T_mean is not None and pa.T_mean >= 0.78 - 0.02
        assert pa.energy_per_user_db <= rs.energy_per_user_db + 1.0

    def test_slot_count_tracking_soliton_sweep(self):
        # Y = "M" re-parameterises the ideal soliton at every grid point, so
        # the max degree always fits and the mean degree grows with M.
        spec = SweepSpec(
            scheme="IRSA", dist_name="ideal_soliton", dist_Y="M", K=40,
            G_grid=(0.5, 1.0), trials=10, seed=21, tilde_Es_over_N0=0.002,
        )
        records = run_sweep(spec)
        assert all(r.note == "" for r in records)
        assert records[0].M == 80 and records[1].M == 40
        assert records[0].l_avg > records[1].l_avg  # harmonic growth in M
        assert records[0].distribution == "ideal_soliton_YM"


# ---------------------------------------------------------------------------
# The tuners against the sequential receiver
# ---------------------------------------------------------------------------


def sequential_tune_rs_point(spec, g_index, tuning, target):
    """Reference for harness._tune_rs_point: every candidate decoded by
    decode_frame and measured by trial_metrics, one frame at a time."""
    G = spec.G_grid[g_index]
    base = make_point(spec, g_index)
    candidates = []
    for a in tuning.alpha_grid:
        for b in tuning.beta_grid:
            try:
                rs_sinr_target(1, base.cfg.M * base.cfg.tilde_Es / base.l_avg,
                               base.cfg.N0, a, b, base.cfg.G * base.l_avg)
            except TuningParameterError:
                continue
            candidates.append(SchemeConfig("RS", alpha=a, beta=b))
    tune_seed = mix64(spec.seed, harness.PURPOSE_RS_TUNE)
    accs = [MetricStats() for _ in candidates]
    for t in range(tuning.tune_trials):
        graph = harness._frame(base, tune_seed, t)
        for scheme, acc in zip(candidates, accs):
            profile, result = frame_outcome(base, graph, scheme)
            acc.add(trial_metrics(result, profile, base.cfg))
    feasible = [
        (scheme, acc.stats) for scheme, acc in zip(candidates, accs)
        if acc.stats["T"].mean >= target
    ]
    if not feasible:
        return harness.RsTuning(
            G, None, None, False, target=target,
            note=f"no candidate reached mean T >= {target:.4g}",
        )
    scheme, stats = max(
        feasible, key=lambda c: (c[1]["eta"].mean, c[1]["T"].mean, -c[0].alpha)
    )
    return harness.RsTuning(
        G, scheme.alpha, scheme.beta, True,
        T_mean=stats["T"].mean, eta_mean=stats["eta"].mean, target=target,
    )


def sequential_decoded_sets(point, graph, tables):
    """Reference for harness._decoded_sets: one decode_frame per scheme, on
    the profile built for the frame."""
    for scheme in tables.schemes:
        yield frame_outcome(point, graph, scheme)[1].decoded


ALPHAS = tuple(float(x) for x in np.geomspace(0.02, 2.0, 6))
BETAS = tuple(float(x) for x in np.geomspace(0.5, 4.0, 4))


class TestTunersMatchSequentialReceiver:
    """Every tuner decision and reported float is bit-identical to the
    per-candidate decode_frame loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tune_rs(self, seed, monkeypatch):
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=6, K=60,
            G_grid=(0.4, 0.8, 1.1, 2.0), trials=5, seed=seed, tilde_Es_over_N0=0.002,
        )
        tuning = TuningConfig(alpha_grid=ALPHAS, beta_grid=BETAS, tune_trials=6)
        fast = tune_rs(spec, tuning)
        monkeypatch.setattr(harness, "_tune_rs_point", sequential_tune_rs_point)
        assert tune_rs(spec, tuning) == fast
        # The throughput floor binds: it rules out the largest alpha.
        assert all(t.feasible and t.alpha < max(ALPHAS) for t in fast)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tune_mu_mean_fraction(self, seed, monkeypatch):
        spec = SweepSpec(
            scheme="PA", dist_name="modified_soliton", dist_Y=6, K=60,
            G_grid=(0.5, 1.0, 1.3), trials=5, seed=seed, hat_R_bits=8.0,
        )
        fast = [
            tune_mu(spec, g, TuningConfig(tune_trials=8), "mean_fraction", 0.95)
            for g in range(3)
        ]
        monkeypatch.setattr(harness, "_decoded_sets", sequential_decoded_sets)
        slow = [
            tune_mu(spec, g, TuningConfig(tune_trials=8), "mean_fraction", 0.95)
            for g in range(3)
        ]
        assert slow == fast
        assert any(t.feasible and t.mu > 1.0 for t in fast)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compare_rs_pa(self, seed, monkeypatch):
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=6, K=60,
            G_grid=(0.8,), trials=6, seed=seed, tilde_Es_over_N0=0.002,
        )

        def rows():
            return compare_rs_pa(
                spec,
                TuningConfig(
                    alpha_grid=(0.2, 0.6, 1.2, 2.4), beta_grid=(0.7071, 1.0, 1.4142),
                    tune_trials=6,
                ),
                CompareConfig((-20.0, -16.0, -12.0), min_throughput=0.7),
            )

        fast = rows()
        monkeypatch.setattr(harness, "_decoded_sets", sequential_decoded_sets)
        assert rows() == fast
        assert any(r.scheme == "PA" and r.mu is not None for r in fast)

    @pytest.mark.parametrize("scheme_name", ["RS", "PA"])
    def test_degree_tables_match_frame_profiles(self, scheme_name):
        # A candidate's per-degree table read at a frame's degrees is,
        # element for element, the profile built on that frame.
        spec = SweepSpec(
            scheme=scheme_name, dist_name="modified_soliton", dist_Y=10, K=300,
            G_grid=(0.6, 1.3), trials=1, seed=3, tilde_Es_over_N0=0.0009, hat_R_bits=10.0,
        )
        if scheme_name == "RS":
            schemes = [SchemeConfig("RS", alpha=a, beta=b) for a in ALPHAS for b in BETAS]
        else:
            schemes = [SchemeConfig("PA", mu=mu) for mu in (1.0, 1.01, 1.37, 2.5)]
        for g_index in range(2):
            point = make_point(spec, g_index)
            tables = harness._degree_tables(point, schemes)
            for t in range(5):
                graph = harness._frame(point, 7, t)
                index = tables.index(graph)
                for i, (scheme, table) in enumerate(zip(schemes, tables.profiles)):
                    profile = build_profile(graph.degrees, point.cfg, scheme, point.l_avg)
                    assert np.array_equal(table.energies[index], profile.energies)
                    assert np.array_equal(table.rates[index], profile.rates)
                    assert np.array_equal(tables.energies[i, index], profile.energies)
                    assert np.array_equal(
                        tables.thresholds[i, index], success_thresholds(profile)
                    )
