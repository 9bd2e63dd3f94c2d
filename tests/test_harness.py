"""Sweep orchestration: determinism, aggregation, and the tuners."""

import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest

from irsa_sim import harness, schemes
from irsa_sim.config import ConfigValidationError
from irsa_sim.decoder import decode_frame, static_passes
from irsa_sim.distributions import avg_degree, fixed_l3, from_name, modified_soliton
from irsa_sim.frame_graph import FrameGraph, build_frame
from irsa_sim.harness import (
    CompareConfig,
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
)
from oracles import effective_sinr, oracle_interference, rate_rs


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


def spy_rows(monkeypatch):
    """Record the row of every profile an RsGrid hands out: a dict from
    the profile's id, while it lives, to its row."""
    rows, real = {}, schemes.RsGrid.profile

    def profile(grid, i):
        out = real(grid, i)
        rows[id(out)] = i
        return out

    monkeypatch.setattr(schemes.RsGrid, "profile", profile)
    return rows


def tune_rs_grid(spec, tuning):
    """tune_rs at every grid point of the spec, in order."""
    return [tune_rs(spec, g_index, tuning) for g_index in range(len(spec.G_grid))]


def frame_outcome(point, graph, scheme):
    """The profile built on the frame's own degrees, and its decode."""
    profile = build_profile(graph.degrees, point.cfg, scheme, point.l_avg)
    return profile, decode_frame(graph, profile, scheme, point.cfg)


def run_trial(point, scheme, trial):
    """The measures of one trial of ``scheme`` at the point, as run_point
    adds them: the frame profiled by the scheme's degree table, decoded and
    measured."""
    graph = harness._frame(point, point.seed, trial)
    profile = harness._table(point, scheme).take(point.index(graph))
    return trial_metrics(decode_frame(graph, profile, scheme, point.cfg), profile, point.cfg)


def new_stats():
    """One RunningStats per TrialMetrics field, as run_point returns."""
    return {f.name: RunningStats() for f in dataclasses.fields(TrialMetrics)}


def add_metrics(stats, metrics):
    for name, acc in stats.items():
        acc.add(getattr(metrics, name))


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
        T=int(mask.sum()) / M, eta=S / C, eta_max=S_max / C, gamma=S / M,
        energy_per_user_db=to_db(per_user / point.cfg.N0),
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
        assert not tune_rs(rs, 0, tuning).feasible
        pa = dataclasses.replace(
            spec, scheme="PA", G_grid=(700.0,), tilde_Es_over_N0=None, hat_R_bits=8.0
        )
        assert not tune_mu(pa, 0, tuning, "mean_fraction", 0.9).feasible

    def test_soliton_past_its_support_bound_is_flagged_unbuilt(self, monkeypatch):
        # A literal Y and "Y": "M" alike: past MAX_SOLITON_Y the point is
        # flagged before any atom is built; at the bound it runs.
        built = []
        real = harness.from_name
        monkeypatch.setattr(harness, "from_name", lambda *args: built.append(args) or real(*args))
        bound = harness.MAX_SOLITON_Y
        spec = SweepSpec(
            scheme="IRSA", dist_name="modified_soliton", dist_Y=bound + 1, K=24,
            G_grid=(0.002,), trials=1, tilde_Es_over_N0=0.01,
        )
        tracking = dataclasses.replace(spec, dist_name="ideal_soliton", dist_Y="M")
        for s, Y in ((spec, bound + 1), (tracking, 12000)):
            (rec,) = run_sweep(s)
            assert rec.M == 12000 and rec.T_mean is None
            assert rec.note == (
                f"infeasible: no distribution at M=12000: {s.dist_name} Y={Y} is above "
                f"the bound MAX_SOLITON_Y = {bound}"
            )
        assert built == []
        (rec,) = run_sweep(dataclasses.replace(spec, dist_Y=bound))
        assert rec.note == "" and rec.T_mean is not None
        assert built == [("modified_soliton", bound)]

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
            want = new_stats()
            for t in range(spec.trials):
                add_metrics(want, reference_metrics(point, scheme, t))
            got = run_point(point, scheme, spec.trials)
            assert got.keys() == want.keys()
            for name, stats in got.items():
                ref = want[name]
                assert (stats.n, stats.total, stats.centre, stats.m2) == (
                    ref.n, ref.total, ref.centre, ref.m2
                ), name
            partial += 0 < want["T"].mean < point.G
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
        tuning = tune_rs(spec, 0, TuningConfig(alpha_grid=(1.0,), beta_grid=(1.0,), tune_trials=3))
        assert record.note == "" and record.T_mean == G
        assert tuning.feasible and tuning.T_mean == G


class TestTuneRs:
    def test_alpha_zero_feasible_at_low_load(self):
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=4, K=30,
            G_grid=(0.3,), trials=20, seed=3, tilde_Es_over_N0=0.004,
        )
        tuning = TuningConfig(alpha_grid=(0.0, 0.4), beta_grid=(1.0,), tune_trials=20)
        tuned = tune_rs(spec, 0, tuning)
        assert tuned.feasible
        assert tuned.T_mean >= 0.97 * 0.3

    def test_rejects_grid_without_admissible_pairs(self):
        # At very low load the interference estimate needs beta*r_avg*Es
        # large enough; tiny beta leaves the denominator negative.
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=10, K=300,
            G_grid=(0.05,), trials=5, seed=3, tilde_Es_over_N0=0.0009,
        )
        tuned = tune_rs(
            spec, 0, TuningConfig(alpha_grid=(0.5,), beta_grid=(0.5, 1.0, 2.0), tune_trials=2)
        )
        assert not tuned.feasible
        assert "no admissible" in tuned.note

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
        tuned = tune_rs(
            spec, 0, TuningConfig(alpha_grid=(0.05, 0.2, 0.5), beta_grid=(1.5,), tune_trials=20)
        )
        assert tuned.feasible
        assert tuned.alpha == 0.5

    def test_throughput_cap_binds_below_the_load(self):
        # The cap lowers the throughput target below 0.97*G, so the feasible
        # set can only grow and the chosen efficiency can only rise.
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=4, K=30,
            G_grid=(0.6, 1.0), trials=5, seed=3, tilde_Es_over_N0=0.004,
        )
        free = TuningConfig(alpha_grid=(0.0, 0.4, 1.0, 2.0), beta_grid=(1.0, 2.0), tune_trials=10)
        capped = tune_rs_grid(spec, dataclasses.replace(free, throughput_cap=0.5))
        free = tune_rs_grid(spec, free)
        factor = harness.RS_THROUGHPUT_FACTOR
        for t, f in zip(capped, free):
            assert t.target == factor * 0.5 < factor * t.G
            assert f.target == factor * f.G
            assert t.feasible and t.T_mean >= t.target
            assert t.eta_mean >= f.eta_mean

    def test_search_decodes_under_a_quarter_of_the_candidates(self, monkeypatch):
        # The tune_rs_l2 benchmark's 84 pairs at G = 0.9 on one frame group,
        # stacked once, one closure per decoded pair: the feasibility search
        # probes at most 2 + ceil(log2 n) pairs of each chain of n, and the
        # efficiency bound rules out most feasible pairs undecoded, and only
        # those that cannot win.
        closures, visited, stacked, pairs, chains, searched = [], [], [], [], [], []
        real, real_sets = harness.decoded_closure, harness._decoded_sets
        real_stack, real_pairs = harness.stack_frames, harness._rs_pairs
        real_search, real_first = harness._rs_search, harness._first_reaching
        rows = spy_rows(monkeypatch)

        def spy(graph, energies, thresholds, N0):
            closures.append(graph.K)
            return real(graph, energies, thresholds, N0)

        def sets_spy(point, stacks, table, test=None):
            visited.append(rows[id(table)])
            return real_sets(point, stacks, table, test)

        def stack_spy(graphs):
            stacked.append(len(graphs))
            return real_stack(graphs)

        def pairs_spy(*args):
            pairs.append(real_pairs(*args))
            return pairs[-1]

        def first_spy(keys, stacks, outcomes, reaches):
            start = len(visited)
            found = real_first(keys, stacks, outcomes, reaches)
            chains.append((list(keys), len(visited) - start))
            return found

        def search_spy(*args):
            searched.append(real_search(*args))
            return searched[-1]

        monkeypatch.setattr(harness, "decoded_closure", spy)
        monkeypatch.setattr(harness, "_decoded_sets", sets_spy)
        monkeypatch.setattr(harness, "stack_frames", stack_spy)
        monkeypatch.setattr(harness, "_rs_pairs", pairs_spy)
        monkeypatch.setattr(harness, "_first_reaching", first_spy)
        monkeypatch.setattr(harness, "_rs_search", search_spy)
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=10, K=300,
            G_grid=(0.9,), trials=1, seed=3, tilde_Es_over_N0=0.0009,
        )
        tuning = TuningConfig(
            alpha_grid=tuple(np.geomspace(0.02, 2.0, 12).tolist()),
            beta_grid=tuple(np.geomspace(0.5, 4.0, 7).tolist()),
            tune_trials=harness.FRAME_GROUP,
        )
        tuned = tune_rs(spec, 0, tuning)
        assert tuned.feasible
        assert 0 < len(closures) < 84 / 4
        assert set(closures) == {harness.FRAME_GROUP * 300}
        assert len(visited) == len(closures)
        assert stacked == [harness.FRAME_GROUP]
        (point, grid, stacks), = pairs
        (feasible,) = searched
        assert sorted(key for chain, _ in chains for key in chain) == list(range(84))
        for chain, probes in chains:
            assert probes <= 2 + math.ceil(math.log2(len(chain)))
        # Every feasible pair left undecoded by the branch and bound has an
        # efficiency bound (every message decoded) below the winner's mean
        # efficiency.
        index = np.concatenate([point.index(stack) for stack in stacks])
        c_ref = reference_capacity(grid.profile(0), point.cfg)
        probed = sum(probes for _, probes in chains)
        decoded = set(visited[probed:])
        skipped = set(feasible) - decoded
        assert skipped and decoded <= set(feasible)
        assert any(grid.pairs[i] == (tuned.alpha, tuned.beta) for i in decoded)
        for i in skipped:
            total = grid.rates[i][index].sum()
            assert total / (tuning.tune_trials * c_ref) < tuned.eta_mean

    def test_each_pair_takes_one_sinr_target(self, monkeypatch):
        # Each (alpha, beta) pair's RS target is taken once per grid point,
        # admissible or not: one table over both grids, and no single-pair
        # profile.  At G = 0.4 the pairs with beta = 0.5 are not admissible:
        # the table has no row for them.
        calls = []
        real = schemes.rs_grid

        def spy(degrees, cfg, alpha_grid, beta_grid, l_avg, *rest):
            calls.append((cfg.G * l_avg, tuple(alpha_grid), tuple(beta_grid)))
            return real(degrees, cfg, alpha_grid, beta_grid, l_avg, *rest)

        for name, module in list(sys.modules.items()):
            if name.startswith("irsa_sim") and hasattr(module, "rs_grid"):
                monkeypatch.setattr(module, "rs_grid", spy)
        spec = small_rs_spec(G_grid=(0.4, 0.6), tilde_Es_over_N0=0.2)
        tuning = TuningConfig(alpha_grid=(0.1, 0.3), beta_grid=(0.5, 1.0, 2.0), tune_trials=4)
        tunings = tune_rs_grid(spec, tuning)
        assert all(t.feasible for t in tunings)
        points = [make_point(spec, g) for g in range(2)]
        assert sorted(calls) == sorted(
            (p.cfg.G * p.l_avg, tuning.alpha_grid, tuning.beta_grid) for p in points
        )
        pairs = list(itertools.product(tuning.alpha_grid, tuning.beta_grid))
        point, grid, _ = harness._rs_pairs(spec, 0, tuning)
        assert grid.pairs == [(a, b) for a, b in pairs if b != 0.5]
        shape = (len(pairs) - 2, len(point.dist.degrees))
        assert grid.rates.shape == grid.sinr_thresholds.shape == shape

    def test_tunes_rate_selection_whatever_the_spec_scheme(self):
        # The RS tuners build RS candidates themselves: an IRSA spec is
        # tuned exactly as the same spec marked RS.
        spec = SweepSpec(
            scheme="IRSA", dist_name="modified_soliton", dist_Y=4, K=20,
            G_grid=(0.2,), trials=5, seed=13, tilde_Es_over_N0=0.01,
        )
        rs = dataclasses.replace(spec, scheme="RS")
        tuning = TuningConfig(alpha_grid=(0.05, 0.5), beta_grid=(1.5,), tune_trials=4)
        tunings = tune_rs_grid(spec, tuning)
        assert tunings == tune_rs_grid(rs, tuning)
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

    @pytest.mark.parametrize(
        "mu_max, resolution, top",
        [(1.02, 0.02, 1), (1.3, 0.1, 3), (1.02, 0.01, 2), (1.7, 0.1, 7), (1.005, 0.01, 0)],
    )
    def test_mu_grid_stops_at_mu_max(self, mu_max, resolution, top, monkeypatch):
        # The grid is 1 + k * mu_resolution up to the last value not above
        # mu_max: rounding (mu_max - 1) / mu_resolution up would try 1.04
        # for 1.02 / 0.02.  1 + 7 * 0.1 exceeds 1.7 by float rounding alone
        # and still counts.
        tried = []
        real = harness._table

        def spy(point, scheme):
            tried.append(scheme.mu)
            return real(point, scheme)

        monkeypatch.setattr(harness, "_table", spy)
        spec = SweepSpec(
            scheme="PA", dist_name="modified_soliton", dist_Y=6, K=60,
            G_grid=(0.5, 1.0, 1.3), trials=5, seed=0, hat_R_bits=8.0,
        )
        tuning = TuningConfig(tune_trials=10, mu_max=mu_max, mu_resolution=resolution)
        grid = [1.0 + k * resolution for k in range(top + 1)]
        for criterion, target in (("mean_fraction", 0.985), ("static_reliability", 0.6)):
            got = [tune_mu(spec, g, tuning, criterion, target) for g in range(3)]
            assert all(t.mu is None or t.mu in grid for t in got)
        assert max(tried) == grid[-1] and set(tried) <= set(grid)

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

    def test_rejects_unknown_criterion_argument(self, monkeypatch):
        # The criterion is an argument, not a TuningConfig field, so the
        # tuner checks it itself, before it draws a frame.
        monkeypatch.setattr(harness, "build_frame", None)
        spec = SweepSpec(
            scheme="PA", dist_name="modified_soliton", dist_Y=4, K=20,
            G_grid=(0.5,), trials=1, seed=0, hat_R_bits=8.0,
        )
        with pytest.raises(ConfigValidationError, match="mu_criterion: must be one of"):
            tune_mu(spec, 0, TuningConfig(tune_trials=4), "vibes", 0.9)

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
        # ratios rounds below 0.78: the comparison's floor must hold.  So
        # must tune_rs's target RS_THROUGHPUT_FACTOR * 0.8 where 30 frames
        # decode 292 and 30 decode 290.
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=10, K=300,
            G_grid=(0.8,), trials=2, seed=1, tilde_Es_over_N0=0.0009,
        )
        target = harness.RS_THROUGHPUT_FACTOR * 0.8
        at_floor, at_target = [293] * 30 + [292] * 30, [292] * 30 + [290] * 30
        for counts, floor in ((at_floor, 0.78), (at_target, target)):
            acc = RunningStats()
            for count in counts:
                acc.add(count / 375)
            assert acc.mean < floor == sum(counts) / (60 * 375)
        per_frame = []

        def exact_tie(point, stacks, table, test=None):
            frames = sum(stack.K for stack in stacks) // point.cfg.K
            decoded = np.zeros((frames, point.cfg.K), dtype=bool)
            for row, count in zip(decoded, per_frame):
                row[:count] = True
            return decoded

        monkeypatch.setattr(harness, "_decoded_sets", exact_tie)
        tuning = TuningConfig(alpha_grid=(0.5,), beta_grid=(1.0,), tune_trials=60)
        per_frame[:] = at_floor
        chosen = harness._tune_rs_for_rate(spec, tuning, 0.78)
        assert chosen is not None and chosen[0].alpha == 0.5
        per_frame[:] = at_target
        tuned = tune_rs(spec, 0, tuning)
        assert tuned.feasible and tuned.alpha == 0.5 and tuned.target == target

    def test_rate_search_stops_at_the_first_feasible_candidate(self, monkeypatch):
        # The comparison's rate search takes the first pair, by descending
        # mean rate, that holds the floor, probing at most 2 + ceil(log2 n)
        # pairs of each chain of n, each probe one closure on one frame
        # group; the winner's evaluation is one more closure.
        probes, closures, pairs, chains = [], [], [], []
        real, real_closure = harness._decoded_sets, harness.decoded_closure
        real_pairs, real_first = harness._rs_pairs, harness._first_reaching
        rows = spy_rows(monkeypatch)

        def spy(point, stacks, table, test=None):
            decoded = real(point, stacks, table, test)
            held = pairs[0][2]
            if all(any(s is h for h in held) for s in stacks):  # a probe, not the evaluation
                probes.append(rows[id(table)])
            return decoded

        def closure_spy(graph, energies, thresholds, N0):
            closures.append(graph.K)
            return real_closure(graph, energies, thresholds, N0)

        def pairs_spy(*args):
            pairs.append(real_pairs(*args))
            return pairs[-1]

        def first_spy(keys, stacks, outcomes, reaches):
            chains.append(list(keys))
            return real_first(keys, stacks, outcomes, reaches)

        monkeypatch.setattr(harness, "_decoded_sets", spy)
        monkeypatch.setattr(harness, "decoded_closure", closure_spy)
        monkeypatch.setattr(harness, "_rs_pairs", pairs_spy)
        monkeypatch.setattr(harness, "_first_reaching", first_spy)
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=10, K=300,
            G_grid=(0.8,), trials=2, seed=17, tilde_Es_over_N0=0.0009,
        )
        tuning = TuningConfig(
            alpha_grid=(0.4, 0.8, 1.2, 1.8, 2.6, 3.6, 5.0), beta_grid=(0.7071, 1.0, 1.4142, 2.0),
            tune_trials=harness.FRAME_GROUP,
        )
        chosen = harness._tune_rs_for_rate(spec, tuning, 0.78)
        *searched, size = closures
        assert size == spec.trials * spec.K
        assert len(searched) == len(probes)
        (point, grid, stacks), = pairs
        (chain,) = chains
        assert sorted(chain) == list(range(len(grid.pairs)))
        assert 1 < len(probes) <= 2 + math.ceil(math.log2(len(chain)))
        # Every set the search decoded is the full evaluation's: the pairs
        # before the winner miss the floor, and the winner holds it.
        slots = tuning.tune_trials * point.cfg.M
        holds = [
            int(real(point, stacks, grid.profile(i)).sum()) / slots >= 0.78
            for i in range(len(grid.pairs))
        ]
        first = next(i for i in chain if holds[i])
        alpha, beta = grid.pairs[first]
        assert chosen[0] == SchemeConfig("RS", alpha=alpha, beta=beta) and first in probes
        assert all(holds[i] for i in chain[chain.index(first):])

    def test_rate_ranking_matches_rate_rs(self):
        # The comparison ranks candidates by the expectation of their rate
        # tables; it orders them as the per-degree rate_rs sums do.  At a
        # floor of 0 every pair is feasible, so the search returns them all.
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
            by_rate_rs = []
            for a in alphas:
                for b in betas:
                    try:
                        mean = sum(
                            float(p) * rate_rs(int(d), es, 1.0, 100, a, b, r_avg)
                            for d, p in point.dist.atoms
                        )
                    except TuningParameterError:
                        continue
                    by_rate_rs.append(mean)
            if not by_rate_rs:
                continue
            grid = schemes.rs_grid(point.dist.degrees, point.cfg, alphas, betas, point.l_avg)
            want = sorted(range(len(by_rate_rs)), key=lambda i: -by_rate_rs[i])
            stacks = list(harness._stacks(point, 0, 1))
            assert harness._rs_search(point, grid, stacks, 0.0) == want
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


def sequential_tune_rs(spec, g_index, tuning):
    """Reference for harness.tune_rs: every candidate decoded by
    decode_frame and measured by trial_metrics, one frame at a time; a
    candidate is feasible when its decoded total over the tuning frames
    reaches the point's target, as an exact ratio of integers."""
    G = spec.G_grid[g_index]
    cap = tuning.throughput_cap
    target = harness.RS_THROUGHPUT_FACTOR * (G if cap is None else min(G, cap))
    base = make_point(spec, g_index)
    candidates = []
    for a in tuning.alpha_grid:
        for b in tuning.beta_grid:
            try:
                rate_rs(1, base.cfg.M * base.cfg.tilde_Es / base.l_avg,
                        base.cfg.N0, base.cfg.L_cu, a, b, base.cfg.G * base.l_avg)
            except TuningParameterError:
                continue
            candidates.append(SchemeConfig("RS", alpha=a, beta=b))
    tune_seed = mix64(spec.seed, harness.PURPOSE_RS_TUNE)
    accs = [new_stats() for _ in candidates]
    decoded = [0] * len(candidates)
    for t in range(tuning.tune_trials):
        graph = harness._frame(base, tune_seed, t)
        for c, (scheme, acc) in enumerate(zip(candidates, accs)):
            profile, result = frame_outcome(base, graph, scheme)
            add_metrics(acc, trial_metrics(result, profile, base.cfg))
            decoded[c] += result.decoded_count
    slots = tuning.tune_trials * base.cfg.M
    feasible = [
        (scheme, acc) for scheme, acc, total in zip(candidates, accs, decoded)
        if total / slots >= target
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


def linear_scan_tune_rs_for_rate(spec, tuning, min_throughput):
    """Reference for harness._tune_rs_for_rate: every admissible pair in
    turn, by descending mean rate (each degree's rate_rs weighted by its
    probability), ties in alpha-major order, decoded on every tuning frame
    by sequential_decoded_sets until one holds the floor; its evaluation
    decodes each frame with decode_frame."""
    point = make_point(spec, 0)
    es = point.cfg.M * point.cfg.tilde_Es / point.l_avg
    r_avg = point.cfg.G * point.l_avg
    candidates, means = [], []
    for a in tuning.alpha_grid:
        for b in tuning.beta_grid:
            try:
                rates = [rate_rs(int(d), es, point.cfg.N0, point.cfg.L_cu, a, b, r_avg)
                         for d in point.dist.degrees]
            except TuningParameterError:
                continue
            candidates.append(SchemeConfig("RS", alpha=a, beta=b))
            means.append(math.fsum(point.dist.probabilities * np.array(rates)))
    tune_seed = mix64(spec.seed, harness.PURPOSE_RS_TUNE)
    stacks = list(harness._stacks(point, tune_seed, tuning.tune_trials))
    for i in sorted(range(len(candidates)), key=lambda i: -means[i]):
        table = harness._table(point, candidates[i])
        total = int(sequential_decoded_sets(point, stacks, table).sum())
        if total / (tuning.tune_trials * point.cfg.M) < min_throughput:
            continue
        T, rate = RunningStats(), RunningStats()
        for t in range(spec.trials):
            graph = harness._frame(point, point.seed, t)
            profile, result = frame_outcome(point, graph, candidates[i])
            T.add(result.decoded_count / point.cfg.M)
            rate.add(float(profile.rates.mean()))
        return candidates[i], T.mean, rate.mean
    return None


def split_stacks(point, stacks):
    """The frames of ``stacks`` (harness._stacks) apart again, in trial
    order: frame f of a stack holds its messages f*K .. f*K + K-1 and its
    slots f*M .. f*M + M-1."""
    K, M = point.cfg.K, point.cfg.M
    frames = []
    for stack in stacks:
        for f in range(stack.K // K):
            edges = stack.edge_msg // K == f
            frames.append(FrameGraph(
                M, degrees=stack.degrees[f * K:(f + 1) * K],
                edge_slot=stack.edge_slot[edges] - f * M,
            ))
    return frames


def static_oracle(graph, profile, N0):
    """Which messages pass their success test before any cancellation, by
    the per-message effective_sinr loop over the whole frame's
    interference."""
    interference = oracle_interference(graph, profile.energies, [False] * graph.K)
    thresholds = profile.sinr_thresholds * (1 - 1e-9)
    return [
        effective_sinr(m, graph, interference, profile, N0) >= thresholds[m]
        for m in range(graph.K)
    ]


def sequential_decoded_sets(point, stacks, table, test=None):
    """Reference for harness._decoded_sets, one frame of the stacks at a
    time on ``table`` read at the frame's degrees: decode_frame's decoded
    set, or with ``test`` static_passes, static_oracle's passing set.
    decode_frame's decoded set reads only the scheme's variant, told here
    by the table: only a PA table has no common Es."""
    if table.Es is None:
        scheme = SchemeConfig("PA", mu=1.0)
    else:
        scheme = SchemeConfig("RS", alpha=1.0, beta=1.0)
    masks = []
    for graph in split_stacks(point, stacks):
        profile = table.take(point.index(graph))
        if test is static_passes:
            masks.append(static_oracle(graph, profile, point.cfg.N0))
        else:
            masks.append(decode_frame(graph, profile, scheme, point.cfg).decoded)
    return np.array(masks, dtype=bool)


def linear_scan_tune_mu(spec, g_index, tuning, criterion, target):
    """Reference for harness.tune_mu: the criterion's measure at every mu of
    the grid in turn, each frame decoded by decode_frame or tested by
    static_oracle, until one reaches the target."""
    base = make_point(spec, g_index)
    tune_seed = mix64(spec.seed, harness.PURPOSE_MU_TUNE)
    frames = [harness._frame(base, tune_seed, t) for t in range(tuning.tune_trials)]
    grid = itertools.takewhile(
        lambda mu: mu <= tuning.mu_max,
        (1.0 + k * tuning.mu_resolution for k in itertools.count()),
    )
    for mu in grid:
        scheme = SchemeConfig("PA", mu=mu)
        if criterion == "mean_fraction":
            total = sum(frame_outcome(base, g, scheme)[1].decoded_count for g in frames)
            frac = total / (len(frames) * base.cfg.K)
        else:
            ok = 0
            for g in frames:
                profile = build_profile(g.degrees, base.cfg, scheme, base.l_avg)
                ok += all(static_oracle(g, profile, base.cfg.N0))
            frac = ok / len(frames)
        if frac >= target:
            return harness.MuTuning(base.G, mu, True, decoded_fraction=frac, criterion=criterion)
    return harness.MuTuning(
        base.G, None, False, decoded_fraction=frac, criterion=criterion,
        note=f"no mu <= {tuning.mu_max} reaches {criterion} target {target}",
    )


ALPHAS = tuple(float(x) for x in np.geomspace(0.02, 2.0, 6))
BETAS = tuple(float(x) for x in np.geomspace(0.5, 4.0, 4))

# A grid whose RS pairs do not form one chain at G = 0.8 of CROSSING_SPEC:
# (0.1, 2.0) and (0.30000000000000004, 12.678325125264136) plan one SINR in
# exact arithmetic, but their float thresholds differ by 2**-55 one way at
# some degrees and the other way at others.
CROSSING = ((0.1, 0.30000000000000004), (2.0, 12.678325125264136))
CROSSING_SPEC = dict(dist_Y=10, K=300, tilde_Es_over_N0=0.0009)


class TestTunersMatchSequentialReceiver:
    """Every tuner decision and reported float is bit-identical to the
    per-candidate decode_frame loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tune_rs(self, seed):
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=6, K=60,
            G_grid=(0.4, 0.8, 1.1, 2.0), trials=5, seed=seed, tilde_Es_over_N0=0.002,
        )
        tuning = TuningConfig(alpha_grid=ALPHAS, beta_grid=BETAS, tune_trials=6)
        fast = tune_rs_grid(spec, tuning)
        assert fast == [sequential_tune_rs(spec, g, tuning) for g in range(len(spec.G_grid))]
        # The throughput floor binds: it rules out the largest alpha.
        assert all(t.feasible and t.alpha < max(ALPHAS) for t in fast)

    @pytest.mark.parametrize(
        "alphas, betas, G_grid, check, spec_kw",
        [
            pytest.param((0.0, *ALPHAS), BETAS, (0.4, 0.8, 1.1, 2.0),
                         lambda got: all(t.feasible for t in got), {}, id="alpha_zero"),
            # With alpha 0 the target ignores beta: every pair ties exactly,
            # and the first in alpha-major order wins.
            pytest.param((0.0,), (2.0, 0.5, 1.0), (0.4, 0.8),
                         lambda got: all(t.feasible and t.beta == 2.0 for t in got), {},
                         id="alpha_zero_ties"),
            pytest.param(ALPHAS, (0.5, 1.0, 1.0, 4.0), (0.4, 0.8, 1.1),
                         lambda got: all(t.feasible for t in got), {}, id="repeated_beta"),
            pytest.param((40.0, 80.0), BETAS, (0.4, 1.1),
                         lambda got: not any(t.feasible for t in got), {}, id="none_feasible"),
            # A winner decodes every message: its mean eta is its bound.
            pytest.param(ALPHAS, BETAS, (0.1, 0.15),
                         lambda got: any(t.T_mean == pytest.approx(t.G, rel=1e-12) for t in got),
                         {}, id="low_load"),
            pytest.param(*CROSSING, (0.6, 0.8), lambda got: all(t.feasible for t in got),
                         CROSSING_SPEC, id="crossing"),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tune_rs_grids(self, seed, alphas, betas, G_grid, check, spec_kw):
        spec = SweepSpec(**{
            **dict(scheme="RS", dist_name="modified_soliton", dist_Y=6, K=60,
                   G_grid=G_grid, trials=5, seed=seed, tilde_Es_over_N0=0.002),
            **spec_kw,
        })
        tuning = TuningConfig(alpha_grid=alphas, beta_grid=betas, tune_trials=6)
        fast = tune_rs_grid(spec, tuning)
        assert fast == [sequential_tune_rs(spec, g, tuning) for g in range(len(spec.G_grid))]
        assert check(fast)

    def test_search_sets_do_not_depend_on_the_visit_order(self, monkeypatch):
        # Whatever order the caller chose, forward, backward or shuffled,
        # over two frame groups, every set is the sequential receiver's; so
        # is every set the search reads, on all the stacks or on those it
        # re-opens.
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=6, K=60,
            G_grid=(0.8,), trials=1, seed=2, tilde_Es_over_N0=0.002,
        )
        tuning = TuningConfig(
            alpha_grid=ALPHAS, beta_grid=BETAS, tune_trials=harness.FRAME_GROUP + 3
        )
        point, grid, stacks = harness._rs_pairs(spec, 0, tuning)
        candidates = [SchemeConfig("RS", alpha=a, beta=b) for a, b in grid.pairs]
        # The reference decodes each frame on the profile built for it.
        want = [
            [frame_outcome(point, g, scheme)[1].decoded for g in split_stacks(point, stacks)]
            for scheme in candidates
        ]
        n = len(candidates)
        shuffled = np.random.default_rng(4).permutation(n).tolist()
        for order in (range(n), range(n - 1, -1, -1), shuffled):
            point, grid, stacks = harness._rs_pairs(spec, 0, tuning)
            for i in order:
                got = harness._decoded_sets(point, stacks, grid.profile(i))
                assert np.array_equal(got, want[i])
        real, probes = harness._decoded_sets, []
        rows = spy_rows(monkeypatch)

        def spy(point, which, table, test=None):
            scheme = candidates[rows[id(table)]]
            want = [frame_outcome(point, g, scheme)[1].decoded for g in split_stacks(point, which)]
            probes.append(len(which))
            got = real(point, which, table, test)
            assert np.array_equal(got, want)
            return got

        monkeypatch.setattr(harness, "_decoded_sets", spy)
        assert harness._rs_search(point, grid, stacks, harness.RS_THROUGHPUT_FACTOR * 0.8)
        assert len(probes) > 2

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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tune_mu_static_reliability(self, seed, monkeypatch):
        spec = SweepSpec(
            scheme="PA", dist_name="modified_soliton", dist_Y=6, K=60,
            G_grid=(0.5, 1.0, 1.3), trials=5, seed=seed, hat_R_bits=8.0,
        )
        tuning = TuningConfig(tune_trials=2 * harness.FRAME_GROUP + 3)

        def tunings():
            return [tune_mu(spec, g, tuning, "static_reliability", 0.6) for g in range(3)]

        fast = tunings()
        monkeypatch.setattr(harness, "_decoded_sets", sequential_decoded_sets)
        assert tunings() == fast
        assert any(t.feasible and t.mu > 1.0 for t in fast)

    @pytest.mark.parametrize(
        "criterion, target", [("mean_fraction", 0.985), ("static_reliability", 0.6)]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tune_mu_equals_a_linear_scan(self, seed, criterion, target, monkeypatch):
        # The bisection re-decodes only the stacks holding a frame whose
        # outcome differs between its bracket's ends; a scan decodes every
        # frame at every mu of the grid.  The tuning frames are stacked
        # once: 2*FRAME_GROUP + 3 of them make three stacks, the last one
        # partial.
        stacked = []
        real = harness.stack_frames

        def spy(graphs):
            stacked.append(len(graphs))
            return real(graphs)

        monkeypatch.setattr(harness, "stack_frames", spy)
        spec = SweepSpec(
            scheme="PA", dist_name="modified_soliton", dist_Y=6, K=60,
            G_grid=(0.5, 1.0, 1.3), trials=5, seed=seed, hat_R_bits=8.0,
        )
        fast = []
        for tune_trials, mu_max in ((10, 2.0), (10, 1.02), (2 * harness.FRAME_GROUP + 3, 2.0)):
            tuning = TuningConfig(tune_trials=tune_trials, mu_max=mu_max, mu_resolution=0.02)
            got = []
            for g in range(3):
                stacked.clear()
                got.append(tune_mu(spec, g, tuning, criterion, target))
                assert len(stacked) == math.ceil(tune_trials / harness.FRAME_GROUP)
            want = [linear_scan_tune_mu(spec, g, tuning, criterion, target) for g in range(3)]
            assert got == want
            fast += got
        assert any(t.feasible and t.mu > 1.0 for t in fast)
        assert any(not t.feasible for t in fast)

    @pytest.mark.parametrize(
        "alphas, betas, spec_kw",
        [
            pytest.param((0.2, 0.6, 1.2, 2.4), (0.7071, 1.0, 1.4142), {}, id="grid"),
            pytest.param((0.0, 0.6), (2.0, 0.5, 1.0), {}, id="alpha_zero_ties"),
            pytest.param(*CROSSING, CROSSING_SPEC, id="crossing"),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tune_rs_for_rate_equals_a_linear_scan(self, seed, alphas, betas, spec_kw, monkeypatch):
        # The rate search probes each chain of pairs by bisection; a scan
        # decodes every pair by descending mean rate until one holds the
        # floor.  On the crossing grid the pairs form two chains.
        chains = []
        real = harness._first_reaching

        def spy(keys, stacks, outcomes, reaches):
            chains.append(keys)
            return real(keys, stacks, outcomes, reaches)

        monkeypatch.setattr(harness, "_first_reaching", spy)
        spec = SweepSpec(**{
            **dict(scheme="RS", dist_name="modified_soliton", dist_Y=6, K=60,
                   G_grid=(0.8,), trials=4, seed=seed, tilde_Es_over_N0=0.002),
            **spec_kw,
        })
        tuning = TuningConfig(alpha_grid=alphas, beta_grid=betas, tune_trials=10)
        got = []
        for floor in (0.5, 0.7, 0.78, 0.85):
            chains.clear()
            got.append(harness._tune_rs_for_rate(spec, tuning, floor))
            assert got[-1] == linear_scan_tune_rs_for_rate(spec, tuning, floor)
            assert len(chains) == (2 if spec_kw else 1)
        assert got[0] is not None and got[-1] is None

    def test_closures_take_one_frame_group_at_a_time(self, monkeypatch):
        # However many tuning or evaluation trials, the order-free decode
        # holds at most FRAME_GROUP frames side by side.
        # The mu tuner's static test is held to it too.
        group = harness.FRAME_GROUP
        sizes = {"decoded_closure": [], "static_passes": []}

        def spy_on(name):
            real = getattr(harness, name)

            def spy(graph, energies, thresholds, N0):
                sizes[name].append(graph.K // spec.K)
                return real(graph, energies, thresholds, N0)

            monkeypatch.setattr(harness, name, spy)

        spy_on("decoded_closure")
        spy_on("static_passes")
        spec = SweepSpec(
            scheme="RS", dist_name="modified_soliton", dist_Y=6, K=40,
            G_grid=(0.8,), trials=2 * group + 1, seed=5, tilde_Es_over_N0=0.002,
        )
        tuning = TuningConfig(
            alpha_grid=(0.2, 1.2), beta_grid=(1.0,), tune_trials=3 * group + 2
        )
        compare_rs_pa(spec, tuning, CompareConfig((-16.0,), min_throughput=0.5))
        closure = sizes["decoded_closure"]
        assert max(closure) == group and group + 2 not in closure
        assert 2 in closure and 1 in closure and not sizes["static_passes"]
        pa_spec = dataclasses.replace(spec, scheme="PA", hat_R_bits=8.0, tilde_Es_over_N0=None)
        tuned = tune_mu(pa_spec, 0, tuning, "static_reliability", 0.9)
        static = sizes["static_passes"]
        assert tuned.feasible and tuned.mu > 1.0
        assert max(static) == group and group + 2 not in static and 2 in static

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
            tables = [harness._table(point, scheme) for scheme in schemes]
            for t in range(5):
                graph = harness._frame(point, 7, t)
                index = point.index(graph)
                for scheme, table in zip(schemes, tables):
                    profile = build_profile(graph.degrees, point.cfg, scheme, point.l_avg)
                    assert np.array_equal(table.degrees[index], graph.degrees)
                    assert np.array_equal(table.energies[index], profile.energies)
                    assert np.array_equal(table.rates[index], profile.rates)
                    assert np.array_equal(table.sinr_thresholds[index], profile.sinr_thresholds)
