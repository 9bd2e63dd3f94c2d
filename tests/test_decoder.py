"""Two-phase SIC receiver: fixed points, scan order, and oracles."""

import math
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsa_sim import decoder
from irsa_sim.decoder import (
    PHASE_PEELING,
    PHASE_RESIDUAL,
    decode_frame,
    decoded_closure,
    mrc_sinr,
    success_thresholds,
)
from irsa_sim.distributions import avg_degree, fixed_l3, ideal_soliton, modified_soliton
from irsa_sim.frame_graph import FrameGraph, build_frame, stack_frames
from irsa_sim.schemes import (
    ChannelConfig,
    InfeasibleOperatingPointError,
    SchemeConfig,
    TransmitProfile,
    TuningParameterError,
    build_profile,
)
from oracles import effective_sinr, irsa_de_threshold, irsa_peeling_oracle, oracle_interference


def example_graph():
    return FrameGraph(5, [[1], [0, 2, 3], [0, 2, 4], [1, 2, 4]])


def uniform_cfg(K, M, es, L_cu=100, N0=1.0, l_avg=3.0):
    # tilde_Es chosen so the per-replica energy equals es.
    return ChannelConfig(K=K, M=M, L_cu=L_cu, N0=N0, tilde_Es=es * l_avg / M)


def brute_force_fixed_point(graph, profile, scheme, cfg):
    """Reference decoder: no incremental state, no scan-order shortcuts.

    Repeats until stable: find any decodable message (degree-one-slot
    membership for the baseline; MRC threshold for RS/PA, phase-agnostic)
    and remove it.  The threshold rule is monotone under peeling, so the
    fixed point is order independent and equals the production decoder's
    decoded set for RS/PA; for the baseline it is classic erasure peeling.
    """
    decoded = set()
    thr = profile.sinr_thresholds * (1 - 1e-9)
    while True:
        found = None
        for m in range(graph.K):
            if m in decoded:
                continue
            if scheme.variant == "IRSA":
                ok = any(
                    sum(1 for x in graph.slot_messages[j] if x not in decoded) == 1
                    for j in graph.message_slots[m]
                )
            else:
                sinr = 0.0
                for j in graph.message_slots[m]:
                    interf = sum(
                        float(profile.energies[x])
                        for x in graph.slot_messages[j]
                        if x not in decoded and x != m
                    )
                    sinr += float(profile.energies[m]) / (interf + cfg.N0)
                ok = sinr >= thr[m]
            if ok:
                found = m
                break
        if found is None:
            return decoded
        decoded.add(found)


class TestEffectiveSinr:
    def test_single_clean_replica(self):
        g = FrameGraph(3, [[1]])
        es = 0.4
        profile = build_profile(g.degrees, uniform_cfg(1, 3, es), SchemeConfig("IRSA"), 3.0)
        interference = oracle_interference(g, profile.energies, [False])
        assert effective_sinr(0, g, interference, profile, 1.0) == pytest.approx(es, rel=1e-12)

    def test_two_replicas_one_interferer_each(self):
        # Message 0 shares each of its two slots with exactly one other.
        g = FrameGraph(2, [[0, 1], [0, 1]])
        es = 0.7
        profile = build_profile(
            g.degrees, uniform_cfg(2, 2, es, l_avg=2.0), SchemeConfig("IRSA"), 2.0
        )
        interference = oracle_interference(g, profile.energies, [False] * 2)
        assert effective_sinr(0, g, interference, profile, 1.0) == pytest.approx(
            2 * es / (es + 1.0), rel=1e-12
        )

    def test_example_message_at_start(self):
        g = example_graph()
        es = 0.9
        profile = build_profile(
            g.degrees, uniform_cfg(4, 5, es, l_avg=2.25), SchemeConfig("IRSA"), 2.25
        )
        interference = oracle_interference(g, profile.energies, [False] * 4)
        expected = es / (es + 1.0) + es / (2 * es + 1.0) + es / 1.0
        assert effective_sinr(1, g, interference, profile, 1.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_monotone_under_peeling(self):
        rng = np.random.default_rng(31)
        dist = modified_soliton(6)
        for _ in range(1000):
            K = int(rng.integers(3, 20))
            M = int(rng.integers(6, 24))
            g = build_frame(K, M, dist, rng)
            cfg = ChannelConfig(K=K, M=M, L_cu=100, hat_R=5.0)
            profile = build_profile(
                g.degrees, cfg, SchemeConfig("PA", mu=1.5), avg_degree(dist)
            )
            decoded = [False] * K
            watched = int(rng.integers(0, K))
            interference = oracle_interference(g, profile.energies, decoded)
            last = effective_sinr(watched, g, interference, profile, cfg.N0)
            for msg in rng.permutation(K):
                if msg == watched:
                    continue
                decoded[msg] = True
                interference = oracle_interference(g, profile.energies, decoded)
                now = effective_sinr(watched, g, interference, profile, cfg.N0)
                assert now >= last
                last = now

    def test_never_falls_under_long_peel_sequences(self):
        # No slack: a slot's interference is an exact sum, and a sum over
        # fewer non-negative terms never rounds above one over more.
        rng = np.random.default_rng(37)
        for _ in range(200):
            K = int(rng.integers(64, 200))
            g = build_frame(K, int(rng.integers(K // 2, K)), modified_soliton(6), rng)
            profile = SimpleNamespace(energies=rng.uniform(0.05, 2.0, size=K))
            energies = profile.energies.tolist()
            decoded = [False] * K
            watched = int(rng.integers(0, K))
            interference = oracle_interference(g, energies, decoded)
            last = effective_sinr(watched, g, interference, profile, 1.0)
            for msg in rng.permutation(K).tolist():
                if msg == watched:
                    continue
                decoded[msg] = True
                interference = oracle_interference(g, energies, decoded)
                now = effective_sinr(watched, g, interference, profile, 1.0)
                assert now >= last
                last = now


class TestBaselineDecoding:
    def test_example_frame_order(self):
        g = example_graph()
        cfg = uniform_cfg(4, 5, 0.5, l_avg=2.25)
        scheme = SchemeConfig("IRSA")
        result = decode_frame(g, build_profile(g.degrees, cfg, scheme, 2.25), scheme, cfg)
        assert result.decoded.all()
        assert result.order.tolist() == [1, 2, 3, 0]
        assert list(result.slots) == [3, 0, 2, 1]
        assert np.all(result.phase == PHASE_PEELING)

    def test_private_slots_all_phase_one(self):
        g = FrameGraph(4, [[0], [1], [2], [3]])
        for variant, cfg in (
            ("IRSA", uniform_cfg(4, 4, 0.5)),
            ("RS", uniform_cfg(4, 4, 0.5)),
            ("PA", ChannelConfig(K=4, M=4, L_cu=100, hat_R=5.0)),
        ):
            scheme = {
                "IRSA": SchemeConfig("IRSA"),
                "RS": SchemeConfig("RS", alpha=0.2, beta=1.0),
                "PA": SchemeConfig("PA", mu=1.01),
            }[variant]
            profile = build_profile(g.degrees, cfg, scheme, 1.0)
            result = decode_frame(g, profile, scheme, cfg)
            assert result.decoded.all(), variant
            assert np.all(result.phase == PHASE_PEELING), variant

    def test_two_cycle_is_a_stopping_set(self):
        g = FrameGraph(2, [[0, 1], [0, 1]])
        cfg = uniform_cfg(2, 2, 0.5, l_avg=2.0)
        scheme = SchemeConfig("IRSA")
        result = decode_frame(g, build_profile(g.degrees, cfg, scheme, 2.0), scheme, cfg)
        assert not result.decoded.any()

    def test_oracle_equivalence_small_frames(self):
        rng = np.random.default_rng(101)
        dist = fixed_l3()
        l_avg = avg_degree(dist)
        scheme = SchemeConfig("IRSA")
        for _ in range(1000):
            g = build_frame(50, 60, dist, rng)
            cfg = uniform_cfg(50, 60, 0.2, l_avg=l_avg)
            profile = build_profile(g.degrees, cfg, scheme, l_avg)
            result = decode_frame(g, profile, scheme, cfg)
            assert set(np.flatnonzero(result.decoded)) == irsa_peeling_oracle(g)

    def test_oracle_on_example(self):
        assert irsa_peeling_oracle(example_graph()) == {0, 1, 2, 3}
        assert irsa_peeling_oracle(FrameGraph(2, [[0, 1], [0, 1]])) == set()


class TestDecodeResultInvariants:
    def _random_setup(self, rng, variant):
        dist = modified_soliton(6)
        K = int(rng.integers(3, 25))
        M = int(rng.integers(6, 30))
        g = build_frame(K, M, dist, rng)
        l_avg = avg_degree(dist)
        if variant == "PA":
            cfg = ChannelConfig(K=K, M=M, L_cu=100, hat_R=float(rng.uniform(2, 12)))
            scheme = SchemeConfig("PA", mu=float(rng.uniform(1.0, 2.0)))
        else:
            cfg = ChannelConfig(
                K=K, M=M, L_cu=100, tilde_Es=float(rng.uniform(0.001, 0.01))
            )
            if variant == "RS":
                scheme = SchemeConfig(
                    "RS",
                    alpha=float(rng.uniform(0.0, 1.0)),
                    beta=float(rng.uniform(0.8, 2.0)),
                )
            else:
                scheme = SchemeConfig("IRSA")
        profile = build_profile(g.degrees, cfg, scheme, l_avg)
        return g, cfg, scheme, profile

    @pytest.mark.parametrize("variant", ["IRSA", "RS", "PA"])
    def test_steps_unique_and_genie_covers_rate(self, variant):
        rng = np.random.default_rng(59)
        for _ in range(400):
            g, cfg, scheme, profile = self._random_setup(rng, variant)
            result = decode_frame(g, profile, scheme, cfg)
            # Each decoded message takes one step, with one slot, SINR and
            # genie rate.
            order = result.order.tolist()
            assert sorted(order) == np.flatnonzero(result.decoded).tolist()
            assert len(result.slots) == len(result.sinrs) == len(result.genie_rates) == len(order)
            # Success rule: the genie rate at decode time covers the
            # assigned rate (up to the 1e-9 comparison slack).
            for m, genie in zip(order, result.genie_rates.tolist()):
                assert genie >= profile.rates[m] * (1 - 1e-9)
            # A phase-1 decode carries one of its message's slots, a phase-2
            # decode -1.
            for m, slot in zip(order, result.slots):
                if result.phase[m] == PHASE_PEELING:
                    assert slot in g.message_slots[m]
                else:
                    assert slot == -1

    @pytest.mark.parametrize("variant", ["IRSA", "RS", "PA"])
    def test_decode_sinr_is_mrc_sinr_of_exact_residual(self, variant):
        # Each recorded SINR is mrc_sinr over the interference of the
        # messages not yet decoded at that step, recomputed by bincount.
        rng = np.random.default_rng(113)
        checked = 0
        for _ in range(60):
            try:
                g, profile, scheme, cfg = TestResidualStateMatchesPythonSums.random_setup(
                    rng, variant
                )
            except (TuningParameterError, InfeasibleOperatingPointError):
                continue
            result = decode_frame(g, profile, scheme, cfg)
            edge_energy = profile.energies[g.edge_msg]
            earlier = np.zeros(g.K, dtype=bool)
            for msg, got in zip(result.order.tolist(), result.sinrs.tolist()):
                weights = np.where(earlier[g.edge_msg], 0.0, edge_energy)
                residual = np.bincount(g.edge_slot, weights=weights, minlength=g.M)
                sinr = mrc_sinr(g.edge_msg, g.edge_slot, edge_energy, cfg.N0, residual)
                assert sinr[msg] == got
                earlier[msg] = True
                checked += 1
        assert checked >= 1000

    @pytest.mark.parametrize("variant", ["RS", "PA"])
    def test_fixed_point_no_undecoded_message_passes(self, variant):
        # At termination no undecoded message may satisfy its own success
        # test against the final residual state.
        rng = np.random.default_rng(61)
        for _ in range(400):
            g, cfg, scheme, profile = self._random_setup(rng, variant)
            result = decode_frame(g, profile, scheme, cfg)
            interference = oracle_interference(g, profile.energies, result.decoded)
            thr = profile.sinr_thresholds * (1 - 1e-9)
            for m in np.flatnonzero(~result.decoded):
                assert effective_sinr(m, g, interference, profile, cfg.N0) < thr[m]

    @pytest.mark.parametrize("variant", ["RS", "PA"])
    def test_matches_brute_force_fixed_point(self, variant):
        rng = np.random.default_rng(67)
        for _ in range(200):
            g, cfg, scheme, profile = self._random_setup(rng, variant)
            result = decode_frame(g, profile, scheme, cfg)
            expected = brute_force_fixed_point(g, profile, scheme, cfg)
            assert set(np.flatnonzero(result.decoded)) == expected

    def test_rs_at_alpha_zero_contains_baseline(self):
        rng = np.random.default_rng(71)
        dist = modified_soliton(6)
        l_avg = avg_degree(dist)
        for _ in range(1000):
            K = int(rng.integers(3, 30))
            M = int(rng.integers(6, 35))
            g = build_frame(K, M, dist, rng)
            cfg = ChannelConfig(
                K=K, M=M, L_cu=100, tilde_Es=float(rng.uniform(0.0005, 0.02))
            )
            irsa = SchemeConfig("IRSA")
            rs = SchemeConfig("RS", alpha=0.0, beta=1.0)
            decoded_irsa = decode_frame(
                g, build_profile(g.degrees, cfg, irsa, l_avg), irsa, cfg
            ).decoded
            decoded_rs = decode_frame(
                g, build_profile(g.degrees, cfg, rs, l_avg), rs, cfg
            ).decoded
            assert np.all(decoded_rs[decoded_irsa])

    def test_deterministic(self):
        rng = np.random.default_rng(73)
        dist = modified_soliton(8)
        g = build_frame(40, 50, dist, rng)
        cfg = ChannelConfig(K=40, M=50, L_cu=100, tilde_Es=0.004)
        scheme = SchemeConfig("RS", alpha=0.5, beta=1.0)
        profile = build_profile(g.degrees, cfg, scheme, avg_degree(dist))
        a = decode_frame(g, profile, scheme, cfg)
        b = decode_frame(g, profile, scheme, cfg)
        assert np.array_equal(a.decoded, b.decoded)
        assert np.array_equal(a.order, b.order)
        assert np.array_equal(a.genie_rate, b.genie_rate, equal_nan=True)


class TestStaticCriterionOracle:
    """The mu tuner's static criterion (every message passes its success
    test before any cancellation), computed by ``mrc_sinr``, against the
    per-message ``effective_sinr`` loop over the whole frame's interference."""

    MUS = (1.0, 1.2, 1.5, 2.0, 3.0, 5.0)

    @staticmethod
    def reference(g, profile, N0):
        interference = oracle_interference(g, profile.energies, [False] * g.K)
        thr = profile.sinr_thresholds * (1 - 1e-9)
        return all(
            effective_sinr(m, g, interference, profile, N0) >= thr[m] for m in range(g.K)
        )

    @staticmethod
    def vectorised(g, profile, N0):
        edge_msg, edge_slot = g.edge_msg, g.edge_slot
        sinr = mrc_sinr(edge_msg, edge_slot, profile.energies[edge_msg], N0)
        interference = oracle_interference(g, profile.energies, [False] * g.K)
        expected = [effective_sinr(m, g, interference, profile, N0) for m in range(g.K)]
        assert sinr == pytest.approx(expected, rel=1e-12)
        return bool((sinr >= success_thresholds(profile.sinr_thresholds)).all())

    def check(self, g, cfg, l_avg, mus):
        outcomes = []
        for mu in mus:
            try:
                profile = build_profile(g.degrees, cfg, SchemeConfig("PA", mu=mu), l_avg)
            except InfeasibleOperatingPointError:
                continue
            ok = self.vectorised(g, profile, cfg.N0)
            assert ok == self.reference(g, profile, cfg.N0)
            outcomes.append(ok)
        return outcomes

    def test_random_frames(self):
        rng = np.random.default_rng(83)
        setup = TestDecodeResultInvariants()._random_setup
        l_avg = avg_degree(modified_soliton(6))
        outcomes = []
        for _ in range(400):
            g, cfg, _, _ = setup(rng, "PA")
            outcomes += self.check(g, cfg, l_avg, self.MUS)
        assert len(outcomes) >= 2000
        assert sum(outcomes) >= 200 and len(outcomes) - sum(outcomes) >= 200

    def test_hand_built_frames(self):
        frames = [
            FrameGraph(3, [[1]]),
            FrameGraph(2, [[0, 1], [0, 1]]),
            example_graph(),
        ]
        outcomes = []
        for g in frames:
            for hat_R in (1.0, 4.0, 10.0, 20.0):
                cfg = ChannelConfig(K=g.K, M=g.M, L_cu=100, hat_R=hat_R)
                outcomes += self.check(g, cfg, float(g.degrees.mean()), self.MUS)
        assert 0 < sum(outcomes) < len(outcomes)


# The criterion-3 tuning grids of the acceptance gate.
RS_ALPHA_GRID = tuple(float(x) for x in np.geomspace(0.02, 2.0, 12))
RS_BETA_GRID = tuple(float(x) for x in np.geomspace(0.5, 4.0, 7))
PA_MUS = (1.0, 1.01, 1.2, 2.5)


def closure_of(g, profiles, N0):
    """decoded_closure over one frame for each of a list of profiles, one
    row per profile."""
    return np.stack([decoded_closure(g, p.energies, p.sinr_thresholds, N0) for p in profiles])


def random_frame(rng, variant):
    """A random frame, its RS or PA channel and the mean degree."""
    dist = modified_soliton(6)
    K = int(rng.integers(3, 40))
    M = int(rng.integers(6, 40))
    g = build_frame(K, M, dist, rng)
    if variant == "PA":
        cfg = ChannelConfig(K=K, M=M, L_cu=100, hat_R=float(rng.uniform(2, 12)))
    else:
        cfg = ChannelConfig(K=K, M=M, L_cu=100, tilde_Es=float(rng.uniform(0.001, 0.01)))
    return g, cfg, avg_degree(dist)


def random_candidates(rng, variant, count=4):
    """A random frame and up to ``count`` candidate schemes on it: RS pairs
    from the criterion-3 grids, or the PA margins PA_MUS."""
    g, cfg, l_avg = random_frame(rng, variant)
    if variant == "PA":
        schemes = [SchemeConfig("PA", mu=mu) for mu in PA_MUS]
    else:
        schemes = [
            SchemeConfig("RS", alpha=RS_ALPHA_GRID[a], beta=RS_BETA_GRID[b])
            for a, b in zip(
                rng.integers(0, len(RS_ALPHA_GRID), count),
                rng.integers(0, len(RS_BETA_GRID), count),
            )
        ]
    profiles = []
    for scheme in schemes:
        try:
            profiles.append((scheme, build_profile(g.degrees, cfg, scheme, l_avg)))
        except (TuningParameterError, InfeasibleOperatingPointError):
            continue
    return g, cfg, profiles


def chain_frame():
    """Eight degree-2 messages in a chain, message k in slots k and k+1:
    only the two ends see a clean slot, so the cascade runs inwards and
    takes four rounds."""
    return FrameGraph(9, [[k, k + 1] for k in range(8)])


class TestDecodedClosureOracle:
    """The order-free fixed point against the sequential receiver."""

    def test_random_frames(self):
        rng = np.random.default_rng(89)
        pairs = decoded = partial = residual = 0
        for frame in range(10_000):
            variant = "PA" if frame % 2 else "RS"
            g, cfg, profiles = random_candidates(rng, variant)
            if not profiles:
                continue
            closure = closure_of(g, [p for _, p in profiles], cfg.N0)
            for (scheme, profile), got in zip(profiles, closure):
                result = decode_frame(g, profile, scheme, cfg)
                assert np.array_equal(got, result.decoded), (frame, scheme)
                pairs += 1
                decoded += result.decoded_count
                partial += 0 < result.decoded_count < g.K
                residual += bool((result.phase == PHASE_RESIDUAL).any())
        assert pairs >= 35_000
        # Every kind of outcome is exercised: partial decodes and decodes
        # that only the residual phase finds.
        assert partial >= 2_000 and residual >= 1_000 and decoded > 0

    def test_sinr_equal_to_threshold(self):
        # A degree-1 RS message alone in its slot: its SINR is Es/N0, which
        # is exactly its threshold, and the 1e-9 slack decodes it.
        g = FrameGraph(3, [[1], [0, 2], [0, 2]])
        cfg = uniform_cfg(3, 3, 0.5, l_avg=5 / 3)
        for alpha in (0.0, 0.5):
            scheme = SchemeConfig("RS", alpha=alpha, beta=1.0)
            profile = build_profile(g.degrees, cfg, scheme, 5 / 3)
            edge_msg, edge_slot = g.edge_msg, g.edge_slot
            sinr = mrc_sinr(edge_msg, edge_slot, profile.energies[edge_msg], cfg.N0)
            assert sinr[0] == profile.sinr_thresholds[0]
            result = decode_frame(g, profile, scheme, cfg)
            assert result.decoded[0]
            assert np.array_equal(closure_of(g, [profile], cfg.N0)[0], result.decoded)

    def test_cascade_over_several_rounds(self):
        g = chain_frame()
        cfg = uniform_cfg(8, 9, 0.5, l_avg=2.0)
        scheme = SchemeConfig("RS", alpha=0.5, beta=1.0)
        profile = build_profile(g.degrees, cfg, scheme, 2.0)
        edge_msg, edge_slot = g.edge_msg, g.edge_slot
        before = mrc_sinr(edge_msg, edge_slot, profile.energies[edge_msg], cfg.N0)
        passing = before >= success_thresholds(profile.sinr_thresholds)
        assert np.flatnonzero(passing).tolist() == [0, 7]
        result = decode_frame(g, profile, scheme, cfg)
        assert result.decoded.all()
        assert closure_of(g, [profile], cfg.N0)[0].all()

    def test_candidates_converging_in_different_rounds(self, monkeypatch):
        # On the chain: a candidate that decodes nothing, one whose cascade
        # takes four rounds and one that decodes every message in round one.
        # Each round runs over the live edges only: the cascade's 16 edges
        # fall by the four of the two messages each round decodes, to none
        # after its last decodes.
        g = chain_frame()
        cfg = uniform_cfg(8, 9, 0.5, l_avg=2.0)
        scheme = SchemeConfig("RS", alpha=0.5, beta=1.0)
        cascade = build_profile(g.degrees, cfg, scheme, 2.0)
        thresholds = [np.full(g.K, 1e9), cascade.sinr_thresholds, np.full(g.K, 1e-3)]
        edges = []
        real = decoder.mrc_sinr

        def spy(edge_msg, *args):
            edges.append(len(edge_msg))
            return real(edge_msg, *args)

        monkeypatch.setattr(decoder, "mrc_sinr", spy)
        rounds, closures = [], []
        for row in thresholds:
            edges.clear()
            closures.append(decoded_closure(g, cascade.energies, row, cfg.N0))
            rounds.append(list(edges))
        assert rounds == [[16], [16, 12, 8, 4, 0], [16, 0]]
        assert [int(c.sum()) for c in closures] == [0, 8, 8]
        assert np.array_equal(closures[1], decode_frame(g, cascade, scheme, cfg).decoded)

    def test_infinite_slot_interference_is_infeasible(self):
        # Two messages of 1e308 share slot 1: its interference overflows to
        # inf, which would zero both SINR terms there, with no warning.
        g = FrameGraph(3, [[0, 1], [1, 2]])
        energies = np.full(2, 1e308)
        thresholds = np.full(2, 1.0)
        for decode in (decoder.static_passes, decoded_closure):
            with pytest.raises(InfeasibleOperatingPointError, match="slot's interference overflows"):
                decode(g, energies, thresholds, 1.0)
        # In range, the same frame decodes: each message is alone in a slot.
        assert decoded_closure(g, energies / 4, thresholds, 1.0).all()


def _profiles(g, cfg, l_avg, schemes):
    return [build_profile(g.degrees, cfg, s, l_avg) for s in schemes]


frame_seeds = st.integers(0, 2**32 - 1)


class TestDecodedClosureProperties:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(seed=frame_seeds, mus=st.lists(st.floats(1.0, 4.0), min_size=2, max_size=6))
    def test_monotone_in_mu(self, seed, mus):
        g, cfg, l_avg = random_frame(np.random.default_rng(seed), "PA")
        schemes = [SchemeConfig("PA", mu=mu) for mu in sorted(mus)]
        closure = closure_of(g, _profiles(g, cfg, l_avg, schemes), cfg.N0)
        assert np.all(closure[1:] >= closure[:-1])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        seed=frame_seeds,
        alphas=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=6),
        beta=st.floats(0.8, 4.0),
    )
    def test_monotone_as_alpha_falls(self, seed, alphas, beta):
        g, cfg, l_avg = random_frame(np.random.default_rng(seed), "RS")
        alphas = sorted(alphas, reverse=True)
        schemes = [SchemeConfig("RS", alpha=a, beta=beta) for a in alphas]
        closure = closure_of(g, _profiles(g, cfg, l_avg, schemes), cfg.N0)
        assert np.all(closure[1:] >= closure[:-1])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        seed=frame_seeds,
        alpha=st.floats(0.0, 3.0),
        betas=st.lists(st.floats(0.8, 4.0), min_size=2, max_size=6),
    )
    def test_monotone_as_beta_rises(self, seed, alpha, betas):
        g, cfg, l_avg = random_frame(np.random.default_rng(seed), "RS")
        schemes = [SchemeConfig("RS", alpha=alpha, beta=b) for b in sorted(betas)]
        closure = closure_of(g, _profiles(g, cfg, l_avg, schemes), cfg.N0)
        assert np.all(closure[1:] >= closure[:-1])


class TestStackedFrames:
    """The frame-axis half of the closure's properties: frames side by side
    close as each does alone."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        seed=frame_seeds,
        variant=st.sampled_from(["RS", "PA"]),
        frames=st.integers(1, 5),
        energy=st.floats(0.0, 1.0),
        step=st.floats(0.0, 1.0),
    )
    def test_stack_equals_each_frame_and_low_inside_high(
        self, seed, variant, frames, energy, step
    ):
        rng = np.random.default_rng(seed)
        dist = modified_soliton(6)
        K, M = int(rng.integers(3, 40)), int(rng.integers(6, 40))
        graphs = [build_frame(K, M, dist, rng) for _ in range(frames)]
        stack = stack_frames(graphs)
        # ``low`` has thresholds at least ``high``'s at equal energies (RS)
        # or a lower mu (PA): either way its set lies inside high's.  The
        # energies range from noise-bound to interference-bound frames.
        if variant == "PA":
            cfg = ChannelConfig(K=K, M=M, L_cu=100, hat_R=2.0 + 10.0 * energy)
            mus = (1.0 + step / 4, 1.0 + step)
            schemes = [SchemeConfig("PA", mu=mu) for mu in mus]
        else:
            cfg = ChannelConfig(K=K, M=M, L_cu=100, tilde_Es=10.0 ** (3.0 * energy - 3.0))
            schemes = [
                SchemeConfig("RS", alpha=3.0 * step + 0.5, beta=1.0),
                SchemeConfig("RS", alpha=3.0 * step, beta=1.0 + step),
            ]
        try:
            low, high = _profiles(stack, cfg, avg_degree(dist), schemes)
        except (TuningParameterError, InfeasibleOperatingPointError):
            return
        sets = []
        for profile in (low, high):
            (whole,) = closure_of(stack, [profile], cfg.N0)
            alone = [
                closure_of(graph, [profile.take(np.arange(f * K, (f + 1) * K))], cfg.N0)[0]
                for f, graph in enumerate(graphs)
            ]
            assert np.array_equal(whole, np.concatenate(alone))
            sets.append(whole)
        assert np.all(sets[0] <= sets[1])


def compensated_sum(values, start=0.0):
    """Neumaier-compensated float sum, as ``sum`` adds floats on CPython
    3.12 and later."""
    total = float(start)
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def oracle_decode_frame(graph, profile, scheme, cfg):
    """The receiver with no state kept between steps: after every decode it
    re-sums every slot's interference over its undecoded messages, and it
    applies the two phases' rules literally.  Phase 1 scans the slots in
    ascending order, pass after pass, and attempts the one undecoded message
    of each slot that holds one (the baseline decodes it unconditionally);
    phase 2 tests the undecoded messages in ascending order and peels the
    first that passes."""
    K, M, N0 = graph.K, graph.M, cfg.N0
    is_irsa = scheme.variant == "IRSA"
    energies = np.asarray(profile.energies, dtype=float).tolist()
    thresholds = [t * (1.0 - decoder.TIE_RTOL) for t in profile.sinr_thresholds.tolist()]
    decoded = [False] * K
    steps = []  # (message, phase, slot, SINR) in step order
    interference = oracle_interference(graph, energies, decoded)

    def sinr_of(msg):
        e = energies[msg]
        total = 0.0
        for j in graph.message_slots[msg]:
            total += e / (max(interference[j] - e, 0.0) + N0)
        return total

    def decode(msg, phase, slot, sinr):
        nonlocal interference
        steps.append((msg, phase, slot, sinr))
        decoded[msg] = True
        interference = oracle_interference(graph, energies, decoded)

    while True:
        progress = True
        while progress:
            progress = False
            for j in range(M):
                alive = [m for m in graph.slot_messages[j] if not decoded[m]]
                if len(alive) != 1:
                    continue
                sinr = sinr_of(alive[0])
                if is_irsa or sinr >= thresholds[alive[0]]:
                    decode(alive[0], PHASE_PEELING, j, sinr)
                    progress = True
        if is_irsa:
            break
        msg = next(
            (m for m in range(K) if not decoded[m] and sinr_of(m) >= thresholds[m]), None
        )
        if msg is None:
            break
        decode(msg, PHASE_RESIDUAL, -1, sinr_of(msg))

    out = SimpleNamespace(
        order=[], slots=[], sinrs=[], genie_rates=[],
        decoded=np.zeros(K, dtype=bool),
        phase=np.zeros(K, dtype=np.int8),
        genie_rate=np.full(K, np.nan),
    )
    for msg, phase, slot, sinr in steps:
        capacity = (1.0 + sinr) if scheme.rmax_includes_one else sinr
        genie = 0.5 * cfg.L_cu * math.log2(capacity)
        out.order.append(msg)
        out.slots.append(slot)
        out.sinrs.append(sinr)
        out.genie_rates.append(genie)
        out.decoded[msg] = True
        out.phase[msg] = phase
        out.genie_rate[msg] = genie
    return out


def is_static(g, profile, scheme, cfg):
    """Whether an RS/PA setup is statically decodable; decode_frame takes
    the static path on such a PA setup alone."""
    return bool(decoder.static_passes(g, profile.energies, profile.sinr_thresholds, cfg.N0).all())


RESULT_FIELDS = ("order", "slots", "sinrs", "genie_rates", "decoded", "phase", "genie_rate")


class TestResidualStateMatchesPythonSums:
    """The receiver's residual state equals per-slot Python sums recomputed
    from scratch after every decode: every decode_frame output is
    bit-identical to the stateless receiver (oracle_decode_frame)."""

    @staticmethod
    def random_setup(rng, variant):
        dist = modified_soliton(6)
        K = int(rng.integers(3, 200))
        M = int(rng.integers(6, 200))
        g = build_frame(K, M, dist, rng)
        l_avg = avg_degree(dist)
        if variant == "PA":
            cfg = ChannelConfig(K=K, M=M, L_cu=100, hat_R=float(rng.uniform(2, 12)))
            scheme = SchemeConfig("PA", mu=float(rng.choice(PA_MUS)))
        else:
            cfg = ChannelConfig(K=K, M=M, L_cu=100, tilde_Es=float(rng.uniform(0.001, 0.01)))
            if variant == "RS":
                scheme = SchemeConfig(
                    "RS", alpha=float(rng.choice(RS_ALPHA_GRID)), beta=float(rng.choice(RS_BETA_GRID))
                )
            else:
                scheme = SchemeConfig("IRSA")
        return g, build_profile(g.degrees, cfg, scheme, l_avg), scheme, cfg

    @staticmethod
    def assert_same_result(g, profile, scheme, cfg):
        got = decode_frame(g, profile, scheme, cfg)
        want = oracle_decode_frame(g, profile, scheme, cfg)
        for name in RESULT_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
        return got

    def test_decode_frame_random_frames(self):
        rng = np.random.default_rng(103)
        frames = long_decodes = residual = static = static_residual = 0
        pa_static = pa_static_residual = 0
        for frame in range(2400):
            variant = ("IRSA", "RS", "PA")[frame % 3]
            try:
                setup = self.random_setup(rng, variant)
            except (TuningParameterError, InfeasibleOperatingPointError):
                continue
            result = self.assert_same_result(*setup)
            frames += 1
            long_decodes += result.decoded_count >= 128
            has_residual = bool((result.phase == PHASE_RESIDUAL).any())
            residual += has_residual
            if variant != "IRSA" and is_static(*setup):
                static += 1
                static_residual += has_residual
                if variant == "PA":
                    pa_static += 1
                    pa_static_residual += has_residual
        assert frames >= 2000 and long_decodes >= 200 and residual >= 200
        # Statically decodable frames, some decoded through phase 2.  The
        # PA ones take the integer peeling and the SINR replay, the RS ones
        # the two-phase receiver.
        assert static >= 400 and static_residual >= 200
        assert pa_static >= 250 and pa_static_residual >= 120

    def test_decode_frame_independent_of_builtin_sum(self, monkeypatch):
        # CPython 3.12 compensates sum() over floats and 3.11 does not, so a
        # receiver adding interference or SINR terms with sum() would match
        # the oracle on 3.11 alone.  A compensated sum in the receiver's
        # module shadows the builtin.
        monkeypatch.setattr(decoder, "sum", compensated_sum, raising=False)
        rng = np.random.default_rng(109)
        for frame in range(600):
            try:
                setup = self.random_setup(rng, ("RS", "PA")[frame % 2])
            except (TuningParameterError, InfeasibleOperatingPointError):
                continue
            self.assert_same_result(*setup)

    def test_decode_frame_exact_ties(self):
        # A degree-1 RS message alone in its slot sits exactly on its
        # threshold; the chain decodes over several cascades.
        tie = FrameGraph(3, [[1], [0, 2], [0, 2]])
        for alpha in (0.0, 0.5):
            scheme = SchemeConfig("RS", alpha=alpha, beta=1.0)
            cfg = uniform_cfg(3, 3, 0.5, l_avg=5 / 3)
            result = self.assert_same_result(tie, build_profile(tie.degrees, cfg, scheme, 5 / 3), scheme, cfg)
            assert result.decoded[0]
        g = chain_frame()
        cfg = uniform_cfg(8, 9, 0.5, l_avg=2.0)
        for scheme in (SchemeConfig("RS", alpha=0.5, beta=1.0), SchemeConfig("IRSA")):
            result = self.assert_same_result(g, build_profile(g.degrees, cfg, scheme, 2.0), scheme, cfg)
            assert result.decoded.all()
        for hat_R in (1.0, 4.0, 10.0):
            cfg = ChannelConfig(K=8, M=9, L_cu=100, hat_R=hat_R)
            for mu in PA_MUS:
                scheme = SchemeConfig("PA", mu=mu)
                self.assert_same_result(g, build_profile(g.degrees, cfg, scheme, 2.0), scheme, cfg)


    @staticmethod
    def cancellations(g, result):
        """How each decode's cancellation left each of its slots, as (phase,
        messages left: 0, 1, or 2 for several), and the number of degree-one
        slots after each decode, in step order."""
        held = g.slot_degrees().tolist()
        left, degree_one = set(), []
        for msg, phase in zip(result.order.tolist(), result.phase[result.order].tolist()):
            for j in g.message_slots[msg]:
                held[j] -= 1
                left.add((phase, min(held[j], 2)))
            degree_one.append(held.count(1))
        return left, degree_one

    def test_crafted_frames_cancel_every_way(self):
        # RS: no slot starts at degree one, so phase 1 has nothing to scan.
        # Decoding 0 in phase 2 leaves no degree-one slot, so phase 1 is
        # skipped again; decoding 2 in phase 2 leaves three, and phase 1
        # drains the frame.
        rs_frame = FrameGraph(4, [[0, 1, 3], [1], [0, 2, 3], [0, 1], [1, 2, 3]])
        rs = SchemeConfig("RS", alpha=0.0, beta=1.0)
        # PA: phase 1 decodes 1 and empties its slots; then the same pattern
        # of two phase-2 decodes, the first leaving no degree-one slot.
        pa_frame = FrameGraph(5, [[3], [0, 2, 4], [4], [1, 3], [1, 3, 4]])
        pa = SchemeConfig("PA", mu=3.0)
        cases = [
            (rs_frame, rs, uniform_cfg(5, 4, 0.5, l_avg=2.0),
             [0, 2, 3, 4, 1], [2, 2, 1, 1, 1], [0, 3, 2, 1, 0]),
            (pa_frame, pa, ChannelConfig(K=5, M=5, L_cu=100, hat_R=10.0),
             [1, 0, 2, 4, 3], [1, 2, 2, 1, 1], [0, 0, 1, 2, 0]),
        ]
        left = set()
        for g, scheme, cfg, order, phases, degree_one in cases:
            profile = build_profile(g.degrees, cfg, scheme, 2.0)
            result = self.assert_same_result(g, profile, scheme, cfg)
            assert result.order.tolist() == order
            assert result.phase[result.order].tolist() == phases
            frame_left, frame_degree_one = self.cancellations(g, result)
            assert frame_degree_one == degree_one
            left |= frame_left
        # Every way a cancellation leaves a slot, in both phases.  A phase-2
        # decode never empties a slot (test_phase_two_never_empties_a_slot).
        assert left == {
            (PHASE_PEELING, 0), (PHASE_PEELING, 1), (PHASE_PEELING, 2),
            (PHASE_RESIDUAL, 1), (PHASE_RESIDUAL, 2),
        }

    def test_phase_two_never_empties_a_slot(self):
        # A message alone in a slot that passes its test is decoded by
        # phase 1, which runs to the end before phase 2 is entered.
        rng = np.random.default_rng(131)
        residual = 0
        for frame in range(300):
            try:
                setup = self.random_setup(rng, ("RS", "PA")[frame % 2])
            except (TuningParameterError, InfeasibleOperatingPointError):
                continue
            left, _ = self.cancellations(setup[0], decode_frame(*setup))
            assert (PHASE_RESIDUAL, 0) not in left
            residual += (PHASE_RESIDUAL, 1) in left or (PHASE_RESIDUAL, 2) in left
        assert residual >= 50


def unit_energy_setup(g, thresholds, Es=None):
    """A profile on ``g`` with every energy 1 and the given SINR thresholds,
    at N0 = 1: each slot's interference is its count of undecoded messages.
    With ``Es`` None it is PA-labelled and the receiver keeps its float
    state; with ``Es`` = 1.0 it is RS-labelled and the receiver keeps slot
    degrees alone, each term 1/h over a slot holding h."""
    profile = TransmitProfile(
        g.degrees, np.ones(g.K), np.ones(g.K), np.array(thresholds, dtype=float), Es, 2.0
    )
    if Es is None:
        return g, profile, SchemeConfig("PA", mu=1.0), ChannelConfig(K=g.K, M=g.M, hat_R=10.0)
    scheme = SchemeConfig("RS", alpha=1.0, beta=1.0)
    return g, profile, scheme, ChannelConfig(K=g.K, M=g.M, tilde_Es=2.0 * Es / g.M)


def unit_energy_setups(g, thresholds):
    """``unit_energy_setup`` on both receiver states: PA-labelled, then
    RS-labelled."""
    return [unit_energy_setup(g, thresholds), unit_energy_setup(g, thresholds, Es=1.0)]


class TestStalledRegistry:
    """The receiver re-tests a message only after a cancellation touches
    one of its slots; a message that failed and was not touched would fail
    again.  Each crafted frame pins a decode order the stateless receiver
    (``oracle_decode_frame``) gives, and that a receiver waking too little,
    or waking a slot into the wrong pass, would not, on both the float state
    (PA) and the integer state with per-slot sleeper lists (RS)."""

    @staticmethod
    def check(g, thresholds, order, phases, slots):
        for setup in unit_energy_setups(g, thresholds):
            result = TestResidualStateMatchesPythonSums.assert_same_result(*setup)
            assert result.order.tolist() == order
            assert result.phase[result.order].tolist() == phases
            assert list(result.slots) == slots
            _, profile, _, cfg = setup
            assert np.array_equal(closure_of(g, [profile], cfg.N0)[0], result.decoded)

    def test_stalled_slot_waits_for_the_phase_two_decode_that_touches_it(self):
        # Message 0 sits alone in slot 0 and fails there (SINR 1 + 1/3 <
        # 1.4).  Phase 2 first decodes 1, which shares no slot with 0, then
        # 2, which leaves slot 1 holding 0 and 4: 0 now passes (1 + 1/2) at
        # slot 0, although none of its slots became degree one.  Messages 3
        # and 4 never pass.
        g = FrameGraph(5, [[0, 1], [2, 3], [1, 4], [2, 3, 4], [1]])
        self.check(
            g, [1.4, 0.9, 0.8, 100.0, 100.0], order=[1, 2, 0], phases=[2, 2, 1], slots=[-1, -1, 0]
        )

    def test_wake_ahead_joins_the_pass_and_wake_behind_waits(self):
        # Messages 0 (slot 0) and 1 (slot 4) fail alone in their slots;
        # phase 2 decodes 3, which leaves 2 alone in slot 1.  Decoding 2
        # there touches slots 2 and 3, which keep message 4: neither becomes
        # degree one, but 0 and 1 are woken.  Slot 4 lies beyond the scan
        # position and decodes 1 in the same pass; slot 0 lies behind it and
        # waits for the next pass, where it decodes 0 before slot 2 (left
        # holding 4 alone) decodes 4.  Message 5 never passes.
        g = FrameGraph(6, [[0, 2], [3, 4], [1, 2, 3], [1, 5], [2, 3], [5]])
        self.check(
            g, [1.4, 1.4, 1.5, 0.9, 1.45, 100.0],
            order=[3, 2, 1, 0, 4], phases=[2, 1, 1, 1, 1], slots=[-1, 1, 4, 0, 2],
        )

    def test_woken_message_above_the_lowest_passing_one_waits_untested(self):
        # Slots: 0 {0, 2, 5}, 1 {0, 3}, 2 {1, 2}, 3 {1, 4}, 4 {3, 4, 5}; no
        # slot starts at degree one.  Phase 2's first entry finds 0 (SINR
        # 1/3 + 1/2 >= 0.8) and 1 (1 >= 0.9) passing and decodes 0, which
        # wakes 2.  At the next entry 1 still passes and lies below 2, so 2
        # is not tested (it would fail: 1/2 + 1/2 < 1.2).  Decoding 1 leaves
        # 2 alone in slot 2, where phase 1 decodes it (1/2 + 1 >= 1.2).
        # Messages 3, 4 and 5 never pass.
        g = FrameGraph(5, [[0, 1], [2, 3], [0, 2], [1, 4], [3, 4], [0, 4]])
        self.check(
            g, [0.8, 0.9, 1.2, 100.0, 100.0, 100.0],
            order=[0, 1, 2], phases=[2, 2, 1], slots=[-1, -1, 2],
        )

    def test_woken_message_below_the_lowest_passing_one_is_taken(self):
        # Slots: 0 {0, 1, 5}, 1 {0, 3}, 2 {1, 4}, 3 {2, 4}, 4 {2, 3, 5}.
        # Phase 2's first entry finds 0 and 2 passing (1/3 + 1/2 >= 0.8) and
        # 1 failing (1/3 + 1/2 < 0.9), and decodes 0, which wakes 1.  At the
        # next entry 1 lies below 2, the lowest known to pass: it is tested,
        # passes (1/2 + 1/2) and is taken before 2.  Messages 3, 4 and 5
        # never pass.
        g = FrameGraph(5, [[0, 1], [0, 2], [3, 4], [1, 4], [2, 3], [0, 4]])
        self.check(
            g, [0.8, 0.9, 0.8, 100.0, 100.0, 100.0],
            order=[0, 1, 2], phases=[2, 2, 2], slots=[-1, -1, -1],
        )

    @pytest.mark.parametrize(
        "variant, params, G",
        [("PA", {"mu": 1.0}, 0.8), ("RS", {"alpha": 1.31587, "beta": 2.82843}, 1.3)],
    )
    def test_stalling_regimes_at_full_size(self, variant, params, G):
        # K = 300, modified soliton Y = 10: the two regimes where the
        # receiver stalls most (about 40 and 77 phase-2 decodes per frame).
        dist = modified_soliton(10)
        l_avg = avg_degree(dist)
        M = int(round(300 / G))
        if variant == "PA":
            cfg = ChannelConfig(K=300, M=M, hat_R=10.0)
        else:
            cfg = ChannelConfig(K=300, M=M, tilde_Es=9e-4)
        scheme = SchemeConfig(variant, **params)
        rng = np.random.default_rng(239)
        residual = 0
        for _ in range(3):
            g = build_frame(300, M, dist, rng)
            profile = build_profile(g.degrees, cfg, scheme, l_avg)
            result = TestResidualStateMatchesPythonSums.assert_same_result(g, profile, scheme, cfg)
            assert np.array_equal(closure_of(g, [profile], cfg.N0)[0], result.decoded)
            residual += int((result.phase == PHASE_RESIDUAL).sum())
        assert residual >= 60


class TestRsIntegerState:
    """Under one per-replica energy (RS) the two-phase receiver keeps slot
    degrees and id sums alone, and wakes sleepers from per-slot lists; every
    output equals the stateless receiver's (oracle_decode_frame) bit for
    bit."""

    def test_ideal_soliton_tracking_slot_count(self):
        # "Y": "M": degrees up to M, so a message that fails sleeps in tens
        # of slots, and a slot holds tens of messages.
        rng = np.random.default_rng(251)
        two_phase = residual = widest = busiest = 0
        for _ in range(120):
            M = int(rng.integers(5, 80))
            K = int(rng.integers(1, 2 * M))
            dist = ideal_soliton(M)
            g = build_frame(K, M, dist, rng)
            cfg = ChannelConfig(
                K=K, M=M, L_cu=int(rng.integers(1, 200)), N0=float(rng.uniform(0.2, 3.0)),
                tilde_Es=float(rng.uniform(1e-4, 0.05)),
            )
            scheme = SchemeConfig(
                "RS", alpha=float(rng.choice(RS_ALPHA_GRID)), beta=float(rng.choice(RS_BETA_GRID))
            )
            profile = build_profile(g.degrees, cfg, scheme, avg_degree(dist))
            setup = (g, profile, scheme, cfg)
            result = TestResidualStateMatchesPythonSums.assert_same_result(*setup)
            if is_static(*setup):
                continue
            two_phase += 1
            residual += int((result.phase == PHASE_RESIDUAL).sum())
            # An undecoded message failed phase 2's first test and slept.
            widest = max(widest, int(g.degrees[~result.decoded].max(initial=0)))
            read = g.slot_degrees()[g.edge_slot[result.decoded[g.edge_msg]]]
            busiest = max(busiest, int(read.max(initial=0)))
        assert two_phase >= 60 and residual >= 500 and widest >= 40 and busiest >= 15

    def test_never_builds_the_slot_lists(self, monkeypatch):
        def forbidden(graph):
            raise AssertionError("RS decode read FrameGraph.slot_messages")

        monkeypatch.setattr(FrameGraph, "slot_messages", property(forbidden))
        # The tune_rs_l2 point where the receiver stalls most (see
        # TestStalledRegistry.test_stalling_regimes_at_full_size).
        dist = modified_soliton(10)
        cfg = ChannelConfig(K=300, M=231, tilde_Es=9e-4)
        scheme = SchemeConfig("RS", alpha=1.31587, beta=2.82843)
        rng = np.random.default_rng(257)
        residual = 0
        for _ in range(3):
            g = build_frame(300, 231, dist, rng)
            setup = (g, build_profile(g.degrees, cfg, scheme, avg_degree(dist)), scheme, cfg)
            assert not is_static(*setup)
            result = decode_frame(*setup)
            residual += int((result.phase == PHASE_RESIDUAL).sum())
        assert residual >= 60

    def test_sleepers_wake_and_sleep_again(self):
        # G = 1.3 frames where messages sleep, are woken from their slots'
        # lists and sleep again, each time in a slot whose list the wake
        # took out: hundreds of times a frame.  Each sleep and wake is a
        # call of the receiver's ``enlist`` and ``wake``, counted by a
        # profile hook; every output is the stateless receiver's.
        dist = modified_soliton(10)
        cfg = ChannelConfig(K=300, M=231, tilde_Es=9e-4)
        scheme = SchemeConfig("RS", alpha=1.31587, beta=2.82843)
        rng = np.random.default_rng(263)
        calls, slept = Counter(), Counter()

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_name in ("enlist", "wake"):
                calls[frame.f_code.co_name] += 1
                if frame.f_code.co_name == "enlist":
                    msg = frame.f_locals["msg"]
                    calls["again"] += slept[msg] > 0
                    slept[msg] += 1

        for _ in range(3):
            g = build_frame(300, 231, dist, rng)
            setup = (g, build_profile(g.degrees, cfg, scheme, avg_degree(dist)), scheme, cfg)
            assert not is_static(*setup)
            slept.clear()
            sys.setprofile(count)
            try:
                decode_frame(*setup)
            finally:
                sys.setprofile(None)
            TestResidualStateMatchesPythonSums.assert_same_result(*setup)
        assert calls["wake"] >= 600 and calls["again"] >= 300, calls

    def test_static_frames_take_the_two_phase_receiver(self, monkeypatch):
        # An RS frame every message of which passes before any cancellation
        # still takes the two-phase receiver: decode_frame neither runs the
        # static test nor peels on the static path, which a spy on each
        # counts.  A static PA frame takes both, so the spies see calls.
        rng = np.random.default_rng(277)
        g = FrameGraph(5, [[3, 4], [1], [3, 4], [0, 2], [2]])
        setups = [unit_energy_setup(g, [0.4] * 5, Es=1.0)]
        for _ in range(150):
            try:
                setups.append(TestResidualStateMatchesPythonSums.random_setup(rng, "RS"))
            except (TuningParameterError, InfeasibleOperatingPointError):
                continue
        setups = [setup for setup in setups if is_static(*setup)]
        assert len(setups) >= 40
        calls = Counter()

        def spy(name):
            real = getattr(decoder, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(decoder, name, counted)

        spy("static_passes")
        spy("_peel_static")
        for setup in setups:
            TestResidualStateMatchesPythonSums.assert_same_result(*setup)
        assert not calls, calls
        decode_frame(*unit_energy_setup(g, [0.4] * 5))
        assert calls == {"static_passes": 1, "_peel_static": 1}


class TestStaticPeeling:
    """A statically decodable PA frame, every message passing before any
    cancellation, decodes by integer peeling and one vectorised SINR
    replay; every output equals the two-phase receiver's, bit for bit."""

    @staticmethod
    def assert_same_as_two_phase(setup, monkeypatch):
        got = decode_frame(*setup)
        with monkeypatch.context() as patch:
            patch.setattr(decoder, "static_passes", lambda graph, *args: np.zeros(graph.K, bool))
            want = decode_frame(*setup)
        assert got.order.tolist() == want.order.tolist()
        assert np.array_equal(got.phase, want.phase)
        assert list(got.slots) == list(want.slots)
        assert np.array_equal(got.sinrs, want.sinrs)
        assert np.array_equal(got.genie_rates, want.genie_rates)
        return got

    def test_two_cycle_takes_the_lowest_index_in_phase_two(self, monkeypatch):
        # Every message passes at threshold 0.4 before any cancellation.
        # Phase 1 decodes 3 (slot 0), 1 (slot 1) and 4 (slot 2, left alone
        # by 3); messages 0 and 2 share slots 3 and 4, a stopping set.  Phase
        # 2 takes 0, the lower index, and phase 1 then decodes 2 at slot 3.
        g = FrameGraph(5, [[3, 4], [1], [3, 4], [0, 2], [2]])
        TestStalledRegistry.check(
            g, [0.4] * 5, order=[3, 1, 4, 0, 2], phases=[1, 1, 1, 2, 1], slots=[0, 1, 2, -1, 3]
        )
        setup = unit_energy_setup(g, [0.4] * 5)
        assert is_static(*setup)
        self.assert_same_as_two_phase(setup, monkeypatch)

    def test_tuned_pa_points_at_full_size(self, monkeypatch):
        # The mu the static_reliability rule picks on the tune_pa_l2
        # benchmark's frames at G 0.5, 0.8 and 1.1: K = 300, modified
        # soliton Y = 10, hat_R 10.  At G = 1.1 a static frame takes about
        # 47 phase-2 decodes.
        dist = modified_soliton(10)
        l_avg = avg_degree(dist)
        rng = np.random.default_rng(241)
        static = residual = 0
        for G, mu in [(0.5, 1.4), (0.8, 1.51), (1.1, 1.52)]:
            M = int(round(300 / G))
            cfg = ChannelConfig(K=300, M=M, hat_R=10.0)
            scheme = SchemeConfig("PA", mu=mu)
            for _ in range(6):
                g = build_frame(300, M, dist, rng)
                setup = (g, build_profile(g.degrees, cfg, scheme, l_avg), scheme, cfg)
                result = self.assert_same_as_two_phase(setup, monkeypatch)
                if is_static(*setup):
                    static += 1
                    residual += int((result.phase == PHASE_RESIDUAL).sum())
        assert static >= 16 and residual >= 100

    def test_static_decode_builds_no_slot_list(self):
        g = FrameGraph(5, [[3, 4], [1], [3, 4], [0, 2], [2]])
        setup = unit_energy_setup(g, [0.4] * 5)
        assert is_static(*setup)
        assert (decode_frame(*setup).phase == PHASE_RESIDUAL).any()
        assert "message_slots" not in g.__dict__
        assert "slot_messages" not in g.__dict__

    @pytest.mark.parametrize("K, peels", [(255, 1), (256, 0)])
    def test_frames_busier_than_a_byte_take_the_two_phase_receiver(self, monkeypatch, K, peels):
        # Every message sits in slot 0, and messages 2i and 2i + 1 share
        # slot i + 1 (an odd K leaves the last alone there): each SINR is
        # 1/K + 1/2 or more before any cancellation, so the frame is static,
        # and phase 2 opens every pair.  The static peel keeps a slot's
        # degree in a byte, so a slot of 256 messages goes to the two-phase
        # receiver.
        g = FrameGraph(K // 2 + 2, [[0, k // 2 + 1] for k in range(K)])
        setup = unit_energy_setup(g, [0.4] * K)
        assert is_static(*setup)
        real, calls = decoder._peel_static, []
        monkeypatch.setattr(decoder, "_peel_static", lambda *args: calls.append(1) or real(*args))
        got = TestResidualStateMatchesPythonSums.assert_same_result(*setup)
        assert len(calls) == peels
        assert (got.phase == PHASE_RESIDUAL).sum() == K // 2

    @pytest.mark.parametrize("M", [2**16, 2**16 + 1])
    def test_slot_order_past_16_bits(self, monkeypatch, M):
        # The slot order sorts slot indices as 16-bit keys only where they
        # fit: at M = 2**16 + 1, slot 2**16 would sort as slot 0.  The order,
        # the per-slot lists and the static path's SINRs equal those of the
        # stable sort of the int64 indices.
        rng = np.random.default_rng(59)
        pool = [0, 1, 2, 5, M - 3, M - 2, M - 1]
        lists = [[0, M - 1], [5, M - 1], [0, 5]] + [
            rng.choice(pool, 2, replace=False).tolist() for _ in range(30)
        ]

        def decode():
            g = FrameGraph(M, lists)
            return g, decode_frame(*unit_energy_setup(g, [0.1] * len(lists)))

        g, got = decode()
        int64_order = np.argsort(g.edge_slot, kind="stable")
        assert np.array_equal(g.slot_order(), int64_order)
        assert g.slot_messages == [
            [k for k, slots in enumerate(lists) if j in slots] for j in range(M)
        ]
        assert "message_slots" not in g.__dict__  # the static path ran
        monkeypatch.setattr(FrameGraph, "slot_order", lambda g: int64_order)
        _, want = decode()
        assert (got.phase == PHASE_RESIDUAL).any()
        for name in RESULT_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestGenieRate:
    def test_genie_rate_formula(self):
        g = FrameGraph(3, [[1]])
        es = 0.4
        cfg = uniform_cfg(1, 3, es)
        scheme = SchemeConfig("IRSA")
        profile = build_profile(g.degrees, cfg, scheme, 3.0)
        result = decode_frame(g, profile, scheme, cfg)
        assert result.genie_rate[0] == pytest.approx(
            50 * math.log2(1 + es), rel=1e-12
        )

    def test_genie_rate_without_one(self):
        g = FrameGraph(3, [[1]])
        es = 0.4
        cfg = uniform_cfg(1, 3, es)
        scheme = SchemeConfig("IRSA", rmax_includes_one=False)
        profile = build_profile(g.degrees, cfg, scheme, 3.0)
        result = decode_frame(g, profile, scheme, cfg)
        assert result.genie_rate[0] == pytest.approx(50 * math.log2(es), rel=1e-12)


def fresh_terms(h, e, N0):
    """The term table of one frame whose slots hold up to h messages, built
    for that frame alone: e / (S - e + N0) over the sums S of 1 .. h
    replicas of energy e, added from 0.0, checked as ``_checked`` checks
    slot interference; term[0] = 0.0."""
    with np.errstate(over="ignore"):
        S = np.add.accumulate(np.full(h, e))
    return np.concatenate(([0.0], decoder._checked(S, lambda: e / (S - e + N0))))


def outcome(f, *args):
    """``f(*args)``, or the message of the InfeasibleOperatingPointError it
    raises."""
    try:
        return f(*args)
    except InfeasibleOperatingPointError as err:
        return str(err)


class TestUniformTerms:
    """One term table per (energy, N0, K) serves every frame: reused across
    frames whose slots hold different most messages, in any order, it gives
    the entries and the overflow flag a table built for each frame alone
    gives."""

    # (e, N0): no overflow; the sums overflow from 11 messages on; the noise
    # term S - e + N0 from 11 on; e / N0 itself at one message; the sums
    # from 3 on.
    CASES = [(0.004, 1.0), (1.7e307, 1.0), (1e306, 1.7e308), (1e300, 1e-10), (7e307, 1e308)]

    def test_reused_table_entries_and_flags(self):
        rng = np.random.default_rng(269)
        flags = Counter()
        for e, N0 in self.CASES:
            for K in (0, 1, 2, 17, 200):
                for h in rng.permutation(K + 1).tolist():
                    degree = rng.permutation(np.append(rng.integers(0, h + 1, size=5), h))
                    want = outcome(fresh_terms, h, e, N0)
                    got = outcome(decoder._uniform_terms, degree, e, N0, K)
                    if isinstance(want, str):
                        assert got == want
                        flags[want] += 1
                    else:
                        array, values = got
                        assert len(array) == len(values) == K + 1
                        assert array[:h + 1].tobytes() == want.tobytes()
                        assert values[:h + 1] == want.tolist()
        assert flags[decoder.INTERFERENCE_OVERFLOWS] >= 20
        assert flags[decoder.NOISE_OVERFLOWS] >= 40

    def test_reused_table_decodes_as_a_fresh_one(self, monkeypatch):
        # Baseline frames at energies where the busiest slots overflow: a
        # frame decodes, or is flagged, alike whichever frames the table
        # served before it, and alike with a table built for it alone.
        rng = np.random.default_rng(271)
        frames = [build_frame(60, int(rng.integers(20, 120)), fixed_l3(), rng) for _ in range(30)]
        scheme = SchemeConfig("IRSA")
        flagged = Counter()
        for e, N0 in self.CASES:
            def decode(g):
                # The receiver reads the energy from the profile alone.
                cfg = ChannelConfig(K=g.K, M=g.M, N0=N0, tilde_Es=1.0)
                profile = TransmitProfile(
                    g.degrees, np.full(g.K, e), np.ones(g.K), np.ones(g.K), e, 3.0
                )
                result = outcome(decode_frame, g, profile, scheme, cfg)
                return result if isinstance(result, str) else result.sinrs.tobytes()

            with monkeypatch.context() as patch:
                def alone(degree, e, N0, K):
                    terms = fresh_terms(int(degree.max(initial=0)), e, N0)
                    return terms, terms.tolist()

                patch.setattr(decoder, "_uniform_terms", alone)
                fresh = [decode(g) for g in frames]
            for i in rng.permutation(len(frames)).tolist():
                assert decode(frames[i]) == fresh[i]
            flagged.update(isinstance(f, str) for f in fresh)
        # Slots hold up to 5 .. 17 messages: some frames are flagged at
        # (1.7e307, 1) and (1e306, 1.7e308), and others decode.
        assert flagged[True] >= 80 and flagged[False] >= 50, flagged


class TestIrsaIntegerPeeling:
    """The baseline decodes by integer peeling and computes its SINRs after
    the fact; every output equals the stateless receiver's
    (oracle_decode_frame) bit for bit, and the decoded set equals the
    stateless peeling oracle."""

    @staticmethod
    def check(g, rng, l_avg):
        cfg = ChannelConfig(
            K=g.K, M=g.M, L_cu=int(rng.integers(1, 200)), N0=float(rng.uniform(0.2, 3.0)),
            tilde_Es=float(rng.uniform(1e-4, 0.05)),
        )
        scheme = SchemeConfig("IRSA", rmax_includes_one=bool(rng.integers(2)))
        profile = build_profile(g.degrees, cfg, scheme, l_avg)
        got = TestResidualStateMatchesPythonSums.assert_same_result(g, profile, scheme, cfg)
        assert set(np.flatnonzero(got.decoded).tolist()) == irsa_peeling_oracle(g)
        return got

    def test_random_large_frames(self):
        rng = np.random.default_rng(211)
        decoded = []
        for frame in range(60):
            dist = (fixed_l3(), modified_soliton(10))[frame % 2]
            K = int(rng.integers(200, 500))
            M = int(np.ceil(K / rng.uniform(0.2, 0.7)))
            result = self.check(build_frame(K, M, dist, rng), rng, avg_degree(dist))
            decoded.append(result.decoded_count)
        assert min(decoded) >= 129 and max(decoded) >= 321

    def test_ideal_soliton_tracking_slot_count(self):
        # "Y": "M": degrees up to M, so slots hold tens of messages, and a
        # decode's SINR reads interference summed over many of them.
        rng = np.random.default_rng(223)
        busiest = decoded = 0
        for _ in range(120):
            M = int(rng.integers(5, 80))
            K = int(rng.integers(1, 2 * M))
            dist = ideal_soliton(M)
            g = build_frame(K, M, dist, rng)
            result = self.check(g, rng, avg_degree(dist))
            read = g.slot_degrees()[g.edge_slot[result.decoded[g.edge_msg]]]
            busiest = max(busiest, int(read.max(initial=0)))
            decoded += result.decoded_count
        assert busiest >= 15 and decoded >= 500

    def test_crafted_frames(self):
        rng = np.random.default_rng(227)
        single = self.check(FrameGraph(1, [[0]]), rng, 1.0)
        assert single.decoded.all() and list(single.slots) == [0]
        stuck = self.check(FrameGraph(3, [[0, 1], [0, 1], [1, 2], [1, 2]]), rng, 2.0)
        assert not stuck.decoded.any() and len(stuck.sinrs) == 0
        # One slot shared by several messages: nothing decodes.
        for K in (2, 5):
            assert not self.check(FrameGraph(1, [[0]] * K), rng, 1.0).decoded.any()
        # 150 messages whose cancellations all land on one hub slot, so the
        # hub's interference is re-summed over many messages while it drains.
        hub = FrameGraph(151, [[k, 150] for k in range(150)])
        assert self.check(hub, rng, 2.0).decoded.all()

    def test_never_touches_the_float_state(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("IRSA decode used the float residual state")

        monkeypatch.setattr(decoder, "_decode_mrc", forbidden)
        rng = np.random.default_rng(229)
        g = build_frame(300, 400, fixed_l3(), rng)
        cfg = ChannelConfig(K=300, M=400, tilde_Es=0.0009)
        scheme = SchemeConfig("IRSA")
        result = decode_frame(g, build_profile(g.degrees, cfg, scheme, 3.0), scheme, cfg)
        assert result.decoded.all()


class TestIrsaDensityEvolution:
    """The baseline against asymptotic theory: density evolution
    (irsa_de_threshold) puts IRSA's load threshold G* where a long frame
    goes from decoding nearly every message to decoding few."""

    @pytest.mark.parametrize(
        "dist", [fixed_l3(), modified_soliton(10)], ids=["l3", "modified_soliton_Y10"]
    )
    def test_threshold(self, dist):
        K, frames = 3000, 20
        l_avg = avg_degree(dist)
        g_star = irsa_de_threshold(dist)
        rng = np.random.default_rng(0)
        scheme = SchemeConfig("IRSA")

        def normalised_throughputs(G):
            M = round(K / G)
            cfg = uniform_cfg(K, M, 1.0, l_avg=l_avg)
            out = []
            for _ in range(frames):
                g = build_frame(K, M, dist, rng)
                result = decode_frame(g, build_profile(g.degrees, cfg, scheme, l_avg), scheme, cfg)
                out.append(result.decoded_count / M / G)
            return out

        below = normalised_throughputs(0.85 * g_star)
        assert min(below) >= 0.97, (g_star, below)
        above = normalised_throughputs(1.1 * g_star)
        assert np.mean(above) <= 0.35, (g_star, above)


class TestIrsaErrorFloor:
    """The baseline against finite-length theory: at low load the loss of
    a distribution with degree-2 users is set by its smallest stopping sets
    (Ivanov et al., IEEE Commun. Lett. 2015)."""

    def test_l3_loss_matches_small_stopping_sets(self):
        # Two degree-2 users on the same two slots lose both: 2*L2^2*(K-1) /
        # (M(M-1)) of the messages.  Three degree-2 users on the three edges
        # of a slot triangle lose all three: 3*C(K,3)*L2^3 triangles' worth
        # of 6*C(M,3)/C(M,2)^3, over K.  The larger sets the sum leaves out,
        # led by four degree-2 users on a slot 4-cycle (about 3% of it
        # here), stay within the allowance of 10% of the prediction.
        K, G, frames, seed = 60, 0.2, 8000, 3
        M = round(K / G)
        dist = fixed_l3()
        l2 = float(dict(dist.atoms)[2])
        pairs = 2 * l2**2 * (K - 1) / (M * (M - 1))
        triangles = (
            3 * math.comb(K, 3) * l2**3 * 6 * math.comb(M, 3) / math.comb(M, 2) ** 3 / K
        )
        predicted = pairs + triangles
        l_avg = avg_degree(dist)
        cfg = uniform_cfg(K, M, 1.0, l_avg=l_avg)
        scheme = SchemeConfig("IRSA")
        rng = np.random.default_rng(seed)
        lost = 0
        for _ in range(frames):
            g = build_frame(K, M, dist, rng)
            profile = build_profile(g.degrees, cfg, scheme, l_avg)
            lost += K - decode_frame(g, profile, scheme, cfg).decoded_count
        loss = lost / (frames * K)
        binomial_se = math.sqrt(predicted * (1 - predicted) / (frames * K))
        assert abs(loss - predicted) <= 3 * binomial_se + 0.1 * predicted, (loss, predicted)
