"""Two-phase SIC receiver: fixed points, scan order, and oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsa_sim import decoder, frame_graph
from irsa_sim.decoder import (
    PHASE_PEELING,
    PHASE_RESIDUAL,
    decode_frame,
    decoded_closure,
    effective_sinr,
    irsa_peeling_oracle,
    mrc_sinr,
    success_thresholds,
)
from irsa_sim.distributions import avg_degree, fixed_l3, modified_soliton
from irsa_sim.frame_graph import (
    REFRESH_EVERY,
    FrameGraph,
    ResidualState,
    build_frame,
    peel,
    refresh_interference,
)
from irsa_sim.schemes import (
    ChannelConfig,
    InfeasibleOperatingPointError,
    SchemeConfig,
    TuningParameterError,
    build_profile,
)


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
        state = ResidualState(g, profile.energies)
        assert effective_sinr(0, g, state, profile, 1.0) == pytest.approx(es, rel=1e-12)

    def test_two_replicas_one_interferer_each(self):
        # Message 0 shares each of its two slots with exactly one other.
        g = FrameGraph(2, [[0, 1], [0, 1]])
        es = 0.7
        profile = build_profile(
            g.degrees, uniform_cfg(2, 2, es, l_avg=2.0), SchemeConfig("IRSA"), 2.0
        )
        state = ResidualState(g, profile.energies)
        assert effective_sinr(0, g, state, profile, 1.0) == pytest.approx(
            2 * es / (es + 1.0), rel=1e-12
        )

    def test_example_message_at_start(self):
        g = example_graph()
        es = 0.9
        profile = build_profile(
            g.degrees, uniform_cfg(4, 5, es, l_avg=2.25), SchemeConfig("IRSA"), 2.25
        )
        state = ResidualState(g, profile.energies)
        expected = es / (es + 1.0) + es / (2 * es + 1.0) + es / 1.0
        assert effective_sinr(1, g, state, profile, 1.0) == pytest.approx(
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
            state = ResidualState(g, profile.energies)
            watched = int(rng.integers(0, K))
            last = effective_sinr(watched, g, state, profile, cfg.N0)
            for msg in rng.permutation(K):
                if msg == watched:
                    continue
                peel(g, state, int(msg), profile)
                now = effective_sinr(watched, g, state, profile, cfg.N0)
                assert now >= last * (1 - 1e-12)
                last = now


class TestBaselineDecoding:
    def test_example_frame_order(self):
        g = example_graph()
        cfg = uniform_cfg(4, 5, 0.5, l_avg=2.25)
        scheme = SchemeConfig("IRSA")
        result = decode_frame(g, build_profile(g.degrees, cfg, scheme, 2.25), scheme, cfg)
        assert result.decoded.all()
        assert result.decode_order() == [1, 2, 3, 0]
        assert result.decode_slot.tolist() == [1, 3, 0, 2]
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
            steps = result.decode_step[result.decoded]
            assert len(set(steps.tolist())) == len(steps)
            if len(steps):
                assert sorted(steps.tolist()) == list(range(len(steps)))
            # Success rule: the genie rate at decode time covers the
            # assigned rate (up to the 1e-9 comparison slack).
            for m in np.flatnonzero(result.decoded):
                assert result.genie_rate[m] >= profile.rates[m] * (1 - 1e-9)
            # Phase-1 decodes carry their slot, phase-2 decodes do not.
            for m in np.flatnonzero(result.decoded):
                if result.phase[m] == PHASE_PEELING:
                    assert result.decode_slot[m] >= 0
                else:
                    assert result.decode_slot[m] == -1

    @pytest.mark.parametrize("variant", ["RS", "PA"])
    def test_fixed_point_no_undecoded_message_passes(self, variant):
        # At termination no undecoded message may satisfy its own success
        # test against the final residual state.
        rng = np.random.default_rng(61)
        for _ in range(400):
            g, cfg, scheme, profile = self._random_setup(rng, variant)
            result = decode_frame(g, profile, scheme, cfg)
            state = ResidualState(g, profile.energies)
            for m in np.flatnonzero(result.decoded):
                peel(g, state, int(m), profile)
            thr = profile.sinr_thresholds * (1 - 1e-9)
            for m in np.flatnonzero(~result.decoded):
                assert effective_sinr(m, g, state, profile, cfg.N0) < thr[m]

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
        assert np.array_equal(a.decode_step, b.decode_step)
        assert np.array_equal(a.genie_rate, b.genie_rate, equal_nan=True)


class TestStaticCriterionOracle:
    """The mu tuner's static criterion (every message passes its success
    test before any cancellation), computed by ``mrc_sinr``, against the
    per-message ``effective_sinr`` loop over a fresh ResidualState."""

    MUS = (1.0, 1.2, 1.5, 2.0, 3.0, 5.0)

    @staticmethod
    def reference(g, profile, N0):
        state = ResidualState(g, profile.energies)
        thr = profile.sinr_thresholds * (1 - 1e-9)
        return all(
            effective_sinr(m, g, state, profile, N0) >= thr[m] for m in range(g.K)
        )

    @staticmethod
    def vectorised(g, profile, N0):
        edge_msg, edge_slot = g.edge_msg, g.edge_slot
        sinr = mrc_sinr(edge_msg, edge_slot, profile.energies[edge_msg], N0)
        state = ResidualState(g, profile.energies)
        expected = [effective_sinr(m, g, state, profile, N0) for m in range(g.K)]
        assert sinr == pytest.approx(expected, rel=1e-12)
        return bool((sinr >= success_thresholds(profile)).all())

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
    """decoded_closure over one frame for a list of profiles."""
    edge_msg, edge_slot = g.edge_msg, g.edge_slot
    return decoded_closure(
        edge_msg,
        edge_slot,
        np.stack([p.energies for p in profiles]),
        np.stack([success_thresholds(p) for p in profiles]),
        N0,
    )


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
        assert np.flatnonzero(before >= success_thresholds(profile)).tolist() == [0, 7]
        result = decode_frame(g, profile, scheme, cfg)
        assert result.decoded.all()
        assert closure_of(g, [profile], cfg.N0)[0].all()


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

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        seed=frame_seeds,
        variant=st.sampled_from(["RS", "PA"]),
        params=st.lists(
            st.tuples(st.floats(0.0, 3.0), st.floats(1.0, 4.0)), min_size=1, max_size=12
        ),
        cuts=st.lists(st.integers(1, 11), max_size=4),
    )
    def test_batch_and_chunking_do_not_matter(self, seed, variant, params, cuts):
        g, cfg, l_avg = random_frame(np.random.default_rng(seed), variant)
        if variant == "PA":
            schemes = [SchemeConfig("PA", mu=x) for _, x in params]
        else:
            schemes = [SchemeConfig("RS", alpha=a, beta=b) for a, b in params]
        profiles = _profiles(g, cfg, l_avg, schemes)
        whole = closure_of(g, profiles, cfg.N0)
        alone = np.concatenate([closure_of(g, [p], cfg.N0) for p in profiles])
        assert np.array_equal(whole, alone)
        bounds = [0, *sorted({c for c in cuts if c < len(profiles)}), len(profiles)]
        chunked = np.concatenate(
            [closure_of(g, profiles[a:b], cfg.N0) for a, b in zip(bounds, bounds[1:])]
        )
        assert np.array_equal(whole, chunked)


def python_sum(values):
    """Left-to-right float sum from 0, as ``sum`` adds on CPython 3.11
    (later versions compensate sums of plain floats)."""
    total = 0
    for v in values:
        total += v
    return float(total)


class ReferenceResidualState(ResidualState):
    """ResidualState as first written: per-slot Python sums over
    ``slot_messages``."""

    __slots__ = ()

    def __init__(self, graph, energies):
        self.decoded = [False] * graph.K
        self.slot_degree = [len(m) for m in graph.slot_messages]
        self.slot_interference = [
            python_sum(energies[k] for k in msgs) for msgs in graph.slot_messages
        ]
        self.num_degree_one = sum(1 for d in self.slot_degree if d == 1)
        self.peels_since_refresh = 0


def reference_refresh(graph, state, energies):
    """refresh_interference as first written."""
    decoded = state.decoded
    state.slot_interference = [
        python_sum(energies[k] for k in msgs if not decoded[k])
        for msgs in graph.slot_messages
    ]
    state.peels_since_refresh = 0


def reference_peel(graph, state, msg, profile):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(frame_graph, "refresh_interference", reference_refresh)
        peel(graph, state, msg, profile)


def reference_decode(graph, profile, scheme, cfg):
    """decode_frame over the reference residual state."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(decoder, "ResidualState", ReferenceResidualState)
        m.setattr(frame_graph, "refresh_interference", reference_refresh)
        return decode_frame(graph, profile, scheme, cfg)


def state_fields(state):
    return (state.slot_interference, state.slot_degree, state.num_degree_one, state.decoded)


RESULT_FIELDS = ("decoded", "decode_step", "phase", "decode_slot", "decode_sinr", "genie_rate")


class TestResidualStateMatchesPythonSums:
    """The bincount residual state is bit-identical to the per-slot Python
    sums it replaced, and so is every decode_frame output."""

    @pytest.mark.parametrize("as_list", [False, True], ids=["numpy", "list"])
    def test_random_peel_sequences(self, as_list):
        rng = np.random.default_rng(97)
        refreshed = 0
        for frame in range(300):
            K = int(rng.integers(2, 160))
            M = int(rng.integers(6, 120))
            g = build_frame(K, M, modified_soliton(6), rng)
            energies = rng.uniform(0.05, 2.0, size=K)
            if frame % 3 == 0:  # uniform energies: equal sums, exact cancellations
                energies[:] = energies[0]
            e = energies.tolist() if as_list else energies
            profile = SimpleNamespace(energies=e)
            state = ResidualState(g, e)
            ref = ReferenceResidualState(g, e)
            assert state_fields(state) == state_fields(ref)
            order = rng.permutation(K)[: int(rng.integers(1, K + 1))]
            for msg in order:
                peel(g, state, int(msg), profile)
                reference_peel(g, ref, int(msg), profile)
                assert state_fields(state) == state_fields(ref)
            refreshed += len(order) >= REFRESH_EVERY
            refresh_interference(g, state, e)
            reference_refresh(g, ref, e)
            assert state_fields(state) == state_fields(ref)
        assert refreshed >= 50

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
        want = reference_decode(g, profile, scheme, cfg)
        for name in RESULT_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
        return got

    def test_decode_frame_random_frames(self):
        rng = np.random.default_rng(103)
        frames = refreshed = residual = 0
        for frame in range(2400):
            variant = ("IRSA", "RS", "PA")[frame % 3]
            try:
                setup = self.random_setup(rng, variant)
            except (TuningParameterError, InfeasibleOperatingPointError):
                continue
            result = self.assert_same_result(*setup)
            frames += 1
            refreshed += result.decoded_count >= REFRESH_EVERY
            residual += bool((result.phase == PHASE_RESIDUAL).any())
        assert frames >= 2000 and refreshed >= 300 and residual >= 200

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
