"""Frame construction and adjacency consistency."""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from scipy import stats

from irsa_sim import frame_graph
from irsa_sim.decoder import decode_frame
from irsa_sim.distributions import (
    DegreeDistribution,
    avg_degree,
    ideal_soliton,
    modified_soliton,
)
from irsa_sim.frame_graph import FrameGraph, build_frame
from irsa_sim.harness import SweepSpec, _decoded_sets, _table, make_point
from irsa_sim.schemes import SchemeConfig, build_profile
from oracles import slot_messages


def point_dist(degree: int) -> DegreeDistribution:
    return DegreeDistribution(f"point{degree}", ((degree, Fraction(1)),))


class CountingRng:
    """A numpy Generator that counts the calls of each of its methods."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


def example_graph() -> FrameGraph:
    # Four messages over five slots: m0->{1}; m1->{0,2,3}; m2->{0,2,4};
    # m3->{1,2,4}.  Slot degrees (2,2,3,1,2).
    return FrameGraph(5, [[1], [0, 2, 3], [0, 2, 4], [1, 2, 4]])


class TestFrameGraph:
    def test_example_slot_degrees(self):
        assert example_graph().slot_degrees().tolist() == [2, 2, 3, 1, 2]

    def test_inverse_adjacency(self):
        g = example_graph()
        members = slot_messages(g)
        for k, slots in enumerate(g.message_slots):
            for j in slots:
                assert k in members[j]
        assert len(g.edge_slot) == sum(len(m) for m in members)

    def test_rejects_out_of_range_and_duplicate_slots(self):
        with pytest.raises(ValueError):
            FrameGraph(3, [[0, 3]])
        with pytest.raises(ValueError):
            FrameGraph(3, [[1, 1]])
        with pytest.raises(ValueError):
            FrameGraph(3, [[]])

    def test_edge_roundtrip(self):
        g = example_graph()
        lines = [f"{k}\t{j}" for k, j in zip(g.edge_msg.tolist(), g.edge_slot.tolist())]
        again = FrameGraph.load_edges(lines)
        assert again.M == 5
        assert again.message_slots == g.message_slots


class TestEdgeArrays:
    """The CSR edge arrays against the per-message slot lists they flatten."""

    @staticmethod
    def check(g):
        flat = [j for slots in g.message_slots for j in slots]
        owner = [k for k, slots in enumerate(g.message_slots) for _ in slots]
        assert g.edge_slot.dtype == np.int64 and g.edge_msg.dtype == np.int64
        assert g.edge_slot.tolist() == flat
        assert g.edge_msg.tolist() == owner
        assert len(g.edge_msg) == len(g.edge_slot) == len(flat)
        assert g.slot_degrees().tolist() == [len(m) for m in slot_messages(g)]

    def test_build_frame(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            K = int(rng.integers(1, 60))
            M = int(rng.integers(6, 60))
            self.check(build_frame(K, M, modified_soliton(6), rng))

    def test_validating_constructor_sorts_each_message(self):
        g = FrameGraph(6, [[4, 1], [0], [5, 2, 3]])
        self.check(g)
        assert g.edge_slot.tolist() == [1, 4, 0, 2, 3, 5]
        self.check(example_graph())

    def test_load_edges(self):
        g = FrameGraph.load_edges(["1\t3", "0\t2", "# comment", "1\t0", "", "0\t1"], M=5)
        self.check(g)
        assert g.edge_msg.tolist() == [0, 0, 1, 1]
        assert g.edge_slot.tolist() == [1, 2, 0, 3]

    @pytest.mark.parametrize(
        "M, in_range", [(None, "slot count M = 9223372036854775808"), (5, "slot index out of")]
    )
    def test_load_edges_slot_past_64_bits(self, M, in_range):
        # Past int64 the line is named; the largest int64 index reaches the
        # range checks.
        lines = ["0\t1", "", "1\t-9223372036854775809"]
        with pytest.raises(ValueError, match="^line 3: slot index -9223372036854775809 does not"):
            FrameGraph.load_edges(lines, M=M)
        lines[2] = "1\t9223372036854775807"
        with pytest.raises(ValueError, match=in_range):
            FrameGraph.load_edges(lines, M=M)

    def test_arrays_are_read_only(self):
        g = example_graph()
        with pytest.raises(ValueError):
            g.edge_slot[0] = 2

    @staticmethod
    def check_slot_lists(g):
        """The edges in slot order (``slot_order``): slot after slot, each
        slot's messages in ascending order."""
        want = [k for members in slot_messages(g) for k in members]
        assert g.edge_msg[g.slot_order()].tolist() == want

    def test_lazy_slot_lists(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            K = int(rng.integers(1, 60))
            M = int(rng.integers(6, 60))
            self.check_slot_lists(build_frame(K, M, modified_soliton(6), rng))
        self.check_slot_lists(FrameGraph(6, [[4, 1], [0], [5, 2, 3], [2]]))
        self.check_slot_lists(example_graph())
        self.check_slot_lists(
            FrameGraph.load_edges(["1\t3", "0\t2", "2\t3", "1\t0", "0\t1"], M=5)
        )

    def test_irsa_decode_and_tuner_leave_slot_lists_unbuilt(self):
        spec = SweepSpec(
            scheme="IRSA", dist_name="modified_soliton", dist_Y=6, K=80,
            G_grid=(0.7,), tilde_Es_over_N0=0.01,
        )
        point = make_point(spec, 0)
        rng = np.random.default_rng(37)
        scheme = SchemeConfig("IRSA")
        schemes = [SchemeConfig("RS", alpha=a, beta=1.0) for a in (0.1, 0.5)]
        tables = [_table(point, scheme) for scheme in schemes]
        for _ in range(20):
            g = build_frame(point.cfg.K, point.cfg.M, point.dist, rng)
            for one in tables:
                _decoded_sets(point, [g], one)
            assert "message_slots" not in vars(g)
            profile = build_profile(g.degrees, point.cfg, scheme, point.l_avg)
            assert decode_frame(g, profile, scheme, point.cfg).decoded_count > 0
            assert "message_slots" not in vars(g)


class TestBuildFrame:
    def test_single_message_single_slot(self):
        g = build_frame(1, 10, point_dist(1), np.random.default_rng(0))
        assert g.degrees.tolist() == [1]
        assert sum(g.slot_degrees()) == 1

    def test_max_degree_must_fit(self):
        with pytest.raises(ValueError, match="max degree"):
            build_frame(5, 4, point_dist(5), np.random.default_rng(0))

    def test_degree_equal_to_slot_count(self):
        g = build_frame(3, 4, point_dist(4), np.random.default_rng(1))
        for slots in g.message_slots:
            assert slots == [0, 1, 2, 3]

    def test_mean_slot_degree_matches_r_avg(self):
        # r_avg = (K/M) * l_avg at K=300, M=375 for the Y=10 soliton variant.
        dist = modified_soliton(10)
        r_avg = 300 / 375 * avg_degree(dist)
        rng = np.random.default_rng(42)
        total_edges = 0
        frames = 1000
        for _ in range(frames):
            g = build_frame(300, 375, dist, rng)
            total_edges += len(g.edge_slot)
        mean_slot_degree = total_edges / (frames * 375)
        assert mean_slot_degree == pytest.approx(r_avg, rel=0.02)

    def test_edge_conservation_random_frames(self):
        rng = np.random.default_rng(7)
        dist = modified_soliton(6)
        for _ in range(1000):
            K = int(rng.integers(1, 40))
            M = int(rng.integers(6, 50))
            g = build_frame(K, M, dist, rng)
            assert int(g.degrees.sum()) == int(g.slot_degrees().sum())
            for slots in g.message_slots:
                assert len(set(slots)) == len(slots)
                assert slots == sorted(slots)

    def test_uniform_slot_choice(self):
        # Single degree-1 message: every slot equally likely.
        M = 5
        counts = np.zeros(M)
        rng = np.random.default_rng(3)
        n = 100_000
        for _ in range(n):
            g = build_frame(1, M, point_dist(1), rng)
            counts[g.message_slots[0][0]] += 1
        p = 1 / M
        se = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(counts / n - p) < 3 * se + 1e-12)

    def test_uniform_slot_subsets_on_both_draw_paths(self):
        # Degrees 2..6 of M=6 take the redraw path at or below M/3 and the
        # permutation path above it; one frame mixes both.  Each message's
        # slot set must be uniform over the subsets of its size.
        M, degrees = 6, (2, 3, 5, 6)
        wide = {d > frame_graph.WIDE_FRACTION * M for d in degrees}
        assert wide == {False, True}
        dist = DegreeDistribution("mix", tuple((d, Fraction(1, 4)) for d in degrees))
        counts = {d: dict.fromkeys(combinations(range(M), d), 0) for d in degrees}
        rng = CountingRng(41)
        for _ in range(100):
            g = build_frame(400, M, dist, rng)
            for slots in g.message_slots:
                counts[len(slots)][tuple(slots)] += 1
        # Redraw rounds beyond each frame's first draw, and permutations.
        assert rng.calls["integers"] > 200 and rng.calls["permutation"] > 100 * 200
        for d in degrees:
            observed = np.array(list(counts[d].values()))
            assert len(observed) == comb(M, d)
            if len(observed) == 1:
                assert observed[0] > 0
                continue
            assert observed.sum() > 8000
            chi2 = stats.chisquare(observed).statistic
            assert chi2 < stats.chi2.ppf(0.999, len(observed) - 1), (d, chi2)

    @pytest.mark.parametrize("M", [2, 3, 6, 11, 40])
    def test_ideal_soliton_up_to_slot_count(self, M):
        # "Y": "M" puts mass on every degree up to M, so some messages take
        # every slot; the draw stays distinct, sorted and in range.
        rng = np.random.default_rng(M)
        dist = ideal_soliton(M)
        widest = 0
        for _ in range(50):
            g = build_frame(300, M, dist, rng)
            assert g.degrees.tolist() == [len(s) for s in g.message_slots]
            for slots in g.message_slots:
                assert slots == sorted(set(slots)) and 0 <= slots[0] and slots[-1] < M
            widest = max(widest, int(g.degrees.max()))
        assert widest > frame_graph.WIDE_FRACTION * M

    def test_deterministic_for_fixed_stream(self):
        a = build_frame(50, 60, modified_soliton(10), np.random.default_rng(11))
        b = build_frame(50, 60, modified_soliton(10), np.random.default_rng(11))
        assert a.message_slots == b.message_slots
