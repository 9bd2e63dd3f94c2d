"""Frame construction, adjacency consistency, and residual-state updates."""

import io
from fractions import Fraction

import numpy as np
import pytest

from irsa_sim.distributions import DegreeDistribution, avg_degree, modified_soliton
from irsa_sim.frame_graph import (
    FrameGraph,
    ResidualState,
    build_frame,
    peel,
    refresh_interference,
)


def point_dist(degree: int) -> DegreeDistribution:
    return DegreeDistribution(f"point{degree}", ((degree, Fraction(1)),))


class FakeProfile:
    def __init__(self, energies):
        self.energies = np.asarray(energies, dtype=float)


def example_graph() -> FrameGraph:
    # Four messages over five slots: m0->{1}; m1->{0,2,3}; m2->{0,2,4};
    # m3->{1,2,4}.  Slot degrees (2,2,3,1,2).
    return FrameGraph(5, [[1], [0, 2, 3], [0, 2, 4], [1, 2, 4]])


class TestFrameGraph:
    def test_example_slot_degrees(self):
        assert example_graph().slot_degrees().tolist() == [2, 2, 3, 1, 2]

    def test_inverse_adjacency(self):
        g = example_graph()
        for k, slots in enumerate(g.message_slots):
            for j in slots:
                assert k in g.slot_messages[j]
        assert g.edge_count == sum(len(m) for m in g.slot_messages)

    def test_rejects_out_of_range_and_duplicate_slots(self):
        with pytest.raises(ValueError):
            FrameGraph(3, [[0, 3]])
        with pytest.raises(ValueError):
            FrameGraph(3, [[1, 1]])
        with pytest.raises(ValueError):
            FrameGraph(3, [[]])

    def test_edge_roundtrip(self):
        g = example_graph()
        buf = io.StringIO()
        g.export_edges(buf)
        again = FrameGraph.load_edges(buf.getvalue().splitlines())
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
        assert g.edge_count == len(g.edge_slot) == len(flat)
        assert g.slot_degrees().tolist() == [len(m) for m in g.slot_messages]

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

    def test_arrays_are_read_only(self):
        g = example_graph()
        with pytest.raises(ValueError):
            g.edge_slot[0] = 2


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
            total_edges += g.edge_count
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

    def test_deterministic_for_fixed_stream(self):
        a = build_frame(50, 60, modified_soliton(10), np.random.default_rng(11))
        b = build_frame(50, 60, modified_soliton(10), np.random.default_rng(11))
        assert a.message_slots == b.message_slots


class TestResidualState:
    def test_initial_state(self):
        g = example_graph()
        state = ResidualState(g, [1.0] * 4)
        assert state.slot_degree == [2, 2, 3, 1, 2]
        assert state.slot_interference == pytest.approx([2.0, 2.0, 3.0, 1.0, 2.0])
        assert state.num_degree_one == 1

    def test_peel_example_message(self):
        g = example_graph()
        profile = FakeProfile([1.0] * 4)
        state = ResidualState(g, profile.energies)
        peel(g, state, 1, profile)
        assert state.slot_degree == [1, 2, 2, 0, 2]
        assert state.num_degree_one == 1

    def test_single_message_peel_zeroes_its_slots(self):
        g = build_frame(1, 8, point_dist(3), np.random.default_rng(2))
        profile = FakeProfile([2.5])
        state = ResidualState(g, profile.energies)
        peel(g, state, 0, profile)
        assert all(d == 0 for d in state.slot_degree)
        assert max(abs(x) for x in state.slot_interference) < 1e-12

    def test_double_peel_asserts(self):
        g = example_graph()
        profile = FakeProfile([1.0] * 4)
        state = ResidualState(g, profile.energies)
        peel(g, state, 0, profile)
        with pytest.raises(AssertionError):
            peel(g, state, 0, profile)

    def test_uniform_power_interference_tracks_degree(self):
        es = 0.37
        rng = np.random.default_rng(5)
        g = build_frame(30, 25, modified_soliton(8), rng)
        profile = FakeProfile([es] * 30)
        state = ResidualState(g, profile.energies)
        order = rng.permutation(30)
        for msg in order[:20]:
            peel(g, state, int(msg), profile)
            for j in range(g.M):
                assert state.slot_interference[j] == pytest.approx(
                    state.slot_degree[j] * es, abs=1e-12
                )

    def test_incremental_matches_recomputed_under_random_peels(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            K = int(rng.integers(2, 25))
            M = int(rng.integers(5, 30))
            g = build_frame(K, M, point_dist(min(4, M)), rng)
            energies = rng.uniform(0.1, 2.0, size=K)
            profile = FakeProfile(energies)
            state = ResidualState(g, energies)
            n_peel = int(rng.integers(1, K + 1))
            for msg in rng.permutation(K)[:n_peel]:
                peel(g, state, int(msg), profile)
            # Degrees recomputed from scratch must match exactly.
            for j in range(M):
                alive = [m for m in g.slot_messages[j] if not state.decoded[m]]
                assert state.slot_degree[j] == len(alive)
                exact = float(sum(energies[m] for m in alive))
                assert state.slot_interference[j] == pytest.approx(
                    exact, rel=1e-9, abs=1e-12
                )

    def test_refresh_clears_drift(self):
        g = example_graph()
        profile = FakeProfile([0.1, 0.2, 0.3, 0.4])
        state = ResidualState(g, profile.energies)
        peel(g, state, 1, profile)
        state.slot_interference[0] += 1e-7  # inject drift
        refresh_interference(g, state, profile.energies)
        alive = [m for m in g.slot_messages[0] if not state.decoded[m]]
        assert state.slot_interference[0] == pytest.approx(
            sum(profile.energies[m] for m in alive), abs=1e-15
        )

    def test_degree_one_counter_consistent(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            K = int(rng.integers(2, 20))
            M = int(rng.integers(4, 25))
            g = build_frame(K, M, point_dist(min(3, M)), rng)
            profile = FakeProfile(np.ones(K))
            state = ResidualState(g, profile.energies)
            for msg in rng.permutation(K):
                assert state.num_degree_one == sum(
                    1 for d in state.slot_degree if d == 1
                )
                peel(g, state, int(msg), profile)
