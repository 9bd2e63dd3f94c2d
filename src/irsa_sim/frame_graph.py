"""Random bipartite frame graphs and residual state during decoding.

Messages are the variable nodes and slots the check nodes.  Indices are
0-based dense integers so that adjacency is plain array indexing in the
decoder's inner loop.  A frame holds its adjacency twice: as per-message
and per-slot lists for the sequential decoder's scalar loops, and as CSR
edge arrays (``edge_msg``, ``edge_slot``) for every per-slot or per-message
sum, each taken by one ``np.bincount``.
"""

from __future__ import annotations

from itertools import chain
from typing import IO, Iterable, Sequence

import numpy as np

from .distributions import DegreeDistribution, sample_degrees

__all__ = [
    "FrameGraph",
    "ResidualState",
    "build_frame",
    "peel",
    "refresh_interference",
]

# Full interference recomputation cadence; bounds float drift from the
# incremental +- updates without costing anything measurable per peel.
REFRESH_EVERY = 64


class FrameGraph:
    """Realised message/slot bipartite graph of one frame (immutable).

    ``edge_msg`` and ``edge_slot`` list the message and slot of every edge
    (int64 CSR arrays), grouped by message in ascending order with each
    message's slots ascending; so within a slot the edges come in ascending
    message order, as in ``slot_messages``.
    """

    __slots__ = ("K", "M", "message_slots", "slot_messages", "degrees", "edge_msg", "edge_slot")

    def __init__(self, M: int, message_slots: Sequence[Sequence[int]]):
        K = len(message_slots)
        if K < 1:
            raise ValueError("frame needs at least one message")
        if M < 1:
            raise ValueError("frame needs at least one slot")
        slots_per_msg: list[list[int]] = []
        slot_messages: list[list[int]] = [[] for _ in range(M)]
        for k, chosen in enumerate(message_slots):
            uniq = sorted(set(int(j) for j in chosen))
            if len(uniq) != len(chosen) or not chosen:
                raise ValueError(f"message {k}: slot list must be non-empty and distinct")
            if uniq[0] < 0 or uniq[-1] >= M:
                raise ValueError(f"message {k}: slot index out of range [0, {M})")
            slots_per_msg.append(uniq)
            for j in uniq:
                slot_messages[j].append(k)
        self.K = K
        self.M = M
        self.message_slots = slots_per_msg
        self.slot_messages = slot_messages
        self.degrees = np.array([len(s) for s in slots_per_msg], dtype=np.int64)
        self.edge_msg, self.edge_slot = _csr_edges(slots_per_msg, self.degrees)

    @property
    def edge_count(self) -> int:
        return len(self.edge_slot)

    def slot_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_slot, minlength=self.M)

    def export_edges(self, fp: IO[str]) -> None:
        """Write the frame as a tab-separated (message, slot) edge list."""
        for k, slots in enumerate(self.message_slots):
            for j in slots:
                fp.write(f"{k}\t{j}\n")

    @classmethod
    def load_edges(cls, lines: Iterable[str], M: int | None = None) -> "FrameGraph":
        """Rebuild a frame from an edge list; M defaults to max slot + 1.
        Raises ValueError, naming the line, on a malformed or invalid list."""
        per_msg: dict[int, list[int]] = {}
        max_slot = -1
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                msg_s, slot_s = line.split("\t")
                msg, slot = int(msg_s), int(slot_s)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: expected two tab-separated integers, got {line!r}"
                ) from None
            per_msg.setdefault(msg, []).append(slot)
            max_slot = max(max_slot, slot)
        if not per_msg:
            raise ValueError("edge list is empty")
        K = max(per_msg) + 1
        if sorted(per_msg) != list(range(K)):
            raise ValueError("message indices must be dense 0..K-1")
        if M is None:
            M = max_slot + 1
        return cls(M, [per_msg[k] for k in range(K)])


def _csr_edges(message_slots: list[list[int]], degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``edge_msg`` and ``edge_slot`` of sorted per-message slot lists."""
    edge_msg = np.repeat(np.arange(len(message_slots), dtype=np.int64), degrees)
    edge_slot = np.fromiter(chain.from_iterable(message_slots), dtype=np.int64, count=len(edge_msg))
    # Every caller shares these arrays with the graph.
    edge_msg.flags.writeable = False
    edge_slot.flags.writeable = False
    return edge_msg, edge_slot


def build_frame(
    K: int, M: int, dist: DegreeDistribution, rng: np.random.Generator
) -> FrameGraph:
    """Sample a frame: each message draws its degree from ``dist`` and picks
    that many distinct slots uniformly at random.

    Distinct slots come from a partial Fisher-Yates pass over a shared pool,
    which stays exactly uniform even for degrees close to M.
    """
    if dist.max_degree > M:
        raise ValueError(
            f"max degree {dist.max_degree} exceeds slot count {M}; "
            "cannot choose distinct slots"
        )
    degrees = sample_degrees(dist, rng, K)
    total = int(degrees.sum())
    # Python floats and ints index and multiply faster than numpy scalars in
    # this loop, with the same IEEE results.
    uniforms = rng.random(total).tolist()
    pool = list(range(M))
    message_slots: list[list[int]] = []
    slot_messages: list[list[int]] = [[] for _ in range(M)]
    base = 0
    for k, l_k in enumerate(degrees.tolist()):
        for t in range(l_k):
            j = t + int(uniforms[base + t] * (M - t))
            pool[t], pool[j] = pool[j], pool[t]
        base += l_k
        chosen = sorted(pool[:l_k])
        message_slots.append(chosen)
        for j in chosen:
            slot_messages[j].append(k)
    # Adjacency built here is sorted/distinct/in-range by construction, so
    # skip the validating constructor in this hot path.
    graph = FrameGraph.__new__(FrameGraph)
    graph.K = K
    graph.M = M
    graph.message_slots = message_slots
    graph.slot_messages = slot_messages
    graph.degrees = degrees
    graph.edge_msg, graph.edge_slot = _csr_edges(message_slots, degrees)
    return graph


class ResidualState:
    """Mutable per-trial view of the not-yet-cancelled part of a frame.

    ``slot_degree[j]`` counts undecoded messages in slot j and
    ``slot_interference[j]`` sums their energies per channel use.  Both are
    Python lists, so the decoder's scalar loops index them cheaply.
    """

    __slots__ = (
        "decoded",
        "slot_degree",
        "slot_interference",
        "num_degree_one",
        "peels_since_refresh",
    )

    def __init__(self, graph: FrameGraph, energies: Sequence[float]):
        self.decoded = [False] * graph.K
        slot_degree = graph.slot_degrees()
        self.slot_degree = slot_degree.tolist()
        self.slot_interference = _slot_energy(graph, energies, self.decoded)
        self.num_degree_one = int((slot_degree == 1).sum())
        self.peels_since_refresh = 0


def _slot_energy(graph: FrameGraph, energies: Sequence[float], decoded: list[bool]) -> list[float]:
    """Energy on each slot of the messages not in ``decoded``, by one
    ``bincount``.  It adds a slot's energies in edge order, which is
    ascending message order, and a decoded message's edge adds an exact 0.0:
    the same float additions as summing each slot's ``slot_messages`` list."""
    weights = np.asarray(energies, dtype=np.float64)[graph.edge_msg]
    weights[np.asarray(decoded)[graph.edge_msg]] = 0.0
    return np.bincount(graph.edge_slot, weights=weights, minlength=graph.M).tolist()


def refresh_interference(graph: FrameGraph, state: ResidualState, energies: Sequence[float]) -> None:
    """Recompute slot interference from the adjacency, clearing drift."""
    state.slot_interference = _slot_energy(graph, energies, state.decoded)
    state.peels_since_refresh = 0


def peel(graph: FrameGraph, state: ResidualState, msg: int, profile) -> ResidualState:
    """Cancel all replicas of ``msg``: mark it decoded, decrement the degree
    of each of its slots and remove its energy from their interference.

    Mutates ``state`` in place and returns it.
    """
    assert not state.decoded[msg], f"message {msg} peeled twice"
    state.decoded[msg] = True
    energy = float(profile.energies[msg])
    slot_degree = state.slot_degree
    slot_interference = state.slot_interference
    for j in graph.message_slots[msg]:
        d = slot_degree[j] - 1
        slot_degree[j] = d
        if d == 1:
            state.num_degree_one += 1
        elif d == 0:
            state.num_degree_one -= 1
        slot_interference[j] -= energy
    state.peels_since_refresh += 1
    if state.peels_since_refresh >= REFRESH_EVERY:
        refresh_interference(graph, state, profile.energies)
    return state
