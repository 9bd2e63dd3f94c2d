"""Random bipartite frame graphs.

Messages are the variable nodes and slots the check nodes.  Indices are
0-based dense integers so that adjacency is plain array indexing in the
decoder's inner loop.  A frame holds its adjacency once, as CSR edge arrays
(``edge_msg``, ``edge_slot``): every per-slot or per-message sum is one
``np.bincount`` over them.  The two-phase receiver's scalar loops read
per-message lists, built from the arrays on first use; under power
adaptation its re-sums slice ``edge_msg`` in slot order (``slot_order``).
The peeling receivers slice ``edge_slot``, and neither they nor the tuners'
order-free decoder build a list.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .config import problem
from .distributions import DegreeDistribution, sample_degrees

__all__ = [
    "FrameGraph",
    "build_frame",
    "stack_frames",
]

# A message whose degree exceeds this fraction of the slot count draws its
# slots as a prefix of a random permutation instead of by redraws, whose
# rounds grow without bound as the degree nears M (a "Y": "M" soliton).
# Building K=300 ideal-soliton frames at M 10-375, no fraction from 0.25 to
# 0.4 was faster at every M; 0.15 was 2.8x slower than 0.3 at M=10 (a
# permutation per message) and 0.7 1.4x slower at M=375 (more rounds).
WIDE_FRACTION = 1 / 3


class FrameGraph:
    """Realised message/slot bipartite graph of one frame (immutable).

    ``edge_msg`` and ``edge_slot`` list the message and slot of every edge
    (read-only int64 CSR arrays), grouped by message in ascending order with
    each message's slots ascending; so within a slot the edges come in
    ascending message order, the order ``slot_order`` keeps.

    ``FrameGraph(M, message_slots)`` validates per-message slot lists in any
    order.  ``FrameGraph(M, degrees=..., edge_slot=...)`` takes the CSR form
    as ``build_frame`` draws it, each message's slots distinct and ascending,
    and does not check it.
    """

    def __init__(
        self,
        M: int,
        message_slots: Sequence[Sequence[int]] | None = None,
        *,
        degrees: np.ndarray | None = None,
        edge_slot: np.ndarray | None = None,
    ):
        if message_slots is not None:
            K = len(message_slots)
            edge_msg = np.repeat(np.arange(K), [len(s) for s in message_slots])
            edge_slot = np.array([j for s in message_slots for j in s], dtype=np.int64)
            degrees, edge_slot = _checked_edges(M, K, edge_msg, edge_slot)
        edge_msg = np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)
        # Every caller shares these arrays with the graph.
        edge_msg.flags.writeable = False
        edge_slot.flags.writeable = False
        self.K = len(degrees)
        self.M = M
        self.degrees = degrees
        self.edge_msg = edge_msg
        self.edge_slot = edge_slot

    @cached_property
    def message_slots(self) -> list[list[int]]:
        """Each message's slots, ascending: slices of ``edge_slot``."""
        flat = self.edge_slot.tolist()
        ends = np.cumsum(self.degrees).tolist()
        return [flat[a:b] for a, b in zip([0, *ends], ends)]

    def slot_order(self) -> np.ndarray:
        """The edges slot by slot, each slot's in ascending message order: a
        stable argsort of ``edge_slot``, as uint16 (sorted by radix, into
        the same permutation) where every slot index fits."""
        key = self.edge_slot.astype(np.uint16) if self.M <= 1 << 16 else self.edge_slot
        return np.argsort(key, kind="stable")

    def slot_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_slot, minlength=self.M)

    def slot_id_sums(self) -> np.ndarray:
        """Sum of each slot's message indices."""
        # Float sums of integers below 2**53 are exact.
        id_sum = np.bincount(self.edge_slot, weights=self.edge_msg, minlength=self.M)
        return id_sum.astype(np.int64)

    @classmethod
    def load_edges(cls, lines: Iterable[str], M: int | None = None) -> "FrameGraph":
        """Rebuild a frame from an edge list; M defaults to max slot + 1.
        Raises ValueError, naming the line, on a malformed or invalid list."""
        msgs: list[int] = []
        slots: list[int] = []
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
            if not -(1 << 63) <= slot < 1 << 63:
                raise ValueError(f"line {lineno}: slot index {slot} does not fit in 64 bits")
            msgs.append(msg)
            slots.append(slot)
        if not msgs:
            raise ValueError("edge list is empty")
        K = max(msgs) + 1
        if min(msgs) != 0 or len(set(msgs)) != K:
            raise ValueError("message indices must be dense 0..K-1")
        if M is None:
            M = max(slots) + 1
        degrees, edge_slot = _checked_edges(
            M, K, np.array(msgs, dtype=np.int64), np.array(slots, dtype=np.int64)
        )
        return cls(M, degrees=degrees, edge_slot=edge_slot)


def _checked_edges(
    M: int, K: int, edge_msg: np.ndarray, edge_slot: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Degrees and ``edge_slot`` of K messages' edges given in any order.
    Raises ValueError on a slot count M out of its range, before any
    M-sized array, or naming the first message with no slot, a repeated
    slot or a slot outside [0, M)."""
    if K < 1:
        raise ValueError("frame needs at least one message")
    if found := problem("M", M):
        raise ValueError(f"slot count M = {M}: {found}")
    order = np.lexsort((edge_slot, edge_msg))
    edge_msg, edge_slot = edge_msg[order], edge_slot[order]
    degrees = np.bincount(edge_msg, minlength=K)
    repeats = edge_msg[1:][(edge_msg[1:] == edge_msg[:-1]) & (edge_slot[1:] == edge_slot[:-1])]
    bad = np.concatenate([np.flatnonzero(degrees == 0), repeats])
    if len(bad):
        raise ValueError(f"message {int(bad.min())}: slot list must be non-empty and distinct")
    outside = edge_msg[(edge_slot < 0) | (edge_slot >= M)]
    if len(outside):
        raise ValueError(f"message {int(outside[0])}: slot index out of range [0, {M})")
    return degrees, edge_slot


def build_frame(
    K: int, M: int, dist: DegreeDistribution, rng: np.random.Generator
) -> FrameGraph:
    """Sample a frame: each message draws its degree from ``dist`` and picks
    that many distinct slots uniformly at random.

    Every edge draws its slot uniformly from [0, M); within a message, a
    slot drawn again at a subsequent edge position is redrawn, round after round
    until no message repeats a slot.  Which edges redraw, and in what order,
    depends on edge positions and on which slots are equal, never on the
    slot labels: the process is unchanged by relabelling the slots, so each
    message's slot set is uniform over the subsets of its size.  A message
    wider than WIDE_FRACTION * M takes the first slots of a permutation.
    """
    if dist.max_degree > M:
        raise ValueError(
            f"max degree {dist.max_degree} exceeds slot count {M}; "
            "cannot choose distinct slots"
        )
    degrees = sample_degrees(dist, rng, K)
    # key = message * M + slot: sorting the keys sorts by (message, slot).
    base = np.repeat(np.arange(K, dtype=np.int64) * M, degrees)
    key = base + rng.integers(0, M, size=len(base))
    if dist.max_degree > WIDE_FRACTION * M:
        wide = np.flatnonzero(degrees > WIDE_FRACTION * M)
        ends = np.cumsum(degrees)
        for k, end, d in zip(wide.tolist(), ends[wide].tolist(), degrees[wide].tolist()):
            key[end - d:end] = k * M + rng.permutation(M)[:d]
    while True:
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        repeat = sorted_key[1:] == sorted_key[:-1]
        if not repeat.any():
            break
        # A stable sort keeps equal keys in edge order: redraw all but the
        # first of each run, in edge order.
        redo = np.sort(order[1:][repeat])
        key[redo] = base[redo] + rng.integers(0, M, size=len(redo))
    return FrameGraph(M, degrees=degrees, edge_slot=sorted_key - base)


def stack_frames(graphs: Sequence[FrameGraph]) -> FrameGraph:
    """Frames of one size side by side as one frame: frame f's messages and
    slots are numbered after those of the frames before it.  No slot is
    shared between them, and each keeps its edges in order, so every
    per-slot or per-message ``bincount`` over the stack gives each frame's
    own values, bit for bit."""
    M = graphs[0].M
    shift = np.repeat(np.arange(len(graphs)) * M, [len(g.edge_slot) for g in graphs])
    return FrameGraph(
        M * len(graphs),
        degrees=np.concatenate([g.degrees for g in graphs]),
        edge_slot=np.concatenate([g.edge_slot for g in graphs]) + shift,
    )
