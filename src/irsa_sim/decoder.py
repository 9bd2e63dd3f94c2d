"""SIC receivers: integer peeling for the baseline, two-phase MRC for RS/PA.

The baseline (IRSA) decodes any message sitting in a degree-one slot
(single-slot decoding, Liva 2011): its receiver is erasure peeling on
integers alone.  Ascending passes over the slots decode the message a
degree-one slot's id sum names and take it out of its slots' degrees and id
sums, until a pass decodes nothing.  The SINRs it reports are accounting
for the genie rate behind ``eta_max``; no decision reads them.

They are the values the MRC receiver would give, bit for bit, computed in
one vectorised block after the peeling.  That receiver holds a slot's
interference as the sum of its undecoded messages' energies, added from 0.0
in ascending message order.  Baseline energies are uniform, say e, so a slot
holding h messages carries S[h] = ((0 + e) + e) + ..., h additions, which
``np.add.accumulate`` builds with the same float operations; at a decode
the slot holds its initial degree less its earlier decodes.  Each SINR adds
e / (S[h] - e + N0) over the message's slots in ascending order, as one
``bincount`` does.

Rate selection (RS) and power adaptation (PA) use the two-phase receiver.
Phase 1 repeatedly scans degree-one slots in ascending order and attempts
the unique undecoded message in each, which the slot's id sum in the
residual state names; a success cancels all its replicas.
When no degree-one slot yields a success, phase 2 peels the lowest-index
undecoded message that passes against the residual state and control
returns to phase 1.  The loop ends when no undecoded message passes.  Rate
selection requires the selected rate to be at most the MRC capacity of the
residual state; power adaptation requires the MRC SINR to reach the nominal
level.  Comparisons carry a 1e-9 relative slack (``TIE_RTOL``), the tie
convention: a SINR that meets its threshold up to rounding passes.

Phase 2 finds its message without testing every message at every entry.
Each slot's interference is the exact sum over the messages it still holds,
and float rounding is monotone, so cancellation never lowers a SINR: a
message that passes keeps passing.  Phase 2 tests every message with one
``mrc_sinr`` at its first entry, keeps a min-heap of passing indices, and
at later entries tests again only the messages that share a slot with a
decode since its last entry.  Every SINR is added over ascending slots, as
``mrc_sinr``'s ``bincount`` adds it, so the decisions, the order and the
outputs are those of a full evaluation at every entry, bit for bit.

For RS and PA the decoded set does not depend on the order: cancellation
never lowers another message's MRC SINR, so it is the unique closure of the
success test.  The tuners read only which messages decode, and take that
closure for a batch of candidates at once with ``decoded_closure``.
Evaluation keeps the sequential receiver ``decode_frame``: the genie rate
behind ``eta_max``, the decode steps and the phases depend on the order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .frame_graph import FrameGraph, ResidualState, peel
from .schemes import ChannelConfig, SchemeConfig, TransmitProfile

__all__ = [
    "PHASE_NONE",
    "PHASE_PEELING",
    "PHASE_RESIDUAL",
    "PHASE_LABELS",
    "DecodeResult",
    "decoded_closure",
    "effective_sinr",
    "mrc_sinr",
    "success_thresholds",
    "decode_frame",
    "irsa_peeling_oracle",
]

PHASE_NONE = 0
PHASE_PEELING = 1
PHASE_RESIDUAL = 2
PHASE_LABELS = {PHASE_NONE: "", PHASE_PEELING: "peeling", PHASE_RESIDUAL: "residual"}

# One-sided slack on the success comparison: the tie convention.  A SINR
# exactly on its threshold, such as a lone degree-one message's Es/N0 under
# rate selection, passes; the interference sums themselves are exact.
TIE_RTOL = 1e-9


@dataclass
class DecodeResult:
    """Outcome of decoding one frame.

    Per-message arrays; undecoded entries hold -1 / NaN.  ``genie_rate`` is
    the maximum rate the message could have sustained given the actual
    residual state at its decode step; ``decode_slot`` is set only for
    phase-1 (degree-one slot) decodes.
    """

    decoded: np.ndarray
    decode_step: np.ndarray
    phase: np.ndarray
    decode_slot: np.ndarray
    decode_sinr: np.ndarray
    genie_rate: np.ndarray

    @property
    def decoded_count(self) -> int:
        return int(self.decoded.sum())

    def decode_order(self) -> list[int]:
        """Messages in decode order (by step index)."""
        order = [(s, m) for m, s in enumerate(self.decode_step) if s >= 0]
        return [m for _, m in sorted(order)]


def effective_sinr(
    msg: int,
    graph: FrameGraph,
    state: ResidualState,
    profile: TransmitProfile,
    N0: float,
) -> float:
    """MRC-combined SINR of an undecoded message at the current state: the
    sum over its slots of own energy over other-user interference plus noise.
    """
    e = float(profile.energies[msg])
    interference = state.slot_interference
    total = 0.0
    for j in graph.message_slots[msg]:
        total += e / (interference[j] - e + N0)
    return total


def mrc_sinr(edge_msg, edge_slot, edge_energy, N0: float, slot_interference=None) -> np.ndarray:
    """Every message's MRC-combined SINR by one ``bincount`` over a frame's
    edge arrays, summed in ``effective_sinr``'s order.

    ``slot_interference`` is the energy still on each slot; by default the
    whole frame's, before any cancellation.  Every message needs at least
    one edge.
    """
    if slot_interference is None:
        slot_interference = np.bincount(edge_slot, weights=edge_energy)
    denom = slot_interference[edge_slot] - edge_energy
    np.maximum(denom, 0.0, out=denom)  # a decoded message's slots lack its energy
    denom += N0
    return np.bincount(edge_msg, weights=edge_energy / denom)


def success_thresholds(profile: TransmitProfile) -> np.ndarray:
    """SINR each message must reach to decode: its threshold less TIE_RTOL."""
    return profile.sinr_thresholds * (1.0 - TIE_RTOL)


def decoded_closure(edge_msg, edge_slot, energies, thresholds, N0: float) -> np.ndarray:
    """Decoded set of one frame, shape (candidates, K), for a batch of
    candidate profiles: ``energies`` and ``thresholds`` (success thresholds,
    see ``success_thresholds``) have one row per candidate.

    Jacobi rounds: each round recomputes the slot interference of the
    undecoded messages from scratch, takes every undecoded message's MRC
    SINR and decodes all that reach their threshold, until a round decodes
    nothing.  Cancellation never lowers another message's SINR, so the
    result is the unique closure that ``decode_frame`` reaches in its own
    order (RS and PA schemes).  Candidates are stacked as disjoint copies of
    the frame, so the working set grows with the batch: callers chunk it.
    """
    n, K = energies.shape
    M = int(edge_slot.max()) + 1
    edge_energy = energies[:, edge_msg].ravel()
    copy = np.arange(n)[:, None]
    edge_msg = (edge_msg + copy * K).ravel()
    edge_slot = (edge_slot + copy * M).ravel()
    thresholds = thresholds.ravel()
    decoded = np.zeros(n * K, dtype=bool)
    while True:
        live_energy = np.where(decoded[edge_msg], 0.0, edge_energy)
        interference = np.bincount(edge_slot, weights=live_energy, minlength=n * M)
        sinr = mrc_sinr(edge_msg, edge_slot, edge_energy, N0, interference)
        new = (sinr >= thresholds) & ~decoded
        if not new.any():
            return decoded.reshape(n, K)
        decoded |= new


def decode_frame(
    graph: FrameGraph,
    profile: TransmitProfile,
    scheme: SchemeConfig,
    cfg: ChannelConfig,
) -> DecodeResult:
    """Run the receiver to its fixed point on one frame: integer peeling for
    the baseline, the two-phase MRC receiver for RS and PA."""
    if scheme.variant == "IRSA":
        order, slots = _peel_irsa(graph)
        sinrs = _uniform_sinrs(graph, order, profile.Es, cfg.N0) if order else []
        phases = PHASE_PEELING
    else:
        order, phases, slots, sinrs = _decode_mrc(graph, profile, cfg.N0)
    return _result(graph.K, order, phases, slots, sinrs, cfg.L_cu, scheme.rmax_includes_one)


def _peel_irsa(graph: FrameGraph) -> tuple[list[int], list[int]]:
    """Baseline receiver: erasure peeling on slot degrees and id sums.
    Returns the decoded messages and their degree-one slots, in step
    order."""
    # Message k's slots are edge_slot[start[k]:end[k]], ascending; slicing
    # the decoded ones costs less than building every message's list.
    flat = graph.edge_slot.tolist()
    end = np.cumsum(graph.degrees)
    start = (end - graph.degrees).tolist()
    end = end.tolist()
    degree = graph.slot_degrees()
    slot_degree = degree.tolist()
    slot_id_sum = graph.slot_id_sums().tolist()
    order: list[int] = []
    slots: list[int] = []
    # Ascending passes over the slots that still hold a message: an empty
    # slot never holds one again.
    busy = np.flatnonzero(degree).tolist()
    progress = True
    while progress:
        progress = False
        for j in busy:
            if slot_degree[j] != 1:
                continue
            msg = slot_id_sum[j]
            order.append(msg)
            slots.append(j)
            for jj in flat[start[msg]:end[msg]]:
                slot_degree[jj] -= 1
                slot_id_sum[jj] -= msg
            progress = True
        busy = [j for j in busy if slot_degree[j]]
    return order, slots


def _uniform_sinrs(graph: FrameGraph, order: list[int], e: float, N0: float) -> np.ndarray:
    """SINR of each decode in ``order`` (step order) under the MRC
    receiver's exact slot sums, every message at energy e; see the module
    docstring."""
    # The decoded messages' edges by slot, each slot's in step order.
    n = len(order)
    step = np.full(graph.K, -1, dtype=np.int64)
    step[order] = np.arange(n)
    edge_step = step[graph.edge_msg]
    live = edge_step >= 0
    edge_step = edge_step[live]
    slot = graph.edge_slot[live]
    by_slot = np.argsort(slot * n + edge_step)
    edge_step = edge_step[by_slot]
    slot = slot[by_slot]
    # At a decode a slot holds its initial degree less its earlier decodes:
    # the slot's earlier edges.
    position = np.arange(len(slot))
    slot_begins = np.ones(len(slot), dtype=bool)
    slot_begins[1:] = slot[1:] != slot[:-1]
    slot_start = np.maximum.accumulate(np.where(slot_begins, position, 0))
    held = graph.slot_degrees()[slot] - (position - slot_start)
    # S[h]: the interference of h messages, added from 0.0.
    S = np.add.accumulate(np.concatenate(([0.0], np.full(int(held.max()), e))))
    other = S[held] - e
    other += N0
    # A step's edges come in ascending slot order, as the MRC receiver adds
    # them.
    return np.bincount(edge_step, weights=e / other, minlength=n)


def _decode_mrc(graph: FrameGraph, profile: TransmitProfile, N0: float):
    """Two-phase MRC receiver (RS and PA).  Returns the decoded messages,
    their phases, degree-one slots and SINRs, in step order."""
    M = graph.M
    state = ResidualState(graph, profile.energies)
    thr_arr = success_thresholds(profile)
    thresholds = thr_arr.tolist()
    energies = state.energies
    message_slots = graph.message_slots
    slot_messages = graph.slot_messages
    slot_degree = state.slot_degree
    slot_id_sum = state.slot_id_sum
    interference = state.slot_interference
    decoded = state.decoded

    def sinr_of(msg: int) -> float:
        # MRC over all replicas, added over ascending slots as mrc_sinr's
        # bincount adds them; Python's sum() may compensate, so no sum().
        e = energies[msg]
        total = 0.0
        for j in message_slots[msg]:
            total += e / (interference[j] - e + N0)
        return total

    # Decodes in step order: message, phase, degree-one slot, SINR.
    order: list[int] = []
    phases: list[int] = []
    slots: list[int] = []
    sinrs: list[float] = []

    # Phase 2 (see the module docstring): ``passing`` is a min-heap of the
    # messages that have passed, from its first entry on, decoded ones
    # dropped when they reach the top; ``order[seen:]`` are the decodes
    # since the last phase-2 entry.
    passing: list[int] | None = None
    in_heap: set[int] = set()
    seen = 0

    while True:
        # Phase 1: ascending scans over degree-one slots until a full pass
        # yields no success.
        progress = True
        while progress and state.num_degree_one > 0:
            progress = False
            for j in range(M):
                if slot_degree[j] != 1:
                    continue
                msg = slot_id_sum[j]
                sinr = sinr_of(msg)
                if sinr >= thresholds[msg]:
                    order.append(msg)
                    phases.append(PHASE_PEELING)
                    slots.append(j)
                    sinrs.append(sinr)
                    peel(graph, state, msg, profile)
                    progress = True
        # Phase 2: peel the lowest-index undecoded message that passes
        # against the residual state and return to phase 1.
        if passing is None:
            sinr_all = mrc_sinr(
                graph.edge_msg, graph.edge_slot, profile.energies[graph.edge_msg], N0,
                np.asarray(interference),
            )
            passing = np.flatnonzero((sinr_all >= thr_arr) & ~np.asarray(decoded)).tolist()
            in_heap = set(passing)
        else:
            touched = {
                m for p in order[seen:] for j in message_slots[p] for m in slot_messages[j]
            }
            for m in touched - in_heap:
                if not decoded[m] and sinr_of(m) >= thresholds[m]:
                    heapq.heappush(passing, m)
                    in_heap.add(m)
        seen = len(order)
        while passing and decoded[passing[0]]:
            heapq.heappop(passing)
        if not passing:
            return order, phases, slots, sinrs
        msg = heapq.heappop(passing)
        order.append(msg)
        phases.append(PHASE_RESIDUAL)
        slots.append(-1)
        sinrs.append(sinr_of(msg))
        peel(graph, state, msg, profile)


def _result(K: int, order, phases, slots, sinrs, L_cu: int, includes_one: bool) -> DecodeResult:
    """Per-message outputs from the decodes listed in step order.  The genie
    rate takes ``math.log2`` per value: ``np.log2`` need not round alike."""
    order = np.array(order, dtype=np.int64)
    sinr = np.asarray(sinrs, dtype=np.float64)
    capacity = (1.0 + sinr) if includes_one else sinr
    out_decoded = np.zeros(K, dtype=bool)
    out_step = np.full(K, -1, dtype=np.int64)
    out_phase = np.zeros(K, dtype=np.int8)
    out_slot = np.full(K, -1, dtype=np.int64)
    out_sinr = np.full(K, np.nan)
    out_genie = np.full(K, np.nan)
    out_decoded[order] = True
    out_step[order] = np.arange(len(order))
    out_phase[order] = phases
    out_slot[order] = slots
    out_sinr[order] = sinr
    out_genie[order] = (0.5 * L_cu) * np.array([math.log2(v) for v in capacity.tolist()])
    return DecodeResult(
        decoded=out_decoded,
        decode_step=out_step,
        phase=out_phase,
        decode_slot=out_slot,
        decode_sinr=out_sinr,
        genie_rate=out_genie,
    )


def irsa_peeling_oracle(graph: FrameGraph) -> set[int]:
    """Reference erasure peeling: recompute every slot's residual degree
    from scratch each round and decode all singletons, until stable.

    Slow but stateless; the fixed point is unique, so this is an exact
    oracle for the baseline decoder's decoded set.
    """
    decoded: set[int] = set()
    while True:
        newly: set[int] = set()
        for msgs in graph.slot_messages:
            residual = [m for m in msgs if m not in decoded]
            if len(residual) == 1:
                newly.add(residual[0])
        if not newly:
            return decoded
        decoded |= newly
