"""Two-phase SIC receiver: degree-one peeling with MRC, then residual MRC.

Phase 1 repeatedly scans degree-one slots in ascending order and attempts
the unique undecoded message in each; a success cancels all its replicas.
When no degree-one slot yields a success, phase 2 scans undecoded messages
in ascending order against the residual state; the first success is peeled
and control returns to phase 1.  The loop ends when a full phase-2 pass
produces nothing.

Success tests by scheme: the baseline decodes any message sitting in a
degree-one slot (single-slot decoding, no MRC, phase 2 disabled); rate
selection requires the selected rate to be at most the MRC capacity of the
residual state; power adaptation requires the MRC SINR to reach the nominal
level.  Comparisons carry a 1e-9 relative slack so that exact-tie decisions
are immune to the bounded float drift of incremental interference updates.

For RS and PA the decoded set does not depend on the order: cancellation
never lowers another message's MRC SINR, so it is the unique closure of the
success test.  The tuners read only which messages decode, and take that
closure for a batch of candidates at once with ``decoded_closure``.
Evaluation keeps the sequential receiver ``decode_frame``: the genie rate
behind ``eta_max``, the decode steps and the phases depend on the order.
"""

from __future__ import annotations

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

# One-sided slack on the success comparison; covers the drift of the
# incremental interference updates in ``peel``, which the periodic exact
# ``bincount`` recomputation (refresh_interference) keeps many orders of
# magnitude below this.
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
        other = interference[j] - e
        if other < 0.0:  # float drift around an interference-free slot
            other = 0.0
        total += e / (other + N0)
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
    np.maximum(denom, 0.0, out=denom)  # float drift around an interference-free slot
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


def _genie_rate(sinr: float, L_cu: int, includes_one: bool) -> float:
    if includes_one:
        return 0.5 * L_cu * math.log2(1.0 + sinr)
    return 0.5 * L_cu * math.log2(sinr)


def decode_frame(
    graph: FrameGraph,
    profile: TransmitProfile,
    scheme: SchemeConfig,
    cfg: ChannelConfig,
) -> DecodeResult:
    """Run the two-phase receiver to its fixed point on one frame."""
    K, M = graph.K, graph.M
    N0 = cfg.N0
    L_cu = cfg.L_cu
    includes_one = scheme.rmax_includes_one
    is_irsa = scheme.variant == "IRSA"

    state = ResidualState(graph, profile.energies)
    thr_arr = success_thresholds(profile)
    thresholds = thr_arr.tolist()
    energies = profile.energies.tolist()
    message_slots = graph.message_slots
    slot_messages = graph.slot_messages
    slot_degree = state.slot_degree
    decoded = state.decoded

    out_decoded = np.zeros(K, dtype=bool)
    out_step = np.full(K, -1, dtype=np.int64)
    out_phase = np.zeros(K, dtype=np.int8)
    out_slot = np.full(K, -1, dtype=np.int64)
    out_sinr = np.full(K, np.nan)
    out_genie = np.full(K, np.nan)

    # Flat edge arrays for the vectorised phase-2 evaluation.
    edge_msg = edge_slot = edge_energy = None
    if not is_irsa:
        edge_msg, edge_slot = graph.edge_msg, graph.edge_slot
        edge_energy = profile.energies[edge_msg]

    step = 0

    def record(msg: int, phase: int, slot: int, sinr: float) -> None:
        nonlocal step
        out_decoded[msg] = True
        out_step[msg] = step
        out_phase[msg] = phase
        out_slot[msg] = slot
        out_sinr[msg] = sinr
        out_genie[msg] = _genie_rate(sinr, L_cu, includes_one)
        step += 1

    while True:
        # Phase 1: ascending scans over degree-one slots until a full pass
        # yields no success.
        progress = True
        while progress and state.num_degree_one > 0:
            progress = False
            for j in range(M):
                if slot_degree[j] != 1:
                    continue
                msg = -1
                for m in slot_messages[j]:
                    if not decoded[m]:
                        msg = m
                        break
                # MRC over all replicas (the baseline's single-slot rate is
                # met by construction in an interference-free slot).
                e = energies[msg]
                interference = state.slot_interference
                sinr = 0.0
                for jj in message_slots[msg]:
                    other = interference[jj] - e
                    if other < 0.0:
                        other = 0.0
                    sinr += e / (other + N0)
                if is_irsa or sinr >= thresholds[msg]:
                    record(msg, PHASE_PEELING, j, sinr)
                    peel(graph, state, msg, profile)
                    progress = True
        if is_irsa:
            break
        # Phase 2: evaluate every undecoded message against the residual
        # state; peel the lowest-index success and return to phase 1.
        sinr_all = mrc_sinr(
            edge_msg, edge_slot, edge_energy, N0, np.asarray(state.slot_interference)
        )
        ok = (sinr_all >= thr_arr) & ~np.asarray(decoded)
        if not ok.any():
            break
        msg = int(np.argmax(ok))
        record(msg, PHASE_RESIDUAL, -1, float(sinr_all[msg]))
        peel(graph, state, msg, profile)

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
