"""SIC receivers: integer peeling for the baseline and for statically
decodable PA frames, two-phase MRC for RS and the other PA frames.

The baseline (IRSA) decodes any message sitting in a degree-one slot
(single-slot decoding, Liva 2011): its receiver is erasure peeling on
integers alone.  Ascending passes over the slots decode the message a
degree-one slot's id sum names and take it out of its slots' degrees and id
sums, until a pass decodes nothing.  The SINRs it reports are accounting
for the genie rate behind ``eta_max``; no decision reads them.

They are the values the MRC receiver would give, bit for bit.  That
receiver holds a slot's interference as the sum of its undecoded messages'
energies, added from 0.0 in ascending message order.  Baseline energies are
uniform, say e, so a slot holding h messages carries S[h] = ((0 + e) + e) +
..., h additions, which ``np.add.accumulate`` builds with the same float
operations.  So e / (S[h] - e + N0), the SINR term of a slot holding h, is
a table, and the peeling sums each SINR as it takes the message out: from
0.0, the term of the count each slot still held, over ascending slots, as
``mrc_sinr``'s ``bincount`` adds.  One table, built up to K entries,
serves every frame of K messages at the same e and N0
(``_uniform_terms``), and the RS receiver below as well: ``add.accumulate``
sums in order, so its first h sums are the ones a table built for a frame
whose slots hold up to h messages holds.

Rate selection (RS) and power adaptation (PA) use the two-phase receiver.
Its residual state is a set of lists local to ``_decode_mrc``: per slot,
the count of undecoded messages and the sum of their indices, and under PA
the sum of their energies per channel use.  A slot of degree one holds the
message its id sum names (the count/id-sum pair of an invertible Bloom
lookup table), so the receiver never lists a slot's messages to find it.
Under PA, cancelling a message re-sums every slot it touches: a slot left
empty holds 0.0, one left with a single message that message's energy, and
any other is added over its per-slot list from 0.0 in ascending message
order.  So the interference is the value a ``bincount`` over the undecoded
edges gives, with no drift.  Under RS every replica carries the one energy
Es (``TransmitProfile.Es``), so a slot holding h messages carries S[h],
the value that re-sum would give, and a SINR adds the baseline's table
entries over ascending slots: the state is the slot degrees and id sums
alone, integers with no float to keep.

Phase 1 repeatedly scans degree-one slots in ascending order and attempts
the unique undecoded message in each, which the slot's id sum names; a
success cancels all its replicas.
When no degree-one slot yields a success, phase 2 peels the lowest-index
undecoded message that passes against the residual state and control
returns to phase 1.  The loop ends when no undecoded message passes.  Rate
selection requires the selected rate to be at most the MRC capacity of the
residual state; power adaptation requires the MRC SINR to reach the nominal
level.  Comparisons carry a 1e-9 relative slack (``TIE_RTOL``), the tie
convention: a SINR that meets its threshold up to rounding passes.  Every
receiver here takes the scheme's raw SINR thresholds and applies the
slack itself (``success_thresholds``).

Neither phase makes a test whose outcome cannot change a decision.  Each
slot's interference is the exact sum over the messages it still holds, and
float rounding is monotone, so cancellation never lowers a SINR: a message
that passes keeps passing, and a message's SINR changes only when a
cancellation touches one of its slots.  A message whose test fails sleeps
in a stalled registry, with the degree-one slots that wait on it, and a
cancellation wakes every sleeping message it touches: the one it leaves
alone in a slot, and every sleeping message of a slot it leaves holding two
or more.  PA's re-sum finds those among the slot's messages.  Under RS a
message that goes to sleep appends itself to a list of each of its slots,
and such a cancellation takes the slot's list out and wakes every listed
message still asleep.  A slot has a list only from the first sleep there
since the last one was taken out, so a frame makes lists only where
messages sleep.  Every message asleep in a slot went to sleep after the
slot's list was last taken out, so the lists wake the same set; a wake
only pushes onto a heap and sets flags, so the order of the wakes changes
nothing.

Phase 1 is a worklist.  Each pass visits, in ascending order, only the
degree-one slots not known to fail; a slot that becomes degree one, or is
woken, beyond the scan position joins the current pass, and one at or
behind it waits for the next, which is when a full scan would reach it.  A
slot whose message sleeps joins it untested.  Phase 2 tests every message
with one ``bincount`` at its first entry (``mrc_sinr``'s, or under RS one
over the table's terms), keeps a min-heap of the passing indices and puts
the others to sleep.  Woken messages wait in a second min-heap, and a later
entry tests them in ascending order only while they lie below the lowest
index known to pass: that message still passes, so a woken message above it
cannot be the lowest that passes, and waits untested for phase 1 or a later
entry.  Every SINR is added over ascending slots, as ``mrc_sinr``'s
``bincount`` adds it, so a skipped test would have failed on the same float
or could not have changed the choice, and the decisions, the order and the
outputs are those of a full scan and a full evaluation at every step, bit
for bit.

A PA frame is statically decodable when every message passes its test
before any cancellation (``static_passes``, one ``mrc_sinr`` over the
initial interference, which the mu tuner's ``static_reliability`` rule
counts).  Cancellation never lowers a SINR, so its decode order is integer
erasure peeling (``_peel_static``): the slot degrees are a ``bytearray``,
and phase 1 finds each pass's next degree-one slot with
``find(1, pos + 1)``.  Degrees only fall, and a slot at degree one keeps it
until its message decodes, so that scan finds the worklist's slots, in its
order.  Phase 2 decodes the lowest-index undecoded message, the next zero
of a decoded-flag ``bytearray``.  The peel reads each decoded message's
slots as a slice of ``edge_slot``, as ``_peel_irsa`` does, and builds no
per-message or per-slot list.  A frame whose busiest slot holds more than
255 messages, too many for a byte, takes the two-phase receiver, whose
outputs are the same.  One vectorised replay gives the SINRs: each edge of
a decoded message adds the energies of its slot's messages still undecoded
at that step, from 0.0 in ascending message order, by one ``bincount``
over the pairs of edges sharing a slot (a masked pair adds +0.0), and one
``bincount`` adds e / (I - e + N0) over ascending slots: the two-phase
receiver's float operations, bit for bit.  RS, already integer, takes no
static test.

For RS and PA the decoded set does not depend on the order: cancellation
never lowers another message's MRC SINR, so it is the unique closure of the
success test.  The tuners and the comparison read only which messages
decode, and take that closure with ``decoded_closure``, one profile at a
time, over a group of frames side by side (``stack_frames``).  The closure
is monotone in the profile as well: lower thresholds at the same energies,
or a larger PA margin mu, decode a superset on the same frames, which the
tuners' one search (``harness._first_reaching``) relies on over the mu
grid and each chain of RS tables.  ``decoded_closure`` and ``static_passes``
raise InfeasibleOperatingPointError where a slot's interference, or it plus
N0, overflows: the SINRs would be wrong, and the point is flagged.  Evaluation
keeps the sequential receiver ``decode_frame``: the genie rate behind
``eta_max`` and the decode steps depend on the order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .frame_graph import FrameGraph
from .schemes import ChannelConfig, InfeasibleOperatingPointError, SchemeConfig, TransmitProfile

__all__ = [
    "PHASE_NONE",
    "PHASE_PEELING",
    "PHASE_RESIDUAL",
    "DecodeResult",
    "decoded_closure",
    "mrc_sinr",
    "success_thresholds",
    "static_passes",
    "decode_frame",
]

PHASE_NONE = 0
PHASE_PEELING = 1
PHASE_RESIDUAL = 2

# The two overflows the MRC SINR is checked for (``_checked``).
INTERFERENCE_OVERFLOWS = "a slot's interference overflows in the MRC SINR"
NOISE_OVERFLOWS = "a slot's interference plus the noise N0 overflows in the MRC SINR"

# One-sided slack on the success comparison: the tie convention.  A SINR
# exactly on its threshold, such as a lone degree-one message's Es/N0 under
# rate selection, passes; the interference sums themselves are exact.
TIE_RTOL = 1e-9


@dataclass
class DecodeResult:
    """Outcome of decoding one frame: the decodes in step order.

    ``order`` lists the decoded messages; ``sinrs`` and ``genie_rates`` hold
    each decode's effective SINR and the maximum rate the message could have
    sustained given the residual state at its step; ``slots`` holds each
    decode's degree-one slot, -1 for a phase-2 decode, and so its phase.

    The per-message views (``decoded``, ``phase``, ``genie_rate``;
    undecoded entries False, PHASE_NONE or NaN) are built from these when
    first read.
    """

    K: int
    order: np.ndarray
    sinrs: np.ndarray
    genie_rates: np.ndarray
    slots: list[int]

    @property
    def decoded_count(self) -> int:
        return len(self.order)

    def _per_message(self, values, fill=np.nan, dtype=np.float64) -> np.ndarray:
        out = np.full(self.K, fill, dtype=dtype)
        out[self.order] = values
        return out

    decoded = cached_property(lambda r: r._per_message(True, False, bool))
    phase = cached_property(lambda r: r._per_message(
        np.where(np.asarray(r.slots) < 0, PHASE_RESIDUAL, PHASE_PEELING), PHASE_NONE, np.int8
    ))
    genie_rate = cached_property(lambda r: r._per_message(r.genie_rates))


def mrc_sinr(
    edge_msg, edge_slot, edge_energy, N0: float, slot_interference=None, minlength: int = 0
) -> np.ndarray:
    """Every message's MRC-combined SINR by one ``bincount`` over a frame's
    edge arrays: the sum over its slots, in ascending slot order, of its own
    energy over the other messages' interference plus noise.

    ``slot_interference`` is the energy still on each slot; by default the
    whole frame's, before any cancellation.  The result has one entry per
    message up to the largest in ``edge_msg``, and at least ``minlength``;
    a message with no edge gets 0.0.
    """
    if slot_interference is None:
        slot_interference = np.bincount(edge_slot, weights=edge_energy)
    denom = slot_interference[edge_slot] - edge_energy
    np.maximum(denom, 0.0, out=denom)  # a decoded message's slots lack its energy
    denom += N0
    return np.bincount(edge_msg, weights=edge_energy / denom, minlength=minlength)


def success_thresholds(sinr_thresholds: np.ndarray) -> np.ndarray:
    """SINR each message must reach to decode: its threshold less TIE_RTOL."""
    return sinr_thresholds * (1.0 - TIE_RTOL)


def _checked(interference: np.ndarray, sinr: Callable[[], np.ndarray]) -> np.ndarray:
    """``sinr()``, SINR terms over the slot ``interference``.  Raises
    InfeasibleOperatingPointError, so that the point is flagged, where that
    interference, or it plus N0, overflows: ``np.bincount`` raises no
    floating-point error, and an infinite sum would zero the SINR term of
    every message in the slot."""
    if not np.isfinite(interference).all():
        raise InfeasibleOperatingPointError(INTERFERENCE_OVERFLOWS)
    try:
        with np.errstate(over="raise"):
            return sinr()
    except FloatingPointError:
        raise InfeasibleOperatingPointError(NOISE_OVERFLOWS) from None


def _checked_sinr(edge_msg, edge_slot, edge_energy, N0: float, M: int, K: int):
    """``mrc_sinr`` over the given edges' slot interference, ``_checked``."""
    interference = np.bincount(edge_slot, weights=edge_energy, minlength=M)
    return _checked(
        interference, lambda: mrc_sinr(edge_msg, edge_slot, edge_energy, N0, interference, K)
    )


def static_passes(
    graph: FrameGraph, energies: np.ndarray, sinr_thresholds: np.ndarray, N0: float
) -> np.ndarray:
    """Which messages pass their success test (``success_thresholds``)
    before any cancellation, a (K,) mask, under per-message ``energies``
    and ``sinr_thresholds``.  A frame all of whose messages pass is
    statically decodable: cancellation never lowers an MRC SINR, so every
    test the receiver makes on it passes.  On frames side by side
    (``stack_frames``) each message's SINR is its own frame's, bit for
    bit.  Raises InfeasibleOperatingPointError where a slot's interference,
    or it plus N0, overflows."""
    edge_msg = graph.edge_msg
    sinr = _checked_sinr(edge_msg, graph.edge_slot, energies[edge_msg], N0, graph.M, graph.K)
    return sinr >= success_thresholds(sinr_thresholds)


def decoded_closure(
    graph: FrameGraph, energies: np.ndarray, sinr_thresholds: np.ndarray, N0: float
) -> np.ndarray:
    """Decoded set of one frame, a (K,) mask, under one profile's
    per-message ``energies`` and ``sinr_thresholds``, each test taken with
    ``success_thresholds``.  The frame may be several frames side by side
    (``stack_frames``): no slot is shared between them, so each one's set is
    its own closure.

    Jacobi rounds over the live edges: each round sums the slot
    interference of the undecoded messages, takes their MRC SINRs and
    decodes all that reach their threshold, until a round decodes nothing;
    the next round drops the edges of the messages it decoded.  A decoded
    edge only added +0.0 to its slot's in-order ``bincount``, so every value
    and decision is that of a round over all edges.  Cancellation never
    lowers another message's SINR, so the result is the unique closure that
    ``decode_frame`` reaches in its own order (RS and PA schemes).  Raises
    InfeasibleOperatingPointError where a slot's interference, or it plus
    N0, overflows.
    """
    edge_msg, edge_slot = graph.edge_msg, graph.edge_slot
    edge_energy = energies[edge_msg]
    thresholds = success_thresholds(sinr_thresholds)
    decoded = np.zeros(graph.K, dtype=bool)
    while True:
        sinr = _checked_sinr(edge_msg, edge_slot, edge_energy, N0, graph.M, graph.K)
        new = (sinr >= thresholds) & ~decoded
        if not new.any():
            return decoded
        decoded |= new
        live = ~new[edge_msg]
        edge_msg, edge_slot, edge_energy = edge_msg[live], edge_slot[live], edge_energy[live]


def decode_frame(
    graph: FrameGraph,
    profile: TransmitProfile,
    scheme: SchemeConfig,
    cfg: ChannelConfig,
) -> DecodeResult:
    """Run the receiver to its fixed point on one frame: integer peeling for
    IRSA and statically decodable PA frames, else two-phase MRC.  The genie
    rate takes ``math.log2`` per value: ``np.log2`` need not round alike."""
    if scheme.variant == "IRSA":
        order, slots, sinrs = _peel_irsa(graph, profile.Es, cfg.N0)
    elif (
        profile.Es is None
        and static_passes(graph, profile.energies, profile.sinr_thresholds, cfg.N0).all()
        and (degree := graph.slot_degrees()).max() <= 255  # _peel_static's bytes
    ):
        order, slots = _peel_static(graph, degree)
        order = np.array(order, dtype=np.int64)
        sinrs = _replay_sinrs(graph, profile.energies, order, cfg.N0)
    else:
        order, slots, sinrs = _decode_mrc(graph, profile, cfg.N0)
    sinrs = np.asarray(sinrs, dtype=np.float64)
    capacity = (1.0 + sinrs) if scheme.rmax_includes_one else sinrs
    genie = (0.5 * cfg.L_cu) * np.array(list(map(math.log2, capacity.tolist())))
    return DecodeResult(graph.K, np.asarray(order, dtype=np.int64), sinrs, genie, slots)


@lru_cache(maxsize=8)
def _uniform_table(e: float, N0: float, K: int):
    """term[h], the SINR term of a message at per-replica energy e over a
    slot holding h undecoded messages, for h up to K: e / (S[h] - e + N0),
    where S[h] adds e h times from 0.0 (see the module docstring); term[0] =
    0.0.  Each message's slots are distinct, so no slot holds more than K.
    Returns the table as an array and a list, and the least h whose S[h],
    and whose S[h] - e + N0 or term, overflows (K + 1 where none does)."""
    with np.errstate(over="ignore"):  # an overflow is the finding, not a warning
        S = np.add.accumulate(np.full(K, e))
        den = S - e + N0
        term = np.concatenate(([0.0], e / den))
    term.flags.writeable = False
    first = lambda bad: 1 + int(np.argmax(bad)) if bad.any() else K + 1
    return term, term.tolist(), first(np.isinf(S)), first(np.isinf(den) | np.isinf(term[1:]))


def _uniform_terms(degree: np.ndarray, e: float, N0: float, K: int):
    """The term table at (e, N0) for frames of K messages (``_uniform_table``),
    built once and shared by every such frame, as an array and a list.
    Raises InfeasibleOperatingPointError as ``_checked`` does over the sums
    of up to the largest of the slot ``degree``s: a frame raises where its
    own busiest slot overflows."""
    term, values, sum_overflow, term_overflow = _uniform_table(e, N0, K)
    h = int(degree.max(initial=0))
    if h >= sum_overflow:
        raise InfeasibleOperatingPointError(INTERFERENCE_OVERFLOWS)
    if h >= term_overflow:
        raise InfeasibleOperatingPointError(NOISE_OVERFLOWS)
    return term, values


def _message_spans(graph: FrameGraph):
    """``edge_slot`` as a list, and each message's start and end in it:
    message k's slots, ascending, are ``flat[start[k]:end[k]]``.  A peel
    slices the messages it decodes, which costs less than building every
    message's list (``FrameGraph.message_slots``)."""
    end = np.cumsum(graph.degrees)
    return graph.edge_slot.tolist(), (end - graph.degrees).tolist(), end.tolist()


def _peel_irsa(graph: FrameGraph, e: float, N0: float):
    """Baseline receiver: erasure peeling on slot degrees and id sums.
    Returns the decoded messages, their degree-one slots and their SINRs at
    per-replica energy e (see the module docstring), in step order.  Raises
    InfeasibleOperatingPointError as ``_checked`` does."""
    flat, start, end = _message_spans(graph)
    degree = graph.slot_degrees()
    slot_degree = degree.tolist()
    slot_id_sum = graph.slot_id_sums().tolist()
    _, term = _uniform_terms(degree, e, N0, graph.K)
    order: list[int] = []
    slots: list[int] = []
    sinrs: list[float] = []
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
            sinr = 0.0
            for jj in flat[start[msg]:end[msg]]:
                sinr += term[slot_degree[jj]]
                slot_degree[jj] -= 1
                slot_id_sum[jj] -= msg
            sinrs.append(sinr)
            progress = True
        busy = [j for j in busy if slot_degree[j]]
    return order, slots, sinrs


def _peel_static(graph: FrameGraph, degree: np.ndarray):
    """The two-phase receiver on a statically decodable PA frame, on slot
    degrees and id sums alone: every test passes, so phase 1 is erasure
    peeling and phase 2 decodes the lowest-index undecoded message.  The
    slot ``degree``s, each at most 255, become a ``bytearray`` that phase 1
    scans with ``find(1, pos + 1)``: a slot that reaches degree one beyond
    the scan position joins this pass, one at or behind it the next, the
    worklist's order.  Returns the decoded messages and their degree-one
    slots, -1 for a phase-2 decode, in step order."""
    flat, start, end = _message_spans(graph)
    slot_degree = bytearray(degree.astype(np.uint8).tobytes())
    slot_id_sum = graph.slot_id_sums().tolist()
    decoded = bytearray(graph.K)
    find = slot_degree.find
    order: list[int] = []
    slots: list[int] = []
    pos = lowest = -1
    while True:
        # Phase 1: the next degree-one slot beyond pos, else the first of
        # the next pass; phase 2 when a pass would find none.
        if (pos := find(1, pos + 1)) < 0 and (pos := find(1)) < 0:
            if (lowest := decoded.find(0, lowest + 1)) < 0:
                return order, slots
            msg = lowest
        else:
            msg = slot_id_sum[pos]
        order.append(msg)
        slots.append(pos)
        decoded[msg] = 1
        for j in flat[start[msg]:end[msg]]:
            slot_degree[j] -= 1
            slot_id_sum[j] -= msg


def _replay_sinrs(graph: FrameGraph, energies: np.ndarray, order: np.ndarray, N0: float):
    """The SINR of every decode of a fully decoded frame, in step order, by
    ``_decode_mrc``'s float operations.  Each edge's slot interference adds
    the energies of the slot's messages still undecoded at its message's
    step, from 0.0 in ascending message order, a decoded one adding +0.0;
    each SINR adds e / (I - e + N0) over its message's ascending slots."""
    step = np.empty(graph.K, dtype=np.int64)
    step[order] = np.arange(graph.K)
    # The edges by slot, each slot's in ascending message order, and so
    # each message's in ascending slot order.
    msg = graph.edge_msg[graph.slot_order()]
    e = energies[msg]
    at = step[msg]
    # Every edge paired with each edge of its slot, the slot's in order:
    # edge p's pairs run over its slot's edges, from the slot's first.
    degree = graph.slot_degrees()
    width = np.repeat(degree, degree)
    ends = np.cumsum(width)
    first = np.repeat(np.cumsum(degree) - degree, degree)
    other = np.arange(ends[-1]) + np.repeat(first - ends + width, width)
    still = at[other] >= np.repeat(at, width)
    edge = np.repeat(np.arange(len(msg)), width)
    interference = np.bincount(edge, weights=e[other] * still, minlength=len(msg))
    denom = interference - e
    denom += N0
    sinr = np.bincount(msg, weights=e / denom, minlength=graph.K)
    return sinr[order]


def _decode_mrc(graph: FrameGraph, profile: TransmitProfile, N0: float):
    """Two-phase MRC receiver (RS and PA).  Returns the decoded messages,
    their degree-one slots, -1 for a phase-2 decode, and their SINRs, in
    step order.  With one per-replica energy (``profile.Es`` set, RS) its
    state is integers alone (see the module docstring)."""
    M = graph.M
    thr_arr = success_thresholds(profile.sinr_thresholds)
    thresholds = thr_arr.tolist()
    message_slots = graph.message_slots
    # The residual state (see the module docstring).
    degree = graph.slot_degrees()
    slot_degree = degree.tolist()
    slot_id_sum = graph.slot_id_sums().tolist()
    decoded = bytearray(graph.K)

    # The stalled registry (see the module docstring): each message whose
    # last test failed, with the degree-one slots that wait on it; and a
    # min-heap of the messages woken since phase 2 last tested them, which
    # may hold a message twice.
    asleep: dict[int, list[int]] = {}
    woken: list[int] = []
    # Phase 1's worklist: the slots due in this pass (flagged in ``due``)
    # and in the next (``later``).  ``wake`` and ``cancel`` queue a slot
    # beyond the scan position ``pos`` in this pass and one at or behind it
    # in the next; phase 2 passes -1, so the next pass takes them all.
    due = bytearray((degree == 1).tobytes())
    later = bytearray(M)

    def wake(msg: int, pos: int) -> None:
        heapq.heappush(woken, msg)
        for j in asleep.pop(msg):
            (due if j > pos else later)[j] = 1

    if profile.Es is not None:
        # One energy per replica (RS): a slot holding h messages interferes
        # S[h], so term[h] is a SINR term and the state is integers alone.
        term_arr, term = _uniform_terms(degree, profile.Es, N0, graph.K)
        # Each slot's sleepers: every message that went to sleep since the
        # slot's last cancellation left it holding two or more, and so
        # every sleeping message of the slot.  A slot gets a list when a
        # message first sleeps there, and a wake takes it out.
        sleepers: list[list[int] | None] = [None] * M

        def sinr_of(msg: int) -> float:
            # Added over ascending slots as mrc_sinr's bincount adds them;
            # Python's sum() may compensate, so no sum().
            total = 0.0
            for j in message_slots[msg]:
                total += term[slot_degree[j]]
            return total

        def enlist(msg: int) -> None:
            # msg goes to sleep: list it in each of its slots.
            for j in message_slots[msg]:
                if (listed := sleepers[j]) is None:
                    sleepers[j] = [msg]
                else:
                    listed.append(msg)

        def cancel(msg: int, pos: int) -> None:
            # Take every replica of msg out of its slots' degrees and id
            # sums, queue the slots it leaves at degree one and wake every
            # sleeping message it shares a slot with.
            assert not decoded[msg], f"message {msg} cancelled twice"
            decoded[msg] = 1
            for j in message_slots[msg]:
                d = slot_degree[j] - 1
                slot_degree[j] = d
                slot_id_sum[j] -= msg
                if d == 1:
                    m = slot_id_sum[j]
                    (due if j > pos else later)[j] = 1
                    if m in asleep:
                        wake(m, pos)
                elif d == 0:
                    due[j] = 0  # an empty slot needs no visit
                elif listed := sleepers[j]:
                    sleepers[j] = None
                    for m in listed:
                        if m in asleep:
                            wake(m, pos)

        def residual_sinrs() -> np.ndarray:
            # mrc_sinr's terms at every undecoded message's edges.
            held = np.array(slot_degree)[graph.edge_slot]
            return np.bincount(graph.edge_msg, weights=term_arr[held])
    else:
        # Per-message energies (PA): each slot's interference, added in
        # edge order, ascending messages, as bincount adds it.
        energies = profile.energies.tolist()
        slot_messages = graph.slot_messages
        interference = np.bincount(
            graph.edge_slot, weights=profile.energies[graph.edge_msg], minlength=M
        ).tolist()
        # A re-sum walks the slot's messages and finds its sleepers there.
        enlist = None

        def sinr_of(msg: int) -> float:
            # MRC over all replicas, added over ascending slots as mrc_sinr's
            # bincount adds them; Python's sum() may compensate, so no sum().
            e = energies[msg]
            total = 0.0
            for j in message_slots[msg]:
                total += e / (interference[j] - e + N0)
            return total

        def cancel(msg: int, pos: int) -> None:
            # Take every replica of msg out of its slots' residual state,
            # queue the slots it leaves at degree one and wake every
            # sleeping message it shares a slot with.
            assert not decoded[msg], f"message {msg} cancelled twice"
            decoded[msg] = 1
            for j in message_slots[msg]:
                d = slot_degree[j] - 1
                slot_degree[j] = d
                slot_id_sum[j] -= msg
                if d == 1:
                    m = slot_id_sum[j]
                    interference[j] = energies[m]
                    (due if j > pos else later)[j] = 1
                    if m in asleep:
                        wake(m, pos)
                elif d == 0:
                    interference[j] = 0.0
                    due[j] = 0  # an empty slot needs no visit
                else:
                    total = 0.0
                    for m in slot_messages[j]:
                        if not decoded[m]:
                            total += energies[m]
                            if m in asleep:
                                wake(m, pos)
                    interference[j] = total

        def residual_sinrs() -> np.ndarray:
            return mrc_sinr(
                graph.edge_msg, graph.edge_slot, profile.energies[graph.edge_msg], N0,
                np.asarray(interference),
            )

    # Decodes in step order: message, degree-one slot, SINR.
    order: list[int] = []
    slots: list[int] = []
    sinrs: list[float] = []

    # Phase 2's min-heap of the messages that have passed, from its first
    # entry on; decoded ones are dropped when they reach the top.
    passing: list[int] | None = None

    while True:
        # Phase 1: ascending passes over the queued degree-one slots until a
        # pass queues none for the next.  A slot whose message sleeps joins
        # it untested: the test would fail again.
        while (pos := due.find(1)) >= 0:
            find = due.find
            while pos >= 0:
                due[pos] = 0
                if slot_degree[pos] == 1:
                    msg = slot_id_sum[pos]
                    if msg in asleep:
                        asleep[msg].append(pos)
                    elif (sinr := sinr_of(msg)) >= thresholds[msg]:
                        order.append(msg)
                        slots.append(pos)
                        sinrs.append(sinr)
                        cancel(msg, pos)
                    else:
                        asleep[msg] = [pos]
                        if enlist:
                            enlist(msg)
                pos = find(1, pos + 1)
            due, later = later, due
        # Phase 2: peel the lowest-index undecoded message that passes
        # against the residual state and return to phase 1.  The first entry
        # tests every message.  A later one tests, in ascending order, only
        # the woken messages below the lowest known to pass: one above it
        # cannot be the lowest that passes, and waits untested.
        if passing is None:
            alive = ~np.frombuffer(decoded, dtype=bool)
            ok = residual_sinrs() >= thr_arr
            passing = np.flatnonzero(ok & alive).tolist()
            for m in np.flatnonzero(alive & ~ok).tolist():
                if m not in asleep:
                    asleep[m] = []
                    if enlist:
                        enlist(m)
            woken.clear()
        while passing and decoded[passing[0]]:
            heapq.heappop(passing)
        while woken and (not passing or woken[0] < passing[0]):
            m = heapq.heappop(woken)
            if decoded[m] or m in asleep:
                continue  # decoded, or tested again by phase 1 and failed
            if sinr_of(m) >= thresholds[m]:
                heapq.heappush(passing, m)
            else:
                asleep[m] = []
                if enlist:
                    enlist(m)
        if not passing:
            return order, slots, sinrs
        msg = heapq.heappop(passing)
        order.append(msg)
        slots.append(-1)
        sinrs.append(sinr_of(msg))
        cancel(msg, -1)
