"""Slow, independent references the receivers and the rate tables are
checked against."""

import math

from irsa_sim.frame_graph import FrameGraph, ResidualState
from irsa_sim.schemes import TransmitProfile, rs_sinr_target


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


def rate_rs(
    l_i: float,
    Es: float,
    N0: float,
    L_cu: int,
    alpha: float,
    beta: float,
    r_avg: float,
) -> float:
    """Selected rate of a degree-l device, in bits: the scalar form of the
    rate-selection rows of ``build_profile``."""
    x = rs_sinr_target(l_i, Es, N0, alpha, beta, r_avg)
    return 0.5 * L_cu * math.log2(1.0 + float(x))


def jensen_bound_rs(
    Es: float,
    N0: float,
    L_cu: int,
    alpha: float,
    beta: float,
    l_avg: float,
    r_avg: float,
) -> float:
    """Upper bound on the mean selected rate: the rate formula evaluated at
    the mean degree (concavity of the log)."""
    return rate_rs(l_avg, Es, N0, L_cu, alpha, beta, r_avg)
