"""Slow, independent references the receivers and the rate tables are
checked against."""

import math
from typing import Sequence

from irsa_sim.frame_graph import FrameGraph
from irsa_sim.schemes import (
    InfeasibleOperatingPointError,
    TransmitProfile,
    TuningParameterError,
)


def slot_messages(graph: FrameGraph) -> list[list[int]]:
    """Each slot's messages, ascending, by a plain loop over the messages'
    slot lists."""
    members: list[list[int]] = [[] for _ in range(graph.M)]
    for k, slots in enumerate(graph.message_slots):
        for j in slots:
            members[j].append(k)
    return members


def oracle_interference(graph: FrameGraph, energies, decoded) -> list[float]:
    """Every slot's interference from scratch: the energies of its
    undecoded messages added from 0.0 in ascending order, by an explicit
    loop (``sum`` may compensate)."""
    interference = []
    for msgs in slot_messages(graph):
        total = 0.0
        for m in msgs:
            if not decoded[m]:
                total += energies[m]
        interference.append(total)
    return interference


def effective_sinr(
    msg: int,
    graph: FrameGraph,
    interference: Sequence[float],
    profile: TransmitProfile,
    N0: float,
) -> float:
    """MRC-combined SINR of an undecoded message against the given slot
    interference (such as ``oracle_interference``): the sum over its slots
    of own energy over other-user interference plus noise.
    """
    e = float(profile.energies[msg])
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
    members = slot_messages(graph)
    while True:
        newly: set[int] = set()
        for msgs in members:
            residual = [m for m in msgs if m not in decoded]
            if len(residual) == 1:
                newly.add(residual[0])
        if not newly:
            return decoded
        decoded |= newly


def irsa_de_threshold(dist, tol: float = 1e-4) -> float:
    """Asymptotic load threshold G* of IRSA with the degree distribution
    ``dist`` (Liva 2011), to within ``tol``: the largest G at which density
    evolution, p <- lambda(1 - exp(-G * Lambda'(1) * p)) from p = 1, drives
    the erasure probability p of a device-to-slot edge to 0.  lambda is the
    edge-perspective degree polynomial, lambda_l = l * Lambda_l / Lambda'(1),
    taken from the distribution's own atoms; G* is found by bisection."""
    mean = sum(d * float(p) for d, p in dist.atoms)  # Lambda'(1)
    edge = [(d, d * float(p) / mean) for d, p in dist.atoms]

    def clears(G: float) -> bool:
        p = 1.0
        while p > 1e-12:
            x = 1.0 - math.exp(-G * mean * p)
            following = sum(w * x ** (d - 1) for d, w in edge)
            if following >= p:  # p decreases to a fixed point above 0
                return False
            p = following
        return True

    lo, hi = 0.0, 1.0  # no IRSA distribution clears a load of 1
    assert not clears(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if clears(mid) else (lo, mid)
    return lo


def rate_rs(
    l_i: float,
    Es: float,
    N0: float,
    L_cu: int,
    alpha: float,
    beta: float,
    r_avg: float,
) -> float:
    """Selected rate of a degree-l device, in bits, written out on Python
    floats apart from the package's ``rs_grid``: the device plans for Es/N0
    + alpha*(l-1)*Es/den against den = (beta*r_avg - 1)*Es + N0, by the
    same float operations.  Raises TuningParameterError where den <= 0."""
    den = (beta * r_avg - 1.0) * Es + N0
    if den <= 0:
        raise TuningParameterError(f"den = {den!r} <= 0")
    x = Es / N0 + alpha * (l_i - 1.0) * Es / den
    return 0.5 * L_cu * math.log2(1.0 + x)


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


def rate_irsa(Es: float, N0: float, L_cu: int) -> float:
    """Single-slot rate in bits: (L/2) log2(1 + Es/N0)."""
    return 0.5 * L_cu * math.log2(1.0 + Es / N0)


def gamma_pa_analytic(
    mu: float, hat_es: float, N0: float, l_avg: float, r_avg: float
) -> float:
    """Average per-device energy of power adaptation normalised by N0
    (linear scale): mu * (hat_Es/N0) * (1 + (r_avg-1)hat_Es / ((r_avg-1)hat_Es + N0*l_avg)).
    """
    if (1.0 - r_avg) * hat_es / N0 + l_avg <= 0:
        raise InfeasibleOperatingPointError(
            f"no positive mean energy at r_avg={r_avg}, hat_Es/N0={hat_es / N0}"
        )
    x = (r_avg - 1.0) * hat_es
    if x + N0 * l_avg <= 0:
        raise InfeasibleOperatingPointError(
            f"(r_avg-1)*hat_Es + N0*l_avg = {x + N0 * l_avg!r} <= 0"
        )
    return mu * (hat_es / N0) * (1.0 + x / (x + N0 * l_avg))
