"""Scalar performance measures of one decoded frame.

Throughput T counts decoded messages per slot.  Efficiency eta divides the
summed assigned rates of the decoded messages by C_ref, the capacity of a
fully coordinated reference scheme spending the same total energy; eta_max
divides their summed genie rates, the most each could have sustained.
Spectral efficiency gamma is the decoded bits per slot.  The energy figure
is the mean per-device transmit energy over the frame, normalised by the
noise level, in dB.  ``harness.run_point`` accumulates each over the trials
of a grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import require
from .decoder import DecodeResult
from .schemes import ChannelConfig, TransmitProfile

__all__ = [
    "TrialMetrics",
    "reference_capacity",
    "trial_metrics",
    "gamma_irsa_min",
    "to_db",
]


def to_db(x: float) -> float:
    return 10.0 * math.log10(x)


@dataclass(frozen=True)
class TrialMetrics:
    """Per-frame scalars.

    eta and eta_max divide the summed assigned and genie rates of the
    decoded messages by the reference capacity C_ref; gamma is the assigned
    sum per slot.
    """

    T: float
    eta: float
    eta_max: float
    gamma: float
    energy_per_user_db: float


def reference_capacity(profile: TransmitProfile, cfg: ChannelConfig) -> float:
    """C_ref of one frame's profile, the efficiency's denominator: the sum
    capacity per frame (L*M/2) log2(1 + K*e/(M*N0)) of a fully coordinated
    scheme spending the same K*e total energy over every channel use, where
    e is the mean device energy l_i*E_i: l_avg*Es (M*tilde_Es) under a
    common energy, the frame's mean under power adaptation."""
    if profile.Es is not None:
        e = profile.l_avg * profile.Es
    else:
        e = float((profile.degrees * profile.energies).mean())
    return 0.5 * cfg.L_cu * cfg.M * math.log2(1.0 + cfg.K * e / (cfg.M * cfg.N0))


def trial_metrics(
    result: DecodeResult, profile: TransmitProfile, cfg: ChannelConfig
) -> TrialMetrics:
    """Reduce one decode outcome to its scalar measures.  The rate sums add
    over the decoded messages in ascending message order."""
    decoded = result.decoded
    S = float(profile.rates[decoded].sum())
    S_max = float(result.genie_rate[decoded].sum())
    C = reference_capacity(profile, cfg)
    per_user = profile.degrees * profile.energies
    return TrialMetrics(
        T=result.decoded_count / cfg.M,
        eta=S / C,
        eta_max=S_max / C,
        gamma=S / cfg.M,
        energy_per_user_db=to_db(float(per_user.mean()) / cfg.N0),
    )


def gamma_irsa_min(hat_es: float, N0: float, l_avg: float) -> tuple[float, float]:
    """Reference energy levels (linear): the baseline's l_avg * hat_Es/N0 and
    the interference-free minimum hat_Es/N0."""
    if not hat_es > 0:
        raise ValueError("hat_es must be positive")
    require("N0", N0)
    require("l_avg", l_avg)
    return l_avg * hat_es / N0, hat_es / N0
