"""Scalar performance measures of one decoded frame.

Throughput counts decoded messages per slot; efficiency normalises the
decoded sum rate by the capacity of a fully coordinated reference scheme
spending the same total energy; spectral efficiency is decoded bits per
slot.  The energy figure is the mean per-device transmit energy over the
frame, normalised by the noise level, in dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .decoder import DecodeResult
from .schemes import (
    ChannelConfig,
    InfeasibleOperatingPointError,
    TransmitProfile,
    es_from_reference,
    rate_rs,
)

__all__ = [
    "TrialMetrics",
    "c_ref",
    "reference_capacity",
    "trial_metrics",
    "gamma_pa_analytic",
    "gamma_irsa_min",
    "jensen_bound_rs",
    "to_db",
]


def to_db(x: float) -> float:
    return 10.0 * math.log10(x)


@dataclass(frozen=True)
class TrialMetrics:
    """Per-frame scalars.

    S sums the assigned rates of decoded messages, S_max their genie rates;
    eta and eta_max divide those by the reference capacity C_ref; gamma and
    gamma_max are the same sums per slot.
    """

    T: float
    S: float
    S_max: float
    C_ref: float
    eta: float
    eta_max: float
    gamma: float
    gamma_max: float
    energy_per_user_db: float


def c_ref(cfg: ChannelConfig, l_avg: float) -> float:
    """Reference sum capacity per frame at equal total energy:
    (L*M/2) log2(1 + K*l_avg*Es/(M*N0)), i.e. (L*M/2) log2(1 + K*tilde_Es/N0).
    """
    es = es_from_reference(cfg, l_avg)
    return _c_ref_from_per_user_energy(cfg, l_avg * es)


def _c_ref_from_per_user_energy(cfg: ChannelConfig, per_user_energy: float) -> float:
    """Reference capacity with K*per_user_energy total frame energy spread
    over every channel use (per_user_energy = l_i * E_i per channel use)."""
    return 0.5 * cfg.L_cu * cfg.M * math.log2(
        1.0 + cfg.K * per_user_energy / (cfg.M * cfg.N0)
    )


def reference_capacity(profile: TransmitProfile, cfg: ChannelConfig) -> float:
    """C_ref of one frame's profile: the efficiency's denominator."""
    if profile.Es is not None:
        return c_ref(cfg, profile.l_avg)
    # Power adaptation spends l_i*E_i per device, degree independent; the
    # equal-energy reference follows from its mean.
    per_user = profile.degrees * profile.energies
    return _c_ref_from_per_user_energy(cfg, float(per_user.mean()))


def trial_metrics(
    result: DecodeResult, profile: TransmitProfile, cfg: ChannelConfig
) -> TrialMetrics:
    """Reduce one decode outcome to its scalar measures."""
    mask = result.decoded
    S = float(profile.rates[mask].sum())
    S_max = float(result.genie_rate[mask].sum()) if mask.any() else 0.0
    per_user = profile.degrees * profile.energies
    C = reference_capacity(profile, cfg)
    T = result.decoded_count / cfg.M
    return TrialMetrics(
        T=T,
        S=S,
        S_max=S_max,
        C_ref=C,
        eta=S / C,
        eta_max=S_max / C,
        gamma=S / cfg.M,
        gamma_max=S_max / cfg.M,
        energy_per_user_db=to_db(float(per_user.mean()) / cfg.N0),
    )


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


def gamma_irsa_min(hat_es: float, N0: float, l_avg: float) -> tuple[float, float]:
    """Reference energy levels (linear): the baseline's l_avg * hat_Es/N0 and
    the interference-free minimum hat_Es/N0."""
    if hat_es <= 0 or N0 <= 0 or l_avg <= 0:
        raise ValueError("inputs must be positive")
    return l_avg * hat_es / N0, hat_es / N0


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
