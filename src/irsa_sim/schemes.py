"""Per-message rate and energy assignment for the three access schemes.

The baseline scheme repeats at a common energy and decodes single slots; the
rate-selection variant keeps the common energy but lets a device pick its
code rate from its own repetition degree; the power-adaptation variant fixes
a common rate and scales each device's transmit energy down with its degree.

Rates are Gaussian-approximation thresholds in bits (log base 2 throughout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SCHEME_PARAMETERS, require, validate

__all__ = [
    "ChannelConfig",
    "SchemeConfig",
    "TransmitProfile",
    "TuningParameterError",
    "InfeasibleOperatingPointError",
    "es_from_reference",
    "hat_es_from_rate",
    "rs_sinr_target",
    "pa_mean_energy",
    "pa_powers",
    "build_profile",
]

class TuningParameterError(ValueError):
    """The (alpha, beta) pair makes the estimated-interference denominator
    non-positive; the grid point must be rejected."""


class InfeasibleOperatingPointError(ValueError):
    """The power-adaptation energy balance has no positive solution at this
    load / rate combination."""


@dataclass(frozen=True)
class ChannelConfig:
    """Static channel and frame parameters.

    ``tilde_Es`` is the reference energy per channel use of the
    everyone-in-every-slot benchmark (uniform-energy experiments);
    ``hat_R`` is the common nominal rate in bits (power-adaptation
    experiments).  Exactly the relevant one needs to be set.
    """

    K: int
    M: int
    L_cu: int = 100
    N0: float = 1.0
    tilde_Es: float | None = None
    hat_R: float | None = None

    def __post_init__(self) -> None:
        validate(self)

    @property
    def G(self) -> float:
        """Offered load, devices per slot."""
        return self.K / self.M


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selector plus its tuning parameters.

    alpha/beta belong to rate selection, mu to power adaptation; setting a
    parameter for the wrong variant is rejected.  ``rmax_includes_one``
    chooses between capacity thresholds of the form log2(1 + SINR) (default)
    and the bare log2(SINR).
    """

    variant: str
    alpha: float | None = None
    beta: float | None = None
    mu: float | None = None
    rmax_includes_one: bool = True

    def __post_init__(self) -> None:
        # A parameter is an error where it is set but not taken, or taken
        # but not set.
        takes = SCHEME_PARAMETERS.get(self.variant, ())
        validate(self, {
            name: f"{'required' if name in takes else 'not a parameter'} for {self.variant}"
            for name in ("alpha", "beta", "mu")
            if (getattr(self, name) is None) == (name in takes)
        })


@dataclass(frozen=True)
class TransmitProfile:
    """Energy per channel use and rate for each message of one frame.

    ``sinr_thresholds`` holds the per-message effective-SINR level at which
    the decoder's success test passes; it is the rate threshold inverted once
    so the hot loop compares SINRs instead of taking logs.

    Every scheme assigns by degree alone, so a profile built on a list of
    distinct degrees is a table: ``take`` reads it at a frame's messages.
    ``build_profile`` checks the values it assigns; a table read is not
    checked again.
    """

    degrees: np.ndarray
    energies: np.ndarray
    rates: np.ndarray
    sinr_thresholds: np.ndarray
    Es: float | None  # uniform per-replica energy; None under power adaptation
    l_avg: float
    r_avg: float

    def take(self, index: np.ndarray) -> TransmitProfile:
        """The profile whose message i is this one's message ``index[i]``."""
        return TransmitProfile(
            self.degrees[index], self.energies[index], self.rates[index],
            self.sinr_thresholds[index], self.Es, self.l_avg, self.r_avg,
        )


def es_from_reference(cfg: ChannelConfig, l_avg: float) -> float:
    """Per-replica energy that spends the same total frame energy as the
    everyone-in-every-slot reference: Es = M * tilde_Es / l_avg."""
    if cfg.tilde_Es is None:
        raise ValueError("config carries no reference energy tilde_Es")
    require("l_avg", l_avg)
    return cfg.M * cfg.tilde_Es / l_avg


def hat_es_from_rate(hat_R: float, L_cu: int, N0: float) -> float:
    """Energy per channel use sustaining ``hat_R`` bits without interference:
    the inverse of the single-slot rate (L/2) log2(1 + Es/N0)."""
    require("hat_R", hat_R)
    return N0 * (2.0 ** (2.0 * hat_R / L_cu) - 1.0)


def rs_sinr_target(
    l_i, Es: float, N0: float, alpha: float, beta: float, r_avg: float
):
    """Estimated effective SINR a degree-l device plans for: its own slot at
    noise only plus (l-1) MRC terms against an assumed load of beta*r_avg
    interferers per slot, scaled by alpha.

    Accepts scalar or array ``l_i``.  Raises TuningParameterError when the
    assumed residual denominator is non-positive.
    """
    den = (beta * r_avg - 1.0) * Es + N0
    if den <= 0:
        raise TuningParameterError(
            f"(beta*r_avg - 1)*Es + N0 = {den!r} <= 0 for beta={beta}, r_avg={r_avg}"
        )
    # An overflowing target gives an infinite rate, which build_profile flags.
    with np.errstate(over="ignore"):
        return Es / N0 + alpha * (np.asarray(l_i) - 1.0) * Es / den


def pa_mean_energy(cfg: ChannelConfig, l_avg: float, r_avg: float) -> float:
    """Uniform per-replica energy that meets the nominal SINR on an
    (l_avg, r_avg) regular graph at the worst decoding step."""
    if cfg.hat_R is None:
        raise ValueError("config carries no nominal rate hat_R")
    hat_es = hat_es_from_rate(cfg.hat_R, cfg.L_cu, cfg.N0)
    if not hat_es > 0:  # 2**(2*hat_R/L_cu) rounds to 1 below about 1e-16
        raise InfeasibleOperatingPointError(
            f"hat_R: the energy N0*(2**(2*hat_R/L_cu) - 1) rounds to 0 at hat_R = {cfg.hat_R!r}"
        )
    den = (1.0 - r_avg) * hat_es / cfg.N0 + l_avg
    if den <= 0:
        raise InfeasibleOperatingPointError(
            f"(1 - r_avg)*hat_Es/N0 + l_avg = {den!r} <= 0 "
            f"(r_avg={r_avg}, hat_Es/N0={hat_es / cfg.N0})"
        )
    return hat_es / den


def pa_powers(
    degrees: np.ndarray,
    cfg: ChannelConfig,
    mu: float,
    l_avg: float,
    r_avg: float,
) -> TransmitProfile:
    """Power-adaptation profile: every device aims its MRC-combined SINR at
    the nominal level assuming r_avg interferers per slot at the mean energy,
    then scales by the safety factor mu.

    The per-device total l_i * E_i is degree independent by construction:
    (hat_Es/N0) * ((r_avg - 1) * bar_Es + N0), which equals l_avg * bar_Es.
    The first form cancels catastrophically once hat_Es/N0 is large, so the
    second is computed.
    """
    hat_es = hat_es_from_rate(cfg.hat_R, cfg.L_cu, cfg.N0)
    per_user = l_avg * pa_mean_energy(cfg, l_avg, r_avg)  # l_i * check_E_i
    # The sweeps' measures sum l_i*E_i = mu * per_user over the K devices.
    if not math.isfinite(cfg.K * mu * per_user / cfg.N0):
        raise InfeasibleOperatingPointError(
            f"mu: the frame energy K*mu*l_i*E_i/N0 overflows at mu = {mu:g}"
        )
    degrees = np.asarray(degrees, dtype=np.int64)
    energies = mu * per_user / degrees
    rates = np.full(len(degrees), float(cfg.hat_R))
    thresholds = np.full(len(degrees), hat_es / cfg.N0)
    return TransmitProfile(
        degrees=degrees,
        energies=energies,
        rates=rates,
        sinr_thresholds=thresholds,
        Es=None,
        l_avg=l_avg,
        r_avg=r_avg,
    )


def build_profile(
    degrees: np.ndarray,
    cfg: ChannelConfig,
    scheme: SchemeConfig,
    l_avg: float,
) -> TransmitProfile:
    """Assign rates and energies to messages of the given degrees.

    ``l_avg`` is the analytic mean of the degree distribution; devices plan
    against r_avg = (K/M) * l_avg rather than the realised graph, which they
    cannot observe.  Raises InfeasibleOperatingPointError unless every
    energy, rate and threshold is positive and finite.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    r_avg = cfg.G * l_avg
    if scheme.variant == "PA":
        profile = pa_powers(degrees, cfg, scheme.mu, l_avg, r_avg)
    else:
        Es = es_from_reference(cfg, l_avg)
        if not math.isfinite(Es):
            raise InfeasibleOperatingPointError(
                f"tilde_Es: the per-replica energy M*tilde_Es/l_avg overflows at M = {cfg.M}"
            )
        n = len(degrees)
        if scheme.variant == "IRSA":
            x = np.full(n, Es / cfg.N0)
        else:  # RS
            x = rs_sinr_target(degrees, Es, cfg.N0, scheme.alpha, scheme.beta, r_avg)
        rates = 0.5 * cfg.L_cu * np.log2(1.0 + x)
        if not rates.min() > 0:  # 1 + x rounds to 1 below x of about 1e-16
            raise InfeasibleOperatingPointError(
                f"rates round to 0 bits at Es/N0 = {Es / cfg.N0:.3g}"
            )
        # Success test is rate <= (L/2)log2(1 + sinr)  <=>  sinr >= x; without
        # the "1 +" the equivalent threshold is 1 + x.  Either way no log
        # roundtrip.
        thresholds = x if scheme.rmax_includes_one else 1.0 + x
        profile = TransmitProfile(
            degrees=degrees,
            energies=np.full(n, Es),
            rates=rates,
            sinr_thresholds=thresholds,
            Es=Es,
            l_avg=l_avg,
            r_avg=r_avg,
        )
    for field_name in ("energies", "rates", "sinr_thresholds"):
        arr = getattr(profile, field_name)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise InfeasibleOperatingPointError(
                f"{field_name} must be strictly positive and finite"
            )
    return profile
