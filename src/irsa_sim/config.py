"""The range of every config field, in one table, and the checks that apply it.

Defaults live on the dataclasses that hold the fields (``SweepSpec``,
``TuningConfig`` and ``CompareConfig`` in ``harness``, ``ChannelConfig`` and
``SchemeConfig`` in ``schemes``); ranges live in ``RANGES``, keyed by field
name, so a field has one range in every type that holds it.  Each type runs
``validate`` once, when it is built.  ``problem`` serves the CLI flags and
the library functions that take one of these values on its own;
``rate_problem`` serves the nominal rate, whose range depends on ``L_cu``
and ``N0``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import fields

from .distributions import DIST_NAMES

# Tuning parameters each scheme takes; its keys are the schemes.
SCHEME_PARAMETERS = {"IRSA": (), "RS": ("alpha", "beta"), "PA": ("mu",)}
SCHEMES = tuple(SCHEME_PARAMETERS)
MU_CRITERIA = ("mean_fraction", "static_reliability")

# Most slots a frame may have, the top of M's range: the tuners' order-free
# decode holds harness.FRAME_GROUP frames side by side, so each per-slot
# array it builds has 8*M values (64 MB of float64 at the bound); the
# shipped configs stay under 10**4.
MAX_SLOTS = 10**6


class ConfigValidationError(ValueError):
    """Carries every validation problem found, each as "field: problem"."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


def _at_least(lo):
    return lambda v: None if v >= lo else f"must be >= {lo}"


def _positive(v) -> str | None:
    return None if v > 0 else "must be positive"


def _slot_count(v) -> str | None:
    return _at_least(1)(v) or (None if v <= MAX_SLOTS else f"must be <= MAX_SLOTS = {MAX_SLOTS}")


def _fraction(v) -> str | None:
    return None if 0 < v <= 1 else "must be in (0, 1]"


def _one_of(choices):
    return lambda v: None if v in choices else f"must be one of {choices}"


RANGES = {
    "K": _at_least(1),
    "M": _slot_count,
    "L_cu": _at_least(1),
    "N0": _positive,
    "tilde_Es": _positive,
    "hat_R": _positive,
    "l_avg": _positive,
    "variant": _one_of(SCHEMES),
    "alpha": _at_least(0),
    "beta": _positive,
    "mu": _at_least(1),
    "dist_name": _one_of(DIST_NAMES),
    "G": _positive,
    "trials": _at_least(1),
    "seed": _at_least(0),
    "tune_trials": _at_least(1),
    "throughput_cap": _positive,
    "mu_resolution": _positive,
    "target_fraction": _fraction,
    "mu_criterion": _one_of(MU_CRITERIA),
    "reliability": _fraction,
    "min_throughput": _positive,
}
# SweepSpec names SchemeConfig's variant "scheme", and ChannelConfig's
# energy and rate by their units; the top of the mu bisection is a mu.
RANGES.update(
    scheme=RANGES["variant"],
    tilde_Es_over_N0=RANGES["tilde_Es"],
    hat_R_bits=RANGES["hat_R"],
    mu_max=RANGES["mu"],
)


def rate_problem(hat_R, L_cu, N0) -> str | None:
    """What is wrong with the nominal rate ``hat_R`` (bits over ``L_cu``
    channel uses at noise ``N0``), or None: its interference-free energy
    N0 * (2**(2*hat_R/L_cu) - 1) must be finite.  A value unset, or out of
    its own range, is left to that range's check."""
    if any(
        value is None or problem(name, value)
        for name, value in (("hat_R", hat_R), ("L_cu", L_cu), ("N0", N0))
    ):
        return None
    try:
        energy = N0 * (2.0 ** (2.0 * hat_R / L_cu) - 1.0)
    except OverflowError:
        energy = math.inf
    if math.isfinite(energy):
        return None
    limit = 0.5 * L_cu * math.log2(sys.float_info.max / N0)
    return (
        f"must be below {limit:.6g} bits at L_cu = {L_cu} and N0 = {N0:g}, "
        "where the energy N0*(2**(2*hat_R/L_cu) - 1) overflows"
    )


def mu_grid_problem(mu_max, mu_resolution) -> str | None:
    """What is wrong with ``mu_resolution`` as the step of the mu grid 1,
    1 + mu_resolution, ... up to ``mu_max``, or None: the step count must be
    below 2**53, so that every step k is an exact float, 1 + k *
    mu_resolution the grid's k-th value, and k an index the tuner can
    bisect.  A ``mu_max`` unset, or out of its own range, is left to that
    check."""
    if mu_max is None or problem("mu_max", mu_max):
        return None
    steps = (mu_max - 1.0) / mu_resolution
    if steps < 2**53:
        return None
    found = "overflows" if math.isinf(steps) else f"= {steps:.6g} is not below 2**53"
    return f"too fine for mu_max = {mu_max:g}: the step count (mu_max - 1) / mu_resolution {found}"


# Fields whose range depends on other fields of the type that holds them;
# each check takes the object and runs once the field's own range holds.
CROSS_CHECKS = {
    "hat_R": lambda obj: rate_problem(obj.hat_R, obj.L_cu, obj.N0),
    "hat_R_bits": lambda obj: rate_problem(obj.hat_R_bits, obj.L_cu, obj.N0),
    "mu_resolution": lambda obj: mu_grid_problem(obj.mu_max, obj.mu_resolution),
}


def problem(name: str, value) -> str | None:
    """What is wrong with ``value`` as the config field ``name``, or None.
    An unset (None) value passes and numbers, integers too, must be finite
    as floats.  A grid (a tuple or list named "<field>_grid") must be
    non-empty, with entries that pass the checks of <field>."""
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        if not value:
            return "must be non-empty"
        entry = name.removesuffix("_grid")
        found = next(filter(None, (problem(entry, v) for v in value)), None)
        return found and f"entries {found}"
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        return "must be finite"
    check = RANGES.get(name)
    return check(value) if check else None


def require(name: str, value) -> None:
    """Raise ConfigValidationError if ``value`` is out of range for ``name``."""
    if found := problem(name, value):
        raise ConfigValidationError([f"{name}: {found}"])


def validate(obj, cross: dict[str, str | None] | None = None) -> None:
    """Raise ConfigValidationError listing every problem of the dataclass
    ``obj``: each field's range and ``CROSS_CHECKS``, then the cross-field
    problems in ``cross`` that are set, as "field: problem"."""
    errors = [
        f"{f.name}: {found}"
        for f in fields(obj)
        if (found := problem(f.name, getattr(obj, f.name)) or (
            f.name in CROSS_CHECKS and CROSS_CHECKS[f.name](obj)
        ))
    ]
    errors += [f"{name}: {found}" for name, found in (cross or {}).items() if found]
    if errors:
        raise ConfigValidationError(errors)
