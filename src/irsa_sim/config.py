"""The range of every config field, in one table, and the checks that apply it.

Defaults live on the dataclasses that hold the fields (``SweepSpec``,
``TuningConfig`` and ``CompareConfig`` in ``harness``, ``ChannelConfig`` and
``SchemeConfig`` in ``schemes``); ranges live in ``RANGES``, keyed by field
name, so a field has one range in every type that holds it.  Each type runs
``validate`` once, when it is built.  ``problem`` serves the CLI flags and
the library functions that take one of these values on its own.
"""

from __future__ import annotations

import math
from dataclasses import fields

from .distributions import DIST_NAMES

# Tuning parameters each scheme takes; its keys are the schemes.
SCHEME_PARAMETERS = {"IRSA": (), "RS": ("alpha", "beta"), "PA": ("mu",)}
SCHEMES = tuple(SCHEME_PARAMETERS)
MU_CRITERIA = ("mean_fraction", "static_reliability")


class ConfigValidationError(ValueError):
    """Carries every validation problem found, each as "field: problem"."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


def _at_least(lo):
    return lambda v: None if v >= lo else f"must be >= {lo}"


def _positive(v) -> str | None:
    return None if v > 0 else "must be positive"


def _fraction(v) -> str | None:
    return None if 0 < v <= 1 else "must be in (0, 1]"


def _one_of(choices):
    return lambda v: None if v in choices else f"must be one of {choices}"


RANGES = {
    "K": _at_least(1),
    "M": _at_least(1),
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


def problem(name: str, value) -> str | None:
    """What is wrong with ``value`` as the config field ``name``, or None.
    An unset (None) value passes and numbers must be finite.  A grid (a
    tuple or list named "<field>_grid") must be non-empty, with entries
    that pass the checks of <field>."""
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        if not value:
            return "must be non-empty"
        entry = name.removesuffix("_grid")
        found = next(filter(None, (problem(entry, v) for v in value)), None)
        return found and f"entries {found}"
    if isinstance(value, float) and not math.isfinite(value):
        return "must be finite"
    check = RANGES.get(name)
    return check(value) if check else None


def require(name: str, value) -> None:
    """Raise ConfigValidationError if ``value`` is out of range for ``name``."""
    if found := problem(name, value):
        raise ConfigValidationError([f"{name}: {found}"])


def validate(obj, cross: dict[str, str | None] | None = None) -> None:
    """Raise ConfigValidationError listing every problem of the dataclass
    ``obj``: each field's range, then the cross-field problems in ``cross``
    that are set, as "field: problem"."""
    errors = [
        f"{f.name}: {found}"
        for f in fields(obj)
        if (found := problem(f.name, getattr(obj, f.name)))
    ]
    errors += [f"{name}: {found}" for name, found in (cross or {}).items() if found]
    if errors:
        raise ConfigValidationError(errors)
