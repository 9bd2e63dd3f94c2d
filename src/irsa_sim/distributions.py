"""Left (repetition) degree distributions and their moments.

A device that draws degree ``d`` repeats its message in ``d`` distinct slots
of the frame.  Probabilities are stored as exact rationals so that the
soliton families normalise exactly; float views are materialised once and
cached for sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

__all__ = [
    "DegreeDistribution",
    "ideal_soliton",
    "modified_soliton",
    "fixed_l3",
    "DIST_NAMES",
    "from_name",
    "parameter_problem",
    "avg_degree",
    "sample_degrees",
]

PROB_SUM_TOL = 1e-9

# Twelve-coefficient repetition profile of Liva's numerically optimised
# distribution; coefficients are exact decimals and sum to 1.
_L3_COEFFS = (
    (2, "0.4977"),
    (3, "0.2207"),
    (4, "0.0381"),
    (5, "0.0756"),
    (6, "0.0398"),
    (7, "0.0009"),
    (8, "0.0088"),
    (9, "0.0068"),
    (11, "0.0030"),
    (14, "0.0429"),
    (15, "0.0081"),
    (16, "0.0576"),
)


@dataclass(frozen=True)
class DegreeDistribution:
    """Probability mass over repetition degrees.

    ``atoms`` holds ``(degree, probability)`` pairs with distinct degrees in
    ascending order, each degree >= 1, and rational probabilities summing to
    one (within ``PROB_SUM_TOL`` when materialised to float).
    """

    name: str
    atoms: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("degree distribution needs at least one atom")
        degrees = [d for d, _ in self.atoms]
        if any(d != int(d) or d < 1 for d in degrees):
            raise ValueError("degrees must be integers >= 1")
        if len(set(degrees)) != len(degrees) or sorted(degrees) != degrees:
            raise ValueError("degrees must be distinct and sorted ascending")
        probs = [p for _, p in self.atoms]
        if any(p < 0 for p in probs):
            raise ValueError("probabilities must be non-negative")
        total = float(sum(probs))
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.array([d for d, _ in self.atoms], dtype=np.int64)

    @cached_property
    def probabilities(self) -> np.ndarray:
        return np.array([float(p) for _, p in self.atoms])

    @cached_property
    def _cdf(self) -> np.ndarray:
        # Cumulative table for inverse-CDF sampling via binary search.
        return np.cumsum(self.probabilities)

    @property
    def max_degree(self) -> int:
        return int(self.atoms[-1][0])


def parameter_problem(name: str, Y) -> str | None:
    """Why ``Y`` (None when absent) cannot parameterise the distribution
    called ``name``, or None when it can: a soliton takes an integer Y >= 2,
    'l3' takes none.  An unknown name is left to the name's own check."""
    if name not in DIST_NAMES:
        return None
    if name == "l3":
        return None if Y is None else "'l3' takes no parameter"
    if Y is None:
        return f"required for {name!r}"
    if isinstance(Y, (int, float, np.integer)) and float(Y).is_integer() and Y >= 2:
        return None
    return "must be an integer >= 2"


def _soliton_parameter(name: str, Y) -> int:
    if problem := parameter_problem(name, Y):
        raise ValueError(f"{name} parameter Y {problem}, got {Y!r}")
    return int(Y)


def ideal_soliton(Y: int) -> DegreeDistribution:
    """Ideal soliton with parameter Y: mass 1/Y at degree 1, 1/(i(i-1)) above.

    The telescoping sum makes normalisation exact.
    """
    Y = _soliton_parameter("ideal_soliton", Y)
    atoms = [(1, Fraction(1, Y))]
    atoms += [(i, Fraction(1, i * (i - 1))) for i in range(2, Y + 1)]
    return DegreeDistribution(f"ideal_soliton_Y{Y}", tuple(atoms))


def modified_soliton(Y: int) -> DegreeDistribution:
    """Soliton variant without the degree-1 atom.

    Mass 1/(i(i-1)) + 1/(Y(Y-1)) on degrees 2..Y; the removed degree-1 mass
    1/Y is spread uniformly over the Y-1 remaining atoms, so the total is
    exactly one.
    """
    Y = _soliton_parameter("modified_soliton", Y)
    bump = Fraction(1, Y * (Y - 1))
    atoms = tuple((i, Fraction(1, i * (i - 1)) + bump) for i in range(2, Y + 1))
    return DegreeDistribution(f"modified_soliton_Y{Y}", atoms)


def fixed_l3() -> DegreeDistribution:
    """The fixed twelve-atom repetition profile on degrees {2..9, 11, 14..16}."""
    atoms = tuple((d, Fraction(c)) for d, c in _L3_COEFFS)
    return DegreeDistribution("l3", atoms)


# Config names of the distributions.
_SOLITONS = {"ideal_soliton": ideal_soliton, "modified_soliton": modified_soliton}
DIST_NAMES = (*_SOLITONS, "l3")


def from_name(name: str, Y: int | None = None) -> DegreeDistribution:
    """Build a distribution from its config name (one of ``DIST_NAMES``);
    the solitons require parameter Y."""
    if name not in DIST_NAMES:
        raise ValueError(f"unknown distribution name {name!r}")
    if problem := parameter_problem(name, Y):
        raise ValueError(f"distribution parameter Y: {problem}")
    return fixed_l3() if name == "l3" else _SOLITONS[name](Y)


def avg_degree(dist: DegreeDistribution) -> float:
    """Mean repetition degree: the degree polynomial's derivative at one."""
    return float(sum(Fraction(d) * p for d, p in dist.atoms))


def sample_degrees(dist: DegreeDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """Vectorised inverse-CDF sampling of n degrees."""
    idx = np.searchsorted(dist._cdf, rng.random(n), side="right")
    np.minimum(idx, len(dist.atoms) - 1, out=idx)
    return dist.degrees[idx]
