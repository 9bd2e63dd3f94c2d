"""Monte Carlo sweeps over offered load, parameter tuning, and the
rate-selection vs power-adaptation comparison.

Reproducibility: the random stream of a trial is a fixed, documented
function of (master seed, G index, trial index) -- a chained splitmix64
finalizer -- so sweeps are bit-identical regardless of execution schedule.
Tuners draw their trial frames from a master seed derived with a distinct
purpose tag, so parameter selection never reuses the evaluation streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .config import (
    MAX_SLOTS,
    SCHEME_PARAMETERS,
    SCHEMES,
    ConfigValidationError,
    problem,
    rate_problem,
    require,
    validate,
)
from .decoder import decode_frame, decoded_closure, static_passes
from .distributions import DegreeDistribution, avg_degree, from_name, parameter_problem
from .frame_graph import FrameGraph, build_frame, stack_frames
from .metrics import (
    TrialMetrics,
    gamma_irsa_min,
    reference_capacity,
    to_db,
    trial_metrics,
)
from .schemes import (
    ChannelConfig,
    InfeasibleOperatingPointError,
    RsGrid,
    SchemeConfig,
    TransmitProfile,
    TuningParameterError,
    build_profile,
    hat_es_from_rate,
    rs_grid,
)

__all__ = [
    "SweepSpec",
    "TuningConfig",
    "CompareConfig",
    "SweepRecord",
    "SweepPoint",
    "RsTuning",
    "MuTuning",
    "CompareRow",
    "mix64",
    "trial_rng",
    "make_point",
    "run_point",
    "run_sweep",
    "tune_rs",
    "tune_mu",
    "run_tuned_sweep",
    "compare_rs_pa",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Purpose tags for derived master seeds (tuning must not reuse eval streams).
PURPOSE_RS_TUNE = 1
PURPOSE_MU_TUNE = 2

# Feasibility margin of the rate-selection tuner: mean throughput must reach
# this fraction of the per-point target.
RS_THROUGHPUT_FACTOR = 0.97

# Frames _stacks draws side by side as one frame, the unit the order-free
# decode takes: decoded_closure's working set grows with the stack, so a
# fixed size keeps it in cache and bounds it however many frames a point
# has.  The tuners hold a point's tuning stacks; the comparison's
# evaluations draw one stack at a time.
FRAME_GROUP = 8

# Most edges a grid point's frame may draw, K times the distribution's max
# degree: a FRAME_GROUP stack's per-edge arrays have up to 8*MAX_EDGES values
# each (64 MB of int64 at the bound); the shipped configs stay under 10**4.
# The tuners hold their frames: at most as many edges as one such stack.
MAX_EDGES = 10**6

# Largest soliton parameter Y a grid point may build, for a literal Y and
# for "Y": "M" alike: resolving the point builds Y exact atoms and sums its
# mean degree in Fractions, a cost that grows about quadratically in Y
# (0.2 s at the bound, minutes near MAX_SLOTS).
MAX_SOLITON_Y = 10**4

# Relative widening of the RS tuner's bound on a mean efficiency: see
# tune_rs.
ETA_BOUND_SLACK = 1e-9


def mix64(*parts: int) -> int:
    """Chained splitmix64 finalizer over the integer parts (64-bit)."""
    h = 0
    for p in parts:
        h = (h + _GAMMA + (int(p) & _MASK64)) & _MASK64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


def trial_rng(master_seed: int, g_index: int, trial: int) -> np.random.Generator:
    """Random stream of one trial: PCG64 seeded with mix64(seed, g, trial)."""
    return np.random.default_rng(mix64(master_seed, g_index, trial))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a scheme, a degree distribution, and a G grid.

    ``dist_Y`` may be the string "M" to re-parameterise the soliton with the
    slot count at every grid point (the distributions' default usage here).
    M is round(K/G); K stays fixed along the grid.  A frame keys its edges
    by message * M + slot in int64, so K*M must stay below 2**63.
    """

    scheme: str
    dist_name: str
    K: int
    G_grid: tuple[float, ...]
    dist_Y: int | str | None = None
    trials: int = 1000
    seed: int = 0
    L_cu: int = ChannelConfig.L_cu
    N0: float = ChannelConfig.N0
    tilde_Es_over_N0: float | None = None
    hat_R_bits: float | None = None
    alpha: float | None = None
    beta: float | None = None
    mu: float | None = None
    rmax_includes_one: bool = SchemeConfig.rmax_includes_one

    def __post_init__(self) -> None:
        energy = "hat_R_bits" if self.scheme == "PA" else "tilde_Es_over_N0"
        needs_energy = self.scheme in SCHEMES and getattr(self, energy) is None
        # "M" stands for each grid point's slot count, checked when it runs.
        tracks_M = self.dist_Y == "M" and self.dist_name != "l3"
        validate(self, {
            energy: f"required for {self.scheme}" if needs_energy else None,
            "dist_Y": None if tracks_M else parameter_problem(self.dist_name, self.dist_Y),
        })

    @property
    def distribution_label(self) -> str:
        if self.dist_name == "l3":
            return "l3"
        return f"{self.dist_name}_Y{self.dist_Y}"

    def slots_for(self, G: float) -> int | None:
        """M at load G; None where K/G is not finite or K*M reaches 2**63."""
        M = self.K / G
        if not math.isfinite(M):
            return None
        M = int(round(M))
        return M if self.K * M < 2**63 else None

    def dist_for(self, M: int) -> DegreeDistribution:
        """The degree distribution at M slots.  Raises ValueError, before
        building any atom, where a soliton's Y is above MAX_SOLITON_Y."""
        Y = M if self.dist_Y == "M" else self.dist_Y
        if Y is not None and Y > MAX_SOLITON_Y:
            raise ValueError(
                f"{self.dist_name} Y={Y} is above the bound MAX_SOLITON_Y = {MAX_SOLITON_Y}"
            )
        return from_name(self.dist_name, Y)

    def channel_for(self, M: int) -> ChannelConfig:
        return ChannelConfig(
            K=self.K,
            M=M,
            L_cu=self.L_cu,
            N0=self.N0,
            tilde_Es=None
            if self.tilde_Es_over_N0 is None
            else self.tilde_Es_over_N0 * self.N0,
            hat_R=self.hat_R_bits,
        )

    def scheme_config(self, **params) -> SchemeConfig:
        """The spec's scheme, with the parameters in ``params`` (alpha, beta,
        mu) in place of the spec's own; SchemeConfig rejects a parameter the
        scheme does not take."""
        return SchemeConfig(
            self.scheme,
            rmax_includes_one=self.rmax_includes_one,
            **{name: getattr(self, name) for name in SCHEME_PARAMETERS[self.scheme]} | params,
        )


@dataclass(frozen=True)
class TuningConfig:
    """Tuner settings: with the spec, the tuners' and the comparison's only
    input, checked when built.  The mu grid is 1, 1 + mu_resolution, ...
    up to the last value not above mu_max, up to float rounding."""

    alpha_grid: tuple[float, ...] = tuple(float(x) for x in np.geomspace(0.05, 2.0, 8))
    beta_grid: tuple[float, ...] = tuple(float(x) for x in np.geomspace(0.5, 2.0, 5))
    tune_trials: int = 100
    throughput_cap: float | None = None
    mu_max: float = 10.0
    mu_resolution: float = 0.01
    target_fraction: float = 0.9
    mu_criterion: str = "mean_fraction"
    reliability: float = 0.99

    def __post_init__(self) -> None:
        validate(self)


@dataclass(frozen=True)
class CompareConfig:
    """Energy grid and throughput floor of the RS-vs-PA comparison."""

    es_over_N0_db_grid: tuple[float, ...]
    min_throughput: float = 0.78

    def __post_init__(self) -> None:
        validate(self)


@dataclass(frozen=True)
class SweepPoint:
    """The frame side of one grid point: its load, channel, degree
    distribution and streams.  The scheme run at it is passed alongside;
    its profile on the distribution's support is ``_table``, read at
    ``index``."""

    g_index: int
    G: float
    cfg: ChannelConfig
    dist: DegreeDistribution
    l_avg: float
    seed: int

    def index(self, graph: FrameGraph) -> np.ndarray:
        """Each message's place in ``dist.degrees``, the ascending support
        its degree was drawn from."""
        return np.searchsorted(self.dist.degrees, graph.degrees)


@dataclass
class SweepRecord:
    """Aggregates of one grid point (the unit of one CSV row)."""

    scheme: str
    distribution: str
    K: int
    M: int
    G: float
    trials: int
    seed: int
    alpha: float | None = None
    beta: float | None = None
    mu: float | None = None
    T_mean: float | None = None
    T_se: float | None = None
    eta_mean: float | None = None
    eta_se: float | None = None
    eta_max_mean: float | None = None
    gamma_mean: float | None = None
    gamma_se: float | None = None
    energy_per_user_db: float | None = None
    # Sidecar / plot-data extras, not part of the CSV schema.
    l_avg: float | None = None
    gamma_irsa_db: float | None = None
    gamma_min_db: float | None = None
    note: str = ""


class RunningStats:
    """Mean / standard-error accumulator.  The mean is the plain sum, added
    in order, over n.  The spread is a centred sum of squared deviations
    (Welford's update), so a constant series has a standard error of exactly
    zero."""

    __slots__ = ("n", "total", "centre", "m2")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.centre = 0.0
        self.m2 = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        self.total += x
        delta = x - self.centre
        self.centre += delta / self.n
        self.m2 += delta * (x - self.centre)

    @property
    def mean(self) -> float | None:
        return self.total / self.n if self.n else None

    @property
    def se(self) -> float | None:
        """Standard error of the mean (sample std / sqrt(n)); undefined for
        fewer than two observations."""
        if self.n < 2:
            return None
        return math.sqrt(max(self.m2, 0.0) / (self.n - 1) / self.n)


def make_point(spec: SweepSpec, g_index: int) -> SweepPoint:
    """Resolve one grid point.  Raises InfeasibleOperatingPointError when G
    leaves fewer slots than the degree distribution needs, or more than
    MAX_SLOTS, or than K*M < 2**63 allows, when the soliton's Y is above
    MAX_SOLITON_Y, or when a frame could draw more than MAX_EDGES edges;
    all before any frame is drawn."""
    G = spec.G_grid[g_index]
    M = spec.slots_for(G)
    if M is None:
        raise InfeasibleOperatingPointError(
            f"G={G} gives K/G = {spec.K / G:.3g} slots for K={spec.K}; K*M must stay below 2**63"
        )
    if M < 1:
        raise InfeasibleOperatingPointError(f"G={G} leaves M={M} slots for K={spec.K}")
    if M > MAX_SLOTS:
        raise InfeasibleOperatingPointError(
            f"G={G} gives M={M} slots for K={spec.K}, above the bound MAX_SLOTS = {MAX_SLOTS}"
        )
    try:
        dist = spec.dist_for(M)
    except ValueError as err:
        raise InfeasibleOperatingPointError(f"no distribution at M={M}: {err}") from err
    if dist.max_degree > M:
        raise InfeasibleOperatingPointError(
            f"max degree {dist.max_degree} exceeds M={M} at G={G}"
        )
    if spec.K * dist.max_degree > MAX_EDGES:
        raise InfeasibleOperatingPointError(
            f"K={spec.K} at max degree {dist.max_degree} draws up to "
            f"{spec.K * dist.max_degree} edges a frame, above the bound MAX_EDGES = {MAX_EDGES}"
        )
    return SweepPoint(
        g_index=g_index,
        G=G,
        cfg=spec.channel_for(M),
        dist=dist,
        l_avg=avg_degree(dist),
        seed=spec.seed,
    )


def _frame(point: SweepPoint, seed: int, trial: int) -> FrameGraph:
    """The frame of one trial at the point, drawn from ``seed``'s streams.
    Tuners pass a purpose-tagged seed and evaluate every candidate on the
    same frames."""
    rng = trial_rng(seed, point.g_index, trial)
    return build_frame(point.cfg.K, point.cfg.M, point.dist, rng)


def _stacks(point: SweepPoint, seed: int, trials: int) -> Iterator[FrameGraph]:
    """The frames of trials 0 .. trials-1 at the point, drawn from
    ``seed``'s streams and yielded FRAME_GROUP side by side at a time
    (``stack_frames``), the last stack holding the rest: the one input of
    the order-free decode."""
    for first in range(0, trials, FRAME_GROUP):
        group = range(first, min(first + FRAME_GROUP, trials))
        yield stack_frames([_frame(point, seed, t) for t in group])


def _held_stacks(point: SweepPoint, seed: int, trials: int) -> list[FrameGraph]:
    """The stacks of ``_stacks``, all held at once, as the tuners hold
    their tuning frames.  Raises InfeasibleOperatingPointError, before any
    draw, where they could hold more edges than one FRAME_GROUP stack at
    MAX_EDGES: trials * K * max degree above FRAME_GROUP * MAX_EDGES."""
    edges = trials * point.cfg.K * point.dist.max_degree
    if edges > FRAME_GROUP * MAX_EDGES:
        raise InfeasibleOperatingPointError(
            f"tuning.tune_trials = {trials} frames of K={point.cfg.K} at max degree "
            f"{point.dist.max_degree} hold up to {edges} edges, above the bound "
            f"FRAME_GROUP * MAX_EDGES = {FRAME_GROUP * MAX_EDGES}"
        )
    return list(_stacks(point, seed, trials))


def _table(point: SweepPoint, scheme: SchemeConfig) -> TransmitProfile:
    """The scheme's profile on the point's degree support, shared by every
    frame.  Every scheme assigns energies, rates and thresholds by degree
    alone, so a frame's profile is this one read at ``point.index(graph)``,
    element for element the profile built on the frame.  A rate that
    rounds to 0 bits at any degree of the support makes the point
    infeasible, whichever degrees its frames draw."""
    return build_profile(point.dist.degrees, point.cfg, scheme, point.l_avg)


def _decoded_sets(
    point: SweepPoint, stacks: list[FrameGraph], table: TransmitProfile,
    test: Callable[..., np.ndarray] | None = None,
) -> np.ndarray:
    """The order-free ``test`` of the profile ``table`` on each frame of
    ``stacks`` (from ``_stacks``), a mask of shape (frames, K): the one
    evaluation of candidates on shared frames, which every tuner and the
    comparison use.  ``test`` is ``decoded_closure`` (the default, looked
    up when called), whose mask is the decoded set, or ``static_passes``,
    whose mask is the set that passes before any cancellation.  Raises
    InfeasibleOperatingPointError where a slot's interference, or it plus
    N0, overflows."""
    test = test or decoded_closure
    masks = []
    for stack in stacks:
        index = point.index(stack)
        masks.append(
            test(stack, table.energies[index], table.sinr_thresholds[index], point.cfg.N0)
        )
    return np.concatenate(masks).reshape(-1, point.cfg.K)


def _first_reaching(
    keys: Sequence[int], stacks: list[FrameGraph],
    outcomes: Callable[[int, list[FrameGraph]], np.ndarray],
    reaches: Callable[[np.ndarray], bool],
) -> tuple[int | None, np.ndarray]:
    """Every tuner's one search: the first of ``keys`` whose outcomes reach
    the target, with them; None, with the outcomes at the last key, where
    none does.  ``outcomes(key, which)`` gives one outcome per frame of the
    ``which`` stacks (``_stacks``); ``reaches`` tells whether the outcomes
    of every frame of ``stacks`` reach the target.  No frame's outcome may
    fall along ``keys``, nor ``reaches`` turn false as outcomes rise, so
    the keys that reach form a tail.  The search evaluates the first key,
    then the last, then bisects, keeping each frame's outcome at both ends
    of its bracket; at each mid it evaluates again only the stacks holding
    a frame whose outcome differs between the ends, since a frame with one
    outcome at both has it at every key between."""
    lo, hi = 0, len(keys) - 1
    out_lo = outcomes(keys[lo], stacks)
    if reaches(out_lo):
        return keys[lo], out_lo
    out_hi = out_lo if hi == lo else outcomes(keys[hi], stacks)
    if not reaches(out_hi):
        return None, out_hi
    stack_of = np.arange(len(out_lo)) // FRAME_GROUP  # each frame's stack
    while hi - lo > 1:
        mid = (lo + hi) // 2
        reopen = np.zeros(len(stacks), dtype=bool)
        reopen[stack_of[out_lo != out_hi]] = True
        out_mid = out_lo.copy()
        out_mid[reopen[stack_of]] = outcomes(keys[mid], [s for s, r in zip(stacks, reopen) if r])
        if reaches(out_mid):
            hi, out_hi = mid, out_mid
        else:
            lo, out_lo = mid, out_mid
    return keys[hi], out_hi


def _check_measures(profile: TransmitProfile, cfg: ChannelConfig) -> None:
    """Raise InfeasibleOperatingPointError unless a frame's measures stay in
    float range: K*max(l_i*E_i)/N0 bounds the energy the mean per-device
    energy sums, and C_ref divides the efficiencies."""
    with np.errstate(over="ignore"):  # an overflow is the finding, not a warning
        per_user = float((profile.degrees * profile.energies).max())
    if not math.isfinite(cfg.K * per_user / cfg.N0):
        raise InfeasibleOperatingPointError("the frame energy K*l_i*E_i/N0 overflows")
    c = reference_capacity(profile, cfg)
    if not 0.0 < c < math.inf:
        raise InfeasibleOperatingPointError(f"C_ref = {c:g} is not positive and finite")


def run_point(
    point: SweepPoint, scheme: SchemeConfig, trials: int
) -> dict[str, RunningStats]:
    """Statistics of each TrialMetrics field over trials 0 .. trials-1 of
    ``scheme`` at the point: each frame drawn from the point's streams,
    profiled by the scheme's degree table, decoded and measured.
    Deterministic in (point.seed, point.g_index, trial)."""
    table = _table(point, scheme)
    _check_measures(table, point.cfg)
    stats = {f.name: RunningStats() for f in fields(TrialMetrics)}
    for t in range(trials):
        graph = _frame(point, point.seed, t)
        profile = table.take(point.index(graph))
        result = decode_frame(graph, profile, scheme, point.cfg)
        metrics = trial_metrics(result, profile, point.cfg)
        for name, acc in stats.items():
            acc.add(getattr(metrics, name))
    return stats


def _base_record(spec: SweepSpec, g_index: int, scheme: SchemeConfig | None) -> SweepRecord:
    """A grid point's row without measures; ``scheme`` gives its parameters,
    none where no scheme was chosen."""
    G = spec.G_grid[g_index]
    params = {} if scheme is None else dict(alpha=scheme.alpha, beta=scheme.beta, mu=scheme.mu)
    return SweepRecord(
        scheme=spec.scheme,
        distribution=spec.distribution_label,
        K=spec.K,
        M=spec.slots_for(G),
        G=G,
        trials=spec.trials,
        seed=spec.seed,
        **params,
    )


def _evaluate(spec: SweepSpec, g_index: int, scheme: SchemeConfig) -> SweepRecord:
    """The record of ``scheme`` at one grid point, on the sweep's own
    streams; an infeasible point is flagged in ``note`` and left empty
    rather than aborting the sweep."""
    rec = _base_record(spec, g_index, scheme)
    try:
        point = make_point(spec, g_index)
        stats = run_point(point, scheme, spec.trials)
    except (TuningParameterError, InfeasibleOperatingPointError) as err:
        rec.note = f"infeasible: {err}"
        return rec
    rec.T_mean, rec.T_se = stats["T"].mean, stats["T"].se
    rec.eta_mean, rec.eta_se = stats["eta"].mean, stats["eta"].se
    rec.eta_max_mean = stats["eta_max"].mean
    rec.gamma_mean, rec.gamma_se = stats["gamma"].mean, stats["gamma"].se
    rec.energy_per_user_db = stats["energy_per_user_db"].mean
    rec.l_avg = point.l_avg
    # The reference levels of power adaptation's energy, at its nominal rate.
    if scheme.variant == "PA":
        hat_es = hat_es_from_rate(point.cfg.hat_R, point.cfg.L_cu, point.cfg.N0)
        g_irsa, g_min = gamma_irsa_min(hat_es, point.cfg.N0, point.l_avg)
        rec.gamma_irsa_db = to_db(g_irsa)
        rec.gamma_min_db = to_db(g_min)
    return rec


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """One record per grid point, the spec's scheme at each."""
    scheme = spec.scheme_config()
    return [_evaluate(spec, g_index, scheme) for g_index in range(len(spec.G_grid))]


# ---------------------------------------------------------------------------
# Rate-selection tuning
# ---------------------------------------------------------------------------


@dataclass
class RsTuning:
    """Chosen (alpha, beta) of one grid point, with tuning-run diagnostics."""

    G: float
    alpha: float | None
    beta: float | None
    feasible: bool
    T_mean: float | None = None
    eta_mean: float | None = None
    target: float | None = None
    note: str = ""


def _rs_pairs(
    spec: SweepSpec, g_index: int, tuning: TuningConfig
) -> tuple[SweepPoint, RsGrid, list[FrameGraph]] | None:
    """The RS tuners' candidates at one grid point: the point, the rate
    selection table of ``tuning``'s grids on its degree support (``rs_grid``:
    one row per admissible pair, alpha-major) and the PURPOSE_RS_TUNE stacks
    (``_held_stacks``); None when no pair is admissible.
    InfeasibleOperatingPointError when a pair's row fails, the first in
    order."""
    point = make_point(spec, g_index)
    try:
        # Rate selection whatever scheme the spec names.
        grid = rs_grid(
            point.dist.degrees, point.cfg, tuning.alpha_grid, tuning.beta_grid, point.l_avg,
            spec.rmax_includes_one,
        )
    except TuningParameterError:
        return None
    stacks = _held_stacks(point, mix64(spec.seed, PURPOSE_RS_TUNE), tuning.tune_trials)
    return point, grid, stacks


def _rs_search(
    point: SweepPoint, grid: RsGrid, stacks: list[FrameGraph], floor: float
) -> list[int]:
    """The rows of ``grid`` whose decoded total over ``stacks`` holds
    ``floor`` exactly, int(total) / (frames * M) >= floor (a mean of
    per-frame ratios can round below it), by descending mean rate over
    devices, ties in alpha-major order.  RS pairs spend one energy, so a row
    whose thresholds are all at most the previous one's decodes a superset
    on every frame (``decoder``); the order is cut into chains wherever that
    fails, and on each chain ``_first_reaching`` finds the feasible tail.
    The energies alone decide whether a slot's interference overflows,
    whichever pair is decoded first."""
    means = np.array([math.fsum(point.dist.probabilities * rates) for rates in grid.rates])
    order = np.argsort(-means, kind="stable")
    thresholds = grid.sinr_thresholds[order]
    dominated = (thresholds[1:] <= thresholds[:-1]).all(axis=1)
    feasible: list[int] = []
    for chain in np.split(order, np.flatnonzero(~dominated) + 1):
        chain = chain.tolist()
        first, _ = _first_reaching(
            chain, stacks,
            lambda i, which: _decoded_sets(point, which, grid.profile(i)).sum(axis=1),
            lambda counts: int(counts.sum()) / (counts.size * point.cfg.M) >= floor,
        )
        if first is not None:
            feasible += chain[chain.index(first):]
    return feasible


def tune_rs(spec: SweepSpec, g_index: int, tuning: TuningConfig) -> RsTuning:
    """Grid-search (alpha, beta) over ``tuning``'s grids at one grid point.

    Feasible candidates keep throughput at or above the point's target,
    RS_THROUGHPUT_FACTOR * min(G, throughput_cap) (``_rs_search``); among
    them the pair with the highest mean efficiency wins, ties broken by
    larger throughput, then smaller alpha, then the earlier pair in
    alpha-major order.  Pairs whose estimated-interference denominator is
    non-positive are rejected up front (``_rs_pairs``).

    Branch and bound over the feasible pairs: a pair's mean eta is at most
    its bound, its rate table summed over the tuning frames' degree counts
    over tune_trials * C_ref, widened by ETA_BOUND_SLACK beyond the float
    error of both sums, about (K + tune_trials) * 2**-53 relative.  Visited
    by descending bound (mean T and eta by ``_closure_means``), the search
    stops at the first bound strictly below the best mean eta, so only the
    pairs that can still win are decoded."""
    G = spec.G_grid[g_index]
    cap = tuning.throughput_cap
    target = RS_THROUGHPUT_FACTOR * (G if cap is None else min(G, cap))
    flagged = lambda note: RsTuning(G, None, None, False, target=target, note=note)
    try:
        pairs = _rs_pairs(spec, g_index, tuning)
        if pairs is None:
            return flagged("no admissible (alpha, beta) in the grids")
        point, grid, stacks = pairs
        # T and eta are trial_metrics' expressions, added in frame order.
        # RS spends one common energy, so C_ref depends on the grid point
        # alone.
        c_ref = reference_capacity(grid.profile(0), point.cfg)
        # The bounds divide by C_ref; a NaN one makes them NaN, skipping none.
        if c_ref == 0:
            raise InfeasibleOperatingPointError("C_ref = 0 is not positive and finite")
        feasible = _rs_search(point, grid, stacks, target)
        if not feasible:
            return flagged(f"no candidate reached mean T >= {target:.4g}")
        index = np.concatenate([point.index(stack) for stack in stacks])
        counts = np.bincount(index, minlength=len(point.dist.degrees))
        scale = (1.0 + ETA_BOUND_SLACK) / (tuning.tune_trials * c_ref)
        bounds = {i: math.fsum(grid.rates[i] * counts) * scale for i in feasible}
        best = None  # (eta, T, -alpha, -i) of the best feasible pair
        for i in sorted(feasible, key=lambda i: -bounds[i]):
            if best is not None and bounds[i] < best[0]:
                break
            rates = grid.rates[i]
            T, eta = _closure_means(
                point, stacks, grid.profile(i),
                lambda mask, index: float(rates[index][mask].sum()) / c_ref,
            )
            key = (eta, T, -grid.pairs[i][0], -i)
            if best is None or key > best:
                best = key
    except InfeasibleOperatingPointError as err:
        return flagged(str(err))
    eta, T, _, i = best
    alpha, beta = grid.pairs[-i]
    return RsTuning(G, alpha, beta, True, T_mean=T, eta_mean=eta, target=target)


# ---------------------------------------------------------------------------
# Power-adaptation tuning
# ---------------------------------------------------------------------------


@dataclass
class MuTuning:
    """Chosen power margin of one grid point."""

    G: float
    mu: float | None
    feasible: bool
    decoded_fraction: float | None = None
    criterion: str = TuningConfig.mu_criterion
    note: str = ""


def tune_mu(
    spec: SweepSpec, g_index: int, tuning: TuningConfig, criterion: str, target: float
) -> MuTuning:
    """Smallest mu on the grid 1, 1 + mu_resolution, ... not above
    ``tuning``'s mu_max (up to float rounding) whose ``criterion`` measure
    over tune_trials frames reaches ``target``.

    ``mean_fraction``: mean decoded fraction of the full receiver.
    ``static_reliability``: fraction of frames with every message decodable
    from the initial state alone, before any cancellation -- a link-budget
    margin rule, re-derived from the published power-adaptation energy
    curves, which a receiver relying on SIC cascades does not need but a
    robust deployment would provision.

    The criterion and its target are arguments, not ``tuning``'s fields:
    the tuned sweep passes tuning.mu_criterion with its target_fraction or
    reliability, while the comparison always searches on ``mean_fraction``
    at min_throughput / G, a target that may exceed 1 (no mu reaches it)
    and so is no valid target_fraction.

    Raising every energy never breaks a threshold test, so a frame's decoded
    count (``decoded_closure``) only grows with mu, and a statically
    decodable frame (``static_passes``) stays so: ``_first_reaching``
    searches the grid from mu = 1 up over the held tuning stacks.
    """
    require("mu_criterion", criterion)
    G = spec.G_grid[g_index]
    mu_at = lambda k: 1.0 + k * tuning.mu_resolution
    # The top of the grid: the largest k with mu_at(k) <= mu_max, where a k
    # above it by float rounding alone, under 1e-9 of a step, still counts
    # (1 + 7 * 0.1 > 1.7).
    n_steps = math.floor((tuning.mu_max - 1.0) / tuning.mu_resolution)
    if mu_at(n_steps + 1) - tuning.mu_max <= 1e-9 * tuning.mu_resolution:
        n_steps += 1
    top = spec.scheme_config(mu=mu_at(n_steps))  # raises for a scheme that takes no mu
    # Each frame's outcome, reduced from its mask, and the measure's scale.
    if criterion == "mean_fraction":
        test, outcome, scale = decoded_closure, np.sum, tuning.tune_trials * spec.K
    else:
        test, outcome, scale = static_passes, np.all, tuning.tune_trials
    try:
        base = make_point(spec, g_index)
        # Energies rise with mu: the table at the top of the grid is the one
        # to check, and a failure there is the point's note.
        _table(base, top)
        stacks = _held_stacks(base, mix64(spec.seed, PURPOSE_MU_TUNE), tuning.tune_trials)
        table = lambda k: _table(base, spec.scheme_config(mu=mu_at(k)))
        k, out = _first_reaching(
            range(n_steps + 1), stacks,
            lambda k, which: outcome(_decoded_sets(base, which, table(k), test), axis=1),
            lambda out: int(out.sum()) / scale >= target,
        )
    except InfeasibleOperatingPointError as err:
        return MuTuning(G, None, False, criterion=criterion, note=str(err))
    fraction = int(out.sum()) / scale
    if k is None:
        note = f"no mu <= {tuning.mu_max} reaches {criterion} target {target}"
        return MuTuning(G, None, False, decoded_fraction=fraction, criterion=criterion, note=note)
    return MuTuning(G, mu_at(k), True, decoded_fraction=fraction, criterion=criterion)


def run_tuned_sweep(
    spec: SweepSpec, tuning: TuningConfig
) -> tuple[list[SweepRecord], list[RsTuning] | list[MuTuning]]:
    """One grid point at a time, tune the spec's scheme -- (alpha, beta)
    for RS, mu under tuning.mu_criterion for PA -- then evaluate the choice
    on the sweep's own (unsalted) streams; a point whose tuner found none is
    flagged."""
    criterion = tuning.mu_criterion
    target = tuning.target_fraction if criterion == "mean_fraction" else tuning.reliability
    records, tunings = [], []
    for g_index in range(len(spec.G_grid)):
        if spec.scheme == "RS":
            chosen = tune_rs(spec, g_index, tuning)
        else:
            chosen = tune_mu(spec, g_index, tuning, criterion, target)
        if chosen.feasible:
            params = {name: getattr(chosen, name) for name in SCHEME_PARAMETERS[spec.scheme]}
            rec = _evaluate(spec, g_index, spec.scheme_config(**params))
        else:
            rec = _base_record(spec, g_index, None)
            rec.note = f"flagged: {chosen.note}"
        records.append(rec)
        tunings.append(chosen)
    return records, tunings


# ---------------------------------------------------------------------------
# Rate selection vs power adaptation at fixed load
# ---------------------------------------------------------------------------


@dataclass
class CompareRow:
    """One line of the comparison table at fixed G."""

    scheme: str
    es_over_N0_db: float | None
    rate_bits: float | None
    energy_per_user_db: float | None
    T_mean: float | None
    alpha: float | None = None
    beta: float | None = None
    mu: float | None = None
    note: str = ""


def compare_rs_pa(
    spec: SweepSpec, tuning: TuningConfig, compare: CompareConfig
) -> list[CompareRow]:
    """At fixed G (the spec's single grid point), the rows of each energy
    of ``compare``'s grid in turn (``_compare_rows``)."""
    if len(spec.G_grid) != 1:
        raise ConfigValidationError(["G_grid: the comparison runs at a single G"])
    base = make_point(spec, 0)
    return [
        row
        for es_index, es_db in enumerate(compare.es_over_N0_db_grid)
        for row in _compare_rows(spec, tuning, compare, base, es_index, es_db)
    ]


def _compare_rows(
    spec: SweepSpec, tuning: TuningConfig, compare: CompareConfig, base: SweepPoint,
    es_index: int, es_db: float,
) -> list[CompareRow]:
    """The comparison at one energy, the ``es_index``-th of the grid: feed
    it to rate selection and find the highest mean rate over ``tuning``'s
    (alpha, beta) grids keeping throughput at or above min_throughput; hand
    that rate to power adaptation as its nominal rate and find the least
    energy reaching the same throughput (tune_mu on ``mean_fraction`` at
    min_throughput / G, whatever tuning.mu_criterion says); add the
    baseline's closed-form energy at the same rate.  An energy the RS search
    serves no rate at gives its flagged RS row alone; one whose PA tuning or
    evaluation fails gives a flagged PA row."""
    try:
        es = 10.0 ** (es_db / 10.0) * spec.N0
    except OverflowError:
        es = math.inf
    # Feed the energy through the equal-total-energy relation so the
    # profile machinery sees a consistent reference level.
    user_es = base.l_avg * es / spec.N0
    tilde_es = base.l_avg * es / (base.cfg.M * spec.N0)
    # An entry far from 0 dB overflows or underflows in linear terms.
    if found := problem("tilde_Es", user_es) or problem("tilde_Es", tilde_es):
        note = f"es_over_N0_db: {found} in linear terms"
        return [CompareRow("RS", es_db, None, None, None, note=note)]
    # Each energy runs on its own streams, with the tuners' parameters.
    point_spec = replace(spec, seed=mix64(spec.seed, es_index), alpha=None, beta=None, mu=None)
    rs_spec = replace(point_spec, scheme="RS", tilde_Es_over_N0=tilde_es, hat_R_bits=None)
    energy_rs_db = to_db(user_es)
    try:
        chosen = _tune_rs_for_rate(rs_spec, tuning, compare.min_throughput)
    except InfeasibleOperatingPointError as err:
        return [CompareRow("RS", es_db, None, energy_rs_db, None, note=f"infeasible: {err}")]
    if chosen is None:
        note = "no (alpha, beta) reached the throughput floor"
        return [CompareRow("RS", es_db, None, energy_rs_db, None, note=note)]
    scheme, t_mean, mean_rate = chosen
    rs = CompareRow(
        "RS", es_db, mean_rate, energy_rs_db, t_mean, alpha=scheme.alpha, beta=scheme.beta
    )
    flagged = lambda s, note: CompareRow(s, None, mean_rate, None, None, note=note)
    if found := rate_problem(mean_rate, spec.L_cu, spec.N0):
        return [rs, flagged("IRSA", f"rate_bits: {found}"), flagged("PA", f"rate_bits: {found}")]
    # Baseline at the same rate: energy from the rate definition, one
    # useful replica out of l_avg transmitted.
    hat_es = hat_es_from_rate(mean_rate, spec.L_cu, spec.N0)
    irsa = CompareRow("IRSA", None, mean_rate, to_db(base.l_avg * hat_es / spec.N0), None)
    pa_spec = replace(point_spec, scheme="PA", hat_R_bits=mean_rate, tilde_Es_over_N0=None)
    mu_tuning = tune_mu(pa_spec, 0, tuning, "mean_fraction", compare.min_throughput / base.G)
    if not mu_tuning.feasible:
        return [rs, irsa, flagged("PA", mu_tuning.note)]
    try:
        point = make_point(pa_spec, 0)
        table = _table(point, pa_spec.scheme_config(mu=mu_tuning.mu))
        _check_measures(table, point.cfg)
        per_user = table.degrees * table.energies
        t_mean, energy_db = _closure_means(
            point, _stacks(point, point.seed, spec.trials), table,
            lambda mask, index: to_db(float(per_user[index].mean()) / point.cfg.N0),
        )
    except InfeasibleOperatingPointError as err:
        return [rs, irsa, flagged("PA", f"infeasible: {err}")]
    return [rs, irsa, CompareRow("PA", None, mean_rate, energy_db, t_mean, mu=mu_tuning.mu)]


def _closure_means(
    point: SweepPoint, stacks: Iterable[FrameGraph], table: TransmitProfile,
    frame_value: Callable[[np.ndarray, np.ndarray], float],
) -> tuple[float, float]:
    """Mean T and mean ``frame_value(mask, index)`` of the profile ``table``
    over the frames of ``stacks`` (from ``_stacks``), added in frame order
    as ``run_point`` adds them; ``mask`` is the frame's decoded set
    (``_decoded_sets``), which is all T reads of the decode, and ``index``
    its ``point.index``.  One stack is decoded at a time, so a lazy
    ``_stacks`` holds one however many trials there are."""
    T, value = RunningStats(), RunningStats()
    for stack in stacks:
        index = point.index(stack).reshape(-1, point.cfg.K)
        for mask, frame_index in zip(_decoded_sets(point, [stack], table), index):
            T.add(int(mask.sum()) / point.cfg.M)
            value.add(frame_value(mask, frame_index))
    return T.mean, value.mean


def _tune_rs_for_rate(
    spec: SweepSpec, tuning: TuningConfig, min_throughput: float
) -> tuple[SchemeConfig, float, float] | None:
    """Highest-mean-rate (alpha, beta) of ``tuning``'s grids whose decoded
    total over its tune_trials frames holds min_throughput: the first pair
    ``_rs_search`` finds feasible.  The search orders the pairs by their
    mean rate over devices, the expectation over the degree distribution,
    so only the throughput floor needs simulation; the row reports the
    winner's mean rate over the evaluation frames.  Returns (scheme, eval T
    mean, eval mean rate) or None."""
    pairs = _rs_pairs(spec, 0, tuning)
    if pairs is None:
        return None
    point, grid, stacks = pairs
    feasible = _rs_search(point, grid, stacks, min_throughput)
    if not feasible:
        return None
    best = feasible[0]
    # Only the decoded count and the mean rate are read: the order-free
    # decoded set serves, with the rates read from the winner's row.
    rates = grid.rates[best]
    t_mean, mean_rate = _closure_means(
        point, _stacks(point, point.seed, spec.trials), grid.profile(best),
        lambda mask, index: float(rates[index].mean()),
    )
    alpha, beta = grid.pairs[best]
    scheme = SchemeConfig("RS", alpha=alpha, beta=beta, rmax_includes_one=spec.rmax_includes_one)
    return scheme, t_mean, mean_rate
