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
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .config import (
    SCHEME_PARAMETERS,
    SCHEMES,
    ConfigValidationError,
    problem,
    rate_problem,
    validate,
)
from .decoder import (
    decode_frame,
    decoded_closure,
    mrc_sinr,
    success_thresholds,
)
from .distributions import DegreeDistribution, avg_degree, from_name, parameter_problem
from .frame_graph import FrameGraph, build_frame
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
    SchemeConfig,
    TransmitProfile,
    TuningParameterError,
    build_profile,
    hat_es_from_rate,
    pa_powers,
    rs_sinr_target,
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

# Candidates the tuners decode together.  decoded_closure stacks one copy of
# the frame per candidate, so its working set grows with the batch; small
# batches keep it in cache and off the peak memory.
CANDIDATE_CHUNK = 8


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
    M is round(K/G); K stays fixed along the grid.
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

    def slots_for(self, G: float) -> int:
        return int(round(self.K / G))

    def dist_for(self, M: int) -> DegreeDistribution:
        Y = M if self.dist_Y == "M" else self.dist_Y
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
    input, checked when built."""

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
    distribution and streams.  The scheme run at it is passed alongside."""

    g_index: int
    G: float
    cfg: ChannelConfig
    dist: DegreeDistribution
    l_avg: float
    seed: int


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


_STAT_FIELDS = ("T", "eta", "eta_max", "gamma", "energy_per_user_db")


class MetricStats:
    """RunningStats over the fields of TrialMetrics used in sweep records."""

    def __init__(self) -> None:
        self.stats = {name: RunningStats() for name in _STAT_FIELDS}

    def add(self, m: TrialMetrics) -> None:
        for name in _STAT_FIELDS:
            self.stats[name].add(getattr(m, name))


def make_point(spec: SweepSpec, g_index: int) -> SweepPoint:
    """Resolve one grid point.  Raises InfeasibleOperatingPointError when G
    leaves fewer slots than the degree distribution needs."""
    G = spec.G_grid[g_index]
    M = spec.slots_for(G)
    if M < 1:
        raise InfeasibleOperatingPointError(f"G={G} leaves M={M} slots for K={spec.K}")
    try:
        dist = spec.dist_for(M)
    except ValueError as err:
        raise InfeasibleOperatingPointError(f"no distribution at M={M}: {err}") from err
    if dist.max_degree > M:
        raise InfeasibleOperatingPointError(
            f"max degree {dist.max_degree} exceeds M={M} at G={G}"
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


class _DegreeTables(NamedTuple):
    """Profiles of a grid point's schemes on the degree distribution's
    support, shared by the sweeps and the tuners, with the energies and
    success thresholds stacked, shape (schemes, support size).  Every scheme
    assigns energies, rates and thresholds by degree alone, so a frame's
    profile is a table read at ``index(graph)``, element for element the
    profile built on the frame.  A rate that rounds to 0 bits at any degree
    of the support makes the point infeasible, whichever degrees its frames
    draw."""

    schemes: list[SchemeConfig]
    profiles: list[TransmitProfile]
    energies: np.ndarray
    thresholds: np.ndarray
    column: np.ndarray  # column[d]: degree d's place in the support

    def index(self, graph: FrameGraph) -> np.ndarray:
        """Each message's column in the tables."""
        return self.column[graph.degrees]


def _degree_tables(point: SweepPoint, schemes: list[SchemeConfig]) -> _DegreeTables:
    """One profile per scheme and grid point, shared by every frame."""
    degrees = point.dist.degrees
    profiles = [build_profile(degrees, point.cfg, s, point.l_avg) for s in schemes]
    column = np.zeros(point.dist.max_degree + 1, dtype=np.int64)
    column[degrees] = np.arange(len(degrees))
    return _DegreeTables(
        schemes,
        profiles,
        np.stack([p.energies for p in profiles]),
        np.stack([success_thresholds(p) for p in profiles]),
        column,
    )


def _decoded_sets(point: SweepPoint, graph: FrameGraph, tables: _DegreeTables):
    """Decoded mask of each of ``tables``' schemes on one frame, by the
    order-free fixed point ``decoded_closure``, CANDIDATE_CHUNK schemes at a
    time."""
    index = tables.index(graph)
    for start in range(0, len(tables.schemes), CANDIDATE_CHUNK):
        rows = slice(start, start + CANDIDATE_CHUNK)
        yield from decoded_closure(
            graph.edge_msg,
            graph.edge_slot,
            tables.energies[rows, index],
            tables.thresholds[rows, index],
            point.cfg.N0,
        )


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


def _trials(
    point: SweepPoint, scheme: SchemeConfig, trials: Iterable[int]
) -> Iterator[TrialMetrics]:
    """Measures of ``scheme`` on the given trials at the point: each frame
    drawn from the point's streams, profiled by the scheme's degree table,
    decoded and measured.  Deterministic in (point.seed, point.g_index,
    trial)."""
    tables = _degree_tables(point, [scheme])
    (table,) = tables.profiles
    _check_measures(table, point.cfg)
    for t in trials:
        graph = _frame(point, point.seed, t)
        profile = table.take(tables.index(graph))
        result = decode_frame(graph, profile, scheme, point.cfg)
        yield trial_metrics(result, profile, point.cfg)


def run_point(point: SweepPoint, scheme: SchemeConfig, trials: int) -> MetricStats:
    acc = MetricStats()
    for metrics in _trials(point, scheme, range(trials)):
        acc.add(metrics)
    return acc


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


def _fill_record(rec: SweepRecord, stats: MetricStats, point: SweepPoint) -> SweepRecord:
    s = stats.stats
    rec.T_mean, rec.T_se = s["T"].mean, s["T"].se
    rec.eta_mean, rec.eta_se = s["eta"].mean, s["eta"].se
    rec.eta_max_mean = s["eta_max"].mean
    rec.gamma_mean, rec.gamma_se = s["gamma"].mean, s["gamma"].se
    rec.energy_per_user_db = s["energy_per_user_db"].mean
    rec.l_avg = point.l_avg
    if point.cfg.hat_R is not None:
        hat_es = hat_es_from_rate(point.cfg.hat_R, point.cfg.L_cu, point.cfg.N0)
        g_irsa, g_min = gamma_irsa_min(hat_es, point.cfg.N0, point.l_avg)
        rec.gamma_irsa_db = to_db(g_irsa)
        rec.gamma_min_db = to_db(g_min)
    return rec


def _evaluate(spec: SweepSpec, g_index: int, scheme: SchemeConfig) -> SweepRecord:
    """The record of ``scheme`` at one grid point, on the sweep's own
    streams; an infeasible point is flagged in ``note`` and left empty
    rather than aborting the sweep."""
    rec = _base_record(spec, g_index, scheme)
    try:
        point = make_point(spec, g_index)
        return _fill_record(rec, run_point(point, scheme, spec.trials), point)
    except (TuningParameterError, InfeasibleOperatingPointError) as err:
        rec.note = f"infeasible: {err}"
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


def tune_rs(spec: SweepSpec, tuning: TuningConfig) -> list[RsTuning]:
    """Grid-search (alpha, beta) over ``tuning``'s grids per G point.

    Feasible candidates keep mean throughput at or above
    RS_THROUGHPUT_FACTOR * min(G, throughput_cap); among them the pair with
    the highest mean efficiency wins, ties broken by larger throughput, then
    smaller alpha.  Pairs whose estimated-interference denominator is
    non-positive are rejected up front.
    """
    cap = tuning.throughput_cap
    return [
        _tune_rs_point(
            spec, g_index, tuning, RS_THROUGHPUT_FACTOR * (G if cap is None else min(G, cap))
        )
        for g_index, G in enumerate(spec.G_grid)
    ]


def _rs_candidate_trials(spec: SweepSpec, g_index: int, tuning: TuningConfig):
    """The RS tuners' shared work at one grid point: the point, the degree
    tables of the admissible (alpha, beta) pairs of ``tuning``'s grids,
    alpha-major, and each candidate's decoded count and decoded messages'
    summed rate on each PURPOSE_RS_TUNE frame, shape (candidates,
    tune_trials).  None when no pair is admissible;
    InfeasibleOperatingPointError when a table fails."""
    point = make_point(spec, g_index)
    es = point.cfg.M * point.cfg.tilde_Es / point.l_avg
    r_avg = point.cfg.G * point.l_avg
    candidates: list[SchemeConfig] = []
    for a in tuning.alpha_grid:
        for b in tuning.beta_grid:
            try:
                rs_sinr_target(1, es, point.cfg.N0, a, b, r_avg)
            except TuningParameterError:
                continue
            # Rate selection whatever scheme the spec names.
            candidates.append(
                SchemeConfig("RS", alpha=a, beta=b, rmax_includes_one=spec.rmax_includes_one)
            )
    if not candidates:
        return None
    tables = _degree_tables(point, candidates)
    counts = np.zeros((len(candidates), tuning.tune_trials), dtype=np.int64)
    rate_sums = np.zeros((len(candidates), tuning.tune_trials))
    # One frame at a time, every candidate on it: memory stays at one frame
    # however many tuning trials there are.
    tune_seed = mix64(spec.seed, PURPOSE_RS_TUNE)
    for t in range(tuning.tune_trials):
        graph = _frame(point, tune_seed, t)
        index = tables.index(graph)
        for i, mask in enumerate(_decoded_sets(point, graph, tables)):
            counts[i, t] = mask.sum()
            rate_sums[i, t] = tables.profiles[i].rates[index][mask].sum()
    return point, tables, counts, rate_sums


def _tune_rs_point(
    spec: SweepSpec, g_index: int, tuning: TuningConfig, target: float
) -> RsTuning:
    G = spec.G_grid[g_index]
    try:
        trials = _rs_candidate_trials(spec, g_index, tuning)
    except InfeasibleOperatingPointError as err:
        return RsTuning(G, None, None, False, target=target, note=str(err))
    if trials is None:
        return RsTuning(
            G, None, None, False, target=target,
            note="no admissible (alpha, beta) in the grids",
        )
    point, tables, counts, rate_sums = trials
    # T and eta are trial_metrics' expressions, accumulated in frame order.
    # RS spends one common energy, so C_ref depends on the grid point alone.
    c_ref = reference_capacity(tables.profiles[0], point.cfg)
    stats = []
    for scheme, n, s in zip(tables.schemes, counts.tolist(), rate_sums.tolist()):
        T, eta = RunningStats(), RunningStats()
        for count, rate_sum in zip(n, s):
            T.add(count / point.cfg.M)
            eta.add(rate_sum / c_ref)
        stats.append((scheme, T.mean, eta.mean))
    feasible = [c for c in stats if c[1] >= target]
    if not feasible:
        return RsTuning(
            G, None, None, False, target=target,
            note=f"no candidate reached mean T >= {target:.4g}",
        )
    scheme, T, eta = max(feasible, key=lambda c: (c[2], c[1], -c[0].alpha))
    return RsTuning(G, scheme.alpha, scheme.beta, True, T_mean=T, eta_mean=eta, target=target)


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
    """Smallest mu on the grid 1, 1 + mu_resolution, ... up to ``tuning``'s
    mu_max whose ``criterion`` measure over tune_trials frames reaches
    ``target``.

    ``mean_fraction``: mean decoded fraction of the full receiver.
    ``static_reliability``: fraction of frames with every message decodable
    from the initial state alone, before any cancellation -- a link-budget
    margin rule, re-derived from the published power-adaptation energy
    curves, which a receiver relying on SIC cascades does not need but a
    robust deployment would provision.

    The criterion and its target are arguments, not ``tuning``'s fields:
    the tuned sweep passes tuning.mu_criterion with its target_fraction or
    reliability, while the comparison always bisects on ``mean_fraction``
    at min_throughput / G, a target that may exceed 1 (no mu reaches it)
    and so is no valid target_fraction.

    Both criteria are non-decreasing in mu on a fixed set of frames (raising
    every energy never breaks a threshold test), so bisection over the grid
    is exact for the tuning streams.
    """
    spec.scheme_config(mu=1.0)  # raises for a scheme that takes no mu
    G = spec.G_grid[g_index]
    tune_seed = mix64(spec.seed, PURPOSE_MU_TUNE)
    n_steps = int(math.ceil((tuning.mu_max - 1.0) / tuning.mu_resolution))
    mu_at = lambda k: 1.0 + k * tuning.mu_resolution
    try:
        base = make_point(spec, g_index)
        # Energies rise with mu: the top of the grid is the one to check.
        pa_powers(base.dist.degrees, base.cfg, mu_at(n_steps), base.l_avg, base.cfg.G * base.l_avg)
    except InfeasibleOperatingPointError as err:
        return MuTuning(G, None, False, criterion=criterion, note=str(err))
    frames = [_frame(base, tune_seed, t) for t in range(tuning.tune_trials)]

    if criterion == "mean_fraction":
        def measure(mu: float) -> float:
            tables = _degree_tables(base, [spec.scheme_config(mu=mu)])
            total = sum(
                int(mask.sum())
                for graph in frames
                for mask in _decoded_sets(base, graph, tables)
            )
            return total / (len(frames) * base.cfg.K)

    else:
        def measure(mu: float) -> float:
            # Fraction of frames whose every message decodes before any
            # cancellation.
            tables = _degree_tables(base, [spec.scheme_config(mu=mu)])
            energies, thresholds = tables.energies[0], tables.thresholds[0]
            ok = 0
            for graph in frames:
                index = tables.index(graph)
                energy = energies[index][graph.edge_msg]
                sinr = mrc_sinr(graph.edge_msg, graph.edge_slot, energy, base.cfg.N0)
                ok += bool((sinr >= thresholds[index]).all())
            return ok / len(frames)

    frac_lo = measure(1.0)
    if frac_lo >= target:
        return MuTuning(G, 1.0, True, decoded_fraction=frac_lo, criterion=criterion)
    frac_hi = measure(mu_at(n_steps))
    if frac_hi < target:
        return MuTuning(
            G, None, False, decoded_fraction=frac_hi, criterion=criterion,
            note=f"no mu <= {tuning.mu_max} reaches {criterion} target {target}",
        )
    lo, hi = 0, n_steps  # measure(lo) < target <= measure(hi)
    frac_at_hi = frac_hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        frac = measure(mu_at(mid))
        if frac >= target:
            hi, frac_at_hi = mid, frac
        else:
            lo = mid
    return MuTuning(
        G, mu_at(hi), True, decoded_fraction=frac_at_hi, criterion=criterion
    )


def run_tuned_sweep(
    spec: SweepSpec, tuning: TuningConfig
) -> tuple[list[SweepRecord], list[RsTuning] | list[MuTuning]]:
    """Tune the spec's scheme per grid point -- (alpha, beta) for RS, mu
    under tuning.mu_criterion for PA -- then evaluate each point's choice on
    the sweep's own (unsalted) streams; a point whose tuner found none is
    flagged."""
    if spec.scheme == "RS":
        tunings = tune_rs(spec, tuning)
    else:
        criterion = tuning.mu_criterion
        target = tuning.target_fraction if criterion == "mean_fraction" else tuning.reliability
        tunings = [
            tune_mu(spec, g_index, tuning, criterion, target)
            for g_index in range(len(spec.G_grid))
        ]
    records = []
    for g_index, chosen in enumerate(tunings):
        if chosen.feasible:
            params = {name: getattr(chosen, name) for name in SCHEME_PARAMETERS[spec.scheme]}
            rec = _evaluate(spec, g_index, spec.scheme_config(**params))
        else:
            rec = _base_record(spec, g_index, None)
            rec.note = f"flagged: {chosen.note}"
        records.append(rec)
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
    """At fixed G (the spec's single grid point), feed each energy of
    ``compare``'s grid to rate selection and find the highest mean rate over
    ``tuning``'s (alpha, beta) grids keeping throughput at or above
    min_throughput; hand that rate to power adaptation as its nominal rate
    and find the least energy reaching the same throughput (tune_mu on
    ``mean_fraction`` at min_throughput / G, whatever tuning.mu_criterion
    says); add the baseline's closed-form energy at the same rate.
    """
    if len(spec.G_grid) != 1:
        raise ConfigValidationError(["G_grid: the comparison runs at a single G"])
    G = spec.G_grid[0]
    base = make_point(spec, 0)
    M, l_avg = base.cfg.M, base.l_avg
    rows: list[CompareRow] = []
    for es_index, es_db in enumerate(compare.es_over_N0_db_grid):
        try:
            es = 10.0 ** (es_db / 10.0) * spec.N0
        except OverflowError:
            es = math.inf
        # Feed the energy through the equal-total-energy relation so the
        # profile machinery sees a consistent reference level.
        user_es = l_avg * es / spec.N0
        tilde_es = l_avg * es / (M * spec.N0)
        # An entry far from 0 dB overflows or underflows in linear terms.
        if found := problem("tilde_Es", user_es) or problem("tilde_Es", tilde_es):
            note = f"es_over_N0_db: {found} in linear terms"
            rows.append(CompareRow("RS", es_db, None, None, None, note=note))
            continue
        # Each energy runs on its own streams, with the tuners' parameters.
        point_spec = replace(
            spec, seed=mix64(spec.seed, es_index), alpha=None, beta=None, mu=None
        )
        rs_spec = replace(point_spec, scheme="RS", tilde_Es_over_N0=tilde_es, hat_R_bits=None)
        note = "no (alpha, beta) reached the throughput floor"
        try:
            chosen = _tune_rs_for_rate(rs_spec, tuning, compare.min_throughput)
        except InfeasibleOperatingPointError as err:
            chosen, note = None, f"infeasible: {err}"
        energy_rs_db = to_db(user_es)
        if chosen is None:
            rows.append(CompareRow("RS", es_db, None, energy_rs_db, None, note=note))
            continue
        scheme, t_mean, mean_rate = chosen
        rows.append(
            CompareRow(
                "RS", es_db, mean_rate, energy_rs_db, t_mean,
                alpha=scheme.alpha, beta=scheme.beta,
            )
        )
        if found := rate_problem(mean_rate, spec.L_cu, spec.N0):
            note = f"rate_bits: {found}"
            rows += [CompareRow(s, None, mean_rate, None, None, note=note) for s in ("IRSA", "PA")]
            continue
        # Baseline at the same rate: energy from the rate definition, one
        # useful replica out of l_avg transmitted.
        hat_es = hat_es_from_rate(mean_rate, spec.L_cu, spec.N0)
        rows.append(
            CompareRow("IRSA", None, mean_rate, to_db(l_avg * hat_es / spec.N0), None)
        )
        pa_spec = replace(point_spec, scheme="PA", hat_R_bits=mean_rate, tilde_Es_over_N0=None)
        mu_tuning = tune_mu(pa_spec, 0, tuning, "mean_fraction", compare.min_throughput / G)
        if not mu_tuning.feasible:
            rows.append(
                CompareRow("PA", None, mean_rate, None, None, note=mu_tuning.note)
            )
            continue
        point = make_point(pa_spec, 0)
        stats = run_point(point, pa_spec.scheme_config(mu=mu_tuning.mu), spec.trials)
        rows.append(
            CompareRow(
                "PA",
                None,
                mean_rate,
                stats.stats["energy_per_user_db"].mean,
                stats.stats["T"].mean,
                mu=mu_tuning.mu,
            )
        )
    return rows


def _by_mean_rate(point: SweepPoint, tables: _DegreeTables) -> list[int]:
    """The candidates of ``tables`` by descending mean rate over devices, the
    expectation of their rate tables over the degree distribution."""
    means = [point.dist.probabilities @ profile.rates for profile in tables.profiles]
    return sorted(range(len(means)), key=lambda i: -means[i])


def _tune_rs_for_rate(
    spec: SweepSpec, tuning: TuningConfig, min_throughput: float
) -> tuple[SchemeConfig, float, float] | None:
    """Highest-mean-rate (alpha, beta) of ``tuning``'s grids with mean
    T >= min_throughput over its tune_trials frames.

    The mean selected rate over devices is the analytic expectation over the
    degree distribution; only the throughput constraint needs simulation.
    Returns (scheme, eval T mean, eval mean rate) or None.
    """
    trials = _rs_candidate_trials(spec, 0, tuning)
    if trials is None:
        return None
    point, tables, counts, _ = trials
    # The highest analytic rate that holds the throughput floor wins.  The
    # floor compares the exact ratio of integer totals: a mean of per-frame
    # ratios can round below a floor the total meets exactly.
    best = next(
        (
            tables.schemes[i] for i in _by_mean_rate(point, tables)
            if int(counts[i].sum()) / (tuning.tune_trials * point.cfg.M) >= min_throughput
        ),
        None,
    )
    if best is None:
        return None
    # Only the decoded count and the mean rate are read: the order-free
    # decoded set serves, with the rates read from the winner's table.
    best_table = _degree_tables(point, [best])
    rates = best_table.profiles[0].rates
    rate_acc = RunningStats()
    t_acc = RunningStats()
    for t in range(spec.trials):
        graph = _frame(point, spec.seed, t)
        (mask,) = _decoded_sets(point, graph, best_table)
        rate_acc.add(float(rates[best_table.index(graph)].mean()))
        t_acc.add(int(mask.sum()) / point.cfg.M)
    return best, t_acc.mean, rate_acc.mean
