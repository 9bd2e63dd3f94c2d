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
from typing import NamedTuple

import numpy as np

from .config import SCHEME_PARAMETERS, SCHEMES, ConfigValidationError, require, validate
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
    pa_mean_energy,
    rate_rs,
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
    "run_trial",
    "run_point",
    "run_sweep",
    "tune_rs",
    "run_tuned_rs_sweep",
    "tune_mu",
    "run_tuned_pa_sweep",
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
    """Tuner settings; their defaults are the tuners' keyword defaults."""

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
    """Fully resolved grid point, ready to run trials."""

    g_index: int
    G: float
    cfg: ChannelConfig
    dist: DegreeDistribution
    l_avg: float
    scheme: SchemeConfig
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
    """Mean / standard-error accumulator; merging two accumulators is set
    union.  The mean is the plain sum over n.  The spread is a centred sum
    of squared deviations (Welford's update, Chan et al.'s pairwise merge),
    so a constant series has a standard error of exactly zero."""

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

    def merge(self, other: "RunningStats") -> "RunningStats":
        out = RunningStats()
        out.n = self.n + other.n
        out.total = self.total + other.total
        if out.n:
            delta = other.centre - self.centre
            out.centre = self.centre + delta * other.n / out.n
            out.m2 = self.m2 + other.m2 + delta * delta * self.n * other.n / out.n
        return out

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

    def merge(self, other: "MetricStats") -> "MetricStats":
        out = MetricStats()
        for name in _STAT_FIELDS:
            out.stats[name] = self.stats[name].merge(other.stats[name])
        return out


def make_point(
    spec: SweepSpec, g_index: int, scheme: SchemeConfig | None = None
) -> SweepPoint:
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
        scheme=spec.scheme_config() if scheme is None else scheme,
        seed=spec.seed,
    )


def _frame(point: SweepPoint, seed: int, trial: int) -> FrameGraph:
    """The frame of one trial at the point, drawn from ``seed``'s streams.
    Tuners pass a purpose-tagged seed and evaluate every candidate on the
    same frames."""
    rng = trial_rng(seed, point.g_index, trial)
    return build_frame(point.cfg.K, point.cfg.M, point.dist, rng)


def _profile(point: SweepPoint, degrees: np.ndarray, scheme: SchemeConfig) -> TransmitProfile:
    return build_profile(degrees, point.cfg, scheme, point.l_avg)


def _decode(point: SweepPoint, graph: FrameGraph, scheme: SchemeConfig):
    """Transmit profile and decode outcome of one frame under ``scheme``."""
    profile = _profile(point, graph.degrees, scheme)
    return profile, decode_frame(graph, profile, scheme, point.cfg)


class _DegreeTables(NamedTuple):
    """Tuning candidates' profiles on degrees 1..max_degree, with their
    energies and success thresholds stacked, shape (candidates, max_degree).
    RS and PA assign energies, rates and thresholds by degree alone, so a
    frame's profile is the table read at ``graph.degrees - 1``, element for
    element the profile built on the frame."""

    schemes: list[SchemeConfig]
    profiles: list[TransmitProfile]
    energies: np.ndarray
    thresholds: np.ndarray


def _degree_tables(point: SweepPoint, schemes: list[SchemeConfig]) -> _DegreeTables:
    """One profile per scheme and grid point, shared by every tuning frame."""
    degrees = np.arange(1, point.dist.max_degree + 1)
    profiles = [_profile(point, degrees, s) for s in schemes]
    return _DegreeTables(
        schemes,
        profiles,
        np.stack([p.energies for p in profiles]),
        np.stack([success_thresholds(p) for p in profiles]),
    )


def _decoded_sets(point: SweepPoint, graph: FrameGraph, tables: _DegreeTables):
    """Decoded mask of each of ``tables``' schemes on one frame, by the
    order-free fixed point ``decoded_closure``, CANDIDATE_CHUNK schemes at a
    time."""
    index = graph.degrees - 1
    for start in range(0, len(tables.schemes), CANDIDATE_CHUNK):
        rows = slice(start, start + CANDIDATE_CHUNK)
        yield from decoded_closure(
            graph.edge_msg,
            graph.edge_slot,
            tables.energies[rows, index],
            tables.thresholds[rows, index],
            point.cfg.N0,
        )


def run_trial(point: SweepPoint, trial: int) -> TrialMetrics:
    """One independent frame: build, assign, decode, measure.  Deterministic
    in (point.seed, point.g_index, trial)."""
    profile, result = _decode(point, _frame(point, point.seed, trial), point.scheme)
    return trial_metrics(result, profile, point.cfg)


def run_point(point: SweepPoint, trials: int) -> MetricStats:
    acc = MetricStats()
    for t in range(trials):
        acc.add(run_trial(point, t))
    return acc


def _base_record(spec: SweepSpec, g_index: int, scheme: SchemeConfig) -> SweepRecord:
    G = spec.G_grid[g_index]
    return SweepRecord(
        scheme=spec.scheme,
        distribution=spec.distribution_label,
        K=spec.K,
        M=spec.slots_for(G),
        G=G,
        trials=spec.trials,
        seed=spec.seed,
        alpha=scheme.alpha,
        beta=scheme.beta,
        mu=scheme.mu,
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


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """One record per grid point; infeasible points are flagged in ``note``
    and left empty rather than aborting the sweep."""
    records = []
    for g_index in range(len(spec.G_grid)):
        try:
            point = make_point(spec, g_index)
            rec = _base_record(spec, g_index, point.scheme)
            stats = run_point(point, spec.trials)
        except (TuningParameterError, InfeasibleOperatingPointError) as err:
            rec = _base_record(spec, g_index, spec.scheme_config())
            rec.note = f"infeasible: {err}"
            records.append(rec)
            continue
        records.append(_fill_record(rec, stats, point))
    return records


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


def tune_rs(
    spec: SweepSpec,
    alpha_grid: tuple[float, ...],
    beta_grid: tuple[float, ...],
    *,
    tune_trials: int = TuningConfig.tune_trials,
    throughput_cap: float | None = TuningConfig.throughput_cap,
) -> list[RsTuning]:
    """Grid-search (alpha, beta) per G point.

    Feasible candidates keep mean throughput at or above
    RS_THROUGHPUT_FACTOR * min(G, throughput_cap); among them the pair with
    the highest mean efficiency wins, ties broken by larger throughput, then
    smaller alpha.  Pairs whose estimated-interference denominator is
    non-positive are rejected up front.
    """
    require("alpha_grid", alpha_grid)
    require("beta_grid", beta_grid)
    return [
        _tune_rs_point(
            spec, g_index, alpha_grid, beta_grid, tune_trials,
            RS_THROUGHPUT_FACTOR * (G if throughput_cap is None else min(G, throughput_cap)),
        )
        for g_index, G in enumerate(spec.G_grid)
    ]


def _tune_rs_point(
    spec: SweepSpec, g_index: int, alpha_grid, beta_grid, tune_trials: int, target: float
) -> RsTuning:
    G = spec.G_grid[g_index]
    try:
        base = make_point(spec, g_index, scheme=SchemeConfig("IRSA"))
    except InfeasibleOperatingPointError as err:
        return RsTuning(G, None, None, False, target=target, note=str(err))
    es = base.cfg.M * base.cfg.tilde_Es / base.l_avg
    r_avg = base.cfg.G * base.l_avg
    candidates: list[SchemeConfig] = []
    for a in alpha_grid:
        for b in beta_grid:
            try:
                rs_sinr_target(1, es, base.cfg.N0, a, b, r_avg)
            except TuningParameterError:
                continue
            candidates.append(_rs_scheme(spec, a, b))
    if not candidates:
        return RsTuning(
            G, None, None, False, target=target,
            note="no admissible (alpha, beta) in the grids",
        )
    # One frame at a time, every candidate on it: memory stays at one frame
    # however many tuning trials there are.  T and eta are trial_metrics'
    # expressions, accumulated in frame order.
    tune_seed = mix64(spec.seed, PURPOSE_RS_TUNE)
    tables = _degree_tables(base, candidates)
    # RS spends one common energy, so C_ref depends on the grid point alone.
    c_refs = [reference_capacity(p, base.cfg) for p in tables.profiles]
    stats = [(scheme, RunningStats(), RunningStats()) for scheme in candidates]
    for t in range(tune_trials):
        graph = _frame(base, tune_seed, t)
        index = graph.degrees - 1
        decoded = _decoded_sets(base, graph, tables)
        for mask, profile, c_ref, (_, T, eta) in zip(decoded, tables.profiles, c_refs, stats):
            T.add(int(mask.sum()) / base.cfg.M)
            eta.add(float(profile.rates[index][mask].sum()) / c_ref)
    feasible = [c for c in stats if c[1].mean >= target]
    if not feasible:
        return RsTuning(
            G, None, None, False, target=target,
            note=f"no candidate reached mean T >= {target:.4g}",
        )
    scheme, T, eta = max(feasible, key=lambda c: (c[2].mean, c[1].mean, -c[0].alpha))
    return RsTuning(
        G, scheme.alpha, scheme.beta, True,
        T_mean=T.mean, eta_mean=eta.mean, target=target,
    )


def run_tuned_rs_sweep(
    spec: SweepSpec,
    alpha_grid: tuple[float, ...],
    beta_grid: tuple[float, ...],
    **tuning,
) -> tuple[list[SweepRecord], list[RsTuning]]:
    """Tune per grid point (``tuning`` holds tune_rs's keywords), then
    evaluate the chosen pairs on the sweep's own (unsalted) streams."""
    tunings = tune_rs(spec, alpha_grid, beta_grid, **tuning)
    return _tuned_records(spec, tunings, lambda t: _rs_scheme(spec, t.alpha, t.beta)), tunings


def _rs_scheme(spec: SweepSpec, alpha: float, beta: float) -> SchemeConfig:
    """Rate selection with (alpha, beta): the RS tuners tune RS whatever
    scheme the spec names."""
    return SchemeConfig("RS", alpha=alpha, beta=beta, rmax_includes_one=spec.rmax_includes_one)


def _tuned_records(spec: SweepSpec, tunings, scheme_of) -> list[SweepRecord]:
    """Evaluate each point's tuned scheme, ``scheme_of(tuning)``, on the
    sweep's own (unsalted) streams; flag the points whose tuner found none."""
    records = []
    for g_index, tuning in enumerate(tunings):
        if not tuning.feasible:
            rec = _base_record(spec, g_index, SchemeConfig("IRSA"))
            rec.note = f"flagged: {tuning.note}"
        else:
            scheme = scheme_of(tuning)
            point = make_point(spec, g_index, scheme=scheme)
            rec = _base_record(spec, g_index, scheme)
            rec = _fill_record(rec, run_point(point, spec.trials), point)
        records.append(rec)
    return records


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
    spec: SweepSpec,
    g_index: int = 0,
    *,
    trials: int = TuningConfig.tune_trials,
    mu_max: float = TuningConfig.mu_max,
    resolution: float = TuningConfig.mu_resolution,
    target_fraction: float = TuningConfig.target_fraction,
    criterion: str = TuningConfig.mu_criterion,
    reliability: float = TuningConfig.reliability,
) -> MuTuning:
    """Smallest mu on a grid of the given resolution meeting the criterion.

    ``mean_fraction`` (default): mean decoded fraction of the full receiver
    reaches ``target_fraction``.  ``static_reliability``: a fraction
    ``reliability`` of frames have every message decodable from the initial
    state alone, before any cancellation -- a link-budget margin rule,
    re-derived from the published power-adaptation energy curves, which a
    receiver relying on SIC cascades does not need but a robust deployment
    would provision.

    Both criteria are non-decreasing in mu on a fixed set of frames (raising
    every energy never breaks a threshold test), so bisection over the grid
    is exact for the tuning streams.
    """
    require("mu_criterion", criterion)
    G = spec.G_grid[g_index]
    tune_seed = mix64(spec.seed, PURPOSE_MU_TUNE)
    try:
        base = make_point(spec, g_index, scheme=spec.scheme_config(mu=1.0))
        pa_mean_energy(base.cfg, base.l_avg, base.cfg.G * base.l_avg)
    except InfeasibleOperatingPointError as err:
        return MuTuning(G, None, False, criterion=criterion, note=str(err))
    frames = [_frame(base, tune_seed, t) for t in range(trials)]

    if criterion == "mean_fraction":
        target = target_fraction

        def measure(mu: float) -> float:
            tables = _degree_tables(base, [spec.scheme_config(mu=mu)])
            total = sum(
                int(mask.sum())
                for graph in frames
                for mask in _decoded_sets(base, graph, tables)
            )
            return total / (len(frames) * base.cfg.K)

    else:
        target = reliability

        def measure(mu: float) -> float:
            # Fraction of frames whose every message decodes before any
            # cancellation.
            tables = _degree_tables(base, [spec.scheme_config(mu=mu)])
            energies, thresholds = tables.energies[0], tables.thresholds[0]
            ok = 0
            for graph in frames:
                index = graph.degrees - 1
                energy = energies[index][graph.edge_msg]
                sinr = mrc_sinr(graph.edge_msg, graph.edge_slot, energy, base.cfg.N0)
                ok += bool((sinr >= thresholds[index]).all())
            return ok / len(frames)

    n_steps = int(math.ceil((mu_max - 1.0) / resolution))
    mu_at = lambda k: 1.0 + k * resolution

    frac_lo = measure(1.0)
    if frac_lo >= target:
        return MuTuning(G, 1.0, True, decoded_fraction=frac_lo, criterion=criterion)
    frac_hi = measure(mu_at(n_steps))
    if frac_hi < target:
        return MuTuning(
            G, None, False, decoded_fraction=frac_hi, criterion=criterion,
            note=f"no mu <= {mu_max} reaches {criterion} target {target}",
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


def run_tuned_pa_sweep(
    spec: SweepSpec, *, tune_trials: int = TuningConfig.tune_trials, **tuning
) -> tuple[list[SweepRecord], list[MuTuning]]:
    """Tune mu per grid point (``tune_trials`` frames; ``tuning`` holds
    tune_mu's other keywords), then evaluate on the sweep's own streams."""
    tunings = [
        tune_mu(spec, g_index, trials=tune_trials, **tuning)
        for g_index in range(len(spec.G_grid))
    ]
    return _tuned_records(spec, tunings, lambda t: spec.scheme_config(mu=t.mu)), tunings


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
    spec: SweepSpec,
    es_grid_db: tuple[float, ...],
    *,
    alpha_grid: tuple[float, ...],
    beta_grid: tuple[float, ...],
    tune_trials: int = TuningConfig.tune_trials,
    min_throughput: float = CompareConfig.min_throughput,
    mu_max: float = TuningConfig.mu_max,
    resolution: float = TuningConfig.mu_resolution,
) -> list[CompareRow]:
    """At fixed G (the spec's single grid point), feed each energy to rate
    selection and find the highest mean rate keeping throughput at or above
    ``min_throughput``; hand that rate to power adaptation as its nominal
    rate and find the least energy reaching the same throughput (tune_mu,
    bisecting up to ``mu_max`` at ``resolution``); add the baseline's
    closed-form energy at the same rate.
    """
    if len(spec.G_grid) != 1:
        raise ConfigValidationError(["G_grid: the comparison runs at a single G"])
    G = spec.G_grid[0]
    base = make_point(spec, 0, scheme=SchemeConfig("IRSA"))
    M, l_avg = base.cfg.M, base.l_avg
    rows: list[CompareRow] = []
    for es_index, es_db in enumerate(es_grid_db):
        es = 10.0 ** (es_db / 10.0) * spec.N0
        # Each energy runs on its own streams, with the tuners' parameters.
        point_spec = replace(
            spec, seed=mix64(spec.seed, es_index), alpha=None, beta=None, mu=None
        )
        # Feed the energy through the equal-total-energy relation so the
        # profile machinery sees a consistent reference level.
        rs_spec = replace(
            point_spec, scheme="RS", tilde_Es_over_N0=l_avg * es / (M * spec.N0), hat_R_bits=None
        )
        tuning = _tune_rs_for_rate(
            rs_spec,
            alpha_grid,
            beta_grid,
            tune_trials=tune_trials,
            min_throughput=min_throughput,
        )
        energy_rs_db = to_db(l_avg * es / spec.N0)
        if tuning is None:
            rows.append(
                CompareRow(
                    "RS", es_db, None, energy_rs_db, None,
                    note="no (alpha, beta) reached the throughput floor",
                )
            )
            continue
        scheme, t_mean, mean_rate = tuning
        rows.append(
            CompareRow(
                "RS", es_db, mean_rate, energy_rs_db, t_mean,
                alpha=scheme.alpha, beta=scheme.beta,
            )
        )
        # Baseline at the same rate: energy from the rate definition, one
        # useful replica out of l_avg transmitted.
        hat_es = hat_es_from_rate(mean_rate, spec.L_cu, spec.N0)
        rows.append(
            CompareRow("IRSA", None, mean_rate, to_db(l_avg * hat_es / spec.N0), None)
        )
        pa_spec = replace(point_spec, scheme="PA", hat_R_bits=mean_rate, tilde_Es_over_N0=None)
        mu_tuning = tune_mu(
            pa_spec,
            0,
            trials=tune_trials,
            mu_max=mu_max,
            resolution=resolution,
            target_fraction=min_throughput / G,
        )
        if not mu_tuning.feasible:
            rows.append(
                CompareRow("PA", None, mean_rate, None, None, note=mu_tuning.note)
            )
            continue
        point = make_point(pa_spec, 0, scheme=pa_spec.scheme_config(mu=mu_tuning.mu))
        stats = run_point(point, spec.trials)
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


def _tune_rs_for_rate(
    spec: SweepSpec,
    alpha_grid: tuple[float, ...],
    beta_grid: tuple[float, ...],
    *,
    tune_trials: int,
    min_throughput: float,
) -> tuple[SchemeConfig, float, float] | None:
    """Highest-mean-rate (alpha, beta) with mean T >= min_throughput.

    The mean selected rate over devices is the analytic expectation over the
    degree distribution; only the throughput constraint needs simulation.
    Returns (scheme, eval T mean, eval mean rate) or None.
    """
    base = make_point(spec, 0, scheme=SchemeConfig("IRSA"))
    es = base.cfg.M * base.cfg.tilde_Es / base.l_avg
    r_avg = base.cfg.G * base.l_avg
    candidates = []
    for a in alpha_grid:
        for b in beta_grid:
            try:
                mean_rate = float(
                    sum(
                        float(p) * rate_rs(int(d), es, base.cfg.N0, base.cfg.L_cu, a, b, r_avg)
                        for d, p in base.dist.atoms
                    )
                )
            except TuningParameterError:
                continue
            candidates.append((mean_rate, _rs_scheme(spec, a, b)))
    if not candidates:
        return None
    ranked = [scheme for _, scheme in sorted(candidates, key=lambda c: -c[0])]
    tables = _degree_tables(base, ranked)
    totals = [0] * len(ranked)
    tune_seed = mix64(spec.seed, PURPOSE_RS_TUNE)
    for t in range(tune_trials):
        graph = _frame(base, tune_seed, t)
        for i, mask in enumerate(_decoded_sets(base, graph, tables)):
            totals[i] += int(mask.sum())
    # The highest analytic rate that holds the throughput floor wins.
    best = next(
        (
            scheme for scheme, total in zip(ranked, totals)
            if total / (tune_trials * base.cfg.M) >= min_throughput
        ),
        None,
    )
    if best is None:
        return None
    rate_acc = RunningStats()
    t_acc = RunningStats()
    for t in range(spec.trials):
        profile, result = _decode(base, _frame(base, spec.seed, t), best)
        rate_acc.add(float(profile.rates.mean()))
        t_acc.add(result.decoded_count / base.cfg.M)
    return best, t_acc.mean, rate_acc.mean
