"""Experiment configuration, dispatch, and tabular output.

Config files are JSON; unknown keys are rejected and every validation error
is reported with its key path, not just the first.  Outputs are CSV (one row
per sweep point, fixed 6-significant-digit formatting, LF line endings) plus
an optional set of two-column per-series files for plotting, and a JSON
sidecar recording the resolved spec and any tuned parameters.

Exit codes: 0 success, 1 validation error, 2 runtime infeasibility.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .decoder import PHASE_LABELS, decode_frame
from .frame_graph import FrameGraph
from .harness import (
    CompareRow,
    SweepRecord,
    SweepSpec,
    compare_rs_pa,
    run_sweep,
    run_tuned_pa_sweep,
    run_tuned_rs_sweep,
)
from .schemes import (
    ChannelConfig,
    InfeasibleOperatingPointError,
    SchemeConfig,
    TuningParameterError,
    build_profile,
)

__all__ = [
    "ConfigValidationError",
    "ExperimentConfig",
    "TuningConfig",
    "CompareConfig",
    "parse_config",
    "serialize_config",
    "emit_csv",
    "emit_compare_csv",
    "emit_plot_data",
    "main",
]

CSV_HEADER = (
    "scheme,distribution,K,M,G,trials,seed,alpha,beta,mu,"
    "T_mean,T_se,eta_mean,eta_se,eta_max_mean,gamma_mean,gamma_se,energy_per_user_db"
)
COMPARE_HEADER = (
    "scheme,es_over_N0_db,rate_bits,energy_per_user_db,T_mean,alpha,beta,mu,note"
)

SCHEMES = ("IRSA", "RS", "PA")
DIST_NAMES = ("ideal_soliton", "modified_soliton", "l3")

DEFAULT_ALPHA_GRID = tuple(float(x) for x in np.geomspace(0.05, 2.0, 8))
DEFAULT_BETA_GRID = tuple(float(x) for x in np.geomspace(0.5, 2.0, 5))


class ConfigValidationError(ValueError):
    """Carries every validation problem found in a config document."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass(frozen=True)
class TuningConfig:
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID
    tune_trials: int = 100
    throughput_cap: float | None = None
    mu_max: float = 10.0
    mu_resolution: float = 0.01
    target_fraction: float = 0.9
    mu_criterion: str = "mean_fraction"
    reliability: float = 0.99


@dataclass(frozen=True)
class CompareConfig:
    es_over_N0_db_grid: tuple[float, ...]
    min_throughput: float = 0.78


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config: the sweep plus output, tuning and comparison settings."""

    spec: SweepSpec
    out: str = "."
    emit_plot_data: bool = False
    tuning: TuningConfig = field(default_factory=TuningConfig)
    compare: CompareConfig | None = None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


class _Checker:
    """Accumulates validation errors instead of failing fast."""

    def __init__(self, data: dict, path: str = ""):
        self.data = data
        self.path = path
        self.errors: list[str] = []
        self.seen: set[str] = set()

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def take(self, key: str, kind, default=None, required=False, check=None):
        self.seen.add(key)
        if key not in self.data:
            if required:
                self.errors.append(f"{self._at(key)}: missing required key")
            return default
        value = self.data[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if kind is int and isinstance(value, bool):
            self.errors.append(f"{self._at(key)}: expected {kind.__name__}")
            return default
        if not isinstance(value, kind):
            name = kind.__name__ if isinstance(kind, type) else str(kind)
            self.errors.append(f"{self._at(key)}: expected {name}")
            return default
        if check is not None:
            problem = check(value)
            if problem:
                self.errors.append(f"{self._at(key)}: {problem}")
                return default
        return value

    def reject_unknown(self) -> None:
        for key in sorted(set(self.data) - self.seen):
            self.errors.append(f"{self._at(key)}: unknown key")


def _at_least(lo: int):
    return lambda v: None if v >= lo else f"must be >= {lo}"


# Config keys the --trials and --seed flags override, with their checks.
FLAG_CHECKS = {"trials": _at_least(1), "seed": _at_least(0)}


def _positive_list(value) -> str | None:
    if not value:
        return "must be non-empty"
    if any(not isinstance(x, (int, float)) or isinstance(x, bool) or x <= 0 for x in value):
        return "entries must be positive numbers"
    return None


def _number_list(value) -> str | None:
    if not value:
        return "must be non-empty"
    if any(not isinstance(x, (int, float)) or isinstance(x, bool) for x in value):
        return "entries must be numbers"
    return None


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON experiment config; raises ConfigValidationError with
    every problem found."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigValidationError([f"invalid JSON: {err}"]) from err
    if not isinstance(data, dict):
        raise ConfigValidationError(["top level: expected a JSON object"])

    c = _Checker(data)
    scheme = c.take(
        "scheme", str, required=True,
        check=lambda v: None if v in SCHEMES else f"must be one of {SCHEMES}",
    )
    dist_name: str | None = None
    dist_Y: int | str | None = None
    dist = c.take("distribution", dict, required=True)
    if dist is not None:
        dc = _Checker(dist, "distribution")
        dist_name = dc.take(
            "name", str, required=True,
            check=lambda v: None if v in DIST_NAMES else f"must be one of {DIST_NAMES}",
        )
        dist_Y = dc.take(
            "Y", (int, str),
            check=lambda v: (
                None
                if (v == "M" or (isinstance(v, int) and v >= 2))
                else 'must be an integer >= 2 or "M"'
            ),
        )
        dc.reject_unknown()
        c.errors.extend(dc.errors)
        if dist_name == "l3" and dist_Y is not None:
            c.errors.append("distribution.Y: 'l3' takes no parameter")
        if dist_name in ("ideal_soliton", "modified_soliton") and dist_Y is None:
            c.errors.append(f"distribution.Y: required for {dist_name!r}")
    K = c.take("K", int, required=True,
               check=lambda v: None if v >= 1 else "must be >= 1")
    G_grid = c.take("G_grid", list, required=True, check=_positive_list)
    trials = c.take("trials", int, default=1000, check=FLAG_CHECKS["trials"])
    seed = c.take("seed", int, default=0, check=FLAG_CHECKS["seed"])
    L_cu = c.take("L_cu", int, default=100,
                  check=lambda v: None if v >= 1 else "must be >= 1")
    N0 = c.take("N0", float, default=1.0,
                check=lambda v: None if v > 0 else "must be positive")
    tilde = c.take("tilde_Es_over_N0", float,
                   check=lambda v: None if v > 0 else "must be positive")
    hat_R = c.take("hat_R_bits", float,
                   check=lambda v: None if v > 0 else "must be positive")
    alpha = c.take("alpha", float,
                   check=lambda v: None if v >= 0 else "must be >= 0")
    beta = c.take("beta", float,
                  check=lambda v: None if v > 0 else "must be positive")
    mu = c.take("mu", float,
                check=lambda v: None if v >= 1 else "must be >= 1")
    rmax = c.take("rmax_includes_one", bool, default=True)
    out = c.take("out", str, default=".")
    plot = c.take("emit_plot_data", bool, default=False)

    tuning = TuningConfig()
    tuning_raw = c.take("tuning", dict)
    if tuning_raw is not None:
        tc = _Checker(tuning_raw, "tuning")
        ag = tc.take("alpha_grid", list, check=_positive_list)
        bg = tc.take("beta_grid", list, check=_positive_list)
        tuning = TuningConfig(
            alpha_grid=DEFAULT_ALPHA_GRID if ag is None else tuple(float(x) for x in ag),
            beta_grid=DEFAULT_BETA_GRID if bg is None else tuple(float(x) for x in bg),
            tune_trials=tc.take("tune_trials", int, default=100,
                                check=lambda v: None if v >= 1 else "must be >= 1"),
            throughput_cap=tc.take("throughput_cap", float,
                                   check=lambda v: None if v > 0 else "must be positive"),
            mu_max=tc.take("mu_max", float, default=10.0,
                           check=lambda v: None if v >= 1 else "must be >= 1"),
            mu_resolution=tc.take("mu_resolution", float, default=0.01,
                                  check=lambda v: None if v > 0 else "must be positive"),
            target_fraction=tc.take("target_fraction", float, default=0.9,
                                    check=lambda v: None if 0 < v <= 1 else "must be in (0, 1]"),
            mu_criterion=tc.take(
                "mu_criterion", str, default="mean_fraction",
                check=lambda v: None if v in ("mean_fraction", "static_reliability")
                else "must be 'mean_fraction' or 'static_reliability'",
            ),
            reliability=tc.take("reliability", float, default=0.99,
                                check=lambda v: None if 0 < v <= 1 else "must be in (0, 1]"),
        )
        tc.reject_unknown()
        c.errors.extend(tc.errors)

    compare = None
    compare_raw = c.take("compare", dict)
    if compare_raw is not None:
        cc = _Checker(compare_raw, "compare")
        grid = cc.take("es_over_N0_db_grid", list, required=True, check=_number_list)
        compare = CompareConfig(
            es_over_N0_db_grid=tuple(float(x) for x in grid) if grid else (),
            min_throughput=cc.take("min_throughput", float, default=0.78,
                                   check=lambda v: None if v > 0 else "must be positive"),
        )
        cc.reject_unknown()
        c.errors.extend(cc.errors)

    c.reject_unknown()
    if scheme == "PA":
        if hat_R is None:
            c.errors.append("hat_R_bits: required for PA")
    elif scheme in ("IRSA", "RS") and tilde is None:
        c.errors.append("tilde_Es_over_N0: required for IRSA/RS")

    if c.errors:
        raise ConfigValidationError(c.errors)
    spec = SweepSpec(
        scheme=scheme,
        dist_name=dist_name,
        dist_Y=dist_Y,
        K=K,
        G_grid=tuple(float(g) for g in G_grid),
        trials=trials,
        seed=seed,
        L_cu=L_cu,
        N0=N0,
        tilde_Es_over_N0=tilde,
        hat_R_bits=hat_R,
        alpha=alpha,
        beta=beta,
        mu=mu,
        rmax_includes_one=rmax,
    )
    return ExperimentConfig(
        spec=spec,
        out=out,
        emit_plot_data=plot,
        tuning=tuning,
        compare=compare,
    )


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical JSON for a config; parse_config round-trips it.  Unset
    (None) values are left out, as in a config file."""

    def present(obj) -> dict:
        return {k: v for k, v in asdict(obj).items() if v is not None}

    doc = present(config.spec)
    doc["distribution"] = {"name": doc.pop("dist_name")}
    if "dist_Y" in doc:
        doc["distribution"]["Y"] = doc.pop("dist_Y")
    doc["out"] = config.out
    doc["emit_plot_data"] = config.emit_plot_data
    doc["tuning"] = present(config.tuning)
    if config.compare is not None:
        doc["compare"] = present(config.compare)
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        if value != value:  # NaN marks an undefined statistic
            return ""
        return format(value, ".6g")
    return str(value)


def emit_csv(records: list[SweepRecord], path: Path | str) -> Path:
    """One row per sweep point under the fixed header; byte-stable."""
    if not records:
        raise ValueError("no records to write")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fp:
        fp.write(CSV_HEADER + "\n")
        for r in records:
            row = [
                r.scheme, r.distribution, r.K, r.M, r.G, r.trials, r.seed,
                r.alpha, r.beta, r.mu, r.T_mean, r.T_se, r.eta_mean, r.eta_se,
                r.eta_max_mean, r.gamma_mean, r.gamma_se, r.energy_per_user_db,
            ]
            fp.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def emit_compare_csv(rows: list[CompareRow], path: Path | str) -> Path:
    if not rows:
        raise ValueError("no rows to write")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fp:
        fp.write(COMPARE_HEADER + "\n")
        for r in rows:
            row = [
                r.scheme, r.es_over_N0_db, r.rate_bits, r.energy_per_user_db,
                r.T_mean, r.alpha, r.beta, r.mu, r.note,
            ]
            fp.write(",".join(_fmt(v) for v in row) + "\n")
    return path


_PLOT_METRICS = (
    ("T", "T_mean"),
    ("eta", "eta_mean"),
    ("eta_max", "eta_max_mean"),
    ("gamma", "gamma_mean"),
    ("energy_per_user_db", "energy_per_user_db"),
)


def emit_plot_data(records: list[SweepRecord], outdir: Path | str) -> list[Path]:
    """One two-column (G, value) file per series per metric; for power
    adaptation the energy metric also gets the two constant reference
    series (baseline level and interference-free floor)."""
    if not records:
        raise ValueError("no records to write")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    series_keys = sorted({(r.scheme, r.distribution) for r in records})
    written: list[Path] = []

    def write_series(name: str, points: list[tuple[float, float]]) -> None:
        if not points:
            print(f"warning: no data for {name}, skipping", file=sys.stderr)
            return
        path = outdir / name
        with open(path, "w", newline="\n") as fp:
            for g, v in points:
                fp.write(f"{_fmt(g)}\t{_fmt(v)}\n")
        written.append(path)

    for metric, attr in _PLOT_METRICS:
        for scheme, dist in series_keys:
            points = [
                (r.G, getattr(r, attr))
                for r in records
                if r.scheme == scheme and r.distribution == dist
                and getattr(r, attr) is not None
            ]
            write_series(f"{metric}__{scheme}__{dist}.dat", points)
    for scheme, dist in series_keys:
        if scheme != "PA":
            continue
        sub = [r for r in records if r.scheme == scheme and r.distribution == dist]
        irsa_ref = [(r.G, r.gamma_irsa_db) for r in sub if r.gamma_irsa_db is not None]
        min_ref = [(r.G, r.gamma_min_db) for r in sub if r.gamma_min_db is not None]
        write_series(f"energy_per_user_db__IRSA_reference__{dist}.dat", irsa_ref)
        write_series(f"energy_per_user_db__min_reference__{dist}.dat", min_ref)
    return written


def _write_sidecar(path: Path, config: ExperimentConfig, records, tunings=None) -> None:
    doc = {
        "config": json.loads(serialize_config(config)),
        "points": [
            {"G": r.G, "M": r.M, "alpha": r.alpha, "beta": r.beta, "mu": r.mu,
             "l_avg": r.l_avg, "note": r.note}
            for r in records
        ],
    }
    if tunings is not None:
        doc["tunings"] = [asdict(t) for t in tunings]
    with open(path, "w", newline="\n") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    text = Path(args.config).read_text()
    # Flag precedence: flags > file > defaults.  Flags pass the checks of the
    # keys they replace.
    flags = {key: getattr(args, key, None) for key in FLAG_CHECKS}
    flags = {key: value for key, value in flags.items() if value is not None}
    errors = [
        f"--{key}: {problem}"
        for key, value in flags.items()
        if (problem := FLAG_CHECKS[key](value))
    ]
    try:
        config = parse_config(text)
    except ConfigValidationError as err:
        raise ConfigValidationError(err.errors + errors) from None
    if errors:
        raise ConfigValidationError(errors)
    spec = replace(config.spec, **flags)
    out = config.out if getattr(args, "out", None) is None else args.out
    return replace(config, spec=spec, out=out)


def _finish_sweep(config: ExperimentConfig, records, tunings, stem: str) -> int:
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = emit_csv(records, outdir / f"{stem}.csv")
    _write_sidecar(outdir / f"{stem}.meta.json", config, records, tunings)
    if config.emit_plot_data:
        emit_plot_data(records, outdir)
    print(f"wrote {csv_path}")
    flagged = [r for r in records if r.note]
    for r in flagged:
        print(f"note: G={_fmt(r.G)}: {r.note}", file=sys.stderr)
    if len(flagged) == len(records):
        print("error: every sweep point failed", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    spec = config.spec
    if spec.scheme == "RS" and (spec.alpha is None or spec.beta is None):
        print("error: sweep with scheme RS needs alpha and beta "
              "(use the tune command to derive them)", file=sys.stderr)
        return 1
    if spec.scheme == "PA" and spec.mu is None:
        print("error: sweep with scheme PA needs mu "
              "(use the tune command to derive it)", file=sys.stderr)
        return 1
    records = run_sweep(spec)
    return _finish_sweep(config, records, None, "sweep")


def _cmd_tune(args: argparse.Namespace) -> int:
    config = _load_config(args)
    spec = config.spec
    t = config.tuning
    if spec.scheme == "RS":
        records, tunings = run_tuned_rs_sweep(
            spec, t.alpha_grid, t.beta_grid,
            tune_trials=t.tune_trials, throughput_cap=t.throughput_cap,
        )
    elif spec.scheme == "PA":
        records, tunings = run_tuned_pa_sweep(
            spec, tune_trials=t.tune_trials, mu_max=t.mu_max,
            resolution=t.mu_resolution, target_fraction=t.target_fraction,
            criterion=t.mu_criterion, reliability=t.reliability,
        )
    else:
        print("error: tune applies to RS or PA", file=sys.stderr)
        return 1
    return _finish_sweep(config, records, tunings, "tune")


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if config.compare is None:
        print("error: compare command needs a 'compare' config section",
              file=sys.stderr)
        return 1
    if len(config.spec.G_grid) != 1:
        print("error: compare runs at a single G", file=sys.stderr)
        return 1
    t = config.tuning
    rows = compare_rs_pa(
        config.spec,
        config.compare.es_over_N0_db_grid,
        alpha_grid=t.alpha_grid,
        beta_grid=t.beta_grid,
        tune_trials=t.tune_trials,
        min_throughput=config.compare.min_throughput,
        mu_max=t.mu_max,
        resolution=t.mu_resolution,
    )
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = emit_compare_csv(rows, outdir / "compare.csv")
    print(f"wrote {path}")
    if all(r.note for r in rows):
        print("error: every comparison point failed", file=sys.stderr)
        return 2
    return 0


def _cmd_decode_one(args: argparse.Namespace) -> int:
    with open(args.edges) as fp:
        graph = FrameGraph.load_edges(fp, M=args.slots)
    l_avg = args.l_avg if args.l_avg is not None else float(graph.degrees.mean())
    rmax_includes_one = not args.rmax_excludes_one
    if args.scheme in ("IRSA", "RS"):
        if args.es_over_n0 is None:
            print("error: IRSA/RS decoding needs --es-over-n0", file=sys.stderr)
            return 1
        cfg = ChannelConfig(
            K=graph.K, M=graph.M, L_cu=args.l_cu, N0=args.n0,
            tilde_Es=args.es_over_n0 * args.n0 * l_avg / graph.M,
        )
        if args.scheme == "RS":
            if args.alpha is None or args.beta is None:
                print("error: RS decoding needs --alpha and --beta", file=sys.stderr)
                return 1
            scheme = SchemeConfig("RS", alpha=args.alpha, beta=args.beta,
                                  rmax_includes_one=rmax_includes_one)
        else:
            scheme = SchemeConfig("IRSA", rmax_includes_one=rmax_includes_one)
    else:
        if args.hat_r_bits is None or args.mu is None:
            print("error: PA decoding needs --hat-r-bits and --mu", file=sys.stderr)
            return 1
        cfg = ChannelConfig(K=graph.K, M=graph.M, L_cu=args.l_cu, N0=args.n0,
                            hat_R=args.hat_r_bits)
        scheme = SchemeConfig("PA", mu=args.mu, rmax_includes_one=rmax_includes_one)
    try:
        profile = build_profile(graph.degrees, cfg, scheme, l_avg)
    except (TuningParameterError, InfeasibleOperatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    result = decode_frame(graph, profile, scheme, cfg)
    print("step\tphase\tmessage\tslot\teffective_sinr\tassigned_rate\tgenie_rate")
    for msg in result.decode_order():
        step = result.decode_step[msg]
        phase = PHASE_LABELS[int(result.phase[msg])]
        slot = "" if result.decode_slot[msg] < 0 else str(int(result.decode_slot[msg]))
        print(
            f"{step}\t{phase}\t{msg}\t{slot}\t"
            f"{_fmt(float(result.decode_sinr[msg]))}\t"
            f"{_fmt(float(profile.rates[msg]))}\t"
            f"{_fmt(float(result.genie_rate[msg]))}"
        )
    undecoded = int(graph.K - result.decoded_count)
    print(f"# decoded {result.decoded_count}/{graph.K}, undecoded {undecoded}",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsa-sim",
        description="Monte Carlo simulator for repetition-based slotted "
        "random access on the Gaussian MAC with an MRC+SIC receiver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--trials", type=int, help="trials per point (overrides config)")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")

    add_common(sub.add_parser("sweep", help="run a fixed-parameter sweep"))
    add_common(sub.add_parser("tune", help="tune alpha/beta (RS) or mu (PA), then sweep"))
    add_common(sub.add_parser("compare", help="rate-selection vs power-adaptation table"))

    d = sub.add_parser("decode-one", help="decode one frame from an edge list")
    d.add_argument("--edges", required=True, help="tab-separated (message, slot) lines")
    d.add_argument("--scheme", required=True, choices=SCHEMES)
    d.add_argument("--slots", type=int, help="slot count (default: max slot index + 1)")
    d.add_argument("--l-cu", type=int, default=100, help="channel uses per slot")
    d.add_argument("--n0", type=float, default=1.0, help="noise variance")
    d.add_argument("--es-over-n0", type=float, help="per-replica energy (IRSA/RS)")
    d.add_argument("--alpha", type=float, help="RS rate boost coefficient")
    d.add_argument("--beta", type=float, help="RS interference estimate coefficient")
    d.add_argument("--hat-r-bits", type=float, help="PA nominal rate in bits")
    d.add_argument("--mu", type=float, help="PA power margin")
    d.add_argument("--l-avg", type=float,
                   help="analytic mean degree (default: realized mean)")
    d.add_argument("--rmax-excludes-one", action="store_true",
                   help="use log2(SINR) capacity thresholds instead of log2(1+SINR)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "tune": _cmd_tune,
        "compare": _cmd_compare,
        "decode-one": _cmd_decode_one,
    }
    try:
        return handlers[args.command](args)
    except ConfigValidationError as err:
        for problem in err.errors:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (TuningParameterError, InfeasibleOperatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
