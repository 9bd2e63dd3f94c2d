"""Experiment configuration, dispatch, and tabular output.

Config files are JSON.  ``parse_config`` checks the JSON types and fills
missing keys from the dataclass defaults; the config types check their own
ranges (``config.RANGES``), and every problem is reported with its key path,
not just the first.  A flag takes the range of the field it sets: out of
range, it exits 1 with ``config error: --flag: problem``.  Outputs are CSV
(one row per sweep point or comparison line, fixed 6-significant-digit
formatting, LF line endings) plus an optional two-column file per metric
for plotting, and a JSON sidecar recording the resolved spec and any tuned
parameters.

Exit codes: 0 success, 1 validation error, 2 runtime infeasibility.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

from .config import SCHEME_PARAMETERS, SCHEMES, ConfigValidationError, problem, rate_problem
from .decoder import decode_frame
from .frame_graph import FrameGraph
from .harness import (
    CompareConfig,
    CompareRow,
    SweepRecord,
    SweepSpec,
    TuningConfig,
    compare_rs_pa,
    run_sweep,
    run_tuned_sweep,
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
    "emit_plot_data",
    "main",
]

# Each table's columns in order, the attributes of its row type that it
# writes; emit_csv picks them by the type of the rows.
CSV_COLUMNS = (
    "scheme", "distribution", "K", "M", "G", "trials", "seed", "alpha", "beta", "mu",
    "T_mean", "T_se", "eta_mean", "eta_se", "eta_max_mean", "gamma_mean", "gamma_se",
    "energy_per_user_db",
)
CSV_HEADER = ",".join(CSV_COLUMNS)
COMPARE_COLUMNS = (
    "scheme", "es_over_N0_db", "rate_bits", "energy_per_user_db", "T_mean",
    "alpha", "beta", "mu", "note",
)
_COLUMNS = {SweepRecord: CSV_COLUMNS, CompareRow: COMPARE_COLUMNS}


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

# Config keys of the SweepSpec fields that a config file nests.
_KEYS = {"dist_name": "distribution.name", "dist_Y": "distribution.Y"}

# Flags named apart from the config field whose range they take; every
# other flag takes the range of its namesake, if it has one.
_FLAG_FIELDS = {
    "slots": "M", "l_cu": "L_cu", "n0": "N0", "es_over_n0": "tilde_Es", "hat_r_bits": "hat_R",
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _flag_problems(args: argparse.Namespace) -> list[str]:
    """Every flag value out of its field's range, as "--flag: problem"."""
    return [
        f"{_flag(name)}: {found}"
        for name, value in vars(args).items()
        if (found := problem(_FLAG_FIELDS.get(name, name), value))
    ]


def _kinds(annotation) -> tuple[type, ...]:
    """Types a field of this annotation holds, None left out; a tuple field
    is a JSON list."""
    if typing.get_origin(annotation) is tuple:
        return (list,)
    args = typing.get_args(annotation)
    if not args:
        return (annotation,)
    return tuple(kind for arg in args if arg is not type(None) for kind in _kinds(arg))


def _section(cls, doc: dict, path: str, errors: list[str], **sections):
    """``cls`` built from the config ``sections`` it holds and the keys of
    ``doc`` that name its other fields (popped from ``doc``); a missing key
    takes the field's default.  The JSON types are checked here, the ranges
    by ``cls`` itself.  On a problem, every one goes to ``errors`` under
    ``path`` and None is returned."""
    values, problems = dict(sections), []
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        key = _KEYS.get(f.name, f.name)
        if f.name in sections:
            continue
        if key not in doc:
            if f.default is MISSING and f.default_factory is MISSING:
                problems.append(f"{f.name}: missing required key")
                values[f.name] = None  # unset, so that cls still checks the rest
            continue
        value, kinds = doc.pop(key), _kinds(hints[f.name])
        if float in kinds and type(value) in (int, float):
            value = float(value)
        elif list in kinds and isinstance(value, list):
            if all(type(x) in (int, float) for x in value):
                value = tuple(float(x) for x in value)
            else:
                problems.append(f"{f.name}: entries must be numbers")
                value = None
        elif not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            problems.append(f"{f.name}: expected {' or '.join(k.__name__ for k in kinds)}")
            value = None
        values[f.name] = value
    try:
        built = cls(**values)
    except ConfigValidationError as err:
        built, problems = None, problems + err.errors
    for entry in problems:
        name, _, text = entry.partition(": ")
        errors.append(f"{path}{_KEYS.get(name, name)}: {text}")
    return None if problems else built


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON experiment config; raises ConfigValidationError with
    every problem found, each under its key path."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigValidationError([f"invalid JSON: {err}"]) from err
    if not isinstance(data, dict):
        raise ConfigValidationError(["top level: expected a JSON object"])
    # Dotted keys are key paths of nested sections, never keys of their own.
    errors = [f"{key}: unknown key" for key in sorted(data) if "." in key]
    doc, nested = {k: v for k, v in data.items() if "." not in k}, {}
    for name in ("distribution", "tuning", "compare"):
        if name in doc:
            if isinstance(value := doc.pop(name), dict):
                nested[name] = dict(value)
            else:
                errors.append(f"{name}: expected object")
    doc.update({f"distribution.{k}": v for k, v in nested.pop("distribution", {}).items()})
    spec = _section(SweepSpec, doc, "", errors)
    tuning = _section(TuningConfig, nested.setdefault("tuning", {}), "tuning.", errors)
    compare = None
    if "compare" in nested:
        compare = _section(CompareConfig, nested["compare"], "compare.", errors)
    config = _section(ExperimentConfig, doc, "", errors, spec=spec, tuning=tuning, compare=compare)
    for path, rest in [("", doc), *((f"{name}.", d) for name, d in nested.items())]:
        errors += [f"{path}{key}: unknown key" for key in sorted(rest)]
    if errors:
        raise ConfigValidationError(errors)
    return config


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical JSON for a config; parse_config round-trips it.  Unset
    (None) values are left out, as in a config file."""

    def present(obj) -> dict:
        return {k: v for k, v in asdict(obj).items() if v is not None}

    doc = present(config.spec)
    for name, key in _KEYS.items():
        if name in doc:
            section, sub = key.split(".")
            doc.setdefault(section, {})[sub] = doc.pop(name)
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
    """A cell's text: empty for None and NaN (an undefined statistic), 6
    significant digits for a float, ``str`` for anything else."""
    if value is None or value != value:
        return ""
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _cell(value) -> str:
    """A formatted CSV field, quoted RFC 4180 style only when it holds a
    comma, a quote or a line break."""
    text = _fmt(value)
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_csv(rows: list[SweepRecord] | list[CompareRow], path: Path | str) -> Path:
    """A header line of the row type's columns, then one line per row
    holding its attributes of those names; LF line endings, byte-stable."""
    if not rows:
        raise ValueError("no rows to write")
    columns = _COLUMNS[type(rows[0])]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fp:
        fp.write(",".join(columns) + "\n")
        for row in rows:
            fp.write(",".join(_cell(getattr(row, name)) for name in columns) + "\n")
    return path


_PLOT_METRICS = (
    ("T", "T_mean"),
    ("eta", "eta_mean"),
    ("eta_max", "eta_max_mean"),
    ("gamma", "gamma_mean"),
    ("energy_per_user_db", "energy_per_user_db"),
)


def emit_plot_data(records: list[SweepRecord], outdir: Path | str) -> list[Path]:
    """One two-column (G, value) file per metric for the run's one series,
    named by the scheme and distribution that every record of a sweep or
    tune carries; for power adaptation the energy metric also gets the two
    constant reference series (baseline level and interference-free
    floor).  A point without the value is left out, and a series without
    any point is skipped with a warning."""
    if not records:
        raise ValueError("no records to write")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    scheme, dist = records[0].scheme, records[0].distribution
    series = [(f"{metric}__{scheme}__{dist}.dat", attr) for metric, attr in _PLOT_METRICS]
    if scheme == "PA":
        series += [
            (f"energy_per_user_db__IRSA_reference__{dist}.dat", "gamma_irsa_db"),
            (f"energy_per_user_db__min_reference__{dist}.dat", "gamma_min_db"),
        ]
    written: list[Path] = []
    for name, attr in series:
        points = [(r.G, value) for r in records if (value := getattr(r, attr)) is not None]
        if not points:
            print(f"warning: no data for {name}, skipping", file=sys.stderr)
            continue
        path = outdir / name
        with open(path, "w", newline="\n") as fp:
            fp.writelines(f"{_fmt(g)}\t{_fmt(v)}\n" for g, v in points)
        written.append(path)
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
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigValidationError([f"--config {args.config}: not UTF-8 text: {err}"]) from None
    # Flag precedence: flags > file > defaults.  Flags pass the checks of the
    # keys they replace.
    errors = _flag_problems(args)
    try:
        config = parse_config(text)
    except ConfigValidationError as err:
        raise ConfigValidationError(err.errors + errors) from None
    if errors:
        raise ConfigValidationError(errors)
    flags = {key: getattr(args, key) for key in ("trials", "seed")}
    spec = replace(config.spec, **{k: v for k, v in flags.items() if v is not None})
    out = config.out if getattr(args, "out", None) is None else args.out
    if Path(out).exists() and not Path(out).is_dir():  # found before the run, not after
        raise FileExistsError(f"output directory {out} exists and is not a directory")
    return replace(config, spec=spec, out=out)


def _finish_sweep(config: ExperimentConfig, records, tunings, stem: str) -> int:
    outdir = Path(config.out)
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
    missing = [name for name in SCHEME_PARAMETERS[spec.scheme] if getattr(spec, name) is None]
    if missing:
        print(f"error: sweep with scheme {spec.scheme} needs {' and '.join(missing)} "
              "(use the tune command to derive them)", file=sys.stderr)
        return 1
    records = run_sweep(spec)
    return _finish_sweep(config, records, None, "sweep")


def _cmd_tune(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if config.spec.scheme not in ("RS", "PA"):
        print("error: tune applies to RS or PA", file=sys.stderr)
        return 1
    records, tunings = run_tuned_sweep(config.spec, config.tuning)
    return _finish_sweep(config, records, tunings, "tune")


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if config.compare is None:
        print("error: compare command needs a 'compare' config section",
              file=sys.stderr)
        return 1
    rows = compare_rs_pa(config.spec, config.tuning, config.compare)
    path = emit_csv(rows, Path(config.out) / "compare.csv")
    print(f"wrote {path}")
    if all(r.note for r in rows):
        print("error: every comparison point failed", file=sys.stderr)
        return 2
    return 0


def _cmd_decode_one(args: argparse.Namespace) -> int:
    errors = _flag_problems(args)
    if found := rate_problem(args.hat_r_bits, args.l_cu, args.n0):
        errors.append(f"--hat-r-bits: {found}")
    if errors:
        raise ConfigValidationError(errors)
    try:
        with open(args.edges) as fp:
            graph = FrameGraph.load_edges(fp, M=args.slots)
    except ValueError as err:
        print(f"error: --edges {args.edges}: {err}", file=sys.stderr)
        return 1
    l_avg = args.l_avg if args.l_avg is not None else float(graph.degrees.mean())
    takes = SCHEME_PARAMETERS[args.scheme]
    energy = "hat_r_bits" if args.scheme == "PA" else "es_over_n0"
    missing = [_flag(name) for name in (energy, *takes) if getattr(args, name) is None]
    if missing:
        print(f"error: {args.scheme} decoding needs {' and '.join(missing)}", file=sys.stderr)
        return 1
    tilde_Es = None
    if args.scheme != "PA":
        tilde_Es = args.es_over_n0 * args.n0 * l_avg / graph.M
        # In-range flags can still overflow or underflow the product.
        if found := problem("tilde_Es", tilde_Es):
            raise ConfigValidationError([
                f"--es-over-n0: times --n0 and --l-avg over {graph.M} slots "
                f"gives a per-slot energy of {tilde_Es!r}, which {found}"
            ])
    cfg = ChannelConfig(
        K=graph.K, M=graph.M, L_cu=args.l_cu, N0=args.n0, tilde_Es=tilde_Es,
        hat_R=args.hat_r_bits if args.scheme == "PA" else None,
    )
    scheme = SchemeConfig(
        args.scheme,
        rmax_includes_one=not args.rmax_excludes_one,
        **{name: getattr(args, name) for name in takes},
    )
    profile = build_profile(graph.degrees, cfg, scheme, l_avg)
    result = decode_frame(graph, profile, scheme, cfg)
    print("step\tphase\tmessage\tslot\teffective_sinr\tassigned_rate\tgenie_rate")
    steps = zip(result.order.tolist(), result.slots, result.sinrs.tolist(),
                result.genie_rates.tolist())
    for step, (msg, slot, sinr, genie_rate) in enumerate(steps):
        # A residual-phase decode has no degree-one slot.
        phase, slot = ("residual", "") if slot < 0 else ("peeling", slot)
        print(
            f"{step}\t{phase}\t{msg}\t{slot}\t{_fmt(sinr)}\t"
            f"{_fmt(float(profile.rates[msg]))}\t{_fmt(genie_rate)}"
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
    d.add_argument("--l-cu", type=int, default=ChannelConfig.L_cu, help="channel uses per slot")
    d.add_argument("--n0", type=float, default=ChannelConfig.N0, help="noise variance")
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
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (TuningParameterError, InfeasibleOperatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
