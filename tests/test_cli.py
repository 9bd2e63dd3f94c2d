"""Config validation, CSV/plot-data emission, and the command surface."""

import csv
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from irsa_sim import cli, harness
from irsa_sim.cli import (
    CSV_HEADER,
    ConfigValidationError,
    emit_csv,
    emit_plot_data,
    main,
    parse_config,
    serialize_config,
)
from irsa_sim.distributions import avg_degree, from_name
from irsa_sim.frame_graph import FrameGraph
from irsa_sim.harness import SweepRecord, run_sweep


CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
DATA = Path(__file__).parent / "data"
FRAME = DATA / "irsa_frame.tsv"

# A child interpreter's environment: the package's source first on its path.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (str(Path(harness.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")))
))

MINIMAL_SWEEP = {
    "scheme": "IRSA",
    "distribution": {"name": "modified_soliton", "Y": 10},
    "K": 300,
    "G_grid": [0.4, 0.8],
    "tilde_Es_over_N0": 0.0009,
}


def write_edges(path, graph):
    """Write a frame as the tab-separated (message, slot) list decode-one
    reads."""
    pairs = zip(graph.edge_msg.tolist(), graph.edge_slot.tolist())
    path.write_text("".join(f"{k}\t{j}\n" for k, j in pairs))


def run_config(out, command, config, *flags):
    """``main``'s exit code for ``command`` on ``config``, written as JSON
    into ``out`` (made if absent), with ``--out out`` and ``flags``.  The run
    raises no RuntimeWarning."""
    out.mkdir(parents=True, exist_ok=True)
    path = out / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(path), "--out", str(out), *flags])
    assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return code


def run_child(args, address_space=None, timeout=60):
    """``python -W error::RuntimeWarning *args`` in a fresh interpreter with
    the package on its path, its address space limited to ``address_space``
    bytes if given (in the child alone); the finished process."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args], env=CHILD_ENV,
        capture_output=True, text=True, timeout=timeout,
        preexec_fn=None if address_space is None else limit,
    )


def make_record(**kw):
    base = dict(
        scheme="IRSA", distribution="l3", K=30, M=40, G=0.75, trials=10, seed=0,
        alpha=None, beta=None, mu=None, T_mean=0.5, T_se=0.01, eta_mean=0.25,
        eta_se=0.005, eta_max_mean=0.3, gamma_mean=2.5, gamma_se=0.1,
        energy_per_user_db=-3.0,
    )
    base.update(kw)
    return SweepRecord(**base)


class TestParseConfig:
    def test_minimal_defaults(self):
        config = parse_config(json.dumps(MINIMAL_SWEEP))
        assert config.spec.trials == 1000
        assert config.spec.seed == 0
        assert config.spec.L_cu == 100
        assert config.spec.N0 == 1.0
        assert config.spec.rmax_includes_one is True

    def test_distribution_moment(self):
        config = parse_config(json.dumps(MINIMAL_SWEEP))
        dist = from_name(config.spec.dist_name, config.spec.dist_Y)
        assert avg_degree(dist) == pytest.approx(3.428968, abs=1e-5)

    def test_zero_g_rejected(self):
        bad = dict(MINIMAL_SWEEP, G_grid=[0.0])
        with pytest.raises(ConfigValidationError, match="G_grid"):
            parse_config(json.dumps(bad))

    def test_unknown_keys_rejected_with_path(self):
        bad = dict(MINIMAL_SWEEP, banana=1, tuning={"alpha_gird": [1]})
        with pytest.raises(ConfigValidationError) as err:
            parse_config(json.dumps(bad))
        text = str(err.value)
        assert "banana: unknown key" in text
        assert "tuning.alpha_gird: unknown key" in text

    def test_all_errors_reported(self):
        bad = {
            "scheme": "FANCY",
            "distribution": {"name": "l3", "Y": 4},
            "K": 0,
            "G_grid": [],
            "trials": 0,
        }
        with pytest.raises(ConfigValidationError) as err:
            parse_config(json.dumps(bad))
        assert len(err.value.errors) >= 5

    def test_scheme_energy_requirements(self):
        missing = dict(MINIMAL_SWEEP)
        del missing["tilde_Es_over_N0"]
        with pytest.raises(ConfigValidationError, match="tilde_Es_over_N0"):
            parse_config(json.dumps(missing))
        pa = dict(MINIMAL_SWEEP, scheme="PA")
        del pa["tilde_Es_over_N0"]
        with pytest.raises(ConfigValidationError, match="hat_R_bits"):
            parse_config(json.dumps(pa))

    def test_soliton_parameter_required(self):
        bad = dict(MINIMAL_SWEEP, distribution={"name": "modified_soliton"})
        with pytest.raises(ConfigValidationError, match="distribution.Y"):
            parse_config(json.dumps(bad))
        bad = dict(MINIMAL_SWEEP, distribution={"name": "l3", "Y": 5})
        with pytest.raises(ConfigValidationError, match="distribution.Y"):
            parse_config(json.dumps(bad))

    def test_y_may_track_slot_count(self):
        ok = dict(MINIMAL_SWEEP, distribution={"name": "ideal_soliton", "Y": "M"})
        config = parse_config(json.dumps(ok))
        assert config.spec.dist_Y == "M"
        assert config.spec.dist_for(50).max_degree == 50

    def test_invalid_json(self):
        with pytest.raises(ConfigValidationError, match="invalid JSON"):
            parse_config("{not json")

    def test_round_trip(self):
        doc = dict(
            MINIMAL_SWEEP,
            scheme="RS",
            alpha=0.5,
            beta=1.2,
            trials=77,
            seed=3,
            out="results",
            emit_plot_data=True,
            tuning={"alpha_grid": [0.1, 0.5], "tune_trials": 12, "throughput_cap": 0.8},
            compare={"es_over_N0_db_grid": [-18.0, -16.0]},
        )
        config = parse_config(json.dumps(doc))
        assert config.tuning.throughput_cap == 0.8
        assert parse_config(serialize_config(config)) == config

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_configs_parse_and_round_trip(self, path):
        config = parse_config(path.read_text())
        assert parse_config(serialize_config(config)) == config

    def test_problems_of_mistyped_and_out_of_range_keys_together(self):
        bad = dict(MINIMAL_SWEEP, scheme="PA", K="many", trials=0,
                   tuning={"mu_max": 0.5, "reliability": "x"})
        del bad["distribution"]
        with pytest.raises(ConfigValidationError) as err:
            parse_config(json.dumps(bad))
        assert sorted(err.value.errors) == [
            "K: expected int",
            "distribution.name: missing required key",
            "hat_R_bits: required for PA",
            "trials: must be >= 1",
            "tuning.mu_max: must be >= 1",
            "tuning.reliability: expected float",
        ]


class TestEmitCsv:
    def test_single_record_two_lines(self, tmp_path):
        path = emit_csv([make_record()], tmp_path / "out.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_thirty_points_thirty_one_lines(self, tmp_path):
        records = [make_record(G=round(0.05 * i, 2)) for i in range(1, 31)]
        path = emit_csv(records, tmp_path / "out.csv")
        assert len(path.read_text().splitlines()) == 31

    def test_byte_identical_rerun(self, tmp_path):
        records = [make_record(), make_record(G=0.8, T_mean=1 / 3)]
        a = emit_csv(records, tmp_path / "a.csv").read_bytes()
        b = emit_csv(records, tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_lf_endings_and_empty_fields(self, tmp_path):
        rec = make_record(alpha=None, beta=None, mu=None, T_se=None)
        raw = emit_csv([rec], tmp_path / "o.csv").read_bytes()
        assert b"\r" not in raw
        row = raw.decode().splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        assert row[header.index("alpha")] == ""
        assert row[header.index("mu")] == ""
        assert row[header.index("T_se")] == ""

    def test_six_significant_digits(self, tmp_path):
        rec = make_record(T_mean=0.123456789, gamma_mean=12345.6789)
        row = emit_csv([rec], tmp_path / "o.csv").read_text().splitlines()[1]
        assert "0.123457" in row
        assert "12345.7" in row

    def test_sweep_output_is_deterministic(self, tmp_path):
        from irsa_sim.harness import SweepSpec

        spec = SweepSpec(
            scheme="IRSA", dist_name="modified_soliton", dist_Y=4, K=20,
            G_grid=(0.4, 0.8, 1.2), trials=30, seed=5, tilde_Es_over_N0=0.01,
        )
        a = emit_csv(run_sweep(spec), tmp_path / "a.csv").read_bytes()
        b = emit_csv(run_sweep(spec), tmp_path / "b.csv").read_bytes()
        assert a == b


# A run of each kind with plot data, (command, config).  G = 1e-9 leaves
# more than MAX_SLOTS slots, so that point is flagged with empty cells.
PLOT_RUNS = {
    "irsa_sweep": ("sweep", dict(
        MINIMAL_SWEEP, K=24, trials=5, G_grid=[0.8, 1e-9, 0.4],
        distribution={"name": "modified_soliton", "Y": 4},
    )),
    "pa_tune": ("tune", {
        "scheme": "PA", "distribution": {"name": "modified_soliton", "Y": 4}, "K": 24,
        "G_grid": [0.8, 1e-9, 0.4], "trials": 5, "L_cu": 50, "hat_R_bits": 6.0,
        "tuning": {"tune_trials": 4},
    }),
}


def run_with_plot_data(tmp_path, run_id):
    """The CSV rows and the sidecar of a PLOT_RUNS run with plot data."""
    command, config = PLOT_RUNS[run_id]
    assert run_config(tmp_path, command, dict(config, emit_plot_data=True)) == 0
    with open(tmp_path / f"{command}.csv", newline="") as fp:
        rows = list(csv.DictReader(fp))
    return rows, json.loads((tmp_path / f"{command}.meta.json").read_text())


class TestEmitPlotData:
    @pytest.mark.parametrize("run_id", PLOT_RUNS)
    def test_run_series_match_csv_columns(self, tmp_path, run_id):
        rows, _ = run_with_plot_data(tmp_path, run_id)
        assert [row["T_mean"] == "" for row in rows] == [False, True, False]
        series = {"T": "T_mean", "eta": "eta_mean", "eta_max": "eta_max_mean",
                  "gamma": "gamma_mean", "energy_per_user_db": "energy_per_user_db"}
        for metric, column in series.items():
            name = f"{metric}__{rows[0]['scheme']}__{rows[0]['distribution']}.dat"
            lines = (tmp_path / name).read_text().splitlines()
            assert lines == [f"{row['G']}\t{row[column]}" for row in rows if row[column]], name

    def test_pa_reference_series_from_the_sidecar(self, tmp_path):
        rows, meta = run_with_plot_data(tmp_path, "pa_tune")
        config = PLOT_RUNS["pa_tune"][1]
        hat_es = 2.0 ** (2.0 * config["hat_R_bits"] / config["L_cu"]) - 1.0  # hat_Es/N0
        points = [p for p in meta["points"] if p["l_avg"] is not None]
        assert len(points) == 2
        for name, level in (("IRSA_reference", lambda p: p["l_avg"] * hat_es),
                            ("min_reference", lambda p: hat_es)):
            path = tmp_path / f"energy_per_user_db__{name}__{rows[0]['distribution']}.dat"
            got = [[float(x) for x in line.split("\t")] for line in path.read_text().splitlines()]
            expected = [[p["G"], 10.0 * math.log10(level(p))] for p in points]
            assert got == [pytest.approx(e, rel=1e-5) for e in expected], name

    def test_pa_energy_reference_series(self, tmp_path):
        records = [
            make_record(
                scheme="PA", distribution="modified_soliton_Y10", G=g, mu=1.5,
                energy_per_user_db=-6.0, gamma_irsa_db=-2.9253,
                gamma_min_db=-8.2769, l_avg=3.428968,
            )
            for g in (0.4, 0.8)
        ]
        written = emit_plot_data(records, tmp_path)
        names = {p.name for p in written}
        assert "energy_per_user_db__PA__modified_soliton_Y10.dat" in names
        assert "energy_per_user_db__IRSA_reference__modified_soliton_Y10.dat" in names
        assert "energy_per_user_db__min_reference__modified_soliton_Y10.dat" in names
        ref = tmp_path / "energy_per_user_db__min_reference__modified_soliton_Y10.dat"
        assert ref.read_text() == "0.4\t-8.2769\n0.8\t-8.2769\n"

    def test_empty_metric_warns_and_skips(self, tmp_path, capsys):
        records = [make_record(eta_max_mean=None)]
        written = emit_plot_data(records, tmp_path)
        names = {p.name for p in written}
        assert not any(n.startswith("eta_max") for n in names)
        assert "no data" in capsys.readouterr().err


# The commands whose grid points the range checks flag: (id, command, the
# scheme's config keys).
SCHEME_COMMANDS = [
    ("sweep", "sweep", {"scheme": "IRSA", "tilde_Es_over_N0": 0.0009}),
    ("tune_rs", "tune", {"scheme": "RS", "tilde_Es_over_N0": 0.0009,
                         "tuning": {"alpha_grid": [0.5], "beta_grid": [1.0], "tune_trials": 2}}),
    ("tune_pa", "tune", {"scheme": "PA", "hat_R_bits": 10.0, "tuning": {"tune_trials": 2}}),
]


class TestMainCommands:
    def test_sweep_end_to_end(self, tmp_path):
        config = dict(MINIMAL_SWEEP, K=24, trials=5, emit_plot_data=True,
                      distribution={"name": "modified_soliton", "Y": 4})
        assert run_config(tmp_path, "sweep", config) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert (tmp_path / "sweep.meta.json").exists()
        assert (tmp_path / "T__IRSA__modified_soliton_Y4.dat").exists()

    def test_flag_overrides_config(self, tmp_path):
        config = dict(MINIMAL_SWEEP, K=24, trials=5,
                      distribution={"name": "modified_soliton", "Y": 4})
        run_config(tmp_path, "sweep", config, "--trials", "2", "--seed", "9")
        row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        assert row[header.index("trials")] == "2"
        assert row[header.index("seed")] == "9"

    @pytest.mark.parametrize(
        "flag, value, problem",
        [("--trials", "0", "must be >= 1"), ("--seed", "-1", "must be >= 0")],
    )
    def test_invalid_flag_override_is_a_config_error(
        self, tmp_path, capsys, flag, value, problem
    ):
        code = run_config(tmp_path, "sweep", dict(MINIMAL_SWEEP, K=24, trials=2), flag, value)
        assert code == 1
        assert capsys.readouterr().err == f"config error: {flag}: {problem}\n"
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "args, problem",
        [
            (["--scheme", "PA", "--hat-r-bits", "4", "--mu", "0.5"], "--mu: must be >= 1"),
            (["--scheme", "IRSA", "--es-over-n0", "1", "--l-cu", "0"], "--l-cu: must be >= 1"),
            (["--scheme", "IRSA", "--es-over-n0", "-1"], "--es-over-n0: must be positive"),
            (["--scheme", "IRSA", "--es-over-n0", "inf"], "--es-over-n0: must be finite"),
            (["--scheme", "IRSA", "--es-over-n0", "1", "--n0", "0"], "--n0: must be positive"),
            (["--scheme", "IRSA", "--es-over-n0", "1", "--n0", "nan"], "--n0: must be finite"),
            (["--scheme", "IRSA", "--es-over-n0", "1", "--l-avg", "0"], "--l-avg: must be positive"),
            (["--scheme", "RS", "--es-over-n0", "1", "--alpha", "-1", "--beta", "1"],
             "--alpha: must be >= 0"),
            (["--scheme", "PA", "--hat-r-bits", "0", "--mu", "1.5"], "--hat-r-bits: must be positive"),
            (["--scheme", "IRSA", "--es-over-n0", "1", "--slots", "0"], "--slots: must be >= 1"),
        ],
        ids=["mu", "l_cu", "es_over_n0", "es_over_n0_inf", "n0", "n0_nan", "l_avg", "alpha",
             "hat_r_bits", "slots"],
    )
    def test_decode_one_flag_out_of_range(self, tmp_path, capsys, args, problem):
        edges = tmp_path / "frame.tsv"
        edges.write_text("0\t0\n0\t1\n1\t1\n")
        assert main(["decode-one", "--edges", str(edges), *args]) == 1
        assert capsys.readouterr().err == f"config error: {problem}\n"

    @pytest.mark.parametrize(
        "args, energy, found",
        [
            (["--es-over-n0", "1e308", "--n0", "1e10"], "inf", "must be finite"),
            (["--es-over-n0", "1e-300", "--n0", "1e-30"], "0.0", "must be positive"),
            (["--es-over-n0", "1e300", "--l-avg", "1e300"], "inf", "must be finite"),
        ],
        ids=["overflow", "underflow", "l_avg_overflow"],
    )
    def test_decode_one_energy_out_of_range_blames_the_flags(
        self, tmp_path, capsys, args, energy, found
    ):
        # Each flag is in range; their product, the per-slot energy, is not.
        edges = tmp_path / "frame.tsv"
        edges.write_text("0\t0\n0\t1\n1\t1\n")
        assert main(["decode-one", "--edges", str(edges), "--scheme", "IRSA", *args]) == 1
        assert capsys.readouterr().err == (
            "config error: --es-over-n0: times --n0 and --l-avg over 2 slots gives a "
            f"per-slot energy of {energy}, which {found}\n"
        )

    @pytest.mark.parametrize(
        "es_over_n0, found",
        [
            ("0.45", "the RS SINR target's denominator (beta*r_avg - 1)*Es + N0 overflows "
                     "for beta=1.0, r_avg=3.145"),
            ("0.3", "the RS SINR target Es/N0 + alpha*(l - 1)*Es/((beta*r_avg - 1)*Es + N0) "
                    "overflows at degree 16"),
        ],
        ids=["denominator", "degree_term"],
    )
    def test_decode_one_rs_target_overflow_is_named(self, capsys, es_over_n0, found):
        # Each flag and the per-slot energy are in range, but at N0 = 1e308
        # the RS target overflows: in its denominator at 0.45, whose degree
        # terms would read inf/inf, and in the degree-16 term at 0.3.
        args = ["--scheme", "RS", "--es-over-n0", es_over_n0, "--alpha", "0.5",
                "--beta", "1.0", "--n0", "1e308"]
        assert main(["decode-one", "--edges", str(FRAME), *args]) == 2
        assert capsys.readouterr().err == f"error: {found}\n"

    @pytest.mark.parametrize(
        "args, found",
        [
            (["--es-over-n0", "2e307"], "a slot's interference overflows in the MRC SINR"),
            (["--es-over-n0", "0.1", "--n0", "1e308"],
             "a slot's interference plus the noise N0 overflows in the MRC SINR"),
        ],
        ids=["interference", "interference_plus_noise"],
    )
    @pytest.mark.parametrize(
        "scheme", [["IRSA"], ["RS", "--alpha", "0.5", "--beta", "1.0"]], ids=["IRSA", "RS"]
    )
    def test_decode_one_slot_overflow_is_named(self, capsys, scheme, args, found):
        # The per-slot energy is in range, but a crowded slot's sum
        # overflows, or does once N0 is added: the baseline's peeling and
        # the RS receiver flag it from their term table, with no trace
        # written.
        assert main(["decode-one", "--edges", str(FRAME), "--scheme", *scheme, *args]) == 2
        out = capsys.readouterr()
        assert out.err == f"error: {found}\n"
        assert out.out == ""

    OVERFLOW = (
        "must be below 51200 bits at L_cu = 100 and N0 = 1, "
        "where the energy N0*(2**(2*hat_R/L_cu) - 1) overflows"
    )

    def test_overflowing_rate_in_config_exits_1(self, tmp_path, capsys):
        config = dict(MINIMAL_SWEEP, scheme="PA", K=24, G_grid=[0.5], trials=2, mu=1.5,
                      distribution={"name": "l3"}, hat_R_bits=100000.0)
        del config["tilde_Es_over_N0"]
        assert run_config(tmp_path, "sweep", config) == 1
        assert capsys.readouterr().err == f"config error: hat_R_bits: {self.OVERFLOW}\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_high_nominal_rate_at_low_load_gives_a_row(self, tmp_path):
        # hat_Es/N0 = 2**100: the per-user energy must not cancel to 0.
        config = dict(MINIMAL_SWEEP, scheme="PA", K=24, G_grid=[0.1], trials=2, mu=1.5,
                      distribution={"name": "l3"}, hat_R_bits=5000.0)
        del config["tilde_Es_over_N0"]
        assert run_config(tmp_path, "sweep", config) == 0
        header, row = (tmp_path / "sweep.csv").read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert values["T_mean"] == "0" and float(values["energy_per_user_db"]) > 0

    @pytest.mark.parametrize(
        "args, limit",
        [(["--hat-r-bits", "1e5"], "51200"), (["--hat-r-bits", "600", "--l-cu", "1"], "512")],
        ids=["hat_r_bits", "l_cu"],
    )
    def test_decode_one_overflowing_rate_exits_1(self, tmp_path, capsys, args, limit):
        edges = tmp_path / "frame.tsv"
        edges.write_text("0\t0\n0\t1\n1\t1\n")
        argv = ["decode-one", "--edges", str(edges), "--scheme", "PA", "--mu", "1.5", *args]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --hat-r-bits: must be below {limit} bits at L_cu = ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("G_grid", [float("nan")], "G_grid: entries must be finite"),
            # Infinity left M = round(K/G) = 0 slots: a flagged row, exit 2.
            ("G_grid", [float("inf")], "G_grid: entries must be finite"),
            ("tilde_Es_over_N0", float("inf"), "tilde_Es_over_N0: must be finite"),
            ("N0", float("inf"), "N0: must be finite"),
        ],
        ids=["G_grid_nan", "G_grid_inf", "tilde_Es_over_N0_inf", "N0_inf"],
    )
    def test_non_finite_config_exits_1(self, tmp_path, capsys, key, value, message):
        config = dict(MINIMAL_SWEEP, K=24, trials=2, **{key: value})
        assert run_config(tmp_path, "sweep", config) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        assert run_config(tmp_path, "sweep", {"scheme": "IRSA"}) == 1
        assert "config error" in capsys.readouterr().err

    def test_rs_sweep_requires_parameters(self, tmp_path, capsys):
        config = dict(MINIMAL_SWEEP, scheme="RS", K=24,
                      distribution={"name": "modified_soliton", "Y": 4})
        assert run_config(tmp_path, "sweep", config) == 1
        assert "alpha and beta" in capsys.readouterr().err

    def test_tune_pa_end_to_end(self, tmp_path):
        config = {
            "scheme": "PA",
            "distribution": {"name": "modified_soliton", "Y": 4},
            "K": 24,
            "G_grid": [0.6],
            "trials": 10,
            "hat_R_bits": 8.0,
            "tuning": {"tune_trials": 10},
        }
        assert run_config(tmp_path, "tune", config) == 0
        meta = json.loads((tmp_path / "tune.meta.json").read_text())
        assert meta["tunings"][0]["feasible"]
        row = (tmp_path / "tune.csv").read_text().splitlines()[1].split(",")
        assert row[CSV_HEADER.split(",").index("mu")] != ""

    def test_sweep_with_too_few_slots_flags_points(self, tmp_path, capsys):
        # G=700 leaves M=0 slots for the M-tracking soliton.
        config = dict(MINIMAL_SWEEP, G_grid=[700],
                      distribution={"name": "ideal_soliton", "Y": "M"})
        assert run_config(tmp_path, "sweep", config) == 2
        err = capsys.readouterr().err
        assert "note: G=700: infeasible" in err
        assert "every sweep point failed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, scheme, flag",
        [
            ("sweep", {"scheme": "IRSA"}, "infeasible"),
            ("tune", {"scheme": "RS", "tuning": {"alpha_grid": [0.2], "beta_grid": [1.0]}}, "flagged"),
        ],
        ids=["sweep", "tune"],
    )
    def test_zero_rates_flag_the_point(self, tmp_path, capsys, command, scheme, flag):
        # 0.5 * L_cu * log2(1 + Es/N0) rounds to 0 bits at this energy.
        config = dict(scheme, distribution={"name": "l3"}, K=20, G_grid=[0.5], trials=4,
                      tilde_Es_over_N0=1e-300)
        assert run_config(tmp_path, command, config) == 2
        err = capsys.readouterr().err
        assert f"note: G=0.5: {flag}: rates round to 0 bits" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, energy, found",
        [
            ("sweep", {"scheme": "IRSA", "tilde_Es_over_N0": 1e307},
             "infeasible: tilde_Es: the per-replica energy M*tilde_Es/l_avg overflows at M = 120"),
            ("sweep", {"scheme": "PA", "hat_R_bits": 10.0, "mu": 1e308},
             "infeasible: mu: the frame energy K*mu*l_i*E_i/N0 overflows at mu = 1e+308"),
            ("sweep", {"scheme": "PA", "hat_R_bits": 1e-20, "mu": 1.5},
             "infeasible: hat_R: the energy N0*(2**(2*hat_R/L_cu) - 1) rounds to 0 at hat_R = 1e-20"),
            ("sweep", {"scheme": "IRSA", "tilde_Es_over_N0": 1e306},
             "infeasible: the frame energy K*l_i*E_i/N0 overflows"),
            ("sweep", {"scheme": "RS", "alpha": 0.01, "beta": 1.0, "tilde_Es_over_N0": 1e305},
             "infeasible: the frame energy K*l_i*E_i/N0 overflows"),
            ("sweep", {"scheme": "RS", "alpha": 1.0, "beta": 1.0, "tilde_Es_over_N0": 1e306},
             "infeasible: the RS SINR target Es/N0 + alpha*(l - 1)*Es/((beta*r_avg - 1)*Es + N0) "
             "overflows at degree 16"),
            ("sweep", {"scheme": "IRSA", "tilde_Es_over_N0": 5e-18, "K": 20, "G_grid": [0.01]},
             "infeasible: C_ref = 0 is not positive and finite"),
            ("tune", {"scheme": "RS", "tilde_Es_over_N0": 1e306,
                      "tuning": {"alpha_grid": [1.0], "beta_grid": [1.0], "tune_trials": 2}},
             "flagged: the RS SINR target Es/N0 + alpha*(l - 1)*Es/((beta*r_avg - 1)*Es + N0) "
             "overflows at degree 16"),
            ("tune", {"scheme": "RS", "tilde_Es_over_N0": 1e305,
                      "tuning": {"alpha_grid": [0.01], "beta_grid": [1.0], "tune_trials": 2}},
             "infeasible: the frame energy K*l_i*E_i/N0 overflows"),
            # The (alpha, beta) admissibility probe meets the infinite energy
            # before any profile does.
            ("tune", {"scheme": "RS", "tilde_Es_over_N0": 1.7e308,
                      "tuning": {"alpha_grid": [0.5], "beta_grid": [1.0], "tune_trials": 2}},
             "flagged: tilde_Es: the per-replica energy M*tilde_Es/l_avg overflows at M = 120"),
            # The frame energy stays in range, but a slot's interference
            # plus N0 does not: the tuners' order-free decode meets it.
            ("tune", {"scheme": "RS", "K": 24, "N0": 1.7e308, "tilde_Es_over_N0": 0.001},
             "flagged: a slot's interference plus the noise N0 overflows in the MRC SINR"),
            # The tuner divides by C_ref before the evaluation checks it.
            ("tune", {"scheme": "RS", "tilde_Es_over_N0": 5e-18, "K": 20, "G_grid": [0.01],
                      "tuning": {"alpha_grid": [0.5], "beta_grid": [4.0], "tune_trials": 2}},
             "flagged: C_ref = 0 is not positive and finite"),
        ],
        ids=["irsa_energy_overflow", "pa_frame_energy_overflow", "pa_energy_underflow",
             "irsa_frame_energy_overflow", "rs_frame_energy_overflow", "rs_rate_overflow",
             "irsa_c_ref_underflow", "rs_tune_rate_overflow", "rs_tuned_frame_energy_overflow",
             "rs_tune_energy_overflow", "rs_tune_noise_overflow", "rs_tune_c_ref_underflow"],
    )
    def test_energy_out_of_float_range_flags_the_point(
        self, tmp_path, capsys, command, energy, found
    ):
        config = {"distribution": {"name": "l3"}, "K": 60, "G_grid": [0.5], "trials": 3, **energy}
        # The flagged note is the whole report: no numpy warning beside it.
        assert run_config(tmp_path, command, config) == 2
        err = capsys.readouterr().err
        assert f"note: G={config['G_grid'][0]}: {found}\n" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        row = (tmp_path / f"{command}.csv").read_text().splitlines()[1].split(",")
        assert row[CSV_HEADER.split(",").index("T_mean"):] == [""] * 8

    @pytest.mark.parametrize(
        "command, scheme, G, note, M, distribution, overrides, kept",
        [
            pytest.param(command, scheme, G, note, M, distribution, {}, True,
                         id=f"{command_id}-{G_id}")
            for command_id, command, scheme in SCHEME_COMMANDS
            for G_id, G, note, M, distribution in [
                (repr(G), G, f"G={G!r} gives K/G = {24 / G:.3g} slots for K=24; "
                 "K*M must stay below 2**63", "", {"name": "l3"})
                for G in (1e-320, 1e-300, 1e-20)
            ] + [
                ("1e-09", 1e-9, "G=1e-09 gives M=24000000000 slots for K=24, "
                 "above the bound MAX_SLOTS = 1000000", "24000000000", {"name": "l3"}),
                ("soliton_Y_M", 1e-3, "no distribution at M=24000: ideal_soliton Y=24000 is "
                 "above the bound MAX_SOLITON_Y = 10000", "24000",
                 {"name": "ideal_soliton", "Y": "M"}),
            ]
        ] + [
            # K*M fits in int64 and M in MAX_SLOTS, but a frame's edges do
            # not fit in memory; no other grid point of this K can run.
            pytest.param(command, scheme, 1e6, "K=1000000000000 at max degree 16 draws up to "
                         "16000000000000 edges a frame, above the bound MAX_EDGES = 1000000",
                         "1000000", {"name": "l3"}, {"K": 10**12}, False,
                         id=f"{command_id}-K_1e12")
            for command_id, command, scheme in SCHEME_COMMANDS
        ] + [
            # A frame fits, but a tuner's held frames would not.
            pytest.param(command, scheme, 0.5, "tuning.tune_trials = 100000000 frames of K=24 "
                         "at max degree 16 hold up to 38400000000 edges, above the bound "
                         "FRAME_GROUP * MAX_EDGES = 8000000", "48", {"name": "l3"},
                         {"tuning": {"tune_trials": 10**8}}, False,
                         id=f"{command_id}-tune_trials_1e8")
            for command_id, command, scheme in SCHEME_COMMANDS[1:]
        ],
    )
    def test_slot_count_out_of_range_flags_the_point(
        self, tmp_path, capsys, monkeypatch, command, scheme, G, note, M, distribution,
        overrides, kept,
    ):
        # K/G overflows at 1e-320; at 1e-300 and 1e-20 the edge keys
        # message * M + slot would pass int64.  At 1e-9 they fit, but a
        # frame group's per-slot arrays would not fit in memory.  At 1e-3
        # M fits, but a soliton tracking it would take minutes to build.
        # Each bound flags its point before any frame is drawn; where it
        # flags every point, the command exits 2.
        drawn = []
        real = harness.build_frame
        monkeypatch.setattr(harness, "build_frame", lambda *a: drawn.append(a[0]) or real(*a))
        config = dict(scheme, distribution=distribution, K=24, G_grid=[G, 0.5], trials=2)
        for key, value in overrides.items():
            config[key] = {**config[key], **value} if isinstance(value, dict) else value
        assert run_config(tmp_path, command, config) == (0 if kept else 2)
        err = capsys.readouterr().err
        assert f"{note}\n" in err
        assert "Traceback" not in err
        header, flagged, second = (tmp_path / f"{command}.csv").read_text().splitlines()
        flagged = dict(zip(header.split(","), flagged.split(",")))
        assert flagged["M"] == M and flagged["T_mean"] == ""
        second = dict(zip(header.split(","), second.split(",")))
        assert (second["T_mean"] != "") == kept == bool(drawn)

    @pytest.mark.parametrize(
        "tuning, mu_max",
        [({"mu_max": 1e308}, "1e+308"), ({"mu_resolution": 1e-320}, "10")],
        ids=["mu_max", "mu_resolution"],
    )
    def test_mu_grid_overflow_exits_1(self, tmp_path, capsys, tuning, mu_max):
        config = {"scheme": "PA", "distribution": {"name": "l3"}, "K": 60, "G_grid": [0.5],
                  "trials": 2, "hat_R_bits": 10.0, "tuning": tuning}
        assert run_config(tmp_path, "tune", config) == 1
        assert capsys.readouterr().err == (
            f"config error: tuning.mu_resolution: too fine for mu_max = {mu_max}: "
            "the step count (mu_max - 1) / mu_resolution overflows\n"
        )
        assert not (tmp_path / "tune.csv").exists()

    def test_mu_grid_past_2_53_steps_exits_1(self, tmp_path, capsys):
        # 1 / 1e-282 steps are finite, but no index holds them.
        config = {"scheme": "PA", "distribution": {"name": "l3"}, "K": 60, "G_grid": [0.5],
                  "trials": 2, "hat_R_bits": 10.0,
                  "tuning": {"mu_max": 2.0, "mu_resolution": 1e-282}}
        assert run_config(tmp_path, "tune", config) == 1
        assert capsys.readouterr().err == (
            "config error: tuning.mu_resolution: too fine for mu_max = 2: "
            "the step count (mu_max - 1) / mu_resolution = 1e+282 is not below 2**53\n"
        )

    @pytest.mark.parametrize(
        "change, found",
        [
            ({"tuning": {"mu_max": "x"}}, "tuning.mu_max: expected float"),
            ({"L_cu": "x"}, "L_cu: expected int"),
            ({"N0": "x"}, "N0: expected float"),
            ({"L_cu": 2**1024}, "L_cu: must be finite"),
        ],
        ids=["mu_max", "L_cu", "N0", "L_cu_past_floats"],
    )
    def test_field_another_check_reads_exits_1(self, tmp_path, capsys, change, found):
        # The nominal rate's range reads L_cu and N0, and the mu grid's
        # reads mu_max: a mistyped or unbounded one is named, not a crash.
        config = {"scheme": "PA", "distribution": {"name": "l3"}, "K": 60, "G_grid": [0.5],
                  "trials": 2, "hat_R_bits": 10.0, **change}
        assert run_config(tmp_path, "tune", config) == 1
        assert capsys.readouterr().err == f"config error: {found}\n"

    def test_commands_import_no_numpy_ma(self, tmp_path):
        # numpy.ma costs about a megabyte of peak memory, and numpy imports
        # it on first use of functions such as np.unique; no command path
        # may.  A fresh interpreter, since this one may hold it already.
        script = """
import sys
from irsa_sim.cli import main
out, data = sys.argv[1:]
runs = [("sweep", "irsa_l3_small"), ("tune", "rs_tune_small"), ("tune", "pa_tune_small"),
        ("tune", "pa_tune_static_small"), ("compare", "compare_small")]
for command, name in runs:
    argv = [command, "--config", f"{data}/{name}.json", "--out", f"{out}/{command}_{name}"]
    assert main(argv) == 0, argv
assert "numpy.ma" not in sys.modules, "a command path imported numpy.ma"
"""
        done = run_child(["-c", script, str(tmp_path), str(DATA)], timeout=300)
        assert done.returncode == 0, done.stderr

    # A frame, a tuner's held frames, and decode-one's slot count by flag and
    # by edge list, each past its memory bound: (arguments, exit code, the
    # point's note or decode-one's stderr), {tmp} the test's directory.
    MEMORY_BOUNDS = {
        "edge_bound": (["sweep", "--config", "{tmp}/edge_bound.json", "--out", "{tmp}"], 2,
                       "infeasible: K=1000000000 at max degree 16 draws up to 16000000000 "
                       "edges a frame, above the bound MAX_EDGES = 1000000"),
        "held_bound": (["tune", "--config", "{tmp}/held_bound.json", "--out", "{tmp}"], 2,
                       "flagged: tuning.tune_trials = 100000000 frames of K=300 at max degree "
                       "10 hold up to 300000000000 edges, above the bound "
                       "FRAME_GROUP * MAX_EDGES = 8000000"),
        "slots_flag": (["decode-one", "--edges", str(FRAME), "--slots", "100000000000"], 1,
                       "config error: --slots: must be <= MAX_SLOTS = 1000000\n"),
        "slots_edges": (["decode-one", "--edges", "{tmp}/far_slot.tsv"], 1,
                        "error: --edges {tmp}/far_slot.tsv: slot count M = 100000000001: "
                        "must be <= MAX_SLOTS = 1000000\n"),
    }

    @pytest.mark.parametrize("case", MEMORY_BOUNDS)
    def test_past_a_memory_bound_in_2_gb_of_address_space(self, tmp_path, case):
        # Each bound holds before anything of the size it bounds is made:
        # the sweep and the tune flag their one point and exit 2, decode-one
        # exits 1 with no output.
        (tmp_path / "edge_bound.json").write_text(json.dumps({
            "scheme": "IRSA", "distribution": {"name": "l3"}, "K": 1000000000,
            "G_grid": [1000], "trials": 2, "tilde_Es_over_N0": 0.0009,
        }))
        (tmp_path / "held_bound.json").write_text(json.dumps({
            "scheme": "PA", "distribution": {"name": "modified_soliton", "Y": 10}, "K": 300,
            "G_grid": [0.8], "trials": 2, "hat_R_bits": 10,
            "tuning": {"tune_trials": 100000000, "mu_criterion": "static_reliability"},
        }))
        (tmp_path / "far_slot.tsv").write_text("0\t100000000000\n")
        argv, code, expected = self.MEMORY_BOUNDS[case]
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        command = argv[0]
        if command == "decode-one":
            argv += ["--scheme", "IRSA", "--es-over-n0", "0.5"]
        done = run_child(["-m", "irsa_sim.cli", *argv], address_space=2_000_000 * 1024)
        assert done.returncode == code, done.stderr
        if command == "decode-one":
            assert (done.stdout, done.stderr) == ("", expected.format(tmp=tmp_path))
            return
        with open(tmp_path / f"{command}.csv", newline="") as fp:
            (row,) = csv.DictReader(fp)
        (point,) = json.loads((tmp_path / f"{command}.meta.json").read_text())["points"]
        assert not row["T_mean"] and point["note"] == expected, (row, point)

    def test_decode_one_trace(self, tmp_path, capsys):
        # The four-message example frame decodes in a known order.
        graph = FrameGraph(5, [[1], [0, 2, 3], [0, 2, 4], [1, 2, 4]])
        edges = tmp_path / "frame.tsv"
        write_edges(edges, graph)
        code = main([
            "decode-one", "--edges", str(edges), "--scheme", "IRSA",
            "--es-over-n0", "0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split("\t") == [
            "step", "phase", "message", "slot", "effective_sinr",
            "assigned_rate", "genie_rate",
        ]
        order = [int(line.split("\t")[2]) for line in out[1:]]
        assert order == [1, 2, 3, 0]
        slots = [line.split("\t")[3] for line in out[1:]]
        assert slots == ["3", "0", "2", "1"]

    def test_decode_one_missing_energy(self, tmp_path, capsys):
        graph = FrameGraph(3, [[0], [1], [2]])
        edges = tmp_path / "frame.tsv"
        write_edges(edges, graph)
        assert main(["decode-one", "--edges", str(edges), "--scheme", "IRSA"]) == 1

    def test_decode_one_infeasible_pa(self, tmp_path, capsys):
        # Crowded frame at a high nominal rate: the energy balance fails.
        graph = FrameGraph(2, [[0, 1], [0, 1]])
        edges = tmp_path / "frame.tsv"
        write_edges(edges, graph)
        code = main([
            "decode-one", "--edges", str(edges), "--scheme", "PA",
            "--hat-r-bits", "80.0", "--mu", "1.5", "--l-avg", "3.0",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "content, slots, reason",
        [
            ("0\t1\n2\t0\n", None, "message indices must be dense"),
            ("0\t5\n", "3", "slot index out of range"),
            ("", None, "edge list is empty"),
            ("0\t1\n1 2\n", None, "line 2: expected two tab-separated integers"),
            # M defaults to the largest slot index plus one.
            ("0\t100000000000\n", None,
             "slot count M = 100000000001: must be <= MAX_SLOTS = 1000000\n"),
        ],
        ids=["non_dense", "slot_out_of_range", "empty", "malformed_line", "slot_past_the_bound"],
    )
    def test_decode_one_bad_edge_list(self, tmp_path, capsys, content, slots, reason):
        edges = tmp_path / "frame.tsv"
        edges.write_text(content)
        argv = ["decode-one", "--edges", str(edges), "--scheme", "IRSA", "--es-over-n0", "0.5"]
        if slots is not None:
            argv += ["--slots", slots]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --edges {edges}: ")
        assert reason in err

    def test_decode_one_slots_past_the_bound_exits_1_before_reading_edges(self, tmp_path, capsys):
        # The edge list does not exist: the flag is checked before it is opened.
        argv = ["decode-one", "--edges", str(tmp_path / "absent.tsv"), "--scheme", "IRSA",
                "--es-over-n0", "0.5", "--slots", "100000000000"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "config error: --slots: must be <= MAX_SLOTS = 1000000\n"

    @pytest.mark.parametrize(
        "content, slots", [("0\t0\n", ["--slots", "1000000"]), ("0\t999999\n", [])],
        ids=["flag", "edge_list"],
    )
    def test_decode_one_at_the_slot_bound(self, tmp_path, capsys, content, slots):
        edges = tmp_path / "frame.tsv"
        edges.write_text(content)
        argv = ["decode-one", "--edges", str(edges), "--scheme", "IRSA", "--es-over-n0", "0.5"]
        assert main(argv + slots) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 2
        assert err == "# decoded 1/1, undecoded 0\n"

    def test_config_that_is_a_directory_exits_1(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_decode_one_edges_that_are_a_directory_exit_1(self, tmp_path, capsys):
        argv = ["decode-one", "--edges", str(tmp_path), "--scheme", "IRSA", "--es-over-n0", "0.5"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    def test_config_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(json.dumps(MINIMAL_SWEEP).encode("utf-16"))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --config {path}: not UTF-8 text: ")
        assert not (tmp_path / "sweep.csv").exists()

    def test_out_that_is_a_file_exits_1_before_the_run(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "taken"
        out.write_text("")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(MINIMAL_SWEEP))
        monkeypatch.setattr(cli, "run_sweep", lambda spec: pytest.fail("the sweep ran"))
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: output directory {out} exists and is not a directory\n"
        )
        assert out.read_text() == ""

    COMPARE = {
        "scheme": "RS",
        "distribution": {"name": "modified_soliton", "Y": 4},
        "K": 24,
        "G_grid": [0.8],
        "trials": 10,
        "tilde_Es_over_N0": 0.004,
        "tuning": {"alpha_grid": [0.2, 0.6], "beta_grid": [1.0], "tune_trials": 10},
        "compare": {"es_over_N0_db_grid": [-16.0], "min_throughput": 0.5},
    }

    @pytest.mark.parametrize(
        "es_db, note",
        [
            # 10 ** 310 overflows.
            pytest.param(3100.0, "es_over_N0_db: must be finite in linear terms",
                         id="3100.0-must be finite"),
            # Finite, but l_avg times it is not.
            pytest.param(3080.0, "es_over_N0_db: must be finite in linear terms",
                         id="3080.0-must be finite"),
            # Underflows to 0.
            pytest.param(-3300.0, "es_over_N0_db: must be positive in linear terms",
                         id="-3300.0-must be positive"),
            # In range, but two messages sharing a slot sum to inf in the RS
            # tuner's order-free decode, which would zero their SINR terms.
            pytest.param(3076.0, "infeasible: a slot's interference overflows in the MRC SINR",
                         id="3076.0-slot interference overflows"),
        ],
    )
    def test_compare_energy_out_of_float_range_flags_its_row(self, tmp_path, capsys, es_db, note):
        config = dict(self.COMPARE, compare={"es_over_N0_db_grid": [es_db, -16.0], "min_throughput": 0.5})
        assert run_config(tmp_path, "compare", config) == 0
        rows = [l.split(",") for l in (tmp_path / "compare.csv").read_text().splitlines()[1:]]
        assert rows[0][:2] == ["RS", f"{es_db:g}"]
        assert rows[0][-1] == note
        assert [r[0] for r in rows[1:]] == ["RS", "IRSA", "PA"]
        assert all(r[-1] == "" for r in rows[1:])
        assert "Traceback" not in capsys.readouterr().err

    def test_compare_with_every_energy_flagged_exits_2(self, tmp_path, capsys):
        config = dict(self.COMPARE, compare={"es_over_N0_db_grid": [3100.0]})
        assert run_config(tmp_path, "compare", config) == 2
        assert "every comparison point failed" in capsys.readouterr().err

    def test_compare_with_slot_count_above_the_bound_exits_2(self, tmp_path, capsys):
        config = dict(self.COMPARE, G_grid=[1e-9])
        assert run_config(tmp_path, "compare", config) == 2
        assert capsys.readouterr().err == (
            "error: G=1e-09 gives M=24000000000 slots for K=24, "
            "above the bound MAX_SLOTS = 1000000\n"
        )
        assert not (tmp_path / "compare.csv").exists()

    def test_compare_with_zero_rates_flags_its_row(self, tmp_path, capsys):
        config = dict(self.COMPARE, compare={"es_over_N0_db_grid": [-3000.0], "min_throughput": 0.5})
        assert run_config(tmp_path, "compare", config) == 2
        with open(tmp_path / "compare.csv", newline="") as fp:
            rows = list(csv.reader(fp))[1:]
        assert [r[:2] for r in rows] == [["RS", "-3000"]]
        assert rows[0][-1].startswith("infeasible: rates round to 0 bits")
        assert "Traceback" not in capsys.readouterr().err

    def test_compare_failed_pa_energy_flags_its_row(self, tmp_path, capsys):
        # At -159 dB the PA profile's reference capacity rounds to 0: that
        # energy's PA row is flagged, and the -10 dB rows are those of a run
        # at -10 dB alone.
        config = {
            "scheme": "RS", "distribution": {"name": "modified_soliton", "Y": 10}, "K": 40,
            "G_grid": [0.4], "trials": 6, "seed": 3, "tilde_Es_over_N0": 0.0009,
            "tuning": {"alpha_grid": [0.0, 0.5], "beta_grid": [1.0], "tune_trials": 6},
            "compare": {"es_over_N0_db_grid": [-10.0, -159.0], "min_throughput": 0.3},
        }
        rows = {}
        for grid in ([-10.0, -159.0], [-10.0]):
            config["compare"]["es_over_N0_db_grid"] = grid
            out = tmp_path / str(len(grid))
            assert run_config(out, "compare", config) == 0
            with open(out / "compare.csv", newline="") as fp:
                rows[len(grid)] = list(csv.reader(fp))[1:]
        assert rows[2][:3] == rows[1]
        assert all(r[-1] == "" for r in rows[2][:5])
        assert [r[0] for r in rows[2][3:]] == ["RS", "IRSA", "PA"]
        assert rows[2][-1][-1] == "infeasible: C_ref = 0 is not positive and finite"
        assert "Traceback" not in capsys.readouterr().err

    def test_compare_note_with_commas_reads_back_as_nine_fields(self, tmp_path):
        # At 3070 dB the PA energy balance fails with a note full of commas,
        # and the RS row, whose slot sums stay finite (at 3076 dB they do
        # not), is kept.
        config = dict(self.COMPARE, compare={"es_over_N0_db_grid": [3070.0], "min_throughput": 0.5})
        assert run_config(tmp_path, "compare", config) == 0
        with open(tmp_path / "compare.csv", newline="") as fp:
            rows = list(csv.reader(fp))
        assert all(len(r) == 9 for r in rows)
        assert rows[-1][0] == "PA" and "," in rows[-1][-1]
        assert rows[1][0] == "RS" and rows[1][2] and not rows[1][-1], rows[1]

    def test_compare_end_to_end(self, tmp_path):
        assert run_config(tmp_path, "compare", self.COMPARE) == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0].startswith("scheme,es_over_N0_db")
        assert [l.split(",")[0] for l in lines[1:]] == ["RS", "IRSA", "PA"]

    @pytest.mark.parametrize(
        "command, config, flags",
        [
            pytest.param(
                {"compare_l2": "compare", "rs_tune_l2": "tune", "pa_tune_l2": "tune"}
                .get(path.stem, "sweep"),
                json.loads(path.read_text()), ["--trials", "2"], id=path.stem,
            )
            for path in CONFIGS
        ] + [
            # Slots drawn for degrees up to M, down to M = 12.
            pytest.param("sweep", {
                "scheme": "IRSA", "distribution": {"name": "ideal_soliton", "Y": "M"}, "K": 60,
                "G_grid": [0.5, 1.0, 5.0], "trials": 20, "tilde_Es_over_N0": 0.01,
            }, [], id="ideal_soliton_Y_M"),
        ],
    )
    def test_runs_with_no_flagged_row(self, tmp_path, command, config, flags):
        assert run_config(tmp_path, command, config, *flags) == 0
        with open(tmp_path / f"{command}.csv", newline="") as fp:
            header, *rows = csv.reader(fp)
        if command == "compare":
            assert all(len(row) == 9 for row in [header, *rows])
            flagged = [row for row in rows if row[-1]]
        else:
            flagged = [row for row in rows if not row[header.index("T_mean")]]
        assert rows and not flagged, flagged

    def test_rs_tune_names_the_first_failing_pair(self, tmp_path, capsys):
        # Alpha-major pairs: (0.5, 0.1) is not admissible, (0.5, 1.0) is,
        # (0.5, 1e308) overflows its denominator and (1e308, 1.0) a degree
        # term after it.  Every point is flagged, so the run exits 2.
        config = {
            "scheme": "RS", "distribution": {"name": "modified_soliton", "Y": 4}, "K": 24,
            "G_grid": [0.8, 1.2], "trials": 2, "seed": 1, "tilde_Es_over_N0": 1.0,
            "tuning": {"alpha_grid": [0.5, 1e308], "beta_grid": [0.1, 1.0, 1e308],
                       "tune_trials": 4},
        }
        assert run_config(tmp_path, "tune", config) == 2
        with open(tmp_path / "tune.csv", newline="") as fp:
            rows = list(csv.DictReader(fp))
        meta = json.loads((tmp_path / "tune.meta.json").read_text())
        notes = [
            "the RS SINR target's denominator (beta*r_avg - 1)*Es + N0 overflows "
            f"for beta=1e+308, r_avg={r_avg}"
            for r_avg in ("2.066666666666667", "3.1")
        ]
        assert len(rows) == 2 and not any(row["T_mean"] for row in rows), rows
        assert [p["note"] for p in meta["points"]] == [f"flagged: {n}" for n in notes]
        assert [t["note"] for t in meta["tunings"]] == notes

    def test_pa_tune_on_a_mu_grid_of_no_whole_step_count_stays_below_mu_max(self, tmp_path):
        # (1.02 - 1) / 0.02 is 1.0000000000000009 in floats: rounding it up
        # would try mu = 1.04.
        config = {
            "scheme": "PA", "distribution": {"name": "modified_soliton", "Y": 6}, "K": 60,
            "G_grid": [0.5, 1.0, 1.3], "trials": 5, "seed": 0, "hat_R_bits": 8,
            "tuning": {"tune_trials": 10, "mu_criterion": "mean_fraction",
                       "target_fraction": 0.985, "mu_max": 1.02, "mu_resolution": 0.02},
        }
        assert run_config(tmp_path, "tune", config) == 0
        with open(tmp_path / "tune.csv", newline="") as fp:
            rows = list(csv.DictReader(fp))
        tunings = json.loads((tmp_path / "tune.meta.json").read_text())["tunings"]
        mus = [float(row["mu"]) for row in rows if row["mu"]]
        mus += [t["mu"] for t in tunings if t["mu"] is not None]
        assert rows and tunings and all(mu <= 1.02 for mu in mus), (rows, tunings)
