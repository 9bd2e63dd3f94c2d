"""Config validation, CSV/plot-data emission, and the command surface."""

import csv
import json
import warnings
from pathlib import Path

import pytest

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


class TestEmitPlotData:
    def test_series_files_per_scheme_distribution(self, tmp_path):
        records = []
        for scheme in ("RS", "IRSA"):
            for dist in ("ideal_soliton_YM", "modified_soliton_Y10", "l3"):
                for g in (0.4, 0.8):
                    records.append(
                        make_record(scheme=scheme, distribution=dist, G=g)
                    )
        written = emit_plot_data(records, tmp_path)
        t_files = [p for p in written if p.name.startswith("T__")]
        assert len(t_files) == 6
        body = (tmp_path / "T__RS__l3.dat").read_text()
        assert body == "0.4\t0.5\n0.8\t0.5\n"

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


class TestMainCommands:
    def test_sweep_end_to_end(self, tmp_path):
        config = dict(MINIMAL_SWEEP, K=24, trials=5, emit_plot_data=True,
                      distribution={"name": "modified_soliton", "Y": 4})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert (tmp_path / "sweep.meta.json").exists()
        assert (tmp_path / "T__IRSA__modified_soliton_Y4.dat").exists()

    def test_flag_overrides_config(self, tmp_path):
        config = dict(MINIMAL_SWEEP, K=24, trials=5,
                      distribution={"name": "modified_soliton", "Y": 4})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
              "--trials", "2", "--seed", "9"])
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
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(dict(MINIMAL_SWEEP, K=24, trials=2)))
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
                     flag, value])
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

    OVERFLOW = (
        "must be below 51200 bits at L_cu = 100 and N0 = 1, "
        "where the energy N0*(2**(2*hat_R/L_cu) - 1) overflows"
    )

    def test_overflowing_rate_in_config_exits_1(self, tmp_path, capsys):
        config = dict(MINIMAL_SWEEP, scheme="PA", K=24, G_grid=[0.5], trials=2, mu=1.5,
                      distribution={"name": "l3"}, hat_R_bits=100000.0)
        del config["tilde_Es_over_N0"]
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"config error: hat_R_bits: {self.OVERFLOW}\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_high_nominal_rate_at_low_load_gives_a_row(self, tmp_path):
        # hat_Es/N0 = 2**100: the per-user energy must not cancel to 0.
        config = dict(MINIMAL_SWEEP, scheme="PA", K=24, G_grid=[0.1], trials=2, mu=1.5,
                      distribution={"name": "l3"}, hat_R_bits=5000.0)
        del config["tilde_Es_over_N0"]
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
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
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(dict(MINIMAL_SWEEP, K=24, trials=2, **{key: value})))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"scheme": "IRSA"}))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_rs_sweep_requires_parameters(self, tmp_path, capsys):
        config = dict(MINIMAL_SWEEP, scheme="RS", K=24,
                      distribution={"name": "modified_soliton", "Y": 4})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
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
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["tune", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "tune.meta.json").read_text())
        assert meta["tunings"][0]["feasible"]
        row = (tmp_path / "tune.csv").read_text().splitlines()[1].split(",")
        assert row[CSV_HEADER.split(",").index("mu")] != ""

    def test_sweep_with_too_few_slots_flags_points(self, tmp_path, capsys):
        # G=700 leaves M=0 slots for the M-tracking soliton.
        config = dict(MINIMAL_SWEEP, G_grid=[700],
                      distribution={"name": "ideal_soliton", "Y": "M"})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
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
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
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
             "infeasible: rates must be strictly positive and finite"),
            ("sweep", {"scheme": "IRSA", "tilde_Es_over_N0": 5e-18, "K": 20, "G_grid": [0.01]},
             "infeasible: C_ref = 0 is not positive and finite"),
            ("tune", {"scheme": "RS", "tilde_Es_over_N0": 1e306,
                      "tuning": {"alpha_grid": [1.0], "beta_grid": [1.0], "tune_trials": 2}},
             "flagged: rates must be strictly positive and finite"),
            ("tune", {"scheme": "RS", "tilde_Es_over_N0": 1e305,
                      "tuning": {"alpha_grid": [0.01], "beta_grid": [1.0], "tune_trials": 2}},
             "infeasible: the frame energy K*l_i*E_i/N0 overflows"),
        ],
        ids=["irsa_energy_overflow", "pa_frame_energy_overflow", "pa_energy_underflow",
             "irsa_frame_energy_overflow", "rs_frame_energy_overflow", "rs_rate_overflow",
             "irsa_c_ref_underflow", "rs_tune_rate_overflow", "rs_tuned_frame_energy_overflow"],
    )
    def test_energy_out_of_float_range_flags_the_point(
        self, tmp_path, capsys, command, energy, found
    ):
        config = {"distribution": {"name": "l3"}, "K": 60, "G_grid": [0.5], "trials": 3, **energy}
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        # The flagged note is the whole report: no numpy warning beside it.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert f"note: G={config['G_grid'][0]}: {found}\n" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        row = (tmp_path / f"{command}.csv").read_text().splitlines()[1].split(",")
        assert row[CSV_HEADER.split(",").index("T_mean"):] == [""] * 8

    @pytest.mark.parametrize(
        "tuning, mu_max",
        [({"mu_max": 1e308}, "1e+308"), ({"mu_resolution": 1e-320}, "10")],
        ids=["mu_max", "mu_resolution"],
    )
    def test_mu_grid_overflow_exits_1(self, tmp_path, capsys, tuning, mu_max):
        config = {"scheme": "PA", "distribution": {"name": "l3"}, "K": 60, "G_grid": [0.5],
                  "trials": 2, "hat_R_bits": 10.0, "tuning": tuning}
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["tune", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"config error: tuning.mu_resolution: too fine for mu_max = {mu_max}: "
            "the step count (mu_max - 1) / mu_resolution overflows\n"
        )
        assert not (tmp_path / "tune.csv").exists()

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
        ],
        ids=["non_dense", "slot_out_of_range", "empty", "malformed_line"],
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
        "es_db, found",
        [
            (3100.0, "must be finite"),  # 10 ** 310 overflows
            (3080.0, "must be finite"),  # finite, but l_avg times it is not
            (-3300.0, "must be positive"),  # underflows to 0
        ],
    )
    def test_compare_energy_out_of_float_range_flags_its_row(self, tmp_path, capsys, es_db, found):
        config = dict(self.COMPARE, compare={"es_over_N0_db_grid": [es_db, -16.0], "min_throughput": 0.5})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["compare", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        rows = [l.split(",") for l in (tmp_path / "compare.csv").read_text().splitlines()[1:]]
        assert rows[0][:2] == ["RS", f"{es_db:g}"]
        assert rows[0][-1] == f"es_over_N0_db: {found} in linear terms"
        assert [r[0] for r in rows[1:]] == ["RS", "IRSA", "PA"]
        assert all(r[-1] == "" for r in rows[1:])
        assert "Traceback" not in capsys.readouterr().err

    def test_compare_with_every_energy_flagged_exits_2(self, tmp_path, capsys):
        config = dict(self.COMPARE, compare={"es_over_N0_db_grid": [3100.0]})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["compare", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "every comparison point failed" in capsys.readouterr().err

    def test_compare_with_zero_rates_flags_its_row(self, tmp_path, capsys):
        config = dict(self.COMPARE, compare={"es_over_N0_db_grid": [-3000.0], "min_throughput": 0.5})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["compare", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        with open(tmp_path / "compare.csv", newline="") as fp:
            rows = list(csv.reader(fp))[1:]
        assert [r[:2] for r in rows] == [["RS", "-3000"]]
        assert rows[0][-1].startswith("infeasible: rates round to 0 bits")
        assert "Traceback" not in capsys.readouterr().err

    def test_compare_note_with_commas_reads_back_as_nine_fields(self, tmp_path):
        # At 3070 dB the PA energy balance fails with a note full of commas.
        config = dict(self.COMPARE, compare={"es_over_N0_db_grid": [3070.0], "min_throughput": 0.5})
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["compare", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "compare.csv", newline="") as fp:
            rows = list(csv.reader(fp))
        assert all(len(r) == 9 for r in rows)
        assert rows[-1][0] == "PA" and "," in rows[-1][-1]

    def test_compare_end_to_end(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(self.COMPARE))
        assert main(["compare", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0].startswith("scheme,es_over_N0_db")
        assert [l.split(",")[0] for l in lines[1:]] == ["RS", "IRSA", "PA"]
