"""Every command over the config ranges (``config.RANGES``), extremes
included: each run ends in an exit code of 0, 1 or 2 with well-formed CSV,
never in a traceback or a RuntimeWarning.

The draws stay small without leaving a range.  K is at most 24, or 10**12,
which the bounds on M and on a frame's edges flag before any draw.  trials
is at most 2: it has no bound, and every trial runs.  tune_trials is at
most 2, or 10**8, which the bound on a tuner's held frames flags.  Every
grid has at most 3 entries.  decode-one's --slots takes M's whole range, up
to MAX_SLOTS.
"""

import csv
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsa_sim.cli import main
from irsa_sim.config import MAX_SLOTS, MU_CRITERIA, SCHEMES
from irsa_sim.distributions import DIST_NAMES
from irsa_sim.harness import MAX_SOLITON_Y

EDGES = Path(__file__).parent / "data" / "irsa_frame.tsv"

# A config every command runs through; the pinned examples change a field.
TYPICAL = {
    "scheme": "PA", "distribution": {"name": "modified_soliton", "Y": 4}, "K": 24,
    "G_grid": [0.5], "trials": 2, "seed": 0, "L_cu": 100, "N0": 1.0,
    "tilde_Es_over_N0": 0.004, "hat_R_bits": 8.0, "alpha": 0.5, "beta": 1.0, "mu": 1.0,
    "rmax_includes_one": True, "emit_plot_data": False,
    "tuning": {
        "alpha_grid": [0.0, 0.5], "beta_grid": [1.0], "tune_trials": 2, "throughput_cap": 1.0,
        "mu_max": 2.0, "mu_resolution": 0.1, "target_fraction": 0.9,
        "mu_criterion": "mean_fraction", "reliability": 0.99,
    },
    "compare": {"es_over_N0_db_grid": [0.0], "min_throughput": 0.3},
}

FINITE = dict(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, **FINITE)
FRACTION = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, **FINITE)


def at_least(lo):
    return st.floats(min_value=lo, **FINITE)


@st.composite
def configs(draw):
    """A config file's document with every field in its range.  Each field
    is drawn from its whole range one time in sixteen, else from the values a
    config would hold, so that most runs get past validation."""

    def field(whole, typical=None):
        return draw(whole if typical is None or draw(st.integers(0, 15)) == 0 else typical)

    def grid(whole, typical):
        return [field(whole, typical) for _ in range(draw(st.integers(1, 3)))]

    dist_name = draw(st.sampled_from(DIST_NAMES))
    distribution = {"name": dist_name}
    if dist_name != "l3":
        distribution["Y"] = field(
            st.integers(2, MAX_SOLITON_Y + 1) | st.just("M"), st.integers(2, 12) | st.just("M")
        )
    return {
        "scheme": field(st.sampled_from(SCHEMES)),
        "distribution": distribution,
        "K": field(st.just(10**12), st.integers(1, 24)),
        "G_grid": grid(POSITIVE, st.floats(0.05, 2.0)),
        "trials": field(st.integers(1, 2)),
        "seed": field(st.integers(min_value=0)),
        "L_cu": field(st.integers(min_value=1), st.integers(1, 200)),
        "N0": field(POSITIVE, st.floats(0.1, 10.0)),
        "tilde_Es_over_N0": field(POSITIVE, st.floats(1e-4, 0.1)),
        "hat_R_bits": field(POSITIVE, st.floats(0.5, 20.0)),
        "alpha": field(at_least(0.0), st.floats(0.0, 2.0)),
        "beta": field(POSITIVE, st.floats(0.5, 4.0)),
        "mu": field(at_least(1.0), st.floats(1.0, 3.0)),
        "rmax_includes_one": field(st.booleans()),
        "emit_plot_data": field(st.booleans()),
        "tuning": {
            "alpha_grid": grid(at_least(0.0), st.floats(0.0, 2.0)),
            "beta_grid": grid(POSITIVE, st.floats(0.5, 4.0)),
            "tune_trials": field(st.just(10**8), st.integers(1, 2)),
            "throughput_cap": field(POSITIVE, st.floats(0.1, 2.0)),
            "mu_max": field(at_least(1.0), st.floats(1.0, 5.0)),
            "mu_resolution": field(POSITIVE, st.floats(0.01, 1.0)),
            "target_fraction": field(FRACTION),
            "mu_criterion": field(st.sampled_from(MU_CRITERIA)),
            "reliability": field(FRACTION),
        },
        "compare": {
            "es_over_N0_db_grid": grid(st.floats(**FINITE), st.floats(-20.0, 40.0)),
            "min_throughput": field(POSITIVE, st.floats(0.01, 0.3)),
        },
    }


def run(argv):
    """main(argv)'s exit code, checked: no exception escapes it, and it
    raises no RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 1, 2), argv
    raised = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not raised, (argv, raised)
    return code


def assert_rows_match_header(path):
    if path.exists():
        with open(path, newline="") as fp:
            header, *rows = csv.reader(fp)
        assert all(len(row) == len(header) for row in rows), path


def decode_one_argv(config, slots):
    """decode-one on the shipped frame, with the config's scheme, channel
    and parameters as flags, and ``slots`` as --slots unless None."""
    flags = {
        "--l-cu": config["L_cu"], "--n0": config["N0"],
        "--es-over-n0": config["tilde_Es_over_N0"], "--hat-r-bits": config["hat_R_bits"],
        "--alpha": config["alpha"], "--beta": config["beta"], "--mu": config["mu"],
    }
    argv = ["decode-one", "--edges", str(EDGES), "--scheme", config["scheme"]]
    argv += [str(part) for flag, value in flags.items() for part in (flag, repr(value))]
    argv += [] if slots is None else ["--slots", str(slots)]
    return argv + ([] if config["rmax_includes_one"] else ["--rmax-excludes-one"])


@settings(derandomize=True, max_examples=120, deadline=None)
# decode-one's --slots over M's range, else its default: the shipped
# frame's largest slot index plus one.
@given(config=configs(), slots=st.none() | st.integers(1, MAX_SLOTS))
# M's extremes.
@example(config=TYPICAL, slots=1)
@example(config=TYPICAL, slots=MAX_SLOTS)
# A nominal rate whose energy rounds to 0: no reference level for IRSA.
@example(config=dict(TYPICAL, scheme="IRSA", hat_R_bits=5e-324), slots=None)
# A mu grid of more steps than an index holds.
@example(config=dict(TYPICAL, tuning=dict(TYPICAL["tuning"], mu_resolution=1e-282)), slots=None)
# An integer past the float range.
@example(config=dict(TYPICAL, L_cu=2**1024), slots=None)
def test_every_command_exits_cleanly_over_the_ranges(config, slots):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # The comparison runs at a single G; the first of the grid.
        compared = dict(config, G_grid=config["G_grid"][:1])
        for command, doc in (("sweep", config), ("tune", config), ("compare", compared)):
            path = tmp / f"{command}.json"
            path.write_text(json.dumps(doc))
            run([command, "--config", str(path), "--out", str(tmp / command)])
            assert_rows_match_header(tmp / command / f"{command}.csv")
    run(decode_one_argv(config, slots))
