"""Golden outputs: small IRSA, RS and PA sweeps, RS and PA tunes, a
comparison and decode-one traces, byte for byte.

The IRSA files under ``tests/data`` were written by the receiver as it stood
before IRSA decoding became integer peeling, the RS and PA sweeps by the
evaluation path as it stood before sweeps read one degree table per point,
the tunes, the comparison and the RS and PA traces by the RS tuners as
they stood before they shared one candidate evaluation, the static PA
trace by the two-phase receiver as it stood before statically decodable
frames took integer peeling, and the static PA tune by the mu tuner as it
stood before it re-opened whole stacks of frames.  A change that
declares new numbers regenerates them with the commands below; any other
change must leave them as they are.  CI runs the same commands through
the installed entry point and compares each output with ``cmp``; a new
golden goes into its golden step as well:

    irsa-sim sweep --config tests/data/NAME.json --out OUT
        (OUT/sweep.csv -> tests/data/NAME.sweep.csv, for each sweep NAME)
    irsa-sim tune --config tests/data/NAME.json --out OUT
        (OUT/tune.csv -> tests/data/NAME.tune.csv, and the "tunings" block
        of OUT/tune.meta.json, dumped with indent=2 and sorted keys, ->
        tests/data/NAME.tunings.json, for NAME rs_tune_small, pa_tune_small
        and pa_tune_static_small)
    irsa-sim compare --config tests/data/compare_small.json --out OUT
        (OUT/compare.csv -> tests/data/compare_small.compare.csv)
    irsa-sim decode-one --edges tests/data/irsa_frame.tsv --scheme IRSA \\
        --es-over-n0 0.5 > tests/data/irsa_frame.decode-one.tsv
    irsa-sim decode-one --edges tests/data/irsa_frame.tsv --scheme RS \\
        --es-over-n0 0.5 --alpha 0.5 --beta 1.0 > tests/data/irsa_frame.rs.decode-one.tsv
    irsa-sim decode-one --edges tests/data/irsa_frame.tsv --scheme PA \\
        --hat-r-bits 10 --mu 1.0 > tests/data/irsa_frame.pa.decode-one.tsv
    irsa-sim decode-one --edges tests/data/irsa_frame.tsv --scheme PA \\
        --hat-r-bits 10 --mu 1.5 > tests/data/irsa_frame.pa_static.decode-one.tsv
"""

import json
from pathlib import Path

import pytest

from irsa_sim.cli import main

DATA = Path(__file__).parent / "data"

def assert_golden_sweep(name, out):
    assert main(["sweep", "--config", str(DATA / f"{name}.json"), "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_bytes() == (DATA / f"{name}.sweep.csv").read_bytes()


def test_irsa_sweep_csv(tmp_path):
    assert_golden_sweep("irsa_l3_small", tmp_path)


@pytest.mark.parametrize("name", ["rs_ms4_small", "pa_ms4_small"])
def test_untuned_sweep_csv(name, tmp_path):
    # Modified soliton Y=4, K=40: both decode part of their frames at G=0.5
    # and 1.0, and both decode in the residual phase.
    assert_golden_sweep(name, tmp_path)


@pytest.mark.parametrize("name", ["rs_tune_small", "pa_tune_small", "pa_tune_static_small"])
def test_tune_csv_and_tunings(name, tmp_path):
    # RS: alpha 0 in the grid and a point flagged for too few slots.  PA:
    # the mean-fraction rule on a coarse mu grid, and the static rule on 19
    # tuning frames, three stacks of frames side by side, the last partial.
    assert main(["tune", "--config", str(DATA / f"{name}.json"), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "tune.csv").read_bytes() == (DATA / f"{name}.tune.csv").read_bytes()
    tunings = json.loads((tmp_path / "tune.meta.json").read_text())["tunings"]
    text = json.dumps(tunings, indent=2, sort_keys=True) + "\n"
    assert text == (DATA / f"{name}.tunings.json").read_text()


def test_compare_csv(tmp_path):
    config = DATA / "compare_small.json"
    assert main(["compare", "--config", str(config), "--out", str(tmp_path)]) == 0
    got = (tmp_path / "compare.csv").read_bytes()
    assert got == (DATA / "compare_small.compare.csv").read_bytes()


def assert_golden_trace(trace, args, capsys):
    assert main(["decode-one", "--edges", str(DATA / "irsa_frame.tsv"), *args]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (DATA / f"irsa_frame.{trace}.tsv").read_bytes()


def test_irsa_decode_one_trace(capsys):
    assert_golden_trace("decode-one", ["--scheme", "IRSA", "--es-over-n0", "0.5"], capsys)


@pytest.mark.parametrize(
    "trace, args",
    [
        ("rs.decode-one", ["--scheme", "RS", "--es-over-n0", "0.5", "--alpha", "0.5",
                           "--beta", "1.0"]),
        ("pa.decode-one", ["--scheme", "PA", "--hat-r-bits", "10", "--mu", "1.0"]),
        ("pa_static.decode-one", ["--scheme", "PA", "--hat-r-bits", "10", "--mu", "1.5"]),
    ],
    ids=["RS", "PA", "PA-static"],
)
def test_mrc_decode_one_trace(trace, args, capsys):
    # RS and PA at mu 1.0 decode in both phases, and PA leaves messages
    # undecoded.  At mu 1.5 the frame is statically decodable: it decodes
    # by integer peeling, two messages in phase 2.
    assert_golden_trace(trace, args, capsys)
