"""Golden outputs: small IRSA, RS and PA sweeps and a decode-one trace, byte
for byte.

The IRSA files under ``tests/data`` were written by the receiver as it stood
before IRSA decoding became integer peeling, the RS and PA sweeps by the
evaluation path as it stood before sweeps read one degree table per point.
A change that declares new numbers regenerates them with the commands below;
any other change must leave them as they are:

    irsa-sim sweep --config tests/data/NAME.json --out OUT
        (OUT/sweep.csv -> tests/data/NAME.sweep.csv, for each NAME below)
    irsa-sim decode-one --edges tests/data/irsa_frame.tsv --scheme IRSA \\
        --es-over-n0 0.5 > tests/data/irsa_frame.decode-one.tsv
"""

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


def test_irsa_decode_one_trace(capsys):
    code = main([
        "decode-one", "--edges", str(DATA / "irsa_frame.tsv"),
        "--scheme", "IRSA", "--es-over-n0", "0.5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.encode() == (DATA / "irsa_frame.decode-one.tsv").read_bytes()
