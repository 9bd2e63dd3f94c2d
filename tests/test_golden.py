"""Golden outputs: a small IRSA sweep and a decode-one trace, byte for byte.

The files under ``tests/data`` were written by the receiver as it stood
before IRSA decoding became integer peeling.  A change that declares new
numbers regenerates them with the commands below; any other change must
leave them as they are:

    irsa-sim sweep --config tests/data/irsa_l3_small.json --out OUT
        (OUT/sweep.csv -> tests/data/irsa_l3_small.sweep.csv)
    irsa-sim decode-one --edges tests/data/irsa_frame.tsv --scheme IRSA \\
        --es-over-n0 0.5 > tests/data/irsa_frame.decode-one.tsv
"""

from pathlib import Path

from irsa_sim.cli import main

DATA = Path(__file__).parent / "data"


def test_irsa_sweep_csv(tmp_path):
    assert main(["sweep", "--config", str(DATA / "irsa_l3_small.json"), "--out", str(tmp_path)]) == 0
    got = (tmp_path / "sweep.csv").read_bytes()
    assert got == (DATA / "irsa_l3_small.sweep.csv").read_bytes()


def test_irsa_decode_one_trace(capsys):
    code = main([
        "decode-one", "--edges", str(DATA / "irsa_frame.tsv"),
        "--scheme", "IRSA", "--es-over-n0", "0.5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.encode() == (DATA / "irsa_frame.decode-one.tsv").read_bytes()
