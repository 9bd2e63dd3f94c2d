"""The benchmark's traced run replaces functions by module attribute
(perfbench/child.py's WRAPPED table).  A renamed function, or a caller that
stops looking one up through its module's globals, would leave a layer
silently untraced; these tests catch both."""

import ast
import importlib
from pathlib import Path

from irsa_sim import harness
from irsa_sim.harness import SweepSpec, TuningConfig, run_tuned_sweep

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def wrapped_table():
    """WRAPPED from child.py, read as a literal without importing the script."""
    tree = ast.parse(CHILD.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("child.py defines no WRAPPED table")


def test_every_wrapped_attribute_exists():
    table = wrapped_table()
    assert table
    for module_name, attr, _label in table:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def install_counters(monkeypatch):
    """Counting wrappers on the tuners and on build_frame; frames built while
    a tuner runs are counted apart, as the traced run's tune spans do."""
    counts = {"tune_rs": 0, "tune_mu": 0, "frames": 0, "tune_frames": 0}
    depth = [0]

    def tuner(name):
        fn = getattr(harness, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(harness, name, wrapper)

    tuner("tune_rs")
    tuner("tune_mu")
    build_frame = harness.build_frame

    def frame_counter(*args, **kwargs):
        counts["frames"] += 1
        counts["tune_frames"] += depth[0] > 0
        return build_frame(*args, **kwargs)

    monkeypatch.setattr(harness, "build_frame", frame_counter)
    return counts


def test_tuned_rs_sweep_reaches_hooks(monkeypatch):
    counts = install_counters(monkeypatch)
    spec = SweepSpec(
        scheme="RS", dist_name="modified_soliton", dist_Y=4, K=20,
        G_grid=(0.4, 0.8), trials=3, seed=2, tilde_Es_over_N0=0.004,
    )
    _, tunings = run_tuned_sweep(
        spec, TuningConfig(alpha_grid=(0.0, 0.3), beta_grid=(1.0,), tune_trials=4)
    )
    assert counts["tune_rs"] == 1 and counts["tune_mu"] == 0
    assert counts["tune_frames"] == 4 * 2
    assert all(t.feasible for t in tunings)
    assert counts["frames"] == 4 * 2 + 3 * 2


def test_tuned_pa_sweep_reaches_hooks(monkeypatch):
    counts = install_counters(monkeypatch)
    spec = SweepSpec(
        scheme="PA", dist_name="modified_soliton", dist_Y=4, K=20,
        G_grid=(0.4, 0.8), trials=3, seed=2, hat_R_bits=8.0,
    )
    _, tunings = run_tuned_sweep(
        spec, TuningConfig(tune_trials=5, mu_criterion="static_reliability", reliability=0.9)
    )
    assert counts["tune_mu"] == 2 and counts["tune_rs"] == 0
    assert counts["tune_frames"] == 5 * 2
    assert all(t.feasible for t in tunings)
    assert counts["frames"] == 5 * 2 + 3 * 2
