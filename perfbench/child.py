"""One ``irsa_sim.cli.main`` call in a fresh process.

run.py starts this script once per repetition so that every call pays its
own interpreter start, ``import irsa_sim`` and config validation, and so that
one call's peak memory never carries into the next:

    python3 perfbench/child.py RESULT_JSON [--setup-only] [--trace SPANS_JSON] -- CLI_ARGS...

The CLI arguments are passed to ``cli.main`` unchanged; they must contain
``--config PATH``.  The script writes RESULT_JSON with ``time.perf_counter``
stamps (CLOCK_MONOTONIC, so comparable with the parent's), the CPU time of
the call (``cpu_s``, see ``cpu_seconds``) and of a reference loop run around
it (``ref_cpu_s``, see ``reference_cpu_s``), the exit code, peak RSS and
library versions.  ``--setup-only`` stops after validation.

With ``--trace`` each layer's public functions are replaced by timing
wrappers under the name their caller looks them up by.  Spans (label, start,
end, parent) stay in memory and are written to SPANS_JSON at the end; the
per-label self times and counts go into RESULT_JSON.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from irsa_sim import cli  # noqa: E402
from irsa_sim.decoder import PHASE_PEELING, PHASE_RESIDUAL  # noqa: E402

# (module the caller looks the name up in, attribute, span label).
# effective_sinr is deliberately absent: it runs once per message per mu
# bisection step, so a wrapper would cost more than it measures; its time
# shows as harness.tune self time.
WRAPPED = (
    ("irsa_sim.frame_graph", "sample_degrees", "distributions.sample_degrees"),
    ("irsa_sim.harness", "build_frame", "frame_graph.build_frame"),
    ("irsa_sim.harness", "build_profile", "schemes.build_profile"),
    ("irsa_sim.harness", "decode_frame", "decoder.decode_frame"),
    ("irsa_sim.harness", "trial_metrics", "metrics.trial_metrics"),
    ("irsa_sim.harness", "trial_rng", "harness.trial_rng"),
    ("irsa_sim.harness", "run_point", "harness.run_point"),
    ("irsa_sim.harness", "tune_rs", "harness.tune"),
    ("irsa_sim.harness", "tune_mu", "harness.tune"),
    ("irsa_sim.cli", "parse_config", "cli.parse_config"),
    ("irsa_sim.cli", "emit_csv", "cli.emit"),
    ("irsa_sim.cli", "emit_plot_data", "cli.emit"),
)
REFERENCE_ROUNDS = 8000
ROOT_LABEL = "cli.main"
TUNE_LABEL = "harness.tune"


class Tracer:
    """In-memory span recorder for one single-threaded call."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.decodes = {"peel": 0, "residual": 0, "decoded": 0, "messages": 0}

    def span(self, label: str, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((label, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, spans[index][3])
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count_decode(self, result) -> None:
        phase = result.phase
        self.decodes["peel"] += int((phase == PHASE_PEELING).sum())
        self.decodes["residual"] += int((phase == PHASE_RESIDUAL).sum())
        self.decodes["decoded"] += result.decoded_count
        self.decodes["messages"] += len(phase)

    def install(self) -> None:
        for module_name, attr, label in WRAPPED:
            module = importlib.import_module(module_name)
            hook = self.count_decode if label == "decoder.decode_frame" else None
            setattr(module, attr, self.span(label, getattr(module, attr), hook))

    def summary(self) -> dict:
        """Self time and call count per label; frames and profiles built
        inside tuner spans; decode-phase totals."""
        child_time = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        in_tune = {"frame_graph.build_frame": 0, "schemes.build_profile": 0}
        for i, (label, start, end, parent) in enumerate(self.spans):
            self_s[label] += end - start - child_time[i]
            calls[label] += 1
            if label in in_tune and self._under(parent, TUNE_LABEL):
                in_tune[label] += 1
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "tune_frames": in_tune["frame_graph.build_frame"],
            "tune_profiles": in_tune["schemes.build_profile"],
            "decodes": dict(self.decodes),
        }

    def _under(self, index: int, label: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == label:
                return True
            index = self.spans[index][3]
        return False


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children.
    A virtual machine's guest kernel does not charge the time the host takes
    the CPU away (steal) to the process, so this moves much less than wall
    time when other tenants compete for the host's cores."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def reference_cpu_s() -> float:
    """CPU time of a fixed amount of work in the program's style but
    independent of its code: small-array numpy calls and interpreter-bound
    loops.  Run just before and just after the call, it measures how fast
    the host ran this process meanwhile."""
    start = cpu_seconds()
    rng = numpy.random.default_rng(0)
    total = 0
    for i in range(REFERENCE_ROUNDS):
        slots = rng.integers(0, 300, size=600)
        total += int(numpy.bincount(slots, minlength=300).argmax())
        for j in range(60):
            total += (i * j) % 7
    return cpu_seconds() - start


def config_path(cli_args: list[str]) -> str:
    return cli_args[cli_args.index("--config") + 1]


def main(argv: list[str]) -> int:
    result_path = Path(argv[0])
    split = argv.index("--")
    options, cli_args = argv[1:split], argv[split + 1:]
    setup_only = "--setup-only" in options
    spans_path = Path(options[options.index("--trace") + 1]) if "--trace" in options else None

    # Validation of the generated config is part of set-up, as a user's
    # config is checked before any simulation starts.
    cli.parse_config(Path(config_path(cli_args)).read_text())
    result = {
        "t_start": T_START,
        "t_ready": time.perf_counter(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if not setup_only:
        tracer = None
        call = cli.main
        if spans_path is not None:
            tracer = Tracer()
            tracer.install()
            call = tracer.span(ROOT_LABEL, cli.main)
        ref_before = reference_cpu_s()
        t_call = time.perf_counter()
        cpu_call = cpu_seconds()
        try:
            code = call(cli_args)
        except Exception:  # a crash is a failed repetition, reported to the parent
            traceback.print_exc()
            code = -1
        result["t_call"] = t_call
        result["t_end"] = time.perf_counter()
        result["cpu_s"] = cpu_seconds() - cpu_call
        result["ref_cpu_s"] = (ref_before + reference_cpu_s()) / 2
        result["exit_code"] = code
        if tracer is not None:
            result["trace"] = tracer.summary()
            spans_path.write_text(json.dumps(tracer.spans))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
