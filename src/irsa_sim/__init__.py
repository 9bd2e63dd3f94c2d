"""Slotted random-access simulator: repetition-based ALOHA variants on the
Gaussian multiple access channel with an MRC+SIC receiver."""

from .distributions import (
    DegreeDistribution,
    avg_degree,
    fixed_l3,
    from_name,
    ideal_soliton,
    modified_soliton,
    sample_degrees,
)
from .frame_graph import (
    FrameGraph,
    build_frame,
)
from .schemes import (
    ChannelConfig,
    InfeasibleOperatingPointError,
    SchemeConfig,
    TransmitProfile,
    TuningParameterError,
    build_profile,
    es_from_reference,
    hat_es_from_rate,
    pa_powers,
)
from .decoder import (
    DecodeResult,
    decode_frame,
)
from .metrics import (
    TrialMetrics,
    c_ref,
    gamma_irsa_min,
    trial_metrics,
)
from .harness import (
    CompareRow,
    MuTuning,
    RsTuning,
    SweepRecord,
    SweepSpec,
    compare_rs_pa,
    run_sweep,
    run_tuned_sweep,
    tune_mu,
    tune_rs,
)

__version__ = "0.1.0"
