"""Blind data detection for sparse massive-MIMO channels.

Recovers transmitted symbol frames from the angular-domain received block
alone by maximizing the entrywise cubed l3 norm of the projected signal over
the complex Stiefel manifold, then resolving the inherent phase-permutation
ambiguity from one reference symbol and short user-ID headers.
"""

from .channel import (
    ArrayGeometry,
    PathSet,
    array_response,
    bernoulli_gaussian_channel,
    clustered_channel,
    steering_matrix,
    to_angular,
)
from .detector import (
    AmbiguityResolution,
    DegenerateGradientError,
    DetectionResult,
    SolveTrace,
    SolverOptions,
    demodulate,
    detect,
    euclid_grad,
    iterate,
    objective,
    optimality_eta,
    pilot_zf_baseline,
    postprocess,
    precondition,
    resolve_ambiguity,
    riemannian_gd_baseline,
    solve,
)
from .harness import (
    Scenario,
    SystemConfig,
    TrialRecord,
    build_scenario,
    emit_report,
    iterations_to_level,
    read_records,
    run_concentration_experiment,
    run_convergence_experiment,
    run_sweep,
)
from .manifold import (
    RankDeficientError,
    StiefelPoint,
    TangentDirection,
    nuclear_norm,
    polar_retract,
    random_stiefel,
    real_inner,
    riemannian_grad,
)
from .metrics import (
    GAMMA1,
    TrialMetrics,
    achievable_rate_blind,
    achievable_rate_training,
    bit_error_rate,
    evm,
    symbol_error_rate,
    theoretical_objective_bound,
)
from .signal import (
    Constellation,
    FrameMeta,
    TransmitFrame,
    build_constellation,
    build_frame,
    concentration_statistic,
    header_length,
    snr_to_noise_variance,
    synthesize_received,
)

__version__ = "0.1.0"
