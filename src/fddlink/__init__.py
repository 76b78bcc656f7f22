"""FDD massive MIMO limited-feedback link simulator.

Channel geometry, per-path phase quantization, MSE-optimal downlink
reconstruction with feedback-bit allocation, robust multi-user precoding,
and seeded Monte Carlo experiment campaigns.
"""

from .allocation import (
    allocate_bits,
    allocate_bruteforce,
    eta,
    nmmse,
    theoretical_weighted_mse,
)
from .channel import (
    ArrayGeometry,
    PathSet,
    dl_channel,
    draw_scene,
    path_loss,
    perturb_estimates,
    ul_channel,
)
from .config import ConfigError, ScenarioConfig, load_config
from .feedback import (
    FeedbackPlan,
    dft_codebook_feedback,
    make_feedback_plan,
    quantize_phases,
)
from .harness import (
    ExperimentRecord,
    derive_trial_seed,
    emit_csv,
    run_delta_experiment,
    run_experiment,
    run_mse_experiment,
    run_se_experiment,
)
from .precoding import (
    GpipConfig,
    GpipError,
    GpipResult,
    PrecodingProblem,
    ZfError,
    gpip_solve,
    gpip_solve_batch,
    stationarity_residual,
    sum_se_lower_bound,
    true_sum_se,
    wmmse_precoder,
    zf_precoder,
)
from .reconstruction import (
    asymptotic_delta_norm,
    outer_error_norm,
    reconstruct_mmse,
    reconstruct_no_feedback,
)

__version__ = "0.1.0"
