"""Fixed-confidence active multi-hypothesis testing.

Four sequential policies (greedy divergence-chasing, track-and-stop, and two
elimination-augmented variants), the max-min allocation oracle they track,
and a seeded Monte Carlo harness for benchmarking them.
"""

from .model import (
    Environment,
    IdentifiabilityError,
    MalformedDocumentError,
    ModelError,
    PRESET_NAMES,
    kl,
    load_environment,
    log_density,
    preset_environment,
    sample_observation,
)
from .oracle import (
    Allocation,
    DegenerateInstanceError,
    GridTooLargeError,
    OracleCache,
    OracleError,
    OracleSolution,
    grid_oracle,
    oracle_allocation,
    worst_case_rate,
)
from .engine import (
    DiagnosticsTrace,
    POLICY_KINDS,
    PolicyConfig,
    TrialResult,
    TrialState,
    ctrack_select,
    eliminate,
    greedy_select,
    llr,
    new_trial_state,
    run_trial,
    thresholds,
    update_likelihoods,
)
from .harness import (
    ExperimentConfig,
    SummaryRow,
    aggregate,
    run_alpha_sweep,
    run_delta_sweep,
    summary_to_csv,
    trial_seed,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "DegenerateInstanceError",
    "DiagnosticsTrace",
    "Environment",
    "ExperimentConfig",
    "GridTooLargeError",
    "IdentifiabilityError",
    "MalformedDocumentError",
    "ModelError",
    "OracleCache",
    "OracleError",
    "OracleSolution",
    "POLICY_KINDS",
    "PRESET_NAMES",
    "PolicyConfig",
    "SummaryRow",
    "TrialResult",
    "TrialState",
    "aggregate",
    "ctrack_select",
    "eliminate",
    "greedy_select",
    "grid_oracle",
    "kl",
    "llr",
    "load_environment",
    "log_density",
    "new_trial_state",
    "oracle_allocation",
    "preset_environment",
    "run_alpha_sweep",
    "run_delta_sweep",
    "run_trial",
    "sample_observation",
    "summary_to_csv",
    "thresholds",
    "trial_seed",
    "update_likelihoods",
    "worst_case_rate",
]
