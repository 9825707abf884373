"""Fixed-confidence active multi-hypothesis testing.

Four sequential policies (greedy divergence-chasing, track-and-stop, and two
elimination-augmented variants), the max-min allocation oracle they track,
and a seeded Monte Carlo harness for benchmarking them.
"""

import os

# One BLAS thread per process, set before .model imports numpy.  On an
# N-CPU host numpy's bundled OpenBLAS otherwise starts N - 1 worker threads
# at import, and each busy-waits for up to 0.1 s of CPU before it sleeps.
# The lab never uses them: its largest BLAS operands (the simplex tableau and
# the dual solve) are far below OpenBLAS's threading thresholds.  Pool
# workers inherit the setting.  A value exported by the user is kept, and
# numpy imported before this package keeps its own setting.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .model import (
    Environment,
    IdentifiabilityError,
    MalformedDocumentError,
    ModelError,
    PRESET_NAMES,
    load_environment,
)
from .oracle import (
    Allocation,
    DegenerateInstanceError,
    OracleCache,
    OracleError,
    OracleSolution,
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
    new_trial_state,
    run_trial,
    run_trials,
    thresholds,
    update_likelihoods,
)
from .harness import (
    ExperimentConfig,
    SummaryRow,
    aggregate,
    run_delta_sweep,
    run_sweep,
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
    "load_environment",
    "new_trial_state",
    "oracle_allocation",
    "run_delta_sweep",
    "run_sweep",
    "run_trial",
    "run_trials",
    "summary_to_csv",
    "thresholds",
    "trial_seed",
    "update_likelihoods",
    "worst_case_rate",
]
