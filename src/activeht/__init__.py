"""Fixed-confidence active multi-hypothesis testing.

Four sequential policies (greedy divergence-chasing, track-and-stop, and two
elimination-augmented variants), the max-min allocation oracle they track,
and a seeded Monte Carlo harness for benchmarking them.
"""

import os
from importlib import import_module

# One BLAS thread per process, set when the package is imported, before the
# first module that needs numpy loads it.  On an N-CPU host numpy's bundled
# OpenBLAS otherwise starts N - 1 worker threads at import, and each
# busy-waits for up to 0.1 s of CPU before it sleeps.  The lab never uses
# them: its largest BLAS operands (the simplex tableau and the dual solve)
# are far below OpenBLAS's threading thresholds.  Pool workers inherit the
# setting.  A value exported by the user is kept, and numpy imported before
# this package keeps its own setting.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  A submodule is
# imported on first access to one of its names, so a command that runs no
# trial never loads the engine or the sweep driver.
_EXPORTS = {
    "Allocation": "oracle",
    "DegenerateInstanceError": "oracle",
    "DiagnosticsTrace": "engine",
    "Environment": "model",
    "ExperimentConfig": "harness",
    "IdentifiabilityError": "model",
    "MalformedDocumentError": "model",
    "ModelError": "model",
    "OracleCache": "oracle",
    "OracleError": "oracle",
    "OracleSolution": "oracle",
    "POLICY_KINDS": "defaults",
    "PRESET_NAMES": "model",
    "PolicyConfig": "engine",
    "SummaryRow": "harness",
    "TrialResult": "engine",
    "TrialState": "reference",
    "aggregate": "harness",
    "ctrack_select": "reference",
    "eliminate": "reference",
    "greedy_select": "reference",
    "load_environment": "model",
    "new_trial_state": "reference",
    "oracle_allocation": "oracle",
    "run_delta_sweep": "reference",
    "run_sweep": "harness",
    "run_trial": "engine",
    "run_trials": "engine",
    "summary_to_csv": "harness",
    "thresholds": "engine",
    "trial_seed": "harness",
    "update_likelihoods": "reference",
    "worst_case_rate": "oracle",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
