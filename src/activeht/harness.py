"""Seeded Monte Carlo driver: one grid sweep, aggregation, result tables.

Every trial draws its seed from a stable 64-bit mix of (policy, delta,
alpha, trial index) XOR the base seed, so any cell can be reproduced in
isolation, adding policies never perturbs existing cells, and results are
identical no matter how many workers execute them.
"""

from __future__ import annotations

import hashlib
import operator
import struct
from dataclasses import dataclass
from itertools import product
from math import nan, sqrt

from .defaults import ALPHA_GRID, DEFAULT_B, DELTA_GRID, POLICY_KINDS
from .engine import PolicyConfig, TrialResult, _integer_field, run_trials
from .model import Environment
from .oracle import OracleCache

# Most rows in one lockstep batch.  A row holds about 6 KB (its 512-draw
# noise block and its generator), while a batch-step costs nearly the same at
# 100 rows as at 1,000, so the cap trades memory for time.  On
# `exp1 --env skewed --trials 1000` (20,000 trials, 2-vCPU host) caps of
# 1,024 / 2,048 / 4,096 rows took 9.2 / 8.3 / 7.0 CPU-seconds at
# 50 / 52 / 63 MB peak RSS; one 5,000-row batch per kind took 8.8 s at 70 MB.
ROW_CAP = 2048

CSV_HEADER = "environment,policy,delta,alpha,mean_tau,stderr_tau,error_rate,timeouts,trials"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs, its ``environment`` already built.  Its
    cells are every (policy, delta, alpha) of the three grids; the default
    grids are the confidence sweep's.

    The per-trial rules (policy, delta, alpha, b, c, max_steps) live in
    ``PolicyConfig``; construction checks them by building the config of
    every cell, so the cells it checks are the cells ``run_sweep`` runs.
    Each grid entry labels its cell's table row, so no two may print alike.
    ``true_h`` must be an integer; its range is checked once, in
    ``run_trials``, before any trial.
    """

    environment: Environment
    true_h: int = 0
    policies: tuple[str, ...] = POLICY_KINDS
    deltas: tuple[float, ...] = DELTA_GRID
    alphas: tuple[float, ...] = (1.0,)
    trials: int = 1000
    base_seed: int = 0
    workers: int = 1
    b: float = DEFAULT_B
    c: float | None = None
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not isinstance(self.environment, Environment):
            raise ValueError(f"environment must be an Environment, as load_environment "
                             f"builds one, got {self.environment!r}")
        for name, minimum in (("trials", 1), ("workers", 1), ("true_h", None), ("base_seed", None)):
            _integer_field(self, name, minimum)
        if not self.deltas or not self.alphas or not self.policies:
            raise ValueError("policy, delta, and alpha grids must be nonempty")
        for name in ("policies", "deltas", "alphas"):
            grid = getattr(self, name)
            if len(set(grid if name == "policies" else map(grid_label, grid))) != len(grid):
                raise ValueError(f"{name} grid repeats an entry: {grid}")
        for kind, delta, alpha in product(self.policies, self.deltas, self.alphas):
            self.policy_config(kind, delta, alpha)

    def policy_config(self, kind: str, delta: float, alpha: float) -> PolicyConfig:
        """The trial config of one (policy, delta, alpha) cell."""
        return PolicyConfig(kind=kind, delta=delta, alpha=alpha, b=self.b, c=self.c,
                            max_steps=self.max_steps)


@dataclass(frozen=True)
class SummaryRow:
    """Monte Carlo aggregates for one (environment, policy, delta, alpha) cell.

    ``mean_tau``/``stderr_tau`` cover completed (non-timed-out) trials only
    and are NaN when every trial timed out; ``error_rate`` is the wrong-
    recommendation fraction among completed trials and ``wrong`` their
    count.
    """

    environment: str
    policy: str
    delta: float
    alpha: float
    mean_tau: float
    stderr_tau: float
    error_rate: float
    timeouts: int
    trials: int
    wrong: int


def trial_seed(base_seed: int, policy: str, delta: float, alpha: float, index: int) -> int:
    """Stable per-trial seed of one (policy, delta, alpha) cell."""
    payload = struct.pack("<ddq", float(delta), float(alpha), operator.index(index))
    digest = hashlib.blake2b(payload + policy.encode(), digest_size=8).digest()
    return (operator.index(base_seed) ^ int.from_bytes(digest, "little")) & ((1 << 63) - 1)


def aggregate(results, *, environment: str = "", policy: str = "",
              delta: float = nan, alpha: float = nan) -> SummaryRow:
    """Order-insensitive reduction of trial outcomes into one summary row."""
    results = list(results)
    if not results:
        raise ValueError("cannot aggregate an empty result sequence")
    taus = [r.tau for r in results if not r.timed_out]
    timeouts = sum(1 for r in results if r.timed_out)
    wrong = sum(1 for r in results if not r.timed_out and not r.correct)
    if taus:
        mean = sum(taus) / len(taus)
        if len(taus) > 1:
            var = sum((x - mean) ** 2 for x in taus) / (len(taus) - 1)
            stderr = sqrt(var / len(taus))
        else:
            stderr = 0.0
        error_rate = wrong / len(taus)
    else:
        mean = stderr = error_rate = nan
    return SummaryRow(
        environment=environment,
        policy=policy,
        delta=delta,
        alpha=alpha,
        mean_tau=mean,
        stderr_tau=stderr,
        error_rate=error_rate,
        timeouts=timeouts,
        trials=len(results),
        wrong=wrong,
    )


def _run_batches(jobs, workers: int) -> list[list[TrialResult]]:
    """``run_trials(*job)`` of each ``(env, true_h, cfgs, seeds)`` job, in
    job order: in this process on one oracle cache, or on a pool of
    ``workers`` processes, where each batch builds its own.

    The pool forks where the platform can, so workers start without
    re-importing the package; elsewhere it uses the platform default, the
    first method ``get_all_start_methods`` lists.
    """
    if workers == 1:
        cache = OracleCache(jobs[0][0])
        return [run_trials(*job, cache=cache) for job in jobs]
    # Imported here, where a pool opens: multiprocessing pulls in its pool,
    # socket and selector modules, about 9 ms and 0.4 MB that a serial sweep
    # never uses.
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
    with ctx.Pool(workers) as pool:
        return pool.starmap(run_trials, jobs, chunksize=1)


def run_sweep(ecfg: ExperimentConfig) -> list[SummaryRow]:
    """One row per cell of ``product(policies, deltas, alphas)``, aggregated
    from its trials in trial-index order.

    The trials, in cell order, are split into near-equal contiguous lockstep
    batches of at most ``ROW_CAP`` rows, one per worker at least (while
    there are enough trials); the pool opens no more workers than batches.
    It reads and writes no file: ``summary_to_csv`` formats the rows as a table.
    """
    env = ecfg.environment
    cells = list(product(ecfg.policies, ecfg.deltas, ecfg.alphas))
    cfgs, seeds = [], []
    for cell in cells:
        cfgs += [ecfg.policy_config(*cell)] * ecfg.trials
        seeds += [trial_seed(ecfg.base_seed, *cell, i) for i in range(ecfg.trials)]
    n = len(seeds)
    batches = max(ecfg.workers, -(-n // ROW_CAP))
    bounds = [n * j // batches for j in range(batches + 1)]
    jobs = [(env, ecfg.true_h, cfgs[lo:hi], seeds[lo:hi])
            for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    results = [r for part in _run_batches(jobs, min(ecfg.workers, len(jobs))) for r in part]
    rows = [aggregate(results[j * ecfg.trials:(j + 1) * ecfg.trials], environment=env.name,
                      policy=kind, delta=delta, alpha=alpha)
            for j, (kind, delta, alpha) in enumerate(cells)]
    rows.sort(key=lambda r: (r.policy, -r.delta, r.alpha))
    return rows


def grid_label(x: float) -> str:
    """A delta or alpha as a table row prints it: 0.1 and 0.1000001 alike."""
    return f"{x:g}"


def summary_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.environment},{r.policy},{grid_label(r.delta)},{grid_label(r.alpha)},"
                     f"{r.mean_tau:.6f},{r.stderr_tau:.6f},{r.error_rate:.6f},{r.timeouts},{r.trials}")
    return "\n".join(lines) + "\n"
