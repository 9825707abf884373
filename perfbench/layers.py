"""Per-layer trace of one sweep workload, driven through activeht's public functions.

Every span is taken here, around calls into the package's layers:

* harness: ``trial_seed`` and ``aggregate`` for each cell, the cell itself,
  and an untraced serial ``run_delta_sweep`` for the tracing overhead;
* engine: ``run_trial`` for each trial, less the oracle time inside it; the
  phases by replaying sampled trials through the public step functions
  (``ctrack_select``/``greedy_select``, ``update_likelihoods``,
  ``eliminate``/``thresholds``), one timed call at a time; target changes
  from ``record_diagnostics`` traces of sampled trials;
* oracle: a timed ``OracleCache`` subclass passed as ``run_trial(cache=...)``,
  and ``oracle_allocation`` on seeded random instances over a grid of
  (A, |S|);
* model: ``load_environment`` plus the divergence tables;
* cli: a fresh ``activeht --version``.

The traced sweep must reproduce the untraced CLI sweep's CSV byte for byte,
and each replayed trial must end as ``run_trial`` ended it; otherwise the
layer numbers are rejected.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from activeht import (
    Environment,
    ExperimentConfig,
    OracleCache,
    PolicyConfig,
    aggregate,
    ctrack_select,
    eliminate,
    greedy_select,
    load_environment,
    new_trial_state,
    oracle_allocation,
    run_delta_sweep,
    run_trial,
    summary_to_csv,
    thresholds,
    trial_seed,
    update_likelihoods,
)
from activeht.engine import resolve_config

from sweeps import (
    DEFAULT_SEED,
    DELTAS,
    POLICIES,
    WORKLOADS,
    check_pinned_unit,
    check_sweep,
    make_inputs,
    pinned_mismatches,
    run_cli,
    sweep_args,
)

TRUE_H = 0
# Normal draws per generator refill; must match the engine, which the replay
# check below enforces.
RNG_BLOCK = 512
REPLAY_TRIALS = 2  # per (policy, delta) cell
DIAGNOSTIC_TRIALS = 1  # per (tracking policy, delta) cell
LP_ACTIONS = (5, 10, 20, 40)
STARTUP_REPS = 5
LOAD_REPS = 20


class TimedCache(OracleCache):
    """OracleCache that times every target lookup and counts first-seen keys
    as solves; the key bookkeeping sits inside the timed span."""

    def __init__(self, env):
        super().__init__(env)
        self.calls = 0
        self.busy_s = 0.0
        self.solve_s = []
        self._seen = set()

    def target(self, h, S):
        t0 = perf_counter()
        value = super().target(h, S)
        t1 = perf_counter()
        key = (h, frozenset(S))
        if key not in self._seen:
            self._seen.add(key)
            self.solve_s.append(t1 - t0)
        self.calls += 1
        self.busy_s += perf_counter() - t0
        return value


@dataclass
class Tally:
    """Span and count totals over the environments of one workload."""

    failed: int = 0
    attempted: int = 0
    cli_wall_s: float = 0.0
    untraced_serial_s: float = 0.0
    traced_serial_s: float = 0.0
    trial_s: float = 0.0
    seed_s: float = 0.0
    aggregate_s: float = 0.0
    cells_s: list = field(default_factory=list)
    steps: dict = field(default_factory=lambda: dict.fromkeys(POLICIES, 0))
    engine_s: dict = field(default_factory=lambda: dict.fromkeys(POLICIES, 0.0))
    capped_steps: int = 0
    target_calls: int = 0
    oracle_s: float = 0.0
    solve_s: list = field(default_factory=list)
    phase_s: dict = field(default_factory=lambda: {kind: [0.0, 0.0, 0.0] for kind in POLICIES})
    replay_steps: dict = field(default_factory=lambda: dict.fromkeys(POLICIES, 0))
    target_changes: int = 0
    diagnostic_steps: int = 0
    load_s: list = field(default_factory=list)


def traced_sweep(env, trials: int, seed: int, cap: int, tally: Tally):
    """The serial sweep, cell by cell, with a span around every layer call.

    Returns the CSV, the (seed, result) pairs of each cell and the cache.
    """
    cache = TimedCache(env)
    results_by_cell, rows = {}, []
    start = perf_counter()
    for kind in POLICIES:
        for delta in DELTAS:
            c0 = perf_counter()
            seeds = [trial_seed(seed, kind, delta, 1.0, i) for i in range(trials)]
            tally.seed_s += perf_counter() - c0
            cfg = PolicyConfig(kind=kind, delta=delta, max_steps=cap)
            results = []
            for s in seeds:
                busy = cache.busy_s
                t0 = perf_counter()
                r = run_trial(env, TRUE_H, cfg, s, cache=cache)
                dt = perf_counter() - t0
                tally.trial_s += dt
                tally.engine_s[kind] += dt - (cache.busy_s - busy)
                tally.steps[kind] += r.tau
                if r.timed_out:
                    tally.capped_steps += r.tau
                results.append(r)
            a0 = perf_counter()
            rows.append(aggregate(results, environment=env.name, policy=kind, delta=delta,
                                  alpha=1.0))
            tally.aggregate_s += perf_counter() - a0
            tally.cells_s.append(perf_counter() - c0)
            results_by_cell[(kind, delta)] = list(zip(seeds, results))
    tally.traced_serial_s += perf_counter() - start
    tally.target_calls += cache.calls
    tally.oracle_s += cache.busy_s
    tally.solve_s += cache.solve_s
    rows.sort(key=lambda r: (r.policy, -r.delta, r.alpha))
    return summary_to_csv(rows), results_by_cell, cache


def _timer_overhead() -> float:
    """Cost of one ``t0 = perf_counter(); x += perf_counter() - t0`` pair."""
    samples = []
    for _ in range(5):
        acc = 0.0
        s0 = perf_counter()
        for _ in range(2000):
            t0 = perf_counter()
            acc += perf_counter() - t0
        samples.append((perf_counter() - s0) / 2000)
    return min(samples)


def replay(env, cfg, seed, cache, phase_s: list) -> tuple[int, int, bool]:
    """One trial through the public step functions, as ``run_trial`` runs it,
    adding each phase's time to ``phase_s`` = [select, update, stop].

    Returns (tau, recommendation, timed_out).
    """
    cfg = resolve_config(cfg, env)
    rng = np.random.default_rng(seed)
    state = new_trial_state(env)
    k = env.num_hypotheses
    full = [tuple(g for g in range(k) if g != i) for i in range(k)]
    true_means = [env.means[a][TRUE_H] for a in range(env.num_actions)]
    kind = cfg.kind
    eliminating = kind in ("StopElim", "FullElim")
    buf = rng.standard_normal(RNG_BLOCK)
    buf_i = 0
    while True:
        ch = state.champion
        if kind == "Greedy":
            t0 = perf_counter()
            a = greedy_select(state, env)
        else:
            w, _ = cache.target(ch, state.active[ch] if kind == "FullElim" else full[ch])
            t0 = perf_counter()
            a = ctrack_select(state, w)
        phase_s[0] += perf_counter() - t0
        if buf_i == RNG_BLOCK:
            buf = rng.standard_normal(RNG_BLOCK)
            buf_i = 0
        o = true_means[a] + env.sigma * buf[buf_i]
        buf_i += 1
        t0 = perf_counter()
        update_likelihoods(state, env, a, o)
        phase_s[1] += perf_counter() - t0
        t = state.t
        ch = state.champion
        if eliminating:
            t0 = perf_counter()
            eliminate(state, cfg)
            phase_s[2] += perf_counter() - t0
            stopped = not state.active[ch]
        else:
            t0 = perf_counter()
            beta_stop, _ = thresholds(t, cfg)
            phase_s[2] += perf_counter() - t0
            level = state.loglik[ch]
            stopped = min(level - state.loglik[g] for g in full[ch]) >= beta_stop
        if stopped:
            return t, ch, False
        if t >= cfg.max_steps:
            return cfg.max_steps, ch, True


def replay_phases(env, results_by_cell, cap: int, cache, tally: Tally) -> None:
    """Replay the first trials of each cell through the public step functions;
    each must end as ``run_trial`` ended it."""
    for (kind, delta), pairs in results_by_cell.items():
        cfg = PolicyConfig(kind=kind, delta=delta, max_steps=cap)
        for s, r in pairs[:REPLAY_TRIALS]:
            outcome = replay(env, cfg, s, cache, tally.phase_s[kind])
            tally.attempted += 1
            tally.failed += outcome != (r.tau, r.recommendation, r.timed_out)
            tally.replay_steps[kind] += outcome[0]


def count_target_changes(env, results_by_cell, cap: int, cache, tally: Tally) -> None:
    """Tracking-target changes in recorded sampled trials.

    The target a step tracks is fixed by the previous round's champion and,
    for FullElim, that champion's surviving set; a change in it is a point
    where a target fetch could not be skipped.
    """
    for (kind, delta), pairs in results_by_cell.items():
        if kind == "Greedy":
            continue
        cfg = PolicyConfig(kind=kind, delta=delta, max_steps=cap)
        for s, _ in pairs[:DIAGNOSTIC_TRIALS]:
            trace = run_trial(env, TRUE_H, cfg, s, record_diagnostics=True,
                              cache=cache).diagnostics
            if kind == "FullElim":
                keys = [(c, tuple(a)) for c, a in zip(trace.champion, trace.active_set)]
            else:
                keys = trace.champion
            tally.target_changes += sum(1 for a, b in zip(keys, keys[1:]) if a != b)
            tally.diagnostic_steps += len(keys)


def trace_environment(wl: dict, seed: int, env_arg: str, env_name: str, workdir,
                      tally: Tally) -> None:
    """Reference CLI sweep, untraced and traced in-process sweeps, replays and
    diagnostics on one environment."""
    cells = len(POLICIES) * len(DELTAS)
    csv_path = workdir / f"reference-{env_name}.csv"
    cli = run_cli(sweep_args(wl, env_arg, seed, csv_path), workdir, f"reference-{env_name}")
    check = check_sweep(cli, csv_path, wl, env_name)
    rows = {(env_name, *key): line for key, line in check["rows"].items()}
    bad = {(env_name, *key) for key in check["bad"]} | pinned_mismatches(rows, wl, seed)
    tally.failed += len(bad)
    tally.cli_wall_s += cli["wall_s"]
    cap = check["cap"] or 1
    reference = check["csv"]

    for _ in range(LOAD_REPS):
        t0 = perf_counter()
        env = load_environment(env_arg)
        env.indistinguishable_pairs()
        tally.load_s.append(perf_counter() - t0)

    t0 = perf_counter()
    serial_rows = run_delta_sweep(ExperimentConfig(
        environment=env, policies=POLICIES, deltas=DELTAS, alphas=(1.0,), trials=wl["trials"],
        base_seed=seed, workers=1, max_steps=cap))
    tally.untraced_serial_s += perf_counter() - t0
    traced_csv, results_by_cell, cache = traced_sweep(env, wl["trials"], seed, cap, tally)
    tally.attempted += 3 * cells
    tally.failed += (_row_mismatches(summary_to_csv(serial_rows), reference, cells)
                     + _row_mismatches(traced_csv, reference, cells))

    # The oracle counts are taken; the warm cache now serves the replays.
    replay_phases(env, results_by_cell, cap, cache, tally)
    count_target_changes(env, results_by_cell, cap, cache, tally)


def lp_times(seed: int) -> dict:
    """Median ``oracle_allocation`` µs on seeded random K = A instances."""
    out = {}
    for num_actions in LP_ACTIONS:
        rng = np.random.default_rng([seed, num_actions])
        means = rng.uniform(0.0, 1.0, size=(num_actions, num_actions))
        env = Environment(name=f"lp{num_actions}", means=tuple(map(tuple, means)), sigma=1.0)
        opponents = [int(g) for g in rng.permutation(np.arange(1, num_actions))]
        oracle_allocation(env, 0, opponents[:2])  # builds the divergence table
        for size in sorted({2, num_actions // 2, num_actions - 1}):
            times = []
            stop = perf_counter() + 0.2
            while len(times) < 3 or (perf_counter() < stop and len(times) < 25):
                t0 = perf_counter()
                oracle_allocation(env, 0, opponents[:size])
                times.append(perf_counter() - t0)
            out[f"oracle.lp_us.A{num_actions}.S{size}"] = statistics.median(times) * 1e6
    return out


def _row_mismatches(csv: str, reference: str, cells: int) -> int:
    """Cells whose row differs from the reference CSV; all of them when the
    header or the row count differs."""
    lines, ref = csv.splitlines(), reference.splitlines()
    if len(lines) != len(ref) or lines[:1] != ref[:1]:
        return cells
    return sum(a != b for a, b in zip(lines[1:], ref[1:]))


def unit_of(name: str) -> str:
    if name.endswith("_us") or "_us." in name:
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.startswith("harness.cell_s"):
        return "s"
    if name.endswith(("target_calls", "solves")):
        return "count"
    if name.endswith("per_kstep"):
        return "1/kstep"
    return "ratio"


def traced_run(name: str, seed: int, workdir) -> tuple[dict, dict, int, int, dict]:
    wl = WORKLOADS[name]
    inputs = make_inputs(wl, seed, workdir)
    tally = Tally()
    for env_arg, env_name in inputs:
        trace_environment(wl, seed, env_arg, env_name, workdir, tally)
    if seed != DEFAULT_SEED:
        pinned_attempted, pinned_failed = check_pinned_unit(wl, workdir)
        tally.attempted += pinned_attempted
        tally.failed += pinned_failed

    overhead = _timer_overhead()
    metrics = {}
    for kind in POLICIES:
        phases = {name: (total / tally.replay_steps[kind] - overhead) * 1e6
                  for name, total in zip(("select", "update", "stop"), tally.phase_s[kind])}
        step_us = tally.engine_s[kind] / tally.steps[kind] * 1e6
        metrics[f"engine.step_us.{kind}"] = step_us
        metrics.update({f"engine.{name}_us.{kind}": us for name, us in phases.items()})
        metrics[f"engine.other_us.{kind}"] = step_us - sum(phases.values())
    solves = len(tally.solve_s)
    solves_us = np.array(tally.solve_s) * 1e6
    engine_s = sum(tally.engine_s.values())
    cells = len(tally.cells_s)
    metrics.update({
        "engine.capped_step_share": tally.capped_steps / sum(tally.steps.values()),
        "engine.target_changes_per_kstep": tally.target_changes / tally.diagnostic_steps * 1e3,
        "oracle.target_calls": tally.target_calls,
        "oracle.solves": solves,
        "oracle.hit_rate": 1.0 - solves / tally.target_calls,
        "oracle.solve_us.p50": float(np.percentile(solves_us, 50)),
        "oracle.solve_us.p90": float(np.percentile(solves_us, 90)),
        "oracle.busy_share": tally.oracle_s / (engine_s + tally.oracle_s),
    })
    metrics.update(lp_times(seed))
    starts = [run_cli(["--version"], workdir, f"version{i}")["wall_s"]
              for i in range(STARTUP_REPS + 1)][1:]
    metrics.update({
        "harness.seed_us": tally.seed_s / (cells * wl["trials"]) * 1e6,
        "harness.aggregate_us": tally.aggregate_s / cells * 1e6,
        "harness.overhead_share": 1.0 - tally.trial_s / tally.traced_serial_s,
        "harness.cell_s.p50": statistics.median(tally.cells_s),
        "harness.cell_s.max": max(tally.cells_s),
        "harness.parallel_efficiency": tally.trial_s / (wl["workers"] * tally.cli_wall_s),
        "model.env_load_ms": statistics.median(tally.load_s) * 1e3,
        "cli.startup_ms": statistics.median(starts) * 1e3,
        "trace.overhead_share": tally.traced_serial_s / tally.untraced_serial_s - 1.0,
    })

    checks = {f"{metric} {op} {bound}": (metrics[metric] >= bound if op == ">="
                                         else metrics[metric] <= bound)
              for metric, op, bound in wl["checks"]}
    print(json.dumps({"reason": wl["reason"], "reason_checks": checks}))
    for text, ok in checks.items():
        if not ok:
            print(f"{name}: reason check failed, the workload is mischosen: {text}")
    detail = {
        "cli_sweep_wall_s": tally.cli_wall_s,
        "untraced_serial_s": tally.untraced_serial_s,
        "traced_serial_s": tally.traced_serial_s,
        "oracle_base_counts": {"target_calls": tally.target_calls, "solves": solves},
        "reason_checks": checks,
    }
    return metrics, {key: unit_of(key) for key in metrics}, tally.attempted, tally.failed, detail
