"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or on failure).

All Monte Carlo cells are seeded from BASE_SEED, so every asserted band is
deterministic; shared cells are memoized module-wide so criteria that reuse
a configuration pay for it once.
"""

import math
import time

import numpy as np
import pytest

from activeht import (
    ExperimentConfig,
    OracleCache,
    PolicyConfig,
    aggregate,
    load_environment,
    run_sweep,
    run_trial,
    run_trials,
    summary_to_csv,
    trial_seed,
    worst_case_rate,
)

from activeht.defaults import DEFAULT_B, DEFAULT_C_OFFSET
from activeht.harness import ROW_CAP
from conftest import BASE_SEED, certified_allocation
from k2_reference import tas_actions, tas_k2_law
from summary_rows import capped_mean_tau, failure_rate

DELTA_GRID = (0.1, 0.05, 0.01, 0.005, 0.001)
ALPHA_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)
DEGENERATE_CAP = 10_000

_CELLS = {}


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def envs(skewed, hard_weak, degenerate):
    return {"skewed": skewed, "hard-weak": hard_weak, "degenerate": degenerate}


@pytest.fixture(scope="module")
def mc(envs, caches):
    def cell(name, kind, delta, alpha, trials, max_steps=100_000):
        key = (name, kind, delta, alpha, trials, max_steps)
        if key not in _CELLS:
            cfg = PolicyConfig(kind=kind, delta=delta, alpha=alpha, max_steps=max_steps)
            seeds = [trial_seed(BASE_SEED, kind, delta, alpha, i) for i in range(trials)]
            results = run_trials(envs[name], 0, [cfg] * trials, seeds, cache=caches[name])
            _CELLS[key] = aggregate(results, environment=name, policy=kind,
                                    delta=delta, alpha=alpha)
        return _CELLS[key]

    return cell


def _random_instance(rng):
    num_actions = int(rng.integers(2, 4))
    num_hypotheses = int(rng.integers(2, 5))
    means = rng.uniform(0.0, 1.0, size=(num_actions, num_hypotheses))
    env = load_environment({"name": "rand", "means": means.tolist()})
    opponents = [g for g in range(1, num_hypotheses) if env.max_divergence[0][g] > 0][:3]
    return env, opponents


def test_criterion_1_oracle_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED)

    checked = 0
    while checked < 200:
        env, opponents = _random_instance(rng)
        if not opponents:
            continue
        certified_allocation(env, 0, opponents)
        checked += 1

    nested = 0
    while nested < 100:
        env, opponents = _random_instance(rng)
        if len(opponents) < 2:
            continue
        size = int(rng.integers(1, len(opponents)))
        subset = sorted(rng.choice(opponents, size=size, replace=False).tolist())
        assert certified_allocation(env, 0, subset).rate >= \
            certified_allocation(env, 0, opponents).rate - 1e-9
        nested += 1

    concave = 0
    while concave < 100:
        env, opponents = _random_instance(rng)
        if not opponents:
            continue
        w1 = tuple(rng.dirichlet(np.ones(env.num_actions)))
        w2 = tuple(rng.dirichlet(np.ones(env.num_actions)))
        mid = tuple((a + b) / 2 for a, b in zip(w1, w2))
        f1 = worst_case_rate(env, 0, opponents, w1)
        f2 = worst_case_rate(env, 0, opponents, w2)
        assert worst_case_rate(env, 0, opponents, mid) >= (f1 + f2) / 2 - 1e-12
        concave += 1

    lipsch = 0
    while lipsch < 100:
        env, opponents = _random_instance(rng)
        if not opponents:
            continue
        lipschitz = max(float(env.max_divergence[0][g]) for g in opponents)
        w1 = tuple(rng.dirichlet(np.ones(env.num_actions)))
        w2 = tuple(rng.dirichlet(np.ones(env.num_actions)))
        gap = abs(worst_case_rate(env, 0, opponents, w1)
                  - worst_case_rate(env, 0, opponents, w2))
        l1 = sum(abs(a - b) for a, b in zip(w1, w2))
        assert gap <= lipschitz * l1 + 1e-12
        lipsch += 1

    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report(1, ok, f"200 LP certificates + 3x100 structural checks in {elapsed:.1f}s (< 10s)")
    assert ok


def test_criterion_2_tracking_guarantees(skewed, caches):
    start = time.perf_counter()
    num_actions = skewed.num_actions
    cfg = PolicyConfig(kind="FullElim", delta=0.1, max_steps=5000)
    worst_explore = math.inf
    worst_dev = -math.inf
    for i in range(100):
        result = run_trial(skewed, 0, cfg, trial_seed(BASE_SEED, "FullElim", 0.1, 1.0, i),
                           record_diagnostics=True, cache=caches["skewed"])
        trace = result.diagnostics
        for j, t in enumerate(trace.t):
            counts = trace.counts[j]
            cumulative = [u * t for u in trace.target_avg[j]]
            explore_bound = math.sqrt(t + num_actions**2) - 2 * num_actions
            worst_explore = min(worst_explore, min(counts) - explore_bound)
            dev = max(abs(n - w) for n, w in zip(counts, cumulative))
            worst_dev = max(worst_dev, dev - num_actions * (1 + math.sqrt(t)))
    elapsed = time.perf_counter() - start
    ok = worst_explore >= 0 and worst_dev <= 0 and elapsed < 120
    _report(2, ok, f"forced-exploration slack {worst_explore:.2f} >= 0, "
                   f"deviation slack {worst_dev:.2f} <= 0, {elapsed:.0f}s (< 120s)")
    assert worst_explore >= 0
    assert worst_dev <= 0
    assert elapsed < 120


def test_criterion_3_delta_pac(mc):
    delta = 0.1
    errors = {}
    for kind in ("TaS", "StopElim", "FullElim"):
        row = mc("skewed", kind, delta, 1.0, 1000)
        errors[kind] = row.error_rate
    ok = all(e <= delta for e in errors.values())
    _report(3, ok, f"alpha=1 empirical errors {errors} all <= delta={delta}")
    assert ok, errors


def test_criterion_4_elimination_speedup(mc):
    delta = 0.05
    tas = mc("skewed", "TaS", delta, 1.0, 1000)
    stop_elim = mc("skewed", "StopElim", delta, 1.0, 1000)
    full_elim = mc("skewed", "FullElim", delta, 1.0, 1000)
    ok_gap = full_elim.mean_tau <= 0.95 * tas.mean_tau
    ok_order = full_elim.mean_tau <= stop_elim.mean_tau
    _report(4, ok_gap and ok_order,
            f"mean tau: FullElim {full_elim.mean_tau:.1f} vs TaS {tas.mean_tau:.1f} "
            f"({1 - full_elim.mean_tau / tas.mean_tau:.1%} faster, need >= 5%), "
            f"StopElim {stop_elim.mean_tau:.1f}")
    assert ok_gap
    assert ok_order


def test_criterion_5_degenerate_separation(mc):
    # The greedy baseline deadlocks on the indistinguishable pair, so its
    # trials hit the cap: a trial that never stops has failed to identify,
    # and its stopping time enters the mean at the cap value.
    delta = 0.1
    rows = {kind: mc("degenerate", kind, delta, 1.0, 1000, DEGENERATE_CAP)
            for kind in ("Greedy", "TaS", "StopElim", "FullElim")}
    greedy_failure = failure_rate(rows["Greedy"])
    tracking_failures = {k: failure_rate(rows[k]) for k in ("TaS", "StopElim", "FullElim")}
    greedy_mean = capped_mean_tau(rows["Greedy"], DEGENERATE_CAP)
    full_mean = capped_mean_tau(rows["FullElim"], DEGENERATE_CAP)
    ok = (greedy_failure >= 0.3
          and all(e <= delta for e in tracking_failures.values())
          and greedy_mean >= 2 * full_mean)
    _report(5, ok, f"Greedy failure {greedy_failure:.3f} (>= 0.3), tracking failures "
                   f"{tracking_failures}, mean tau Greedy {greedy_mean:.0f} vs "
                   f"FullElim {full_mean:.0f} (need >= 2x)")
    assert greedy_failure >= 0.3
    assert all(e <= delta for e in tracking_failures.values())
    assert greedy_mean >= 2 * full_mean


def test_criterion_6_alpha_tradeoff(mc):
    """FullElim on ``skewed`` at delta = 0.1: as alpha grows, mean tau rises
    and the error rate falls.

    The bound err(alpha = 1) <= 0.01 measures the default threshold's
    calibration on this cell; it is not a delta-PAC bound, which would be
    delta**alpha = 0.1 (the proven pair reads 0.058 here).  It sits about one
    standard error (0.003) above today's 0.007, so a change that moves the
    oracle's optimal vertex or the default threshold has to restate it.
    """
    delta = 0.1
    rows = [mc("skewed", "FullElim", delta, alpha, 1000) for alpha in ALPHA_GRID]
    taus = [r.mean_tau for r in rows]
    errors = [r.error_rate for r in rows]
    strictly_increasing = all(taus[i] < taus[i + 1] for i in range(len(taus) - 1))
    non_increasing = all(errors[i] >= errors[i + 1] for i in range(len(errors) - 1))
    ok = (strictly_increasing and non_increasing
          and errors[0] >= 0.25 and errors[-1] <= 0.01)
    _report(6, ok, f"taus {[round(t, 1) for t in taus]} strictly up={strictly_increasing}; "
                   f"errors {errors} non-increasing={non_increasing}, "
                   f"err(0.2)={errors[0]} >= 0.25, err(1.0)={errors[-1]} <= 0.01")
    assert strictly_increasing
    assert non_increasing
    assert errors[0] >= 0.25
    assert errors[-1] <= 0.01


def test_criterion_7_delta_monotonicity(mc):
    # Mean stopping time should grow as delta shrinks for every policy and
    # environment, allowing one inversion if it is within one (combined)
    # standard error.  The degenerate greedy cells need more trials: only
    # the non-deadlocked ~7% of trials contribute completed stopping times.
    failures = []
    details = []
    for name in ("skewed", "hard-weak", "degenerate"):
        for kind in ("Greedy", "TaS", "StopElim", "FullElim"):
            trials = 1000 if (name, kind) == ("degenerate", "Greedy") else 300
            rows = [mc(name, kind, d, 1.0, trials, DEGENERATE_CAP) for d in DELTA_GRID]
            means = [r.mean_tau for r in rows]
            stderrs = [r.stderr_tau for r in rows]
            inversions = [
                (means[i] - means[i + 1], math.hypot(stderrs[i], stderrs[i + 1]))
                for i in range(len(means) - 1)
                if means[i + 1] < means[i]
            ]
            ok = len(inversions) <= 1 and all(drop <= se for drop, se in inversions)
            details.append(f"{name}/{kind}: {len(inversions)} inversion(s)")
            if not ok:
                failures.append((name, kind, means, inversions))
    _report(7, not failures, "; ".join(details))
    assert not failures, failures


def test_criterion_8_diagnostics_staircase(skewed, caches):
    cfg = PolicyConfig(kind="FullElim", delta=0.1, max_steps=100_000)
    divergences = skewed.kl_table
    c_track = 2 * skewed.num_actions**2
    stair_bad = jump_bad = envelope_bad = 0
    for i in range(20):
        result = run_trial(skewed, 0, cfg,
                           trial_seed(BASE_SEED, "FullElim", 0.1, 1.0, 5000 + i),
                           record_diagnostics=True, cache=caches["skewed"])
        trace = result.diagnostics
        for j in range(1, len(trace.t)):
            if trace.champion[j] != trace.champion[j - 1]:
                continue
            prev, cur = trace.oracle_rate[j - 1], trace.oracle_rate[j]
            if prev is None or cur is None:
                continue
            if cur < prev - 1e-12:
                stair_bad += 1
            if abs(cur - prev) > 1e-12 and not trace.events[j]:
                jump_bad += 1
        for j, t in enumerate(trace.t):
            survivors = trace.active_set[j]
            if not survivors:
                continue
            champion = trace.champion[j]
            lipschitz = max(float(skewed.max_divergence[champion][g]) for g in survivors)
            target_rate = min(
                float(np.dot(trace.target_avg[j], divergences[:, champion, g]))
                for g in survivors
            )
            envelope = lipschitz * c_track / math.sqrt(t)
            if abs(trace.empirical_rate[j] - target_rate) > envelope + 1e-12:
                envelope_bad += 1
    ok = stair_bad == jump_bad == envelope_bad == 0
    _report(8, ok, f"20 recorded trials: {stair_bad} staircase violations, "
                   f"{jump_bad} rate changes without an elimination event, "
                   f"{envelope_bad} envelope violations")
    assert ok


def test_criterion_9_worker_determinism(skewed):
    outputs = []
    for workers in (1, 8, 1):
        outputs.append(summary_to_csv(run_sweep(ExperimentConfig(
            environment=skewed, policies=("TaS", "FullElim"), deltas=(0.3,),
            trials=24, base_seed=BASE_SEED, workers=workers))))
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(9, ok, "delta-sweep CSV byte-identical across 1, 8, and 1 workers")
    assert ok


def clopper_pearson_upper(failures, trials, confidence=0.95):
    """Upper end of the two-sided Clopper-Pearson interval for a binomial
    rate: the p at which P(X <= failures) falls to (1 - confidence) / 2."""
    if failures >= trials:
        return 1.0
    tail = (1.0 - confidence) / 2.0

    def cdf(p):
        log_p, log_q = math.log(p), math.log1p(-p)
        return sum(math.exp(math.lgamma(trials + 1) - math.lgamma(k + 1)
                            - math.lgamma(trials - k + 1) + k * log_p + (trials - k) * log_q)
                   for k in range(failures + 1))

    lo, hi = failures / trials, 1.0 - 1e-15
    for _ in range(60):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if cdf(mid) > tail else (lo, mid)
    return hi


K2_BREACH = {"name": "k2-breach", "sigma": 0.163, "means": [[0.3926, 0.2474], [0.4366, 0.4197]]}


def test_default_threshold_is_delta_pac_at_k2():
    env = load_environment(K2_BREACH)
    delta, trials = 0.1, 4000
    cfg = PolicyConfig(kind="TaS", delta=delta, max_steps=20_000)
    results = run_trials(env, 0, [cfg] * trials, range(20_000, 20_000 + trials))
    failures = sum(1 for r in results if r.timed_out or not r.correct)
    upper = clopper_pearson_upper(failures, trials)
    print(f"[delta-PAC at K = 2] {failures} of {trials} failed, "
          f"Clopper-Pearson upper bound {upper:.4f} against delta = {delta}")
    assert upper <= delta


def test_default_threshold_is_delta_pac_at_k3():
    # The K = 3 member of ROADMAP's default_rng(2026) family that broke
    # delta = 0.1 under the offset log(K-1) - 1.7863 (TaS: 523 of 4,000).
    env = load_environment({"name": "k3-breach", "sigma": 0.384,
                            "means": [[0.4166, 0.7742, 0.9585], [0.8884, 0.6209, 0.1603]]})
    delta, trials = 0.1, 4000
    cfg = PolicyConfig(kind="TaS", delta=delta, max_steps=20_000)
    results = run_trials(env, 1, [cfg] * trials, range(20_000, 20_000 + trials))
    failures = sum(1 for r in results if r.timed_out or not r.correct)
    upper = clopper_pearson_upper(failures, trials)
    print(f"[delta-PAC at K = 3] {failures} of {trials} failed, "
          f"Clopper-Pearson upper bound {upper:.4f} against delta = {delta}")
    assert upper <= delta


def _proven(env, kind, delta, alpha=1.0):
    """The threshold pair b = 0, c = log(K - 1), which Ville's inequality
    proves delta-correct (README, Thresholds)."""
    return PolicyConfig(kind=kind, delta=delta, alpha=alpha, b=0.0,
                        c=math.log(env.num_hypotheses - 1), max_steps=20_000)


@pytest.mark.parametrize("source", [K2_BREACH, "skewed"], ids=["k2-breach", "skewed"])
def test_proven_threshold_is_delta_pac(source):
    env = load_environment(source)
    delta, trials = 0.1, 4000
    results = run_trials(env, 0, [_proven(env, "TaS", delta)] * trials,
                         range(30_000, 30_000 + trials))
    failures = sum(1 for r in results if r.timed_out or not r.correct)
    upper = clopper_pearson_upper(failures, trials)
    print(f"[proven threshold, {env.name}] {failures} of {trials} failed, "
          f"Clopper-Pearson upper bound {upper:.4f} against delta = {delta}")
    assert upper <= delta


def test_proven_threshold_bounds_elimination_errors_by_delta_to_alpha():
    # Eliminating at alpha log(1/delta) + log(K - 1) bounds the error
    # probability by delta**alpha, by the same union over opponents.
    env = load_environment("skewed")
    delta, alpha, trials = 0.01, 0.4, 2000
    results = run_trials(env, 0, [_proven(env, "FullElim", delta, alpha)] * trials,
                         range(34_000, 34_000 + trials))
    failures = sum(1 for r in results if r.timed_out or not r.correct)
    upper = clopper_pearson_upper(failures, trials)
    print(f"[proven threshold, FullElim, alpha = {alpha}] {failures} of {trials} failed, "
          f"Clopper-Pearson upper bound {upper:.4f} against delta**alpha = {delta**alpha:.4f}")
    assert upper <= delta**alpha


def _k2_thresholds(env, pair, delta):
    """(config, b, c) of a TaS trial under the default or the proven
    threshold pair; b and c are formed here, not by the engine."""
    if pair == "default":
        return (PolicyConfig(kind="TaS", delta=delta, max_steps=20_000),
                DEFAULT_B, math.log(max(env.num_hypotheses - 1, 4)) + DEFAULT_C_OFFSET)
    return _proven(env, "TaS", delta), 0.0, math.log(env.num_hypotheses - 1)


def test_k2_tas_actions_are_the_same_on_every_path():
    # The exact K = 2 law rests on this: every trial's counts, round by
    # round, are the ones C-tracking's floor gives the shared target.
    env = load_environment(K2_BREACH)
    cfg, _, _ = _k2_thresholds(env, "default", 0.001)
    for seed in range(40_000, 40_020):
        trace = run_trial(env, 0, cfg, seed, record_diagnostics=True).diagnostics
        counts = [0] * env.num_actions
        for a, seen in zip(tas_actions(env, 0), trace.counts):
            counts[a] += 1
            assert counts == seen, seed


# TaS on K2_BREACH, true h = 0, cap 20,000: (P(wrong stop), E[tau | stop]) from
# an independent 12,001-point grid (ROADMAP, "Earlier findings").
K2_EXACT = {("default", 0.1): (0.02159, 12.066), ("default", 0.001): (7.3e-5, 27.99),
            ("proven", 0.1): (0.0568, 7.88), ("proven", 0.001): (5.98e-4, 21.94)}


@pytest.mark.parametrize("pair, delta", list(K2_EXACT), ids=[f"{p}-{d}" for p, d in K2_EXACT])
def test_tas_matches_the_exact_k2_law(pair, delta):
    env = load_environment(K2_BREACH)
    cfg, b, c = _k2_thresholds(env, pair, delta)
    coarse, law = (tas_k2_law(env, 0, delta, b, c, cfg.max_steps, dx) for dx in (0.02, 0.01))
    assert abs(law["wrong"] - coarse["wrong"]) <= 1e-4
    assert abs(law["mean_tau"] - coarse["mean_tau"]) <= 0.02
    assert abs(law["correct"] + law["wrong"] + law["timeout"] - 1.0) <= 1e-12
    assert law["timeout"] <= 1e-13
    wrong, mean_tau = K2_EXACT[pair, delta]
    assert law["wrong"] == pytest.approx(wrong, rel=5e-3)
    assert law["mean_tau"] == pytest.approx(mean_tau, abs=0.01)

    # Held-out seeds, in lockstep batches of at most ROW_CAP rows as run_sweep
    # splits them.
    seeds = range(500_000, 520_000)
    cache = OracleCache(env)
    results = [r for lo in range(0, len(seeds), ROW_CAP)
               for r in run_trials(env, 0, [cfg] * len(seeds[lo:lo + ROW_CAP]),
                                   seeds[lo:lo + ROW_CAP], cache=cache)]
    assert not any(r.timed_out for r in results)
    n = len(results)
    error = sum(not r.correct for r in results) / n
    taus = np.array([r.tau for r in results], dtype=float)
    error_se = math.sqrt(law["wrong"] * (1.0 - law["wrong"]) / n)
    tau_se = taus.std(ddof=1) / math.sqrt(n)
    print(f"[exact K = 2, TaS, {pair}, delta = {delta}] error {error:.5f} against "
          f"{law['wrong']:.3g} exact (z = {(error - law['wrong']) / error_se:+.2f}); mean tau "
          f"{taus.mean():.3f} against {law['mean_tau']:.3f} (z = "
          f"{(taus.mean() - law['mean_tau']) / tau_se:+.2f})")
    assert abs(error - law["wrong"]) <= 4 * error_se
    assert abs(taus.mean() - law["mean_tau"]) <= 4 * tau_se
