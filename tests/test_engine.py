import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from activeht import (
    POLICY_KINDS,
    OracleCache,
    PolicyConfig,
    ctrack_select,
    eliminate,
    greedy_select,
    load_environment,
    new_trial_state,
    run_trial,
    run_trials,
    thresholds,
    update_likelihoods,
)
from activeht.engine import _SetTable, _track_ahead, resolve_config
from activeht.reference import _floor_projection

from conftest import BASE_SEED


def drift_env():
    """Two hypotheses, one action, huge mean gap: a trial that must stop
    almost immediately and never err."""
    return load_environment({"name": "drift", "means": [[0.0, 10.0]]})


class TestPolicyConfig:
    @pytest.mark.parametrize("kwargs", [
        {"kind": "Nope", "delta": 0.1},
        {"kind": "TaS", "delta": 0.0},
        {"kind": "TaS", "delta": 1.0},
        {"kind": "TaS", "delta": 0.1, "alpha": 0.0},
        {"kind": "TaS", "delta": 0.1, "alpha": 1.2},
        {"kind": "TaS", "delta": 0.1, "b": -1.0},
        {"kind": "TaS", "delta": 0.1, "max_steps": 0},
        {"kind": "TaS", "delta": 0.1, "b": math.inf},
        {"kind": "TaS", "delta": 0.1, "b": math.nan},
        {"kind": "TaS", "delta": 0.1, "c": math.nan},
        {"kind": "TaS", "delta": 0.1, "c": math.inf},
        {"kind": "TaS", "delta": 0.1, "c": -math.inf},
        {"kind": "Greedy", "delta": 0.1, "max_steps": 10.5},
        {"kind": "TaS", "delta": 0.1, "max_steps": "20"},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PolicyConfig(**kwargs)

    def test_max_steps_stored_as_int(self):
        cfg = PolicyConfig(kind="TaS", delta=0.1, max_steps=np.int64(20))
        assert type(cfg.max_steps) is int and cfg.max_steps == 20

    def test_default_offset_resolution(self, skewed):
        cfg = resolve_config(PolicyConfig(kind="TaS", delta=0.1), skewed)
        assert cfg.c == pytest.approx(math.log(4) - 1.7863)
        explicit = resolve_config(PolicyConfig(kind="TaS", delta=0.1, c=0.25), skewed)
        assert explicit.c == 0.25


class TestThresholds:
    def test_known_values(self):
        cfg = PolicyConfig(kind="FullElim", delta=0.1, alpha=1.0, b=2.0, c=math.log(4))
        beta_stop, beta_elim = thresholds(100, cfg)
        assert beta_stop == pytest.approx(12.8992, abs=5e-5)
        assert beta_elim == beta_stop

    def test_relaxed_alpha_lowers_only_the_elimination_threshold(self):
        cfg = PolicyConfig(kind="FullElim", delta=0.1, alpha=0.5, b=2.0, c=math.log(4))
        beta_stop, beta_elim = thresholds(100, cfg)
        assert beta_stop == pytest.approx(12.8992, abs=5e-5)
        assert beta_elim == pytest.approx(11.7479, abs=5e-5)
        assert beta_elim < beta_stop

    def test_proven_pair_is_the_same_at_every_step(self):
        # b = 0, c = log(K - 1): beta_stop = log((K - 1)/delta) for K = 5.
        cfg = PolicyConfig(kind="FullElim", delta=0.01, alpha=0.4, b=0.0, c=math.log(4))
        first = thresholds(1, cfg)
        assert first == pytest.approx((math.log(400), 0.4 * math.log(100) + math.log(4)))
        for t in (2, 3, 10, 1000, 20_000, 10**6, 2**40):
            assert thresholds(t, cfg) == first

    def test_requires_positive_step_and_resolved_offset(self):
        cfg = PolicyConfig(kind="FullElim", delta=0.1, b=2.0, c=1.0)
        with pytest.raises(ValueError):
            thresholds(0, cfg)
        with pytest.raises(ValueError):
            thresholds(10, PolicyConfig(kind="FullElim", delta=0.1))


class TestUpdateLikelihoods:
    def test_counts_and_step_advance(self, skewed):
        state = new_trial_state(skewed)
        update_likelihoods(state, skewed, 3, 0.2)
        assert state.t == 1
        assert state.counts == [0, 0, 0, 1, 0]
        assert sum(state.counts) == state.t

    def test_champion_is_nearest_mean(self, skewed):
        # Observation exactly at action 0's mean for hypothesis 0: the
        # champion is the argmax of five quadratics, i.e. hypothesis 0 or 2,
        # which tie because their means coincide under action 0.
        state = new_trial_state(skewed)
        update_likelihoods(state, skewed, 0, skewed.means[0][0])
        assert state.loglik[0] == 0.0
        assert state.champion == 0
        # under action 0, an observation at 0.9 makes hypothesis 1 champion
        state = new_trial_state(skewed)
        update_likelihoods(state, skewed, 0, 0.9)
        assert state.champion == 1

    def test_equal_means_move_identically(self, degenerate):
        state = new_trial_state(degenerate)
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = int(rng.integers(5))
            o = degenerate.means[a][0] + degenerate.sigma * rng.standard_normal()
            update_likelihoods(state, degenerate, a, o)
        assert state.loglik[3] == state.loglik[4]

    def test_single_observation_ratio(self, skewed):
        # o = 0.5 under action 0: hypothesis 0 has mean 0.5, hypothesis 1
        # has 0.9, so the ratio is 0.4^2 / 2.
        state = new_trial_state(skewed)
        update_likelihoods(state, skewed, 0, 0.5)
        assert state.loglik[0] - state.loglik[1] == pytest.approx(0.08, abs=1e-12)

    def test_increments_drop_the_gaussian_constant(self, skewed):
        # One observation one sigma from hypothesis 2's mean under sigma = 1.
        state = new_trial_state(skewed)
        update_likelihoods(state, skewed, 1, skewed.means[1][2] + 1.0)
        assert state.loglik[2] == pytest.approx(-0.5, abs=1e-15)

    def test_differences_match_full_gaussian_log_density(self, skewed):
        def full_logpdf(env, a, h, o):
            var = env.sigma**2
            return -0.5 * (o - env.means[a][h]) ** 2 / var - math.log(env.sigma * math.sqrt(2 * math.pi))

        rng = np.random.default_rng(7)
        env = load_environment({"name": "s", "means": [list(r) for r in skewed.means],
                                "sigma": 1.7})
        for _ in range(200):
            a = int(rng.integers(env.num_actions))
            h, g = (int(x) for x in rng.choice(env.num_hypotheses, size=2, replace=False))
            o = float(rng.normal(0, 3))
            state = new_trial_state(env)
            update_likelihoods(state, env, a, o)
            ours = state.loglik[h] - state.loglik[g]
            exact = full_logpdf(env, a, h, o) - full_logpdf(env, a, g, o)
            assert ours == pytest.approx(exact, abs=1e-12)


class TestCtrackSelect:
    def test_cold_start_uniform_target_takes_action_zero(self, skewed):
        state = new_trial_state(skewed)
        assert ctrack_select(state, (0.2,) * 5) == 0

    def test_largest_deficit_wins(self, skewed):
        state = new_trial_state(skewed)
        state.t = 3
        state.target = [2.0, 1.0, 0.0, 0.0, 0.0]
        state.counts = [1, 1, 1, 0, 0]
        # deficits stay ordered regardless of the incoming simplex point
        assert ctrack_select(state, (0.0, 1.0, 0.0, 0.0, 0.0)) == 0

    def test_forced_exploration_under_adversarial_targets(self):
        env = load_environment({"name": "two", "means": [[0.0, 1.0], [0.0, 0.5], [0.0, 0.2]]})
        rng = np.random.default_rng(BASE_SEED)
        state = new_trial_state(env)
        num_actions = env.num_actions
        for _ in range(4000):
            target = rng.dirichlet(np.full(num_actions, 0.15))
            a = ctrack_select(state, tuple(target))
            state.counts[a] += 1
            state.t += 1
            bound = math.sqrt(state.t + num_actions**2) - 2 * num_actions
            assert min(state.counts) >= bound

    def test_cumulative_deviation_bound(self):
        env = load_environment({"name": "two", "means": [[0.0, 1.0], [0.0, 0.5]]})
        rng = np.random.default_rng(BASE_SEED + 1)
        state = new_trial_state(env)
        for _ in range(4000):
            target = rng.dirichlet(np.ones(2) * 0.3)
            a = ctrack_select(state, tuple(target))
            state.counts[a] += 1
            state.t += 1
            dev = max(abs(n - w) for n, w in zip(state.counts, state.target))
            assert dev <= env.num_actions * (1 + math.sqrt(state.t))


class TestEliminate:
    def test_threshold_comparison(self, skewed):
        state = new_trial_state(skewed)
        state.t = 100
        state.loglik = [0.0, -15.0, -3.0, -40.0, -40.0]
        state.champion = 0
        state.active[0] = {1, 2}
        cfg = PolicyConfig(kind="FullElim", delta=0.1, alpha=1.0, b=2.0, c=math.log(4))
        removed = eliminate(state, cfg)  # beta_elim = 12.8992
        assert removed == {1}
        assert state.active[0] == {2}
        # other candidates' sets untouched
        assert state.active[1] == {0, 2, 3, 4}

    def test_empty_set_removes_nothing(self, skewed):
        state = new_trial_state(skewed)
        state.t = 10
        state.active[0] = set()
        cfg = PolicyConfig(kind="FullElim", delta=0.1, alpha=1.0, b=2.0, c=math.log(4))
        assert eliminate(state, cfg) == set()

    def test_alpha_one_empties_set_exactly_when_stop_threshold_met(self, skewed):
        state = new_trial_state(skewed)
        state.t = 100
        state.loglik = [0.0, -13.0, -13.5, -14.0, -15.0]
        state.champion = 0
        cfg = PolicyConfig(kind="FullElim", delta=0.1, alpha=1.0, b=2.0, c=math.log(4))
        beta_stop, beta_elim = thresholds(100, cfg)
        assert beta_stop == beta_elim
        assert min(state.loglik[0] - state.loglik[g] for g in (1, 2, 3, 4)) >= beta_stop
        removed = eliminate(state, cfg)
        assert removed == {1, 2, 3, 4}
        assert state.active[0] == set()


class TestGreedySelect:
    def test_first_action_is_zero(self, skewed):
        assert greedy_select(new_trial_state(skewed), skewed) == 0

    def test_two_hypotheses_rival_is_forced(self):
        env = load_environment({"name": "pair", "means": [[0.0, 0.1], [0.0, 2.0]]})
        state = new_trial_state(env)
        update_likelihoods(state, env, 0, 0.0)
        assert greedy_select(state, env) == 1  # argmax_a d_a(0, 1)

    def test_skewed_tie_breaks_to_lowest_action(self, skewed):
        # champion 0, rival 1: divergence row (0.08, 0.02, 0.045, 0.08, 0.02)
        # ties actions 0 and 3; lowest index wins.
        state = new_trial_state(skewed)
        state.t = 4
        state.loglik = [0.0, -0.01, -1.0, -1.0, -1.0]
        state.champion = 0
        assert greedy_select(state, skewed) == 0


def replay(env, true_h, cfg, seed, cache, rounds=None):
    """One trial through the public step functions, in the order of the
    single-trial loop ``run_trial`` had before the lockstep engine; returns
    (tau, recommendation, timed_out).  ``rounds``, if given, receives each
    round's (t, champion, counts, target / t)."""
    cfg = resolve_config(cfg, env)
    rng = np.random.default_rng(seed)
    state = new_trial_state(env)
    k = env.num_hypotheses
    full = [tuple(g for g in range(k) if g != i) for i in range(k)]
    while True:
        ch = state.champion
        if cfg.kind == "Greedy":
            a = greedy_select(state, env)
        else:
            subset = state.active[ch] if cfg.kind == "FullElim" else full[ch]
            w, _ = cache.target(ch, subset)
            a = ctrack_select(state, w)
        update_likelihoods(state, env, a, env.means[a][true_h] + env.sigma * rng.standard_normal())
        ch = state.champion
        if rounds is not None:
            rounds.append((state.t, ch, list(state.counts), [w / state.t for w in state.target]))
        if cfg.kind in ("StopElim", "FullElim"):
            eliminate(state, cfg)
            stopped = not state.active[ch]
        else:
            beta_stop, _ = thresholds(state.t, cfg)
            stopped = min(state.loglik[ch] - state.loglik[g] for g in full[ch]) >= beta_stop
        if stopped or state.t >= cfg.max_steps:
            return state.t, ch, not stopped


class TestRunTrial:
    def test_same_seed_identical_results(self, skewed):
        cfg = PolicyConfig(kind="FullElim", delta=0.1)
        first = run_trial(skewed, 0, cfg, seed=314)
        second = run_trial(skewed, 0, cfg, seed=314)
        assert first == second

    def test_shared_cache_does_not_change_outcomes(self, skewed):
        cfg = PolicyConfig(kind="FullElim", delta=0.1)
        alone = run_trial(skewed, 0, cfg, seed=9)
        shared = run_trial(skewed, 0, cfg, seed=9, cache=OracleCache(skewed))
        assert alone == shared

    def test_huge_drift_instance_stops_immediately_and_never_errs(self):
        env = drift_env()
        cfg = PolicyConfig(kind="TaS", delta=0.1)
        taus, wrong = [], 0
        for r in run_trials(env, 0, [cfg] * 1000, [BASE_SEED + i for i in range(1000)]):
            taus.append(r.tau)
            wrong += not r.correct
        assert sum(taus) / len(taus) <= 5
        assert wrong == 0

    def test_timeout_reported_not_hidden(self, degenerate):
        # Greedy deadlocks on the degenerate environment once the champion
        # reaches the indistinguishable pair; a capped trial must say so.
        cfg = PolicyConfig(kind="Greedy", delta=0.1, max_steps=300)
        hit = None
        for i in range(30):
            r = run_trial(degenerate, 0, cfg, seed=BASE_SEED + i)
            assert (r.tau == 300) == r.timed_out
            if r.timed_out:
                hit = r
        assert hit is not None
        assert hit.recommendation in (3, 4, 0)

    def test_alpha_one_stop_elim_never_slower_than_tas(self, skewed):
        # identical sampling rule and seed => identical paths until the
        # earlier stop, so the comparison is pathwise.
        for i in range(25):
            cfg_se = PolicyConfig(kind="StopElim", delta=0.1, alpha=1.0)
            cfg_tas = PolicyConfig(kind="TaS", delta=0.1, alpha=1.0)
            se = run_trial(skewed, 0, cfg_se, seed=BASE_SEED + i)
            tas = run_trial(skewed, 0, cfg_tas, seed=BASE_SEED + i)
            assert se.tau <= tas.tau
            if se.tau == tas.tau:
                assert se.recommendation == tas.recommendation

    def test_matches_manual_composition_of_public_operations(self, skewed):
        for kind in ("Greedy", "TaS", "StopElim", "FullElim"):
            cfg = PolicyConfig(kind=kind, delta=0.2)
            got = run_trial(skewed, 0, cfg, seed=77)
            expected = replay(skewed, 0, cfg, 77, OracleCache(skewed))
            assert (got.tau, got.recommendation, got.timed_out) == expected

    def test_invariants_along_a_recorded_trial(self, skewed):
        cfg = PolicyConfig(kind="FullElim", delta=0.1)
        result = run_trial(skewed, 0, cfg, seed=21, record_diagnostics=True)
        trace = result.diagnostics
        assert trace.t == list(range(1, result.tau + 1))
        # monotone shrinkage of the champion's set within champion runs
        for j in range(1, len(trace.t)):
            if trace.champion[j] == trace.champion[j - 1]:
                assert set(trace.active_set[j]) <= set(trace.active_set[j - 1])
        # the trial ends exactly when the champion's set empties
        assert trace.active_set[-1] == []
        assert all(trace.active_set[j] for j in range(len(trace.t) - 1))
        # the final crossing is visible in the evidence panel
        assert trace.min_z[-1] >= trace.beta_elim[-1]
        # empirical allocation columns sum to one
        for alloc in trace.alloc[:: max(1, len(trace.alloc) // 20)]:
            assert sum(alloc) == pytest.approx(1.0, abs=1e-9)

    def test_bad_inputs_rejected(self, skewed):
        cfg = PolicyConfig(kind="TaS", delta=0.1)
        with pytest.raises(IndexError):
            run_trial(skewed, 7, cfg, seed=0)
        single = load_environment({"name": "solo", "means": [[0.5]]})
        with pytest.raises(ValueError):
            run_trial(single, 0, cfg, seed=0)
        # Seeds and the true hypothesis are integers: 1.7 is not truncated
        # to 1, nor "7" parsed.
        for true_h, seed in ((0, 1.7), (0, "7"), (1.0, 0), ("1", 0)):
            with pytest.raises(TypeError):
                run_trial(skewed, true_h, cfg, seed)
        with pytest.raises(TypeError):
            run_trials(skewed, 0, [cfg, cfg], [3, 4.0])

    def test_numpy_and_bool_indices_read_as_ints(self, skewed):
        cfg = PolicyConfig(kind="TaS", delta=0.1)
        plain = run_trial(skewed, 1, cfg, seed=3)
        assert run_trial(skewed, np.int64(1), cfg, seed=np.int32(3)) == plain
        # operator.index reads True as 1, as list indexing does.
        assert run_trial(skewed, True, cfg, seed=3) == plain


def _mixed_batch(kind, seeds, max_steps):
    """Configs that vary delta and alpha from trial to trial.  Kind "mixed"
    interleaves all four kinds in a shuffled order."""
    seeds = list(seeds)
    kinds = [kind] * len(seeds)
    if kind == "mixed":
        kinds = np.random.default_rng(len(seeds)).permutation(
            [POLICY_KINDS[i % 4] for i in range(len(seeds))]).tolist()
    cfgs = [PolicyConfig(kind=kinds[i], delta=(0.2, 0.05)[i % 2],
                         alpha=(1.0, 0.5)[i // 2 % 2], max_steps=max_steps)
            for i in range(len(seeds))]
    return cfgs, seeds


def _outcomes(results):
    return [(r.tau, r.recommendation, r.timed_out) for r in results]


class _KeyCache(OracleCache):
    """OracleCache that records every (candidate, opponent set) asked for,
    and counts the calls."""

    def __init__(self, env):
        super().__init__(env)
        self.keys = set()
        self.calls = 0

    def target(self, h, S):
        self.keys.add((h, frozenset(S)))
        self.calls += 1
        return super().target(h, S)


class TestLockstep:
    @pytest.mark.parametrize("kind", ["Greedy", "TaS", "StopElim", "FullElim", "mixed"])
    @pytest.mark.parametrize("name", ["skewed", "hard-weak", "degenerate"])
    def test_matches_step_function_replay(self, request, caches, kind, name):
        env = request.getfixturevalue(name.replace("-", "_"))
        # A short cap times most of the first 100 trials out; the rest run
        # under a cap that few reach.  A mixed batch also runs uncapped where
        # every kind stops (Greedy deadlocks on degenerate).
        runs = [(BASE_SEED, 60), (BASE_SEED + 100, 800)]
        if kind == "mixed" and name != "degenerate":
            runs.append((BASE_SEED + 200, PolicyConfig.max_steps))
        for first, max_steps in runs:
            cfgs, seeds = _mixed_batch(kind, range(first, first + 100), max_steps)
            got = run_trials(env, 0, cfgs, seeds, cache=caches[name])
            expected = [replay(env, 0, cfg, s, caches[name]) for cfg, s in zip(cfgs, seeds)]
            assert _outcomes(got) == expected
            assert all(r.correct == (r.recommendation == 0) for r in got)
            if max_steps == 60:
                assert any(r.timed_out for r in got)

    def test_greedy_outlives_the_other_kinds_in_a_mixed_batch(self, degenerate, caches):
        # Greedy deadlocks on degenerate and runs to the cap long after every
        # other kind has stopped, so its slice runs alone after the others
        # are compacted out.
        cfgs, seeds = _mixed_batch("mixed", range(BASE_SEED, BASE_SEED + 24), 20_000)
        got = run_trials(degenerate, 0, cfgs, seeds, cache=caches["degenerate"])
        expected = [replay(degenerate, 0, cfg, s, caches["degenerate"])
                    for cfg, s in zip(cfgs, seeds)]
        assert _outcomes(got) == expected
        greedy = [r for cfg, r in zip(cfgs, got) if cfg.kind == "Greedy"]
        others = [r for cfg, r in zip(cfgs, got) if cfg.kind != "Greedy"]
        assert any(r.timed_out for r in greedy)
        assert not any(r.timed_out for r in others)
        assert max(r.tau for r in others) < 20_000 // 4

    @pytest.mark.parametrize("kind", ["Greedy", "TaS", "StopElim", "FullElim"])
    def test_recorded_rounds_match_the_replay_state(self, hard_weak, kind):
        # The second environment's targets put weight 0.2 and 0.8 on its two
        # actions, so its rounds track a target above the exploration floor.
        interior = load_environment({"name": "interior", "means": [[0.0, 1.0, 0.0],
                                                                    [0.0, 0.0, 0.5]]})
        cfg = PolicyConfig(kind=kind, delta=0.1, alpha=0.5, max_steps=3000)
        for env, true_h in ((hard_weak, 2), (interior, 0)):
            for seed in range(BASE_SEED, BASE_SEED + 3):
                rounds = []
                replay(env, true_h, cfg, seed, OracleCache(env), rounds)
                trace = run_trial(env, true_h, cfg, seed, record_diagnostics=True).diagnostics
                assert list(zip(trace.t, trace.champion, trace.counts, trace.target_avg)) == rounds

    @pytest.mark.parametrize("kind", ["Greedy", "FullElim", "mixed"])
    def test_results_do_not_depend_on_the_partition(self, hard_weak, kind):
        # A mixed batch also runs uncapped.
        caps = (300, PolicyConfig.max_steps) if kind == "mixed" else (300,)
        for max_steps in caps:
            cfgs, seeds = _mixed_batch(kind, range(BASE_SEED, BASE_SEED + 24), max_steps)
            whole = run_trials(hard_weak, 1, cfgs, seeds)
            order = np.random.default_rng(BASE_SEED).permutation(len(seeds))
            split = [None] * len(seeds)
            for part in np.array_split(order, 5):
                for j, r in zip(part, run_trials(hard_weak, 1, [cfgs[j] for j in part],
                                                 [seeds[j] for j in part])):
                    split[j] = r
            alone = [run_trial(hard_weak, 1, cfg, s) for cfg, s in zip(cfgs, seeds)]
            assert whole == split == alone

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_recorded_trial_asks_the_cache_once_per_set_change(self, degenerate, kind):
        # A capped trial keeps a few (champion, set) keys for thousands of
        # rounds, and its oracle rate changes only with the key.  A tracking
        # trial also solves each key it tracks once; with those solves this
        # trial meets the bound exactly for TaS and FullElim.
        cfg = PolicyConfig(kind=kind, delta=0.01, alpha=0.5, max_steps=3000)
        cache = _KeyCache(degenerate)
        trace = run_trial(degenerate, 0, cfg, 2, record_diagnostics=True, cache=cache).diagnostics
        keys = list(zip(trace.champion, map(tuple, trace.active_set)))
        changes = sum(a != b for a, b in zip(keys, keys[1:]))
        distinct = 0 if kind == "Greedy" else len(set(keys))
        assert len(trace.t) == 3000
        assert cache.calls <= changes + 1 + distinct
        assert trace == run_trial(degenerate, 0, cfg, 2, record_diagnostics=True).diagnostics

    def test_returning_champion_tracks_its_reduced_set(self, skewed, caches):
        # In this FullElim trial champion h eliminates, the champion moves
        # to another hypothesis and then returns to h, whose set id still
        # names the reduced set.  Tracking h's full set on return instead
        # changes the trial's stopping time.
        cfg = PolicyConfig(kind="FullElim", delta=0.1, alpha=0.5, max_steps=5000)
        trace = run_trial(skewed, 0, cfg, BASE_SEED, record_diagnostics=True).diagnostics
        champion = trace.champion
        fired = next(i for i, removed in enumerate(trace.events) if removed)
        h = champion[fired]
        away = next(j for j in range(fired + 1, len(champion)) if champion[j] != h)
        back = next(j for j in range(away + 1, len(champion)) if champion[j] == h)
        full = set(range(skewed.num_hypotheses)) - {h}
        assert set(trace.active_set[back]) <= set(trace.active_set[away - 1]) < full
        seeds = list(range(BASE_SEED, BASE_SEED + 8))
        got = run_trials(skewed, 0, [cfg] * len(seeds), seeds, cache=caches["skewed"])
        assert got[0].tau == trace.meta["tau"]
        assert _outcomes(got) == [replay(skewed, 0, cfg, s, caches["skewed"]) for s in seeds]

    def test_solves_exactly_the_sets_running_trials_track(self):
        # A batch solves a set the first time a running trial tracks it and
        # no other, so its cache is asked for the sets the replays track.
        # The champions of a few trials visit few of the 24 candidates, so
        # solving every full set up front adds sets here.
        rng = np.random.default_rng(BASE_SEED)
        env = load_environment({"name": "k24", "means": rng.uniform(0, 1, (24, 24)).tolist(),
                                "sigma": 1.0})
        for rows in (1, 4, 16):
            cfgs, seeds = _mixed_batch("mixed", range(BASE_SEED, BASE_SEED + rows), 3000)
            batch, replayed = _KeyCache(env), _KeyCache(env)
            run_trials(env, 3, cfgs, seeds, cache=batch)
            for cfg, seed in zip(cfgs, seeds):
                replay(env, 3, cfg, seed, replayed)
            assert batch.keys == replayed.keys

    def test_results_are_python_values(self, skewed):
        r = run_trials(skewed, 0, [PolicyConfig(kind="TaS", delta=0.1)], [3])[0]
        assert type(r.tau) is int
        assert type(r.recommendation) is int
        assert type(r.correct) is bool and type(r.timed_out) is bool

    def test_resolves_each_distinct_config_once(self, skewed, monkeypatch):
        # A sweep's batch repeats each cell's config once per trial.  Configs
        # may come from a generator, read in one pass.
        cfgs, seeds = _mixed_batch("mixed", range(BASE_SEED, BASE_SEED + 48), 300)
        listed = run_trials(skewed, 0, cfgs, seeds)
        calls = []

        def counting(cfg, env):
            calls.append(cfg)
            return resolve_config(cfg, env)

        monkeypatch.setattr("activeht.engine.resolve_config", counting)
        assert run_trials(skewed, 0, (cfg for cfg in cfgs), seeds) == listed
        assert len(calls) == len(set(calls)) == len(set(cfgs)) < len(cfgs)

    def test_bad_batches_rejected(self, skewed):
        tas = PolicyConfig(kind="TaS", delta=0.1)
        assert run_trials(skewed, 0, [], []) == []
        with pytest.raises(ValueError):
            run_trials(skewed, 0, [tas, PolicyConfig(kind="TaS", delta=0.1, b=0.5)], [1, 2])
        with pytest.raises(ValueError):
            run_trials(skewed, 0, [tas, PolicyConfig(kind="TaS", delta=0.1, max_steps=9)], [1, 2])
        with pytest.raises(ValueError):
            run_trials(skewed, 0, [tas], [1, 2])
        with pytest.raises(ValueError):
            run_trials(skewed, 0, [tas, tas], [1, 2], record_diagnostics=True)
        with pytest.raises(IndexError):
            run_trials(skewed, 5, [tas], [1])

    def test_cache_of_another_environment_rejected(self, skewed, hard_weak):
        # Its targets would be hard-weak's allocations, silently tracked on skewed.
        tas = PolicyConfig(kind="TaS", delta=0.1)
        with pytest.raises(ValueError, match="another environment"):
            run_trials(skewed, 0, [tas], [1], cache=OracleCache(hard_weak))
        # An equal environment built separately shares the cache's answers.
        twin = load_environment("skewed")
        assert twin is not skewed
        assert (run_trials(twin, 0, [tas], [1], cache=OracleCache(skewed))
                == run_trials(skewed, 0, [tas], [1]))


class TestRunAhead:
    """A small batch of any kinds advances in blocks of steps (see the engine
    module docstring); every outcome equals the replay's."""

    @staticmethod
    def _check_batches(env, true_h, cfgs, seeds, cache, rows):
        """Run the trials in batches of ``rows`` and check them against the
        replay; returns the results."""
        got = []
        for lo in range(0, len(seeds), rows):
            got += run_trials(env, true_h, cfgs[lo:lo + rows], seeds[lo:lo + rows], cache=cache)
        assert _outcomes(got) == [replay(env, true_h, cfg, s, cache)
                                  for cfg, s in zip(cfgs, seeds)]
        return got

    @pytest.mark.parametrize("max_steps", [511, 512, 513, 777])
    def test_greedy_batches_match_the_replay_at_caps_near_the_noise_block(
            self, degenerate, caches, max_steps):
        cfgs, seeds = _mixed_batch("Greedy", range(BASE_SEED, BASE_SEED + 16), max_steps)
        got = self._check_batches(degenerate, 0, cfgs, seeds, caches["degenerate"], 16)
        assert any(r.timed_out for r in got)

    def test_greedy_runs_to_the_cli_cap(self, degenerate, caches):
        cfgs, seeds = _mixed_batch("Greedy", range(BASE_SEED, BASE_SEED + 3), 20_000)
        got = self._check_batches(degenerate, 0, cfgs, seeds, caches["degenerate"], 3)
        assert any(r.tau == 20_000 and r.timed_out for r in got)

    def test_stops_land_inside_blocks(self, hard_weak, caches):
        # Small batches go quiet early, so their stops fire inside blocks.  A
        # steep threshold (b*log(t) grows by about b/t a step) makes a stop
        # tested at the wrong step show.
        cfgs = [PolicyConfig(kind="Greedy", delta=delta, b=20.0) for delta in (1e-3, 1e-6) * 20]
        seeds = list(range(BASE_SEED, BASE_SEED + 40))
        got = self._check_batches(hard_weak, 2, cfgs, seeds, caches["hard-weak"], 4)
        assert not any(r.timed_out for r in got)
        assert len({r.tau for r in got}) > 20

    @pytest.mark.parametrize("true_h", [0, 7])
    def test_frequent_events_on_a_random_24_by_24_environment(self, true_h):
        # Pairs among 24 hypotheses change every few steps, so most blocks
        # end at a pair change.
        rng = np.random.default_rng(BASE_SEED)
        env = load_environment({"name": "k24", "means": rng.uniform(0, 1, (24, 24)).tolist(),
                                "sigma": 2.0})
        cfgs, seeds = _mixed_batch("Greedy", range(BASE_SEED, BASE_SEED + 9), 3000)
        self._check_batches(env, true_h, cfgs, seeds, OracleCache(env), 3)

    def test_greedy_slice_runs_alone_after_compaction(self, degenerate, caches):
        cfgs, seeds = _mixed_batch("mixed", range(BASE_SEED + 50, BASE_SEED + 74), 8000)
        got = self._check_batches(degenerate, 0, cfgs, seeds, caches["degenerate"], len(seeds))
        greedy = [r.tau for cfg, r in zip(cfgs, got) if cfg.kind == "Greedy"]
        others = [r.tau for cfg, r in zip(cfgs, got) if cfg.kind != "Greedy"]
        assert max(others) < min(greedy) == 8000

    def test_lone_trial_matches_the_recorded_trial(self, degenerate):
        # A recorded trial takes single steps; the same trial unrecorded runs
        # ahead.
        for seed in range(BASE_SEED, BASE_SEED + 3):
            cfg = PolicyConfig(kind="Greedy", delta=0.1, max_steps=2000)
            recorded = run_trial(degenerate, 0, cfg, seed, record_diagnostics=True)
            alone = run_trial(degenerate, 0, cfg, seed)
            assert alone == replace(recorded, diagnostics=None)

    @pytest.mark.parametrize("max_steps", [511, 512, 513, 3000])
    @pytest.mark.parametrize("kind", ["TaS", "StopElim", "FullElim"])
    def test_tracking_batches_match_the_replay_at_caps_near_the_noise_block(
            self, degenerate, hard_weak, caches, kind, max_steps):
        for name, env in (("degenerate", degenerate), ("hard-weak", hard_weak)):
            cfgs, seeds = _mixed_batch(kind, range(BASE_SEED, BASE_SEED + 16), max_steps)
            self._check_batches(env, 0, cfgs, seeds, caches[name], 8)

    @pytest.mark.parametrize("kind", ["TaS", "StopElim", "FullElim", "mixed"])
    def test_stops_and_eliminations_land_inside_blocks(self, hard_weak, caches, kind):
        # As for Greedy: a steep threshold makes a stop or an elimination
        # tested at the wrong step show.  StopElim and FullElim rows
        # eliminate before they stop.
        cfgs, seeds = _mixed_batch(kind, range(BASE_SEED, BASE_SEED + 24), 20_000)
        cfgs = [replace(cfg, b=20.0) for cfg in cfgs]
        got = self._check_batches(hard_weak, 2, cfgs, seeds, caches["hard-weak"], 4)
        assert not any(r.timed_out for r in got)
        assert len({r.tau for r in got}) > 12

    @pytest.mark.parametrize("kind", ["TaS", "StopElim", "FullElim"])
    def test_exploration_floor_active_inside_blocks(self, kind):
        # The third action tells no hypothesis from another, so every target
        # puts weight 0 on it and the floor eps > 0 = min(w) mixes every
        # step's increment.
        env = load_environment({"name": "floored", "means": [[0.0, 1.0, 0.0],
                                                             [0.0, 0.0, 0.5],
                                                             [0.3, 0.3, 0.3]],
                                "sigma": 2.0})
        cache = OracleCache(env)
        assert all(min(cache.target(h, [g for g in range(3) if g != h])[0]) == 0.0
                   for h in range(3))
        cfgs, seeds = _mixed_batch(kind, range(BASE_SEED, BASE_SEED + 12), 3000)
        cfgs = [replace(cfg, delta=1e-6) for cfg in cfgs]
        got = self._check_batches(env, 1, cfgs, seeds, cache, 4)
        assert min(r.tau for r in got) > 30

    def test_tracking_rows_on_a_random_24_by_24_environment(self):
        # 40 rows of 24 log-likelihoods (960 cells) run ahead while champions
        # still change every few steps.
        rng = np.random.default_rng(BASE_SEED)
        env = load_environment({"name": "k24", "means": rng.uniform(0, 1, (24, 24)).tolist(),
                                "sigma": 2.0})
        cfgs, seeds = _mixed_batch("mixed", range(BASE_SEED, BASE_SEED + 40), 1500)
        self._check_batches(env, 5, cfgs, seeds, OracleCache(env), 40)

    def test_batch_over_the_cells_limit_takes_single_steps(self, hard_weak, caches):
        # 205 rows of 5 log-likelihoods: 1,025 cells, one over the limit,
        # until the first compaction.  Its outcomes equal those of the same
        # trials in small batches, which run ahead.
        cfgs, seeds = _mixed_batch("mixed", range(BASE_SEED, BASE_SEED + 205), 300)
        whole = self._check_batches(hard_weak, 1, cfgs, seeds, caches["hard-weak"], 205)
        small = self._check_batches(hard_weak, 1, cfgs, seeds, caches["hard-weak"], 5)
        assert whole == small

    @pytest.mark.parametrize("kind", ["TaS", "StopElim", "FullElim"])
    def test_lone_tracking_trial_matches_the_recorded_trial(self, degenerate, kind):
        # At delta = 0.001 these trials take about 3,000 steps on
        # degenerate, so every one of them reaches its cap.
        for seed in range(BASE_SEED, BASE_SEED + 3):
            cfg = PolicyConfig(kind=kind, delta=1e-3, max_steps=150 + 100 * (seed - BASE_SEED))
            recorded = run_trial(degenerate, 0, cfg, seed, record_diagnostics=True)
            alone = run_trial(degenerate, 0, cfg, seed)
            assert alone == replace(recorded, diagnostics=None)
            assert alone.timed_out

    def test_track_ahead_matches_the_step_loop(self):
        # A block's targets are np.add.accumulate of the floored increments
        # along the step axis, in place; its actions follow them.  The step
        # loop adds one increment at a time and picks each action from the
        # counts so far.  Both agree bit for bit, with the floor active on
        # some rows (min(w) = 0 or small) and idle on others.
        rng = np.random.default_rng(BASE_SEED)
        for rows, num_actions, t, span in ((7, 5, 0, 60), (3, 24, 1000, 21), (1, 2, 7, 200)):
            weights = rng.dirichlet(np.full(num_actions, 0.3), rows)
            weights[0] = 0.0
            weights[0, -1] = 1.0
            wmin = weights.min(axis=1)
            counts = rng.integers(0, t + 1, (rows, num_actions))
            target = counts + rng.uniform(-1, 1, (rows, num_actions))
            actions, targets = _track_ahead(target, counts, weights, t, span)
            for j, u in enumerate(range(t, t + span)):
                eps = 0.5 / math.sqrt(num_actions * num_actions + u)
                eta = (np.maximum(eps - wmin, 0.0) / (1.0 - num_actions * eps))[:, None]
                target += (weights + eta) / (1.0 + num_actions * eta)
                a = (target - counts).argmax(axis=1)
                counts[np.arange(rows), a] += 1
                assert np.array_equal(actions[j], a)
                assert np.array_equal(targets[j].view(np.int64), target.view(np.int64))
            assert any(0.5 / math.sqrt(num_actions ** 2 + t + span) > w for w in wmin)

    def test_add_accumulate_sums_step_by_step(self):
        # The block's log-likelihoods are np.add.accumulate along the step
        # axis, in place; the step loop adds one increment at a time.
        rng = np.random.default_rng(BASE_SEED)
        for shape in ((5, 103, 40), (24, 22, 3), (2, 65, 1)):
            run = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            loop = run.copy()
            for j in range(1, shape[1]):
                loop[:, j] = loop[:, j - 1] + loop[:, j]
            np.add.accumulate(run, axis=1, out=run)
            assert np.array_equal(run.view(np.int64), loop.view(np.int64))


class _FixedCache:
    """Stands in for OracleCache: candidate h's target is ``weights[h]``,
    whatever its opponents."""

    def __init__(self, weights):
        self.weights = weights

    def target(self, h, S):
        return tuple(self.weights[h]), 0.0


class TestIncrementWindow:
    """A single step reads each set's floored increment from the table's
    window; it must equal ctrack_select's floored weights bit for bit."""

    @staticmethod
    def check(table, t, ids):
        num_actions = table.weights.shape[1]
        eps = 0.5 / math.sqrt(num_actions * num_actions + t)
        got = table.increments(t, np.array(ids))
        for i in ids:
            want = np.array(_floor_projection(table.weights[i].tolist(), eps))
            assert np.array_equal(got[i].view(np.int64), want.view(np.int64)), (t, i)

    def test_window_matches_the_single_step_formula(self):
        # Candidate 0's target has a zero weight, so the floor is active at
        # every step; candidate 1's smallest weight is 0.04, above eps from
        # t = 132 on; candidate 2's is above eps at every step.
        weights = [[0.0, 0.1, 0.2, 0.3, 0.4], [0.04, 0.16, 0.2, 0.3, 0.3],
                   [0.2, 0.2, 0.2, 0.2, 0.2], [0.5, 0.0, 0.5, 0.0, 0.0],
                   [0.01, 0.02, 0.03, 0.04, 0.9]]
        table = _SetTable(_FixedCache(weights), 5, 5)
        table.solve(range(5))
        starts = set()
        for t in range(400):
            self.check(table, t, range(5))
            starts.add(table.window_start)
        # 5 ids of 5 actions: 163-step windows, so t crossed two boundaries.
        assert starts == {0, 163, 326}
        floored = [_floor_projection(weights[1], 0.5 / math.sqrt(25 + t)) != weights[1]
                   for t in (131, 132)]
        assert floored == [True, False]

    def test_added_and_solved_sets_rebuild_the_window(self):
        weights = [[0.0, 0.5, 0.5], [0.3, 0.3, 0.4], [0.1, 0.1, 0.8], [1.0, 0.0, 0.0]]
        table = _SetTable(_FixedCache(weights), 4, 3)
        table.solve(range(4))
        self.check(table, 10, range(4))
        assert table.window_start == 10
        # Mid-window, a FullElim row is left with candidate 1 against {0, 3}.
        i = table.add(1, np.array([True, False, False, True]))
        assert table.window is None
        self.check(table, 11, range(4))
        table.solve([i])
        assert table.window is None
        self.check(table, 12, [*range(4), i])
        assert table.window_start == 12
        # The added set's target is candidate 1's.
        assert table.increments(12, np.array([i]))[i].tolist() == table.increments(
            12, np.array([1]))[1].tolist()

    def test_a_one_step_window_forms_the_increments_in_use(self):
        # 40 ids of 64 actions: 4,096 // 2,560 leaves a one-step window.
        rng = np.random.default_rng(BASE_SEED)
        weights = rng.dirichlet(np.full(64, 0.5), 40)
        weights[::3, 0] = 0.0
        table = _SetTable(_FixedCache(weights.tolist()), 40, 64)
        table.solve(range(40))
        for t in (0, 1, 5000, 5001):
            self.check(table, t, [0, 3, 7, 39])
            assert table.window is None


# SHA-256 of the JSON trace document of one recorded trial per setting and kind.
PINNED_TRACE_SHA256 = {
    "hard-weak": {
        "Greedy": "dfa70a9157b6a732484e4db9a25c0216bcd3c1cf7ec6d5a6327207a09ceb9db8",
        "TaS": "cb786c34c374b05ea81c43578b97b05de09b46617b9c6b5386f9e48080802c80",
        "StopElim": "6d68a9599abcf43a822f0286476e40a9c6a6ba88687c6912815d6db50cba2204",
        "FullElim": "0dcd96a47cebfc40ec2491eefec0d4d241761e33d04089c4afa04e3deb933715",
    },
    "degenerate": {
        "Greedy": "ce58a226327dc7e7fb43acf334db1f3ac5053e1b75ca8fc016e1b15208851f5b",
        "TaS": "fe2338faacf1b073beaeb9ecfa601f6a6c65d6b2dcc4997fc0afefedabf71f1a",
        "StopElim": "9072a484d4640ebc7931ff9df2f1e61455405cd283ae0c4e953a5b3ecd2963d4",
        "FullElim": "99d8272c516d5a3b8150b31d86c12f35b6d5e0ef6cf7023a07c40b952354d8ed",
    },
}


class TestPinnedTraces:
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_trace_bytes_match_pinned_digest(self, hard_weak, degenerate, kind):
        # degenerate runs to its cap under Greedy, so its trials are capped.
        runs = {
            "hard-weak": (hard_weak, 2, PolicyConfig(kind=kind, delta=0.1, alpha=0.5), 3),
            "degenerate": (degenerate, 0, PolicyConfig(kind=kind, delta=0.1, max_steps=200), 0),
        }
        for name, (env, true_h, cfg, seed) in runs.items():
            trace = run_trial(env, true_h, cfg, seed, record_diagnostics=True).diagnostics
            text = json.dumps(trace.to_document())
            assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TRACE_SHA256[name][kind]
