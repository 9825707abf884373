"""Single-trial reference of the engine's rules, a step at a time in plain Python.

No command loads this module: the benchmark's traced run
(``perfbench/layers.py``, which also sweeps through ``run_delta_sweep``) and
the tests replay trials through it and check them against ``run_trials``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

from .engine import PolicyConfig, thresholds
from .harness import run_sweep as run_delta_sweep
from .model import Environment


@dataclass
class TrialState:
    """Mutable per-trial record; confined to a single worker."""

    t: int
    counts: list[int]
    loglik: list[float]
    target: list[float]
    active: list[set[int]]
    champion: int


def new_trial_state(env: Environment) -> TrialState:
    k = env.num_hypotheses
    return TrialState(
        t=0,
        counts=[0] * env.num_actions,
        loglik=[0.0] * k,
        target=[0.0] * env.num_actions,
        active=[set(g for g in range(k) if g != i) for i in range(k)],
        champion=0,
    )


def update_likelihoods(state: TrialState, env: Environment, a: int, o: float) -> TrialState:
    """Fold one observation into every hypothesis' log-likelihood.

    Increments the action counter, advances the step counter, and recomputes
    the champion (lowest index on exact ties).  Eliminated hypotheses keep
    being updated: a returning champion still consults their likelihoods.
    """
    row = env.means[a]
    scale = -0.5 / (env.sigma * env.sigma)
    loglik = state.loglik
    for h in range(len(loglik)):
        gap = o - row[h]
        loglik[h] += scale * gap * gap
    state.counts[a] += 1
    state.t += 1
    best = 0
    best_val = loglik[0]
    for h in range(1, len(loglik)):
        if loglik[h] > best_val:
            best = h
            best_val = loglik[h]
    state.champion = best
    return state


def _floor_projection(w, eps: float):
    """Smallest uniform mixing of ``w`` that puts at least eps on every action."""
    wmin = min(w)
    if wmin >= eps:
        return w
    eta = (eps - wmin) / (1.0 - len(w) * eps)
    denom = 1.0 + len(w) * eta
    return [(wi + eta) / denom for wi in w]


def ctrack_select(state: TrialState, weights) -> int:
    """Accumulate the tracking target, then pull the most under-sampled action.

    The instantaneous target is floored at eps_t = 1 / (2 sqrt(t + A^2))
    before accumulation, which forces every action to be explored at a
    sqrt(t) rate no matter how lopsided the oracle allocations are.  Ties in
    the deficit go to the lowest action index.
    """
    num_actions = len(state.target)
    eps = 0.5 / sqrt(num_actions * num_actions + state.t)
    floored = _floor_projection(weights, eps)
    target = state.target
    counts = state.counts
    best = 0
    target[0] += floored[0]
    best_deficit = target[0] - counts[0]
    for a in range(1, num_actions):
        target[a] += floored[a]
        deficit = target[a] - counts[a]
        if deficit > best_deficit:
            best = a
            best_deficit = deficit
    return best


def eliminate(state: TrialState, cfg: PolicyConfig) -> set[int]:
    """Drop every current-champion opponent whose ratio clears beta_elim.

    Only the champion's active set changes; the removed opponents are
    returned.  Called right after the champion update, so ``state.t`` is
    the step the threshold is evaluated at.
    """
    _, beta_elim = thresholds(state.t, cfg)
    ch = state.champion
    level = state.loglik[ch]
    loglik = state.loglik
    survivors = state.active[ch]
    removed = {g for g in survivors if level - loglik[g] >= beta_elim}
    survivors -= removed
    return removed


def greedy_select(state: TrialState, env: Environment) -> int:
    """Most informative action for the champion against its closest rival.

    The rival is the opponent with the smallest log-likelihood ratio
    (lowest index on ties); the action maximizes the pairwise divergence
    (lowest index on ties).  Before any observation, action 0 is pulled.
    """
    if state.t == 0:
        return 0
    ch = state.champion
    loglik = state.loglik
    rival = -1
    rival_val = None
    for g in range(len(loglik)):
        if g == ch:
            continue
        if rival_val is None or loglik[g] > rival_val:
            rival = g
            rival_val = loglik[g]
    return int(env.best_action[ch][rival])
