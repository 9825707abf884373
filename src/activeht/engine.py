"""Lockstep execution of the four sequential identification policies.

A trial maintains cumulative log-likelihoods for every hypothesis, a
maximum-likelihood champion, per-candidate active-opponent sets, and a
cumulative sampling target.  Policies differ in two places only:

* sampling: ``Greedy`` chases the largest instantaneous divergence between
  the champion and its closest rival; ``TaS`` and ``StopElim`` track the
  max-min allocation against the full opponent set; ``FullElim`` tracks it
  against the champion's surviving opponents.
* stopping: ``Greedy``/``TaS`` stop when the smallest champion-vs-opponent
  log-likelihood ratio clears the stopping threshold; ``StopElim``/
  ``FullElim`` eliminate opponents one by one as their ratios clear the
  elimination threshold and stop when the champion's set empties.

Trials are pure functions of (environment, true hypothesis, config, seed).

``run_trials`` runs a batch of R trials in lockstep, of any mix of policy
kinds: the state is a set of numpy arrays with one row per trial
(log-likelihoods (R, K), counts and cumulative targets (R, A), champions
(R,), active sets (R, K, K), opponent-set ids (R, K)).  Rows sit in
contiguous kind slices, ordered as ``POLICY_KINDS``, and each rule runs on
the slices of the kinds it belongs to (C-tracking on TaS/StopElim/FullElim,
the greedy pick on Greedy, the stop rule on Greedy/TaS, elimination on
StopElim/FullElim); the kinds share t, since they share b, c and
max_steps.  A finished trial's result is recorded at once, and its row is
compacted out once finished rows are a fixed share of the batch or fill a
whole kind slice.  Every operation is elementwise or a per-row reduction,
so each row is bit-identical to the trial run on its own, and results do
not depend on how trials are batched:

* each trial draws from its own ``default_rng(seed)`` stream in blocks of
  512 normals; the step count is shared, so all rows refill together;
* per-step scalars (the forced-exploration floor, ``b*log(t) + c``) are
  computed once per step with ``math``;
* tracking targets are looked up by opponent-set id: every (candidate,
  opponent set) the batch tracks has an id, ids 0..K-1 being the full sets,
  and each row holds the ids of its candidates' sets, so a FullElim
  elimination rewrites one id.  An id is solved through the ``OracleCache``
  the first time a running trial tracks it.  A single step gathers the
  tracking rows' floored increments by id from a window holding every id's
  increments over the next W steps, formed in one pass with each step's
  eps from ``math``.  The window is rebuilt once t leaves it or the batch
  adds or solves a set, and holds at most ``_WINDOW_CELLS`` values (W = 25
  with the 32 sets of a ``skewed`` sweep); where that leaves W = 1, each
  step forms the increments of the ids in use.

While no diagnostics are recorded and the batch holds at most
``_RUN_AHEAD_CELLS`` log-likelihoods (a small batch of any kinds, a large
one once compaction shrinks it, or a lone trial), the batch runs ahead.
Between events every row's next actions are known without new
observations: a Greedy row's action ``best_action[champion, rival]`` holds
while its (champion, rival) pair does, and a tracking row's target holds
while its champion and opponent set do (C-tracking, Garivier & Kaufmann,
COLT 2016), so its actions follow from the floored target increments and
its counts alone.  A block takes the next steps of every row at once: the
tracking rows' target increments and log-likelihood increments in the
step's operation order, each summed along the step axis by
``np.add.accumulate`` (left to right, as the step loop adds them), the
tracking actions in a short per-step argmax loop, and each step's event
tests.  An event is a change of a Greedy row's pair or a tracking row's
champion, a stop, or an elimination.  The batch advances to the first step
at which a running row has one, and the champion, stop and elimination
rules run there as after a single step.  A block never crosses the end of a
noise block or the step cap and spans at most ``_RNG_BLOCK // K`` steps
(``_RNG_BLOCK // max(K, A)`` while tracking rows are in the batch).  It
opens once the batch has gone ``_QUIET_STEPS`` steps without an event, and
spans as many steps as the batch has been quiet, so a batch with events
every few steps keeps taking single steps.

``run_trial`` is the R = 1 call, and ``record_diagnostics`` records its
rounds in the same loop, one step at a time.  Outside a block, a lone trial
pays numpy's per-call overhead on arrays of one row, several times the
per-step cost of a scalar loop, so runs of many trials should go through
``run_trials``.
``new_trial_state``, ``update_likelihoods``, ``ctrack_select``,
``greedy_select``, ``eliminate`` and ``thresholds`` are the single-trial
reference of the same rules.  They stay in the package because the
benchmark's traced run (``perfbench/layers.py``) and the tests replay trials
through them and check the replays against ``run_trials``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields, replace
from math import inf, isfinite, log, sqrt

import numpy as np

from .defaults import DEFAULT_B, DEFAULT_C_OFFSET, POLICY_KINDS
from .model import Environment
from .oracle import OracleCache

_RNG_BLOCK = 512
# Finished rows of a lockstep batch are compacted out once they are this share
# of its rows.
_COMPACT_SHARE = 1 / 8
# A batch runs ahead in blocks once it has taken _QUIET_STEPS steps in a row
# without an event, if it holds at most _RUN_AHEAD_CELLS log-likelihoods
# (rows * K): past that, a block's work per row costs more than the per-step
# overhead it saves (see the module docstring).
_QUIET_STEPS = 8
_RUN_AHEAD_CELLS = 1024
# A single step reads its tracking increments from a window of the next steps'
# increments of every opponent set, of at most _WINDOW_CELLS values.
_WINDOW_CELLS = 4096


@dataclass(frozen=True)
class PolicyConfig:
    """Policy selection plus every constant the stopping logic needs.

    ``c=None`` resolves to ``log(max(K - 1, 4)) + DEFAULT_C_OFFSET`` for
    the environment the trial runs on: a union-bound offset over the K - 1
    opponents, at least log 4 (below it K = 2 and 3 broke delta = 0.1),
    plus a calibrated shift.  That default is calibrated, not proven; the
    pair ``b = 0, c = log(K - 1)`` is proven delta-correct by Ville's
    inequality (README, Thresholds).
    """

    kind: str
    delta: float
    alpha: float = 1.0
    b: float = DEFAULT_B
    c: float | None = None
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; choose from {POLICY_KINDS}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 <= self.b < inf:
            raise ValueError(f"threshold slope b must be nonnegative and finite, got {self.b}")
        if self.c is not None and not isfinite(self.c):
            raise ValueError(f"threshold offset c must be finite, got {self.c}")
        _integer_field(self, "max_steps", 1)


def _integer_field(config, name: str, minimum: int | None = None) -> None:
    """Store field ``name`` of a frozen config as an int, at least ``minimum``
    if given.  operator.index rejects a cap of 10.5 instead of running past
    it, and a seed of 1.7 instead of truncating it."""
    value = getattr(config, name)
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    object.__setattr__(config, name, value)


def resolve_config(cfg: PolicyConfig, env: Environment) -> PolicyConfig:
    """Fill in environment-dependent defaults (the threshold offset c)."""
    if cfg.c is not None:
        return cfg
    return replace(cfg, c=log(max(env.num_hypotheses - 1, 4)) + DEFAULT_C_OFFSET)


def thresholds(t: int, cfg: PolicyConfig) -> tuple[float, float]:
    """(beta_stop, beta_elim) at step t >= 1.

    beta_stop = log(1/delta) + b log t + c and beta_elim replaces the first
    term with alpha*log(1/delta); the two coincide exactly when alpha = 1.
    """
    if t < 1:
        raise ValueError(f"thresholds are defined for t >= 1, got {t}")
    if cfg.c is None:
        raise ValueError("config has unresolved c; call resolve_config first")
    gamma = cfg.b * log(t) + cfg.c
    level = log(1.0 / cfg.delta)
    return level + gamma, cfg.alpha * level + gamma


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


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial."""

    tau: int
    recommendation: int
    correct: bool
    timed_out: bool
    diagnostics: "DiagnosticsTrace | None" = None


@dataclass
class DiagnosticsTrace:
    """Per-round internals of a recorded trial, one list entry per step.

    ``meta`` holds the trial's settings and, once it ends, its outcome
    (``tau``, ``recommendation``, ``correct``, ``timed_out``).
    ``active_set`` is the champion's surviving opponent set after the
    round's eliminations; ``min_z`` is the smallest champion-vs-survivor
    ratio before them.  ``oracle_rate``/``empirical_rate`` are the max-min
    value and its empirical-allocation counterpart for that set, or None on
    the final round once the set is empty.  ``events`` lists the opponents
    removed in the round.
    """

    meta: dict = field(default_factory=dict)
    t: list[int] = field(default_factory=list)
    champion: list[int] = field(default_factory=list)
    active_set: list[list[int]] = field(default_factory=list)
    alloc: list[list[float]] = field(default_factory=list)
    counts: list[list[int]] = field(default_factory=list)
    target_avg: list[list[float]] = field(default_factory=list)
    min_z: list[float] = field(default_factory=list)
    beta_elim: list[float] = field(default_factory=list)
    oracle_rate: list[float | None] = field(default_factory=list)
    empirical_rate: list[float | None] = field(default_factory=list)
    events: list[list[int]] = field(default_factory=list)

    def to_document(self) -> dict:
        # Shares the lists: asdict's deep copy doubled `diagnose` time on a
        # 20,000-round trace.
        return {("min_Z" if f.name == "min_z" else f.name): getattr(self, f.name)
                for f in fields(self)}


def run_trial(
    env: Environment,
    true_h: int,
    cfg: PolicyConfig,
    seed: int,
    record_diagnostics: bool = False,
    cache: OracleCache | None = None,
) -> TrialResult:
    """Simulate one full trial; deterministic given (env, true_h, cfg, seed).

    The R = 1 call of ``run_trials``.  A shared ``cache`` may be passed to
    reuse allocation solutions across trials on the same environment; it
    never changes the outcome.
    """
    return run_trials(env, true_h, [cfg], [seed], cache=cache,
                      record_diagnostics=record_diagnostics)[0]


class _Rows:
    """The per-trial arrays of a lockstep batch, one row per trial."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask) -> None:
        for name, value in list(vars(self).items()):
            setattr(self, name, value[mask])


class _SetTable:
    """The tracking targets of a lockstep batch, by opponent-set id.

    Ids 0..K-1 are the full sets; ``add`` numbers a reduced set the first
    time a FullElim row is left with it.  ``weights[i]`` stays zero until
    ``solve`` takes set i from the cache.
    ``window`` holds the floored increments of every id over the steps from
    ``window_start`` on; adding or solving a set drops it.
    """

    def __init__(self, cache: OracleCache, k: int, num_actions: int):
        self.cache = cache
        # (candidate, opponents) of each id, and the ids of reduced sets.
        self.sets = [(h, [g for g in range(k) if g != h]) for h in range(k)]
        self.ids = {}
        self.weights = np.zeros((k, num_actions))
        self.solved = np.zeros(k, dtype=bool)
        self.window_start = 0
        self.window = None

    def add(self, h: int, survivors) -> int:
        """The id of candidate h against the opponents flagged in ``survivors``."""
        key = (h, survivors.tobytes())
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.sets)
            self.sets.append((h, survivors.nonzero()[0].tolist()))
            self.window = None
            if i == len(self.solved):
                self.weights, self.solved = (np.concatenate((x, np.zeros_like(x)))
                                             for x in (self.weights, self.solved))
        return i

    def solve(self, ids) -> None:
        for i in ids:
            if not self.solved[i]:
                w, _ = self.cache.target(*self.sets[i])
                self.weights[i] = w
                self.solved[i] = True
                self.window = None

    def increments(self, t: int, ids):
        """ctrack_select's floored increments at step t (eps_t), by id.

        Row i is set i's increment for every i in ``ids``.  They come from
        the window, rebuilt at t once t leaves it, unless the window's bound
        leaves it a single step: then the increment is formed for each id in
        ``ids`` alone.
        """
        j = t - self.window_start
        if self.window is not None and j < len(self.window):
            return self.window[j]
        num_ids, num_actions = len(self.sets), self.weights.shape[1]
        span = _WINDOW_CELLS // (num_ids * num_actions)
        if span > 1:
            self.window_start = t
            self.window = _floored(self.weights[:num_ids], _eps(num_actions, t, span))
            return self.window[0]
        # The ids in use (bincount, since np.unique imports numpy.ma on its
        # first call).
        used = np.bincount(ids).nonzero()[0]
        increment = np.empty_like(self.weights)
        increment[used] = _floored(self.weights.take(used, axis=0), _eps(num_actions, t, 1))[0]
        return increment


def run_trials(
    env: Environment,
    true_h: int,
    cfgs,
    seeds,
    cache: OracleCache | None = None,
    record_diagnostics: bool = False,
) -> list[TrialResult]:
    """Run the trials ``(cfgs[i], seeds[i])`` together in lockstep.

    The configs may mix policy kinds and differ in delta and alpha, but share
    the threshold shape (b, c) and max_steps, so the step count is shared.
    Result i is the same however the trials are batched (see the module
    docstring).  The batch looks its tracking targets up by opponent-set id
    and solves each set through ``cache``, which must be built for ``env``,
    the first time a running trial tracks it.  Diagnostics are recorded for
    a batch of one trial only, one step at a time; an unrecorded batch of at
    most ``_RUN_AHEAD_CELLS`` log-likelihoods, of any kinds, runs ahead in
    blocks of steps.
    """
    # operator.index rejects seed 1.7 or "7" instead of truncating or parsing.
    true_h = operator.index(true_h)
    seeds = [operator.index(s) for s in seeds]
    if not 0 <= true_h < env.num_hypotheses:
        raise IndexError(f"true hypothesis {true_h} out of range")
    if env.num_hypotheses < 2:
        raise ValueError("identification needs at least two hypotheses")
    # A sweep's batch repeats each cell's config once per trial, so each
    # distinct config is resolved once, in the one pass ``cfgs`` may allow.
    resolved = {}
    cfgs = [resolved.get(cfg) or resolved.setdefault(cfg, resolve_config(cfg, env))
            for cfg in cfgs]
    if len(cfgs) != len(seeds):
        raise ValueError(f"{len(cfgs)} configs for {len(seeds)} seeds")
    if not cfgs:
        return []
    if len({(cfg.b, cfg.c, cfg.max_steps) for cfg in cfgs}) != 1:
        raise ValueError("a lockstep batch shares b, c and max_steps")
    if record_diagnostics and len(cfgs) != 1:
        raise ValueError("diagnostics are recorded for one trial at a time")
    if cache is None:
        cache = OracleCache(env)
    elif cache.env is not env and cache.env != env:
        raise ValueError(f"the oracle cache was built for another environment "
                         f"({cache.env.name!r}), not for {env.name!r}")

    first = cfgs[0]
    b, c, max_steps = first.b, first.c, first.max_steps
    k, num_actions = env.num_hypotheses, env.num_actions
    means = env.means_array
    true_means = means[:, true_h]
    sigma = env.sigma
    scale = -0.5 / (sigma * sigma)
    table = _SetTable(cache, k, num_actions)

    trace = None
    if record_diagnostics:
        trace = DiagnosticsTrace(meta={
            "environment": env.name, "policy": first.kind, "delta": first.delta,
            "alpha": first.alpha, "b": b, "c": c, "true_h": true_h, "seed": seeds[0],
        })

    # Rows sit in contiguous kind slices ordered as POLICY_KINDS, so each
    # rule runs on one slice: Greedy [0, g), TaS [g, s), StopElim [s, f) and
    # FullElim [f, n).  Tracking covers [g, n), the stop rule [0, s) and
    # elimination [s, n).  Compaction keeps the order.
    n = len(cfgs)
    order = sorted(range(n), key=lambda j: POLICY_KINDS.index(cfgs[j].kind))
    g, s, f = (sum(cfg.kind in POLICY_KINDS[:end] for cfg in cfgs) for end in (1, 2, 3))
    # Each trial draws from its own stream in blocks of _RNG_BLOCK; the step
    # count is shared, so every row refills at the same step.  Column j of
    # ``noise`` is trial j's block times sigma.
    noise = np.empty((_RNG_BLOCK, n))
    rows = _Rows(
        index=np.array(order),
        rng=np.array([np.random.default_rng(seeds[j]) for j in order], dtype=object),
        live=np.ones(n, dtype=bool),
        # A row's level is log(1/delta) under the stop rule and
        # alpha*log(1/delta) under elimination; a finished row's is +inf, so
        # it never stops or eliminates again.
        level=np.array([log(1.0 / cfgs[j].delta) * (cfgs[j].alpha if r >= s else 1.0)
                        for r, j in enumerate(order)]),
        loglik=np.zeros((n, k)),
        counts=np.zeros((n, num_actions), dtype=np.int64),
        target=np.zeros((n, num_actions)),
        champion=np.zeros(n, dtype=np.intp),
        # set_ids[r, h]: the table id of candidate h's opponent set.
        set_ids=np.arange(k)[None].repeat(n, axis=0),
        rival=np.zeros(n, dtype=np.intp),
        # active[r, h, g]: g survives in candidate h's opponent set.
        active=~np.eye(k, dtype=bool)[None].repeat(n, axis=0),
    )
    results: list[TrialResult | None] = [None] * n
    running = n
    t = 0
    # The batch's steps in a row without an event.
    quiet = 0
    hypotheses = np.arange(k)[:, None, None]

    while running:
        # Compaction replaces the row arrays: the row offsets and the views
        # each rule works on hold until the next one.  Row r's entries of
        # the flattened (rows, K) and (rows, A) arrays start at r*K and r*A.
        row = np.arange(n)
        row_k = row * k
        row_a = row * num_actions
        champion = rows.champion
        at_champion = row_k + champion
        set_ids = rows.set_ids.reshape(-1)
        active = rows.active.reshape(-1, k)
        tracking_champion, target, tracking_counts = champion[g:], rows.target[g:], rows.counts[g:]
        greedy_champion, greedy_rival = champion[:g], rows.rival[:g]
        stop_loglik, rival = rows.loglik[:s], rows.rival[:s]
        stop_k = row_k[:s]
        # A small batch runs ahead (see the module docstring); a recorded trial
        # takes single steps.  A block's (K, span, rows) log-likelihoods and
        # (span, rows, A) targets stay about the size of the noise block.
        run_ahead = trace is None and n * k <= _RUN_AHEAD_CELLS
        span_cap = max(_RNG_BLOCK // (k if g == n else max(k, num_actions)), 1)
        pair = None
        compact = False
        while not compact:
            block = run_ahead and quiet >= _QUIET_STEPS
            if g < n:
                # The tracking rows' set ids.  Only a running row's set is
                # solved, so a finished row never adds a solve.
                ids = set_ids[at_champion[g:]]
                if not table.solved[ids].all():
                    table.solve(set(ids[rows.live[g:]].tolist()))
                if not block:
                    # ctrack_select on every tracking row, its floored
                    # increment read by id.
                    target += table.increments(t, ids).take(ids, axis=0)
                    a = (target - tracking_counts).argmax(axis=1)

            i = t % _RNG_BLOCK
            if i == 0:
                for j, rng in zip(rows.index[rows.live].tolist(), rows.rng[rows.live]):
                    noise[:, j] = sigma * rng.standard_normal(_RNG_BLOCK)

            if g:
                # At t = 0 champion and rival are still 0, and best_action[0,
                # 0] is action 0 (kl_table[:, 0, 0] is all zero and argmax
                # takes the first index): the first pull.
                greedy = env.best_action[greedy_champion, greedy_rival]
            if block:
                # Between events every row's next actions are known without
                # new observations: a Greedy row's is best_action[champion,
                # rival] while its pair holds, a tracking row's follows its
                # target while its champion and opponent set hold.  The block
                # takes the next `span` steps of every row, in the step's
                # operation order (add.accumulate sums along the step axis
                # left to right), and advances every row to the first step at
                # which a running row has an event.  The champion, stop and
                # elimination rules below run at that step.
                span = min(quiet, span_cap, _RNG_BLOCK - i, max_steps - t)
                drawn = noise[i:i + span, rows.index]
                gap = np.empty((k, span, n))
                if g:
                    np.subtract(true_means[greedy] + drawn[:, :g],
                                means.take(greedy, axis=0).T[:, None, :], out=gap[:, :, :g])
                if g < n:
                    actions, targets = _track_ahead(
                        target, tracking_counts, table.weights.take(ids, axis=0), t, span)
                    np.subtract(true_means[actions] + drawn[:, g:], means.T[:, actions],
                                out=gap[:, :, g:])
                run = np.empty((k, span + 1, n))
                run[:, 0] = rows.loglik.T
                np.multiply(scale, gap, out=run[:, 1:])
                run[:, 1:] *= gap
                np.add.accumulate(run, axis=1, out=run)
                # run[h, j, r]: row r's log-likelihood of h after step j.
                run = run[:, 1:]
                lead = run[champion, :, row].T
                gamma = np.array([b * log(u) + c for u in range(t + 1, t + span + 1)])
                beta = rows.level + gamma[:, None]
                ends = np.empty((span, n), dtype=bool)
                if g:
                    # A pair holds while the rival ranks below the champion
                    # and every other hypothesis below the rival, ranked as
                    # argmax ranks: by log-likelihood, then by lowest index.
                    greedy_run, greedy_lead = run[:, :, :g], lead[:, :g]
                    lag = run[greedy_rival, :, row[:g]].T
                    below = (greedy_run < lag) | ((greedy_run == lag) & (hypotheses >= greedy_rival))
                    below[greedy_champion, :, row[:g]] = True
                    held = below.all(axis=0) & ((lag < greedy_lead) | (
                        (lag == greedy_lead) & (greedy_rival > greedy_champion)))
                    ends[:, :g] = ~held | (greedy_lead - lag >= beta[:, :g])
                if g < n:
                    # A tracking champion holds while every hypothesis ranks
                    # below it or is itself.  The stop rule fires when every
                    # opponent clears beta (min of lead - loglik[h] is lead -
                    # max of loglik[h]: rounding is monotone), an elimination
                    # when one surviving opponent does.
                    tracking_run, tracking_lead = run[:, :, g:], lead[:, g:]
                    ends[:, g:] = ~((tracking_run < tracking_lead) | (
                        (tracking_run == tracking_lead) & (hypotheses >= tracking_champion))
                    ).all(axis=0)
                    clear = tracking_lead - tracking_run >= beta[:, g:]
                    act = active.take(at_champion[g:], axis=0).T[:, None]
                    if g < s:
                        ends[:, g:s] |= (clear[:, :, :s - g] | ~act[:, :, :s - g]).all(axis=0)
                    if s < n:
                        ends[:, s:] |= (clear[:, :, s - g:] & act[:, :, s - g:]).any(axis=0)
                ends &= rows.live
                hit = ends.any(axis=1).nonzero()[0]
                event = hit.size > 0
                length = int(hit[0]) + 1 if event else span
                rows.loglik[:] = run[:, length - 1].T
                if g:
                    rows.counts.reshape(-1)[row_a[:g] + greedy] += length
                if g < n:
                    target[:] = targets[length - 1]
                    tracking_counts += np.bincount(
                        (actions[:length] + row_a[:n - g]).ravel(),
                        minlength=(n - g) * num_actions).reshape(n - g, num_actions)
            else:
                if g:
                    a = greedy if g == n else np.concatenate((greedy, a))
                o = true_means[a] + noise[i][rows.index]
                gap = o[:, None] - means.take(a, axis=0)
                rows.loglik += scale * gap * gap
                rows.counts.reshape(-1)[row_a + a] += 1
                length = 1

            loglik = rows.loglik
            t += length
            loglik.argmax(axis=1, out=champion)
            at_champion = row_k + champion
            lead = loglik.reshape(-1)[at_champion]
            beta = rows.level + (b * log(t) + c)

            # stopped stays None when no row can stop this step.
            stopped = None
            if s:
                # min over g of (lead - loglik[g]) is lead - max over g of
                # loglik[g]: rounding is monotone.
                others = stop_loglik.copy()
                others.reshape(-1)[at_champion[:s]] = -np.inf
                others.argmax(axis=1, out=rival)
                stop = lead[:s] - others.reshape(-1)[stop_k + rival] >= beta[:s]
                if np.count_nonzero(stop):
                    stopped = np.zeros(n, dtype=bool)
                    stopped[:s] = stop
            if s < n:
                # Only the champion's set shrinks, and a trial stops the step
                # its set empties, so only a row that eliminated can stop.
                at = at_champion[s:]
                act = active.take(at, axis=0)
                removed = act & (lead[s:, None] - loglik[s:] >= beta[s:, None])
                if np.count_nonzero(removed):
                    fired = removed.any(axis=1).nonzero()[0]
                    left = act[fired] & ~removed[fired]
                    active[at[fired]] = left
                    fired += s
                    if stopped is None:
                        stopped = np.zeros(n, dtype=bool)
                    stopped[fired] = ~left.any(axis=1)
                    # A FullElim row that goes on tracks its champion's new
                    # set, and finds it again if that champion returns.
                    for j in ((fired >= f) & ~stopped[fired]).nonzero()[0].tolist():
                        set_ids[at_champion[fired[j]]] = table.add(int(champion[fired[j]]), left[j])

            if trace is not None:
                _record_round(trace, env, first, cache, t, rows,
                              removed[0].nonzero()[0].tolist() if s < n else [])
            if run_ahead:
                # An event: a running row stopped or eliminated, changed its
                # champion or, if Greedy, its (champion, rival) pair.  The
                # count only sizes the blocks, which find their own events,
                # so the pairs are refreshed only after a single step in
                # which no row stopped or eliminated.
                if not block:
                    event = stopped is not None
                    if not event:
                        code = champion * k
                        code[:g] += greedy_rival
                        event = pair is not None and np.count_nonzero((code != pair) & rows.live)
                        pair = code
                quiet = 0 if event else quiet + length

            if t >= max_steps:
                done = rows.live
            elif stopped is None:
                continue
            else:
                done = stopped
            finished = done.nonzero()[0].tolist()
            for r in finished:
                ch = int(champion[r])
                results[rows.index[r]] = TrialResult(
                    tau=t, recommendation=ch, correct=ch == true_h,
                    timed_out=stopped is None or not stopped[r], diagnostics=trace,
                )
            if not finished:
                continue
            running -= len(finished)
            rows.live[done] = False
            rows.level[done] = np.inf
            # Finished rows are compacted out once they are a fixed share of
            # the batch, or once a kind slice has no running row left, so
            # that the slice's rule stops running.
            slices = ((0, g), (g, s), (s, f), (f, n))
            compact = (not running or n - running >= n * _COMPACT_SHARE
                       or not all(rows.live[lo:hi].any() for lo, hi in slices if lo < hi))
        g, s, f = [int(np.count_nonzero(rows.live[:end])) for end in (g, s, f)]
        rows.keep(rows.live)
        n = running

    if trace is not None:
        result = results[0]
        trace.meta.update(tau=result.tau, recommendation=result.recommendation,
                          correct=result.correct, timed_out=result.timed_out)
    return results


def _eps(num_actions: int, t: int, span: int):
    """ctrack_select's eps_t at steps t to t + span - 1, formed with ``math``."""
    return np.array([0.5 / sqrt(num_actions * num_actions + u) for u in range(t, t + span)])


def _floored(weights, eps, out=None):
    """ctrack_select's floored increments of ``weights`` (rows, A) at each
    step's eps: shape (span, rows, A).

    The operations are _floor_projection's, row minimum included: eta = 0
    leaves a row's weights as they are, as _floor_projection does when
    min(w) >= eps.
    """
    num_actions = weights.shape[-1]
    wmin = weights.min(axis=1)
    eta = (np.maximum(eps[:, None] - wmin, 0.0) / (1.0 - num_actions * eps)[:, None])[..., None]
    return np.divide(weights + eta, 1.0 + num_actions * eta, out=out)


def _track_ahead(target, counts, weights, t, span):
    """The actions and cumulative targets of tracking rows over the next
    ``span`` steps, t + 1 to t + span, while their weights hold.

    The steps' floored increments are formed at once (``_floored``) and
    summed onto ``target`` along the step axis; the actions are picked one
    step at a time, each advancing the counts.  Returns ``(actions,
    targets)`` of shapes (span, rows) and (span, rows, A).
    """
    num_rows, num_actions = target.shape
    targets = np.empty((span + 1, num_rows, num_actions))
    targets[0] = target
    _floored(weights, _eps(num_actions, t, span), out=targets[1:])
    np.add.accumulate(targets, axis=0, out=targets)
    targets = targets[1:]
    actions = np.empty((span, num_rows), dtype=np.intp)
    # Float counts are exact and subtract the same as the integer ones, and
    # faster.
    taken = counts.astype(float)
    at = np.arange(num_rows) * num_actions
    deficit = np.empty_like(target)
    for j in range(span):
        if j:
            taken.reshape(-1)[at + actions[j - 1]] += 1.0
        np.subtract(targets[j], taken, out=deficit).argmax(axis=1, out=actions[j])
    return actions, targets


def _record_round(trace, env, cfg, cache, t, rows, removed):
    """Append the round of row 0; ``min_z`` is taken over the set the stop
    rule saw, the survivors plus this round's removals.  Greedy and TaS rows
    never eliminate, so their survivors are every opponent."""
    ch = int(rows.champion[0])
    loglik = rows.loglik[0].tolist()
    counts = rows.counts[0].tolist()
    level = loglik[ch]
    survivors = rows.active[0, ch].nonzero()[0].tolist()
    pre_set = survivors + removed
    # The oracle rate changes only with the champion or its set, so the
    # cache is asked only then.
    unchanged = trace.champion[-1:] == [ch] and trace.active_set[-1:] == [survivors]
    _, beta_elim = thresholds(t, cfg)
    trace.t.append(t)
    trace.champion.append(ch)
    trace.active_set.append(survivors)
    alloc = [n / t for n in counts]
    trace.alloc.append(alloc)
    trace.counts.append(counts)
    trace.target_avg.append([w / t for w in rows.target[0].tolist()])
    trace.min_z.append(min(level - loglik[g] for g in pre_set) if pre_set else float("inf"))
    trace.beta_elim.append(beta_elim)
    trace.events.append(removed)
    if survivors:
        rate = trace.oracle_rate[-1] if unchanged else cache.target(ch, survivors)[1]
        weights = np.array(alloc)
        emp = min(float(np.dot(weights, env.kl_table[:, ch, g])) for g in survivors)
        trace.oracle_rate.append(rate)
        trace.empirical_rate.append(emp)
    else:
        trace.oracle_rate.append(None)
        trace.empirical_rate.append(None)
