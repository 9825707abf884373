"""Max-min sensing allocation: worst-case information rate and its optimizer.

For a candidate hypothesis ``h`` and a set ``S`` of surviving opponents, the
worst-case information rate of an action allocation ``w`` is the smallest
``w``-weighted divergence row over ``g`` in ``S``.  The oracle allocation
maximizes that rate over the action simplex; the optimum is the speed limit
for accumulating evidence against the hardest opponent.

The optimizer solves the equivalent linear program on its own dense
two-phase simplex tableau, which never stores its artificial columns, with
Bland's anti-cycling pivot rule, so results are deterministic for fixed
inputs.  Each solution also carries the LP's dual weights lambda on the
opponents, a certificate of optimality: no allocation can beat
``max_a sum_g lambda_g d_a(h, g)``, and a rate short of it by more than
``CERTIFICATE_TOL`` of the largest divergence raises OracleError.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import isfinite

import numpy as np

from .model import Environment

WEIGHT_CLAMP = 1e-12
SIMPLEX_SUM_TOL = 1e-9
PIVOT_TOL = 1e-9
# The certificate gap allowed, as a share of the largest divergence.  Random
# LPs with A and K up to 40 stay below 1e-6 of it.
CERTIFICATE_TOL = 1e-4


class OracleError(ValueError):
    """Base class for allocation-solver failures."""


class DegenerateInstanceError(OracleError):
    """Some opponent has zero divergence under every action: the max-min
    rate is exactly 0 and no allocation can make progress against it."""


@dataclass(frozen=True)
class Allocation:
    """A point on the action simplex."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.weights:
            raise OracleError("allocation must have at least one weight")
        cleaned = []
        for w in self.weights:
            if not isfinite(w):
                raise OracleError(f"non-finite allocation weight {w}")
            if w < -WEIGHT_CLAMP:
                raise OracleError(f"negative allocation weight {w}")
            cleaned.append(max(w, 0.0))
        total = sum(cleaned)
        if abs(total - 1.0) > SIMPLEX_SUM_TOL:
            raise OracleError(f"allocation weights sum to {total}, expected 1")
        object.__setattr__(self, "weights", tuple(cleaned))


@dataclass(frozen=True)
class OracleSolution:
    """An optimizer of the max-min program and the rate it achieves.

    ``dual_weights`` certifies the optimum: opponent weights lambda, aligned
    with the sorted opponents, on the simplex (up to rounding), with
    ``max_a sum_g lambda_g d_a(h, g)`` equal to ``rate``.  No allocation can
    beat that value, since its worst opponent rate is at most its
    lambda-average, so the gap between the two bounds the suboptimality.
    """

    allocation: Allocation
    rate: float
    dual_weights: tuple[float, ...]


def worst_case_rate(env: Environment, h: int, S, w) -> float:
    """min over g in S of the w-weighted divergence between h and g."""
    h, opponents = _check_opponents(env, h, S)
    weights = w.weights if isinstance(w, Allocation) else Allocation(tuple(w)).weights
    if len(weights) != env.num_actions:
        raise OracleError(
            f"allocation has {len(weights)} weights for {env.num_actions} actions"
        )
    return _rate(env, h, opponents, weights)


def _rate(env: Environment, h: int, opponents: list[int], weights) -> float:
    """worst_case_rate on checked indices and weights."""
    return min(float(np.dot(weights, env.kl_table[:, h, g])) for g in opponents)


def oracle_allocation(env: Environment, h: int, S) -> OracleSolution:
    """Deterministic exact optimizer of the max-min allocation program.

    Raises DegenerateInstanceError when some opponent in ``S`` has zero
    divergence from ``h`` under every action (the optimum rate is 0), and
    OracleError when the dual weights do not certify the rate.
    """
    h, opponents = _check_opponents(env, h, S)
    maxd = env.max_divergence
    dead = [g for g in opponents if maxd[h][g] == 0.0]
    if dead:
        raise DegenerateInstanceError(
            f"opponents {dead} are indistinguishable from hypothesis {h}: rate 0"
        )
    weights, dual = _solve_maxmin(env, h, opponents)
    alloc = Allocation(weights)
    rate = _rate(env, h, opponents, alloc.weights)
    rows = env.kl_table[:, h, opponents]
    gap = float((rows @ np.array(dual)).max()) - rate
    if gap > CERTIFICATE_TOL * float(rows.max()):
        raise OracleError(f"max-min solution for hypothesis {h} against {opponents} "
                          f"is not certified: rate {rate!r} is {gap!r} below its dual bound")
    return OracleSolution(allocation=alloc, rate=rate, dual_weights=dual)


def _solve_maxmin(env: Environment, h: int, opponents: list[int]):
    """The optimal action weights and opponent (dual) weights, as tuples."""
    num_actions = env.num_actions
    d = env.kl_table
    if num_actions == 1:
        # The rate is the smallest divergence: all dual mass on its opponent.
        worst = int(np.argmin(d[0, h, opponents]))
        return (1.0,), tuple(1.0 if i == worst else 0.0 for i in range(len(opponents)))
    if len(opponents) == 1:
        # Single minimum term: all mass on the most informative action.
        g = opponents[0]
        best = int(np.argmax(d[:, h, g]))
        return tuple(1.0 if a == best else 0.0 for a in range(num_actions)), (1.0,)

    # Variables x = (w_0..w_{A-1}, z, s_g...), all nonnegative:
    #   sum_a d_a(h,g) w_a - z - s_g = 0   for each opponent g
    #   sum_a w_a = 1
    # maximized over z, i.e. cost -z minimized.  z >= 0 is valid because
    # divergences are nonnegative, and the right-hand side is 0/1, so phase 1
    # starts feasible on m artificials n..n+m-1, whose identity columns are
    # not stored: ``artificial`` marks the rows where one is basic, and phase
    # 1 prices the real columns only.  That equals pricing every column while
    # Bland picks no artificial to re-enter, as on every LP tried (A, K <= 40).
    # Bland's rule runs throughout (entering: lowest eligible column index;
    # leaving: lowest basic-variable index among the minimum-ratio rows), so
    # the pivot sequence is fully deterministic.
    m = len(opponents) + 1
    z = num_actions
    n = z + m
    # One augmented array: the tableau, then the right-hand side as its last
    # column, so a pivot is one row division and one rank-1 update.
    aug = np.zeros((m, n + 1))
    buf = np.empty_like(aug)
    tab = aug[:, :-1]
    tab[:-1, :z] = d[:, h, opponents].T
    tab[:-1, z] = -1.0
    tab[:-1, z + 1:] = -np.eye(m - 1)
    tab[-1, :z] = 1.0
    aug[-1, -1] = 1.0
    constraints = tab.copy()
    basis = list(range(n, n + m))
    artificial = np.ones(m)

    def phase1_price(pivot):
        if pivot:
            artificial[pivot[0]] = 0.0
        return -(artificial @ tab)

    _bland_iterate(aug, basis, phase1_price, buf)
    if float(artificial @ aug[:, -1]) > 1e-7:
        raise OracleError("max-min program reported infeasible (solver bug)")

    # Drive leftover artificials out of the basis.  No row is ever redundant:
    # every pivot keeps artificial column n + j exactly equal to minus slack
    # column z + 1 + j, and the sum row's artificial column equal to the
    # right-hand side.  So a row whose basic variable is the artificial of
    # opponent row j holds -1 under that slack, and the sum row's artificial
    # is not basic after a feasible phase 1, since its row would hold 1.
    for i in range(m):
        if basis[i] >= n:
            cols = (np.abs(tab[i]) > PIVOT_TOL).nonzero()[0]
            _pivot(aug, basis, i, int(cols[0]), buf)

    cost = np.zeros(n)
    cost[z] = -1.0
    # The cost's one nonzero is -1 on z, so cost[basis] @ tab is minus the row
    # where z is basic, or zero while z is non-basic: pricing reads that row.
    _bland_iterate(aug, basis,
                   lambda pivot: cost + tab[basis.index(z)] if z in basis else cost, buf)

    x = np.zeros(n)
    x[basis] = aug[:, -1]
    w = np.clip(x[:num_actions], 0.0, None)
    total = w.sum()
    if not total > 0.0:
        raise OracleError("max-min program left every action weight at 0 (solver bug)")
    w /= total
    # The dual of the final basis: y with B^T y = cost[basis], B being the
    # basic columns of the original constraints.  Its opponent entries are
    # the weights lambda, with max_a sum_g lambda_g d_a(h, g) = rate by LP
    # duality; those of basic slacks are 0 up to rounding, clipped like w.
    try:
        y = np.linalg.solve(constraints[:, basis].T, cost[basis])
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"max-min program ended on a singular basis: {exc}") from None
    return tuple(float(v) for v in w), tuple(np.maximum(y[:-1], 0.0).tolist())


def _bland_iterate(aug, basis, price, buf):
    """Pivot by Bland's rule on the augmented tableau ``aug`` until
    ``price(pivot)``, the reduced-cost row of the current basis, has no
    improving entry; ``pivot`` is the last (row, column) pivoted on, or None
    before the first.  ``buf`` is the pivots' work buffer."""
    rhs = aug[:, -1]
    pivot = None
    for _ in range(10_000):
        reduced = price(pivot)
        improving = (reduced < -PIVOT_TOL).nonzero()[0]
        if not improving.size:
            return
        entering = int(improving[0])
        # Bland's tie rule runs in row order with a drifting best_ratio, so
        # an argmin over the ratios could pick a different leaving row.  The
        # ratio test reads plain floats: a tableau has a few dozen rows, and
        # Python's division rounds exactly as numpy's does.
        leaving = -1
        best_ratio = np.inf
        for i, (c, r) in enumerate(zip(aug[:, entering].tolist(), rhs.tolist())):
            if not c > PIVOT_TOL:
                continue
            ratio = r / c
            if leaving < 0 or ratio < best_ratio - PIVOT_TOL:
                best_ratio = ratio
                leaving = i
            elif abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[leaving]:
                best_ratio = min(best_ratio, ratio)
                leaving = i
        if leaving < 0:
            raise OracleError("max-min program reported unbounded (solver bug)")
        _pivot(aug, basis, leaving, entering, buf)
        pivot = leaving, entering
    raise OracleError("simplex failed to converge")


def _pivot(aug, basis, row, col, buf):
    """Gauss-Jordan pivot on (row, col) of the augmented tableau as one
    rank-1 update, its product written into ``buf``, shaped like ``aug``."""
    aug[row] /= aug[row, col]
    factor = aug[:, col].copy()
    factor[row] = 0.0
    aug -= np.multiply(factor[:, None], aug[row], out=buf)
    basis[row] = col


def _check_opponents(env: Environment, h: int, S) -> tuple[int, list[int]]:
    """The candidate and its sorted opponents as ints, read in one pass over
    S; raises on a non-integer, an out-of-range index, an empty set or h in
    S.  operator.index takes ints, bools and numpy integers but no float,
    so 1.7 is rejected rather than truncated to 1, and True becomes 1."""
    try:
        h = operator.index(h)
        opponents = sorted({operator.index(g) for g in S})
    except TypeError:
        raise OracleError(f"indices must be integers: h = {h!r}, S = {S!r}") from None
    if not 0 <= h < env.num_hypotheses:
        raise IndexError(f"hypothesis index {h} out of range")
    if not opponents:
        raise OracleError("opponent set must be nonempty")
    if h in opponents:
        raise OracleError(f"candidate hypothesis {h} cannot be its own opponent")
    for g in opponents:
        if not 0 <= g < env.num_hypotheses:
            raise IndexError(f"opponent index {g} out of range")
    return h, opponents


class OracleCache:
    """Memoized solutions keyed by (candidate, sorted opponents).

    The divergence table is fixed per environment, so solutions can be
    shared by every trial that runs on it.  Every lookup checks its indices
    with ``_check_opponents``, so it raises as ``oracle_allocation`` does
    and nothing rejected is cached.  Also provides the engine-facing
    target, which stays well-defined when some opponents have zero
    divergence from the candidate: those opponents contribute a hard zero
    to the max-min value regardless of the allocation, so the target is
    computed over the distinguishable opponents (uniform if there are none)
    while the reported rate is the true max-min value 0.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._solutions: dict[tuple[int, tuple[int, ...]], tuple[tuple[float, ...], float]] = {}

    def target(self, h: int, S) -> tuple[tuple[float, ...], float]:
        h, opponents = _check_opponents(self.env, h, S)
        key = (h, tuple(opponents))
        hit = self._solutions.get(key)
        if hit is not None:
            return hit
        maxd = self.env.max_divergence
        live = [g for g in opponents if maxd[h][g] > 0.0]
        if live:
            sol = oracle_allocation(self.env, h, live)
            value = (sol.allocation.weights, sol.rate if len(live) == len(opponents) else 0.0)
        else:
            n = self.env.num_actions
            value = (tuple(1.0 / n for _ in range(n)), 0.0)
        self._solutions[key] = value
        return value
