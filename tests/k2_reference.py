"""Exact stopping law of a track-and-stop (TaS) trial on a two-hypothesis
environment, computed without the engine.

At K = 2 each candidate's only opponent is the other one, and the max-min
allocation of (h, {g}) puts all its weight on the action that separates h
from g most.  Both candidates then share one target, so C-tracking's actions
follow from that target and the forced-exploration floor alone and are the
same on every path.  Given the action a, D = L_h - L_g (h the true
hypothesis) moves by N(d_a, 2 d_a), where d_a = gap_a**2 / (2 sigma**2) and
gap_a = means[a][h] - means[a][g].  The trial stops at the first t with
|D_t| >= beta_t = log(1/delta) + b log t + c, correctly when D_t > 0.

The law of D over the continuation region (-beta_t, beta_t) is carried on a
grid of cells (Brook & Evans, Biometrika 1972): a cell's mass sits at its
centre and moves by the Gaussian kernel integrated over each destination
cell.  The kernel spans every offset of the grid, which covers the widest
region up to the cap, so no mass leaks.  The stopped mass and the mass of
the two cells the region's edges cut are integrated from each centre
exactly.  Only ``oracle_allocation`` and the package defaults are used.
"""

from math import erfc, log, sqrt

import numpy as np

from activeht import oracle_allocation


def _cdf(x):
    """Standard normal CDF of each entry of ``x``."""
    return np.fromiter((0.5 * erfc(-v / sqrt(2.0)) for v in np.ravel(x)), float, np.size(x))


def tas_actions(env, true_h: int):
    """C-tracking's actions at steps 1, 2, ... of every K = 2 TaS trial, in
    the engine's float operations: eps_t = 1 / (2 sqrt(A^2 + t)) floors the
    shared target, and the largest deficit, lowest index on ties, is taken."""
    weights = oracle_allocation(env, true_h, [1 - true_h]).allocation.weights
    if oracle_allocation(env, 1 - true_h, [true_h]).allocation.weights != weights:
        raise ValueError("the two candidates track different targets")
    num_actions = len(weights)
    target = [0.0] * num_actions
    counts = [0.0] * num_actions
    wmin = min(weights)
    t = 0
    while True:
        eps = 0.5 / sqrt(num_actions * num_actions + t)
        eta = max(eps - wmin, 0.0) / (1.0 - num_actions * eps)
        deficits = []
        for a, w in enumerate(weights):
            target[a] += (w + eta) / (1.0 + num_actions * eta)
            deficits.append(target[a] - counts[a])
        action = deficits.index(max(deficits))
        counts[action] += 1.0
        t += 1
        yield action


def tas_k2_law(env, true_h: int, delta: float, b: float, c: float, max_steps: int,
               dx: float, tol: float = 1e-14) -> dict:
    """P(correct stop), P(wrong stop), P(timeout) and E[tau | stop] of a K = 2
    TaS trial with cell width ``dx``.

    The recursion ends at the cap, where the mass left is P(timeout), or
    once that mass is below ``tol``, which then bounds P(timeout).
    """
    if env.num_hypotheses != 2:
        raise ValueError("the reference covers K = 2 only")
    g = 1 - true_h
    gaps = [row[true_h] - row[g] for row in env.means]
    drift = [gap * gap / (2.0 * env.sigma**2) for gap in gaps]
    spread = [abs(gap) / env.sigma for gap in gaps]
    if not all(spread):
        raise ValueError("every action must separate the two hypotheses")
    level = log(1.0 / delta)
    widest = level + b * log(max_steps) + c
    half = int(widest / dx) + 2
    n = 2 * half + 1
    centres = (np.arange(n) - half) * dx
    offsets = np.arange(-(n - 1), n + 1) * dx  # lower edges of offsets -(n-1)..n
    size = 1 << (3 * n).bit_length()
    # below[a][k]: P(step < lower edge of offset k - (n - 1)); kernel[a] is its
    # difference, one cell's share; spectrum[a] its FFT for the convolution.
    below = [_cdf((offsets - dx / 2 - m) / s) for m, s in zip(drift, spread)]
    spectrum = [np.fft.rfft(np.diff(cum), size) for cum in below]

    mass = np.zeros(n)
    mass[half] = 1.0
    correct = wrong = stop_time = 0.0
    actions = tas_actions(env, true_h)
    t = 0
    while t < max_steps:
        t += 1
        a = next(actions)
        m, s = drift[a], spread[a]
        beta = level + b * log(t) + c
        live = np.flatnonzero(mass)
        src, p = centres[live], mass[live]
        up = _cdf((src + m - beta) / s)
        down = _cdf((-beta - src - m) / s)
        step_correct, step_wrong = float(p @ up), float(p @ down)
        correct += step_correct
        wrong += step_wrong
        stop_time += t * (step_correct + step_wrong)

        moved = np.fft.irfft(np.fft.rfft(mass, size) * spectrum[a], size)[n - 1:2 * n - 1]
        top = half + int(np.floor(beta / dx + 0.5))  # the cell holding beta
        bottom = n - 1 - top
        cum = below[a]
        moved[top] = p @ (1.0 - up - cum[top - live + n - 1])
        moved[bottom] = p @ (cum[bottom - live + n] - down)
        moved[top + 1:] = 0.0
        moved[:bottom] = 0.0
        mass = moved
        if mass.sum() < tol:
            break
    stopped = correct + wrong
    return {"correct": correct, "wrong": wrong, "timeout": float(mass.sum()),
            "mean_tau": stop_time / stopped}
