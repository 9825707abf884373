import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import activeht
from activeht import OracleCache, load_environment, oracle_allocation, worst_case_rate

# Base seed for every seeded statistical check in the suite; results are
# deterministic, so the asserted bands hold on every run.
BASE_SEED = 20240811

# The certificate's gap, max_a sum_g lambda_g d_a(h, g) minus the rate, as a
# share of the LP's largest divergence.  On 9,000 seeded random LPs (A and K
# up to 40, near-collapsed columns, sigma from 1e-3 to 1e2) it was at most
# 4.2e-7, and float rounding took it below 0 by at most 7e-17.
CERT_TOL = 1e-6
CERT_ROUNDING = 1e-15


def certified_allocation(env, h, S):
    """``oracle_allocation(env, h, S)``, checked against its dual weights.

    By weak duality no allocation's rate exceeds the lambda-average
    divergence of the best action, for lambda on the simplex, so a gap
    within CERT_TOL proves the returned rate optimal whatever the solver did.
    """
    sol = oracle_allocation(env, h, S)
    rows = env.kl_table[:, h, sorted({int(g) for g in S})]
    lam = np.array(sol.dual_weights)
    assert lam.shape == (rows.shape[1],)
    assert lam.min() >= 0.0
    assert abs(lam.sum() - 1.0) <= 1e-12
    gap = float((rows @ lam).max()) - worst_case_rate(env, h, S, sol.allocation)
    scale = float(rows.max())
    assert -CERT_ROUNDING * scale <= gap <= CERT_TOL * scale, (gap, scale)
    return sol


def run_fresh_python(code, **environ):
    """Run ``code`` in a fresh interpreter that imports this activeht, with
    ``environ`` over this process's environment (a None value unsets)."""
    src = str(Path(activeht.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **environ}
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


@pytest.fixture(scope="session")
def skewed():
    return load_environment("skewed")


@pytest.fixture(scope="session")
def hard_weak():
    return load_environment("hard-weak")


@pytest.fixture(scope="session")
def degenerate():
    return load_environment("degenerate")


@pytest.fixture(scope="session")
def caches(skewed, hard_weak, degenerate):
    return {
        "skewed": OracleCache(skewed),
        "hard-weak": OracleCache(hard_weak),
        "degenerate": OracleCache(degenerate),
    }
