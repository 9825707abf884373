"""Policy kinds, threshold defaults and sweep grids.

The engine, the sweep driver and the command-line parser share these; the
module imports nothing, so the parser is built without loading numpy.
"""

POLICY_KINDS = ("Greedy", "TaS", "StopElim", "FullElim")

# Threshold shape: beta(t) = (alpha *) log(1/delta) + b*log(t) + c.  The slope
# b and offset c trade identification speed against the rate of early false
# eliminations; these defaults are calibrated on the built-in environments
# (see tests) and can be overridden per run.  c defaults to the union-bound
# offset log(K - 1), raised to log 4 for K <= 4, plus a calibrated shift.
DEFAULT_B = 0.8
DEFAULT_C_OFFSET = -1.7863

DELTA_GRID = (0.1, 0.05, 0.01, 0.005, 0.001)
ALPHA_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)
