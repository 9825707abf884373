"""Summary rows read back from a CSV, and their cap-inclusive views."""

from pathlib import Path

from activeht import SummaryRow
from activeht.harness import CSV_HEADER


def read_summary_csv(path) -> list[SummaryRow]:
    """Rows of a summary CSV.  ``wrong`` is recovered from the 6-decimal
    ``error_rate``, which pins it while fewer than 10^6 trials completed."""
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0] != CSV_HEADER:
        raise ValueError(f"{path} does not carry the expected summary header")
    rows = []
    for line in text[1:]:
        env, policy, delta, alpha, mean, stderr, err, timeouts, trials = line.split(",")
        completed = int(trials) - int(timeouts)
        rows.append(SummaryRow(
            environment=env, policy=policy, delta=float(delta), alpha=float(alpha),
            mean_tau=float(mean), stderr_tau=float(stderr), error_rate=float(err),
            timeouts=int(timeouts), trials=int(trials),
            wrong=round(float(err) * completed) if completed else 0,
        ))
    return rows


def completed(row: SummaryRow) -> int:
    """Number of trials that stopped before the cap."""
    return row.trials - row.timeouts


def failure_rate(row: SummaryRow) -> float:
    """Fraction of trials that were wrong or never stopped."""
    return (row.wrong + row.timeouts) / row.trials


def capped_mean_tau(row: SummaryRow, max_steps: int) -> float:
    """Mean stopping time with timed-out trials entering at the cap."""
    done = completed(row)
    if done == 0:
        return float(max_steps)
    return (row.mean_tau * done + row.timeouts * max_steps) / row.trials
