"""Sweep benchmark for activeht.

Run from the repository root:

    python3 perfbench/run.py --workload exp1-skewed --seed 0 --seconds 30 --trace 0

Every workload is an ``activeht exp1`` sweep over the four policies and the
default five-delta grid, run through the command-line front end in a fresh
interpreter, the way a user runs a sweep.  The workloads and the reason for
each are in workloads.json.

``--trace 0`` reports the end-to-end metrics: the medians over the sweep
units (one sweep per workload environment) that fit in ``--seconds``, plus
``setup_s``, the median wall time of a fresh ``activeht env --env <env>``
over runs spread through the measurement.  Every time is divided by the host
slowdown a ``SpeedProbe`` measured on the same CPUs while the command ran, so
it reads as seconds on an uncontended CPU; the unadjusted medians are printed
too.  ``--trace 1`` reports the per-layer
metrics from the traced run in layers.py.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it give every metric with its unit, the failed-cell share
and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

from sweeps import (
    DEFAULT_SEED,
    DELTAS,
    POLICIES,
    ROOT,
    SRC,
    WORKLOADS,
    SpeedProbe,
    check_pinned_unit,
    digests,
    machine_facts,
    make_inputs,
    program_present,
    run_unit,
    setup_time,
)

SETUP_REPS = 7  # measured set-up runs at least: one before each unit, the rest after
MIN_UNITS = 3

METRIC_UNITS = {
    "trials_per_s": "1/s",
    "trial_steps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def end_to_end(name: str, seed: int, seconds: int, workdir) -> tuple[dict, int, int, dict]:
    wl = WORKLOADS[name]
    allowed = sorted(os.sched_getaffinity(0))
    if wl["workers"] == 1:
        # A serial sweep and the probe share one CPU, so the probe sees the
        # contention of the CPU the sweep runs on.
        os.sched_setaffinity(0, {allowed[0]})
        probe = SpeedProbe(allowed[:1])
    else:
        probe = SpeedProbe(allowed)
    inputs = make_inputs(wl, seed, workdir)
    setup_env = inputs[0][0]
    # The first run writes the bytecode cache and is not measured; the
    # measured set-up runs are spread over the run, one before each unit.
    setups, oks = [], [setup_time(setup_env, workdir, "env-warmup", probe)[2]]
    units, reference, failed = [], None, 0
    start = time.perf_counter()
    while len(units) < MIN_UNITS or (
        time.perf_counter() - start + statistics.median(u["wall_s"] for u in units) <= seconds
    ):
        wall, slowdown, ok = setup_time(setup_env, workdir, f"env{len(setups)}", probe)
        setups.append((wall, slowdown))
        oks.append(ok)
        unit, rows, bad = run_unit(wl, inputs, seed, workdir, f"sweep{len(units)}", probe)
        if reference is None and not bad:
            reference = rows
        elif reference is not None:
            # Repeats of one unit must print the same rows.
            bad |= {key for key, line in rows.items() if reference.get(key) != line}
        failed += len(bad)
        unit["bad_cells"] = len(bad)
        units.append(unit)
    while len(setups) < SETUP_REPS:
        wall, slowdown, ok = setup_time(setup_env, workdir, f"env{len(setups)}", probe)
        setups.append((wall, slowdown))
        oks.append(ok)
    cells = len(POLICIES) * len(DELTAS) * len(inputs)
    attempted = cells * len(units) + len(oks)
    failed += oks.count(False)
    if seed != DEFAULT_SEED:
        pinned_attempted, pinned_failed = check_pinned_unit(wl, workdir, probe)
        attempted += pinned_attempted
        failed += pinned_failed
    trials = cells * wl["trials"]
    metrics = {
        "trials_per_s": statistics.median(trials / u["adj_wall_s"] for u in units),
        "trial_steps_per_s": statistics.median(u["steps"] / u["adj_wall_s"] for u in units),
        "cpu_s": statistics.median(u["adj_cpu_s"] for u in units),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
        "setup_s": statistics.median(wall / slowdown for wall, slowdown in setups),
    }
    detail = {
        "units": units,
        "setups": setups,
        "raw": {
            "trials_per_s": statistics.median(trials / u["wall_s"] for u in units),
            "trial_steps_per_s": statistics.median(u["steps"] / u["wall_s"] for u in units),
            "cpu_s": statistics.median(u["cpu_s"] for u in units),
            "setup_s": statistics.median(wall for wall, _ in setups),
        },
        "row_digests": digests(reference or {}),
        "failed_frac": failed / attempted,
    }
    return metrics, attempted, failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="activeht sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds at least 1")
    if not program_present():
        print(f"benchmark: no activeht sources under {SRC}", file=sys.stderr)
        return 2

    facts = machine_facts()
    workdir = ROOT / ".perfbench_work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            sys.path.insert(0, str(SRC))
            import layers

            metrics, metric_units, attempted, failed, detail = layers.traced_run(
                args.workload, args.seed, workdir)
        else:
            metrics, attempted, failed, detail = end_to_end(
                args.workload, args.seed, args.seconds, workdir)
            metric_units = METRIC_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = machine_facts(facts)
    facts.update(loadavg_before=facts.pop("loadavg"), loadavg_after=after["loadavg"],
                 steal_share=after.get("steal_share"))
    del facts["cpu_ticks"]

    for key, value in metrics.items():
        print(f"{args.workload} seed={args.seed}: {key} = {value:.6g} {metric_units[key]}")
    if not args.trace:
        print(f"{args.workload} seed={args.seed}: failed_frac = {failed / attempted:.6g} "
              f"({failed} of {attempted} cells and setup runs)")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": facts, **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": metric_units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
