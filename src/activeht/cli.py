"""Command-line front end: inspect environments, solve allocations, run trials
and experiment sweeps, and dump plot-ready diagnostics.

Exit codes are stable: 0 success, 1 runtime/I-O failure, 2 usage error
(unknown command or flag), 3 validation error (a flag value the config objects
reject as out of range, or a malformed environment document).
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import sys
from pathlib import Path

from . import __version__
from .defaults import ALPHA_GRID, DEFAULT_B, DEFAULT_C_OFFSET, DELTA_GRID, POLICY_KINDS
from .model import PRESET_NAMES, load_environment

# Each command imports the engine, the oracle or the sweep driver only when it
# runs, so `env` loads none of them and `solve-oracle` only the oracle.

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3

# Library trials default to an effectively unbounded cap; the CLI uses a cap
# that keeps a full sweep finite even for policies that can stall forever
# (the greedy baseline deadlocks on the degenerate environment).  Stalled
# trials of every kind run ahead to the cap in blocks of steps while their
# batch holds at most 1,024 log-likelihoods (see activeht.engine).
CLI_MAX_STEPS = 20_000

# The panel files `diagnose --plot-dir` writes, in emit_plot_data's order.
PANEL_FILES = ("active_set.csv", "allocation.csv", "evidence.csv", "rates.csv")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {text!r}") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="activeht",
        description="Active multi-hypothesis testing: policies, oracle, experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared across subcommands are declared once, in parent parsers.
    env_flags = argparse.ArgumentParser(add_help=False)
    env_flags.add_argument(
        "--env", required=True,
        help=f"environment preset ({', '.join(PRESET_NAMES)}) or JSON file path",
    )
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--true-h", type=int, default=0, help="index of the true hypothesis")
    run_flags.add_argument("--seed", type=int, default=0)
    run_flags.add_argument(
        "--b", type=float, default=DEFAULT_B,
        help="threshold slope (b = 0 with c = log(K-1) is the proven pair)")
    run_flags.add_argument(
        "--c", type=float, default=None,
        help=f"threshold offset (default log(max(K-1, 4)) - {-DEFAULT_C_OFFSET:g})")
    run_flags.add_argument("--max-steps", type=int, default=CLI_MAX_STEPS)
    sweep_flags = argparse.ArgumentParser(add_help=False)
    sweep_flags.add_argument("--trials", type=int, default=1000)
    sweep_flags.add_argument("--workers", type=int, default=1)
    sweep_flags.add_argument("--out", required=True, help="output CSV path")

    sub.add_parser("env", parents=[env_flags], help="inspect an environment")

    p_solve = sub.add_parser("solve-oracle", parents=[env_flags],
                             help="solve the max-min allocation")
    p_solve.add_argument("--h", type=int, required=True, help="candidate hypothesis index")
    p_solve.add_argument(
        "--opponents", type=_int_list, required=True,
        help="comma-separated opponent hypothesis indices",
    )

    p_trial = sub.add_parser("trial", parents=[env_flags, run_flags],
                             help="run a single seeded trial")
    p_trial.add_argument("--policy", required=True, help="one of " + ", ".join(POLICY_KINDS))
    p_trial.add_argument("--delta", type=float, required=True, help="confidence level in (0,1)")
    p_trial.add_argument("--alpha", type=float, default=1.0, help="elimination aggressiveness in (0,1]")

    p_exp1 = sub.add_parser("exp1", parents=[env_flags, run_flags, sweep_flags],
                            help="confidence sweep: all policies over a delta grid")
    p_exp1.add_argument("--deltas", type=_float_list, default=DELTA_GRID)
    p_exp1.add_argument("--policies", default=",".join(POLICY_KINDS),
                        help="comma-separated subset of " + ",".join(POLICY_KINDS))

    p_exp2 = sub.add_parser("exp2", parents=[env_flags, run_flags, sweep_flags],
                            help="aggressiveness sweep at a fixed delta")
    p_exp2.add_argument("--delta", type=float, default=0.1)
    p_exp2.add_argument("--alphas", type=_float_list, default=ALPHA_GRID)

    p_diag = sub.add_parser("diagnose", parents=[env_flags, run_flags],
                            help="record one trial's internal dynamics")
    p_diag.add_argument("--policy", default="FullElim",
                        help="policy of the recorded trial, one of " + ", ".join(POLICY_KINDS))
    p_diag.add_argument("--delta", type=float, default=0.1)
    p_diag.add_argument("--alpha", type=float, default=1.0)
    p_diag.add_argument("--out", required=True, help="trace JSON path")
    p_diag.add_argument("--plot-dir", default=None,
                        help="also write the four plot-ready panel files here")

    return parser


def _check_outputs(out: str, plot_dir: str | None = None) -> None:
    """Raise before any trial the error that writing ``out``, its manifest or
    a ``plot_dir`` panel file would raise after it.  This writes nothing."""
    if not Path(out).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
    if Path(out).is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    files = [Path(out + ".manifest.json")]
    if plot_dir is not None:
        # A file at or above plot_dir would fail the panels' mkdir; a panel at
        # out, or a plot_dir at or under out or its manifest, would overwrite
        # one output with another.
        for p in [Path(plot_dir), *Path(plot_dir).parents]:
            if p.exists() and not p.is_dir():
                raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(p))
        target, panels = Path(out).resolve(), Path(plot_dir).resolve()
        written = {target, target.with_name(target.name + ".manifest.json")}
        if target in [panels / name for name in PANEL_FILES] or written & {panels, *panels.parents}:
            raise FileExistsError(errno.EEXIST, "--out and --plot-dir overlap", plot_dir)
        files += [Path(plot_dir) / name for name in PANEL_FILES]
    for f in files:
        if f.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(f))


def _write_manifest(command: str, out: str, config: dict) -> None:
    manifest = {"tool": "activeht", "version": __version__, "command": command, "config": config}
    Path(str(out) + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _cmd_env(args, env) -> int:
    doc = {
        "name": env.name,
        "num_hypotheses": env.num_hypotheses,
        "num_actions": env.num_actions,
        "sigma": env.sigma,
        "means": [list(row) for row in env.means],
        "indistinguishable_pairs": env.indistinguishable_pairs(),
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_solve_oracle(args, env) -> int:
    from .oracle import oracle_allocation

    sol = oracle_allocation(env, args.h, args.opponents)
    doc = {
        "environment": env.name,
        "h": args.h,
        "opponents": sorted(set(args.opponents)),
        "weights": [round(w, 12) for w in sol.allocation.weights],
        "rate": sol.rate,
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _policy_config(args, kind: str):
    from .engine import PolicyConfig

    return PolicyConfig(kind=kind, delta=args.delta, alpha=args.alpha,
                        b=args.b, c=args.c, max_steps=args.max_steps)


def _cmd_trial(args, env) -> int:
    from .engine import run_trial

    cfg = _policy_config(args, args.policy)
    result = run_trial(env, args.true_h, cfg, args.seed)
    doc = {
        "environment": env.name,
        "policy": args.policy,
        "seed": args.seed,
        "tau": result.tau,
        "recommendation": result.recommendation,
        "correct": result.correct,
        "timed_out": result.timed_out,
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_sweep(args, env) -> int:
    """exp1 and exp2 differ only in the grids they build."""
    from dataclasses import asdict  # here, so that the light commands do not load it
    from .engine import resolve_config
    from .harness import ExperimentConfig, run_sweep, summary_to_csv

    if args.command == "exp1":
        grids = dict(policies=tuple(p.strip() for p in args.policies.split(",") if p.strip()),
                     deltas=tuple(args.deltas), alphas=(1.0,))
    else:
        grids = dict(policies=("FullElim",), deltas=(args.delta,), alphas=tuple(args.alphas))
    ecfg = ExperimentConfig(
        environment=env, true_h=args.true_h, **grids,
        trials=args.trials, base_seed=args.seed, workers=args.workers,
        b=args.b, c=args.c, max_steps=args.max_steps)
    # c resolves from K alone, so the first cell's c is every cell's.
    first = ecfg.policy_config(ecfg.policies[0], ecfg.deltas[0], ecfg.alphas[0])
    _check_outputs(args.out)
    csv = summary_to_csv(run_sweep(ecfg))
    Path(args.out).write_text(csv)
    _write_manifest(args.command, args.out, {
        **asdict(ecfg), "out": args.out, "environment": args.env,
        "c": resolve_config(first, env).c, "environment_sha256": env.sha256()})
    print(csv, end="")
    return EXIT_OK


def _cmd_diagnose(args, env) -> int:
    from dataclasses import asdict
    from .engine import resolve_config, run_trial

    cfg = _policy_config(args, args.policy)
    _check_outputs(args.out, args.plot_dir)
    trace = run_trial(env, args.true_h, cfg, args.seed, record_diagnostics=True).diagnostics
    Path(args.out).write_text(json.dumps(trace.to_document()) + "\n")
    _write_manifest("diagnose", args.out, {"environment": args.env, "true_h": args.true_h,
                                           "seed": args.seed, "out": args.out,
                                           **asdict(resolve_config(cfg, env))})
    if args.plot_dir is not None:
        for p in emit_plot_data(trace, args.plot_dir):
            print(p)
    print(f"trace written to {args.out} ({len(trace.t)} rounds)")
    return EXIT_OK


def emit_plot_data(trace, out_dir) -> list[Path]:
    """Write the four plot-ready panel files for a recorded trace, which
    holds at least one round.

    active_set.csv has one row per elimination event; allocation.csv,
    evidence.csv and rates.csv have one row per round (rates.csv skips the
    final round, where the surviving-opponent set is empty).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    active = ["t,champion,removed,active_size,active_members"]
    for step, champion, removed, survivors in zip(
        trace.t, trace.champion, trace.events, trace.active_set
    ):
        if removed:
            active.append(
                f"{step},{champion},{';'.join(map(str, removed))},{len(survivors)},"
                f"{';'.join(map(str, survivors))}"
            )

    allocation = ["t," + ",".join(f"w{a}" for a in range(len(trace.alloc[0])))]
    for step, alloc in zip(trace.t, trace.alloc):
        allocation.append(f"{step}," + ",".join(f"{w:.6f}" for w in alloc))

    evidence = ["t,min_Z,beta_elim"]
    for step, z, beta in zip(trace.t, trace.min_z, trace.beta_elim):
        evidence.append(f"{step},{z:.6f},{beta:.6f}")

    rates = ["t,oracle_rate,empirical_rate"]
    for step, orate, erate in zip(trace.t, trace.oracle_rate, trace.empirical_rate):
        if orate is not None:
            rates.append(f"{step},{orate:.8f},{erate:.8f}")

    paths = [out / name for name in PANEL_FILES]
    for path, lines in zip(paths, (active, allocation, evidence, rates)):
        path.write_text("\n".join(lines) + "\n")
    return paths


_COMMANDS = {
    "env": _cmd_env,
    "solve-oracle": _cmd_solve_oracle,
    "trial": _cmd_trial,
    "exp1": _cmd_sweep,
    "exp2": _cmd_sweep,
    "diagnose": _cmd_diagnose,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    # Every command loads --env here, first, so a bad one is the first fault.
    try:
        return _COMMANDS[args.command](args, load_environment(args.env))
    # ModelError and OracleError subclass ValueError.
    except (ValueError, IndexError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    code = dispatch(sys.argv[1:])
    # The interpreter's closing collections would traverse every object left
    # alive, numpy's included, only to find no garbage; frozen objects are
    # skipped.  atexit handlers, stream flushes and module teardown still run.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
