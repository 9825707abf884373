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
from dataclasses import asdict
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
    p_trial.add_argument("--policy", required=True, choices=POLICY_KINDS)
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
    p_diag.add_argument("--policy", default="FullElim", choices=POLICY_KINDS,
                        help="policy of the recorded trial")
    p_diag.add_argument("--delta", type=float, default=0.1)
    p_diag.add_argument("--alpha", type=float, default=1.0)
    p_diag.add_argument("--out", required=True, help="trace JSON path")
    p_diag.add_argument("--plot-dir", default=None,
                        help="also write the four plot-ready panel files here")

    return parser


def _check_out_dir(out: str) -> None:
    """Raise the error that writing ``out`` would raise on a missing
    directory or on a directory at ``out``, before the run spends its time;
    a file already at ``out`` stays untouched until the run succeeds."""
    if not Path(out).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
    if Path(out).is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)


def _write_manifest(command: str, out: str, config: dict) -> None:
    manifest = {"tool": "activeht", "version": __version__, "command": command, "config": config}
    Path(str(out) + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _cmd_env(args) -> int:
    env = load_environment(args.env)
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


def _cmd_solve_oracle(args) -> int:
    from .oracle import oracle_allocation

    env = load_environment(args.env)
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


def _cmd_trial(args) -> int:
    from .engine import run_trial

    cfg = _policy_config(args, args.policy)
    env = load_environment(args.env)
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


def _cmd_sweep(args) -> int:
    """exp1 and exp2 differ only in the grids they build."""
    from .engine import resolve_config
    from .harness import ExperimentConfig, run_sweep, summary_to_csv

    if args.command == "exp1":
        grids = dict(policies=tuple(p for p in args.policies.split(",") if p),
                     deltas=tuple(args.deltas), alphas=(1.0,))
    else:
        grids = dict(policies=("FullElim",), deltas=(args.delta,), alphas=tuple(args.alphas))
    ecfg = ExperimentConfig(
        environment=load_environment(args.env), true_h=args.true_h, **grids,
        trials=args.trials, base_seed=args.seed, workers=args.workers, out=args.out,
        b=args.b, c=args.c, max_steps=args.max_steps)
    # c resolves from K alone, so the first cell's c is every cell's.
    first = ecfg.policy_config(ecfg.policies[0], ecfg.deltas[0], ecfg.alphas[0])
    _check_out_dir(args.out)
    rows = run_sweep(ecfg)
    _write_manifest(args.command, args.out, {
        **asdict(ecfg), "environment": args.env, "c": resolve_config(first, ecfg.environment).c,
        "environment_sha256": ecfg.environment.sha256()})
    print(summary_to_csv(rows), end="")
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    from .engine import resolve_config, run_trial

    cfg = _policy_config(args, args.policy)
    env = load_environment(args.env)
    _check_out_dir(args.out)
    # A file at or above --plot-dir would fail the panels' mkdir after the trial.
    for p in [Path(args.plot_dir), *Path(args.plot_dir).parents] if args.plot_dir else ():
        if p.exists() and not p.is_dir():
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(p))
    trace = run_trial(env, args.true_h, cfg, args.seed, record_diagnostics=True).diagnostics
    Path(args.out).write_text(json.dumps(trace.to_document()) + "\n")
    _write_manifest("diagnose", args.out, {"environment": args.env, "true_h": args.true_h,
                                           "seed": args.seed, "out": args.out,
                                           **asdict(resolve_config(cfg, env))})
    if args.plot_dir is not None:
        paths = emit_plot_data(trace, args.plot_dir)
        for p in paths:
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
    paths = []

    lines = ["t,champion,removed,active_size,active_members"]
    for step, champion, removed, survivors in zip(
        trace.t, trace.champion, trace.events, trace.active_set
    ):
        if removed:
            lines.append(
                f"{step},{champion},{';'.join(map(str, removed))},{len(survivors)},"
                f"{';'.join(map(str, survivors))}"
            )
    paths.append(_write_lines(out / "active_set.csv", lines))

    lines = ["t," + ",".join(f"w{a}" for a in range(len(trace.alloc[0])))]
    for step, alloc in zip(trace.t, trace.alloc):
        lines.append(f"{step}," + ",".join(f"{w:.6f}" for w in alloc))
    paths.append(_write_lines(out / "allocation.csv", lines))

    lines = ["t,min_Z,beta_elim"]
    for step, z, beta in zip(trace.t, trace.min_z, trace.beta_elim):
        lines.append(f"{step},{z:.6f},{beta:.6f}")
    paths.append(_write_lines(out / "evidence.csv", lines))

    lines = ["t,oracle_rate,empirical_rate"]
    for step, orate, erate in zip(trace.t, trace.oracle_rate, trace.empirical_rate):
        if orate is not None:
            lines.append(f"{step},{orate:.8f},{erate:.8f}")
    paths.append(_write_lines(out / "rates.csv", lines))
    return paths


def _write_lines(path: Path, lines) -> Path:
    path.write_text("\n".join(lines) + "\n")
    return path


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
    try:
        return _COMMANDS[args.command](args)
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
