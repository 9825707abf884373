"""Shared pieces of the sweep benchmark: workload inputs, CLI runs, output checks."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "workloads.json").read_text())
WORKLOADS = SPEC["workloads"]
DEFAULT_SEED = SPEC["default_seed"]

# Every workload is the full exp1 grid: the four policies times the CLI's
# default five-delta grid.  The expected cells are fixed here, not read from
# the program, so a sweep that drops or adds a cell is caught.
POLICIES = ("Greedy", "TaS", "StopElim", "FullElim")
DELTAS = (0.1, 0.05, 0.01, 0.005, 0.001)
CSV_HEADER = "environment,policy,delta,alpha,mean_tau,stderr_tau,error_rate,timeouts,trials"
K24_SIZE = 24


def program_present() -> bool:
    return (SRC / "activeht" / "cli.py").is_file()


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def cpu_ticks() -> list[int] | None:
    """The machine-wide CPU tick counters (user, nice, system, idle, iowait,
    irq, softirq, steal) from /proc/stat."""
    try:
        return [int(x) for x in Path("/proc/stat").read_text().split()[1:9]]
    except (OSError, ValueError):
        return None


def machine_facts(before: dict | None = None) -> dict:
    """nproc, versions and load; given the facts taken before a run, also the
    share of CPU ticks stolen by the host during it."""
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": loadavg(),
        "cpu_ticks": cpu_ticks(),
    }
    if before and before["cpu_ticks"] and facts["cpu_ticks"]:
        delta = [b - a for a, b in zip(before["cpu_ticks"], facts["cpu_ticks"])]
        facts["steal_share"] = delta[7] / max(sum(delta), 1)
    return facts


def make_inputs(wl: dict, seed: int, workdir: Path) -> list[tuple[str, str]]:
    """The (--env argument, environment name in the CSV) of each sweep in a unit.

    A preset workload runs one sweep on its preset.  The K = A = 24 workload
    runs one sweep on each of ``wl["envs"]`` environments with means drawn
    uniformly from [0, 1] and sigma = 1, generated from the workload seed and
    handed to the CLI as JSON files: how fast trials end depends on how close
    the closest hypotheses of one draw are, and several draws average that out.
    """
    if wl["env"] != "k24":
        return [(wl["env"], wl["env"])]
    rng = np.random.default_rng(seed)
    inputs = []
    for i in range(wl["envs"]):
        means = rng.uniform(0.0, 1.0, size=(K24_SIZE, K24_SIZE))
        doc = {"name": f"k24-s{seed}-{i}", "means": means.tolist(), "sigma": 1.0}
        path = workdir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        inputs.append((str(path), doc["name"]))
    return inputs


class SpeedProbe:
    """A fixed pure-Python loop, independent of the program, timed again and
    again on the CPUs a command runs on while it runs.

    On a shared host, other tenants slow one CPU by up to 2x for seconds at a
    time, with no steal time to show for it.  The probe slows with the CPU
    it shares, so a command's time over the probe's time holds still where
    each alone swings.  ``slowdown`` is the median probe time over the
    probe's time on an uncontended CPU of the reference host.
    """

    REFERENCE_S = 4.3e-4
    GAP_S = 0.03

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self._table = [[float(i)] * 8 for i in range(1000)]
        self._next = 0

    def sample(self) -> float:
        allowed = os.sched_getaffinity(0)
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[self._next % len(self.cpus)]})
            self._next += 1
        t0 = time.perf_counter()
        acc = 0.0
        for row in self._table:
            for x in row:
                g = x - 0.5
                acc += g * g
        elapsed = time.perf_counter() - t0
        os.sched_setaffinity(0, allowed)
        return elapsed

    def watch(self, pid: int):
        """Sample until ``pid`` exits; its wait4 status and usage, and the slowdown."""
        samples = []
        while True:
            samples.append(self.sample())
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                return status, usage, statistics.median(samples) / self.REFERENCE_S
            time.sleep(self.GAP_S)


def run_cli(args: list[str], workdir: Path, tag: str, probe: SpeedProbe | None = None) -> dict:
    """Run ``activeht <args>`` in a fresh interpreter; wall, CPU, peak RSS and
    the host slowdown the probe saw meanwhile (1 without a probe).

    CPU and peak RSS come from wait4, so they include every pool worker the
    command started and reaped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out_path = workdir / f"{tag}.out"
    err_path = workdir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "activeht.cli", *args],
                                cwd=workdir, env=env, stdout=out, stderr=err)
        if probe is None:
            _, status, usage = os.wait4(proc.pid, 0)
            slowdown = 1.0
        else:
            status, usage, slowdown = probe.watch(proc.pid)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "slowdown": slowdown,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
    }


def setup_time(env_arg: str, workdir: Path, tag: str, probe: SpeedProbe) -> tuple[float, float, bool]:
    """Wall and slowdown of ``activeht env --env <env>``, and whether it
    printed the environment."""
    res = run_cli(["env", "--env", env_arg], workdir, tag, probe)
    ok = res["returncode"] == 0
    if ok:
        try:
            ok = json.loads(res["stdout"])["num_hypotheses"] >= 2
        except (ValueError, KeyError, TypeError):
            ok = False
    return res["wall_s"], res["slowdown"], ok


def sweep_args(wl: dict, env_arg: str, seed: int, csv_path: Path) -> list[str]:
    return ["exp1", "--env", env_arg, "--workers", str(wl["workers"]),
            "--trials", str(wl["trials"]), "--seed", str(seed), "--out", str(csv_path)]


def row_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def check_sweep(res: dict, csv_path: Path, wl: dict, env_name: str) -> dict:
    """Parse and validate one sweep's CSV.

    Returns the cap from the manifest, the row of each cell, the observation
    steps (timed-out trials count at the cap) and the set of bad cells: cells
    missing, malformed or out of range, or every cell when the command failed
    or its printed table differs from the file.
    """
    cells = {(p, f"{d:g}") for p in POLICIES for d in DELTAS}
    out = {"cap": None, "rows": {}, "steps": 0, "bad": set(cells), "csv": ""}
    if res["returncode"] != 0 or not csv_path.is_file():
        return out
    text = csv_path.read_text()
    out["csv"] = text
    try:
        manifest = json.loads(Path(str(csv_path) + ".manifest.json").read_text())
        cap = int(manifest["config"]["max_steps"])
    except (OSError, ValueError, KeyError, TypeError):
        return out
    out["cap"] = cap
    lines = text.splitlines()
    if res["stdout"] != text or not lines or lines[0] != CSV_HEADER:
        return out
    bad = set()
    trials = wl["trials"]
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 9 or (fields[1], fields[2]) not in cells:
            return out
        key = (fields[1], fields[2])
        if key in out["rows"]:
            return out
        out["rows"][key] = line
        try:
            mean, err, timeouts, n = float(fields[4]), float(fields[6]), int(fields[7]), int(fields[8])
        except ValueError:
            bad.add(key)
            continue
        completed = n - timeouts
        sane = (fields[0] == env_name and fields[3] == "1" and n == trials
                and 0 <= timeouts <= n)
        if sane and completed:
            sane = 1.0 <= mean <= cap and 0.0 <= err <= 1.0
        elif sane:
            sane = math.isnan(mean)
        if not sane:
            bad.add(key)
            continue
        out["steps"] += (round(mean * completed) if completed else 0) + timeouts * cap
    out["bad"] = bad | (cells - out["rows"].keys())
    return out


def pinned_mismatches(rows: dict, wl: dict, seed: int) -> set:
    """Cells whose row digest differs from the one pinned at the default seed.

    ``rows`` maps (environment, policy, delta) to the CSV row.
    """
    pinned = wl.get("pinned_rows") or {}
    if seed != DEFAULT_SEED or not pinned:
        return set()
    return {key for key in rows if pinned.get(",".join(key)) != row_digest(rows[key])}


def digests(rows: dict) -> dict:
    """Row digests keyed as in ``pinned_rows``: "environment,policy,delta"."""
    return {",".join(key): row_digest(line) for key, line in sorted(rows.items())}


def run_unit(wl: dict, inputs, seed: int, workdir: Path, tag: str,
             probe: SpeedProbe | None = None) -> tuple[dict, dict, set]:
    """One CLI sweep per workload environment: wall, CPU, step and
    host-speed-adjusted totals, the largest RSS, the rows keyed (environment,
    policy, delta) and the bad cells."""
    unit = {"wall_s": 0.0, "cpu_s": 0.0, "adj_wall_s": 0.0, "adj_cpu_s": 0.0,
            "peak_rss_mb": 0.0, "steps": 0}
    rows, bad = {}, set()
    for env_arg, env_name in inputs:
        csv_path = workdir / f"{tag}-{env_name}.csv"
        res = run_cli(sweep_args(wl, env_arg, seed, csv_path), workdir, f"{tag}-{env_name}",
                      probe)
        check = check_sweep(res, csv_path, wl, env_name)
        unit["wall_s"] += res["wall_s"]
        unit["cpu_s"] += res["cpu_s"]
        unit["adj_wall_s"] += res["wall_s"] / res["slowdown"]
        unit["adj_cpu_s"] += res["cpu_s"] / res["slowdown"]
        unit["peak_rss_mb"] = max(unit["peak_rss_mb"], res["peak_rss_mb"])
        unit["steps"] += check["steps"]
        rows.update({(env_name, *key): line for key, line in check["rows"].items()})
        bad |= {(env_name, *key) for key in check["bad"]}
    return unit, rows, bad | pinned_mismatches(rows, wl, seed)


def check_pinned_unit(wl: dict, workdir: Path,
                      probe: SpeedProbe | None = None) -> tuple[int, int]:
    """Attempted and failed cells of one unmeasured unit at the default seed.

    Rows are pinned at the default seed only, so a run at another seed runs
    this too, and every run checks the program's output against the pins.
    """
    inputs = make_inputs(wl, DEFAULT_SEED, workdir)
    _, _, bad = run_unit(wl, inputs, DEFAULT_SEED, workdir, "pinned", probe)
    return len(POLICIES) * len(DELTAS) * len(inputs), len(bad)
