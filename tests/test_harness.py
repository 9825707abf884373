import math
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

import activeht
from activeht import (
    ExperimentConfig,
    PolicyConfig,
    SummaryRow,
    TrialResult,
    aggregate,
    load_environment,
    run_sweep,
    run_trial,
    summary_to_csv,
    trial_seed,
)
from activeht import harness, oracle
from activeht.harness import CSV_HEADER

from conftest import BASE_SEED, run_fresh_python
from summary_rows import capped_mean_tau, completed, failure_rate, read_summary_csv


def _result(tau, correct=True, timed_out=False):
    return TrialResult(tau=tau, recommendation=0 if correct else 1,
                       correct=correct, timed_out=timed_out)


class TestAggregate:
    def test_simple_mean_and_zero_error(self):
        row = aggregate([_result(1), _result(2), _result(3)])
        assert row.mean_tau == pytest.approx(2.0)
        assert row.error_rate == 0.0
        assert row.timeouts == 0
        assert row.trials == 3

    def test_one_wrong_of_four(self):
        rows = [_result(5), _result(6), _result(7), _result(8, correct=False)]
        assert aggregate(rows).error_rate == pytest.approx(0.25)

    def test_single_trial_has_zero_stderr(self):
        row = aggregate([_result(17)])
        assert row.mean_tau == 17
        assert row.stderr_tau == 0.0

    def test_order_insensitive(self):
        results = [_result(3), _result(9, correct=False), _result(4, timed_out=True)]
        fwd = aggregate(results)
        rev = aggregate(list(reversed(results)))
        assert fwd == rev

    def test_timeouts_excluded_from_mean_and_counted(self):
        rows = [_result(10), _result(20), _result(500, timed_out=True)]
        row = aggregate(rows)
        assert row.mean_tau == pytest.approx(15.0)
        assert row.timeouts == 1
        assert completed(row) == 2

    def test_all_timed_out_flagged_with_no_mean(self):
        row = aggregate([_result(99, timed_out=True)] * 3)
        assert math.isnan(row.mean_tau)
        assert row.timeouts == row.trials == 3
        assert capped_mean_tau(row, 400) == 400.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_capped_views(self):
        rows = [_result(100), _result(200, correct=False), _result(1000, timed_out=True)]
        row = aggregate(rows)
        assert failure_rate(row) == pytest.approx(2 / 3)
        assert capped_mean_tau(row, 1000) == pytest.approx((100 + 200 + 1000) / 3)


class TestSeeding:
    def test_stable_and_sensitive(self):
        s = trial_seed(7, "TaS", 0.1, 1.0, 3)
        assert s == trial_seed(7, "TaS", 0.1, 1.0, 3)
        assert s != trial_seed(8, "TaS", 0.1, 1.0, 3)
        assert s != trial_seed(7, "FullElim", 0.1, 1.0, 3)
        assert s != trial_seed(7, "TaS", 0.05, 1.0, 3)
        assert s != trial_seed(7, "TaS", 0.1, 0.5, 3)
        assert s != trial_seed(7, "TaS", 0.1, 1.0, 4)
        assert 0 <= s < 2**63

    def test_integer_seeds_only(self):
        assert trial_seed(np.int64(7), "TaS", 0.1, 1.0, np.int32(3)) == trial_seed(
            7, "TaS", 0.1, 1.0, 3)
        # Seed 1.9 is rejected, not truncated to 1.
        for base_seed, index in ((1.9, 3), (7, 3.0), ("7", 3)):
            with pytest.raises(TypeError):
                trial_seed(base_seed, "TaS", 0.1, 1.0, index)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"trials": 0},
        {"deltas": ()},
        {"alphas": ()},
        {"policies": ()},
        {"deltas": (0.1, 1.5)},
        {"alphas": (0.0,)},
        {"policies": ("TaS", "Nope")},
        {"workers": 0},
        {"b": -1},
        {"max_steps": 0},
        {"policies": ("TaS", "TaS")},
        {"deltas": (0.1, 0.1)},
        {"alphas": (0.5, 0.5)},
        {"trials": 2.5},
        {"workers": 1.5},
        {"max_steps": 10.5},
        {"true_h": 1.5},
        {"base_seed": 1.5},
    ])
    def test_bad_configs_rejected(self, skewed, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(environment=skewed, **kwargs)

    def test_environment_is_a_loaded_environment(self):
        # The harness reads no file: a preset name is not an Environment.
        with pytest.raises(ValueError, match="load_environment"):
            ExperimentConfig(environment="skewed")
        assert not hasattr(harness, "load_environment")

    def test_counts_stored_as_ints(self, skewed):
        ecfg = ExperimentConfig(environment=skewed, trials=np.int64(3), workers=np.int32(2))
        assert type(ecfg.trials) is int and ecfg.trials == 3
        assert type(ecfg.workers) is int and ecfg.workers == 2


class TestSweeps:
    def test_delta_sweep_shape_and_order(self, skewed, tmp_path):
        out = tmp_path / "exp1.csv"
        ecfg = ExperimentConfig(
            environment=skewed, policies=("TaS", "FullElim"), deltas=(0.5, 0.3),
            trials=3, base_seed=BASE_SEED,
        )
        rows = run_sweep(ecfg)
        out.write_text(summary_to_csv(rows))
        assert len(rows) == 4
        assert [(r.policy, r.delta) for r in rows] == [
            ("FullElim", 0.5), ("FullElim", 0.3), ("TaS", 0.5), ("TaS", 0.3),
        ]
        assert all(r.alpha == 1.0 for r in rows)
        assert all(r.trials == 3 for r in rows)
        text = out.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        assert read_summary_csv(out) == [
            SummaryRow(r.environment, r.policy, r.delta, r.alpha,
                       pytest.approx(r.mean_tau), pytest.approx(r.stderr_tau),
                       pytest.approx(r.error_rate), r.timeouts, r.trials, r.wrong)
            for r in rows
        ]

    def test_sweep_runs_every_cell_of_the_grids(self, skewed):
        rows = run_sweep(ExperimentConfig(
            environment=skewed, policies=("TaS", "FullElim"), deltas=(0.5, 0.3),
            alphas=(1.0, 0.5), trials=2, base_seed=BASE_SEED))
        assert [(r.policy, r.delta, r.alpha) for r in rows] == [
            (kind, delta, alpha) for kind in ("FullElim", "TaS")
            for delta in (0.5, 0.3) for alpha in (0.5, 1.0)]
        assert ExperimentConfig(environment=skewed).alphas == (1.0,)
        assert activeht.run_delta_sweep is activeht.run_sweep

    def test_alpha_sweep_alpha_one_row_matches_delta_sweep_cell(self, skewed):
        common = dict(environment=skewed, trials=25, base_seed=BASE_SEED)
        d_rows = run_sweep(ExperimentConfig(
            policies=("FullElim",), deltas=(0.1,), **common))
        a_rows = run_sweep(ExperimentConfig(
            policies=("FullElim",), deltas=(0.1,), alphas=(0.5, 1.0), **common))
        assert len(a_rows) == 2
        a_one = next(r for r in a_rows if r.alpha == 1.0)
        d_cell = d_rows[0]
        assert a_one.mean_tau == d_cell.mean_tau
        assert a_one.stderr_tau == d_cell.stderr_tau
        assert a_one.error_rate == d_cell.error_rate

    def test_delta_sweep_alpha_one_error_within_pac_band(self, skewed):
        trials = 150
        rows = run_sweep(ExperimentConfig(
            environment=skewed, policies=("FullElim",), deltas=(0.1,),
            trials=trials, base_seed=BASE_SEED))
        delta = 0.1
        band = delta + 3 * math.sqrt(delta * (1 - delta) / trials)
        assert rows[0].error_rate <= band

    def test_elimination_beats_baseline_on_skewed(self, skewed):
        rows = run_sweep(ExperimentConfig(
            environment=skewed, policies=("TaS", "FullElim"), deltas=(0.05,),
            trials=150, base_seed=BASE_SEED))
        by_policy = {r.policy: r for r in rows}
        assert by_policy["FullElim"].mean_tau < by_policy["TaS"].mean_tau

    def test_alpha_sweep_tradeoff_on_hard_weak(self, hard_weak):
        # Aggressive elimination trades reliability for speed: at the most
        # aggressive setting the error rate overshoots the nominal budget,
        # and the stopping time grows back as alpha approaches 1.
        rows = run_sweep(ExperimentConfig(
            environment=hard_weak, policies=("FullElim",), deltas=(0.1,), alphas=(0.2, 1.0),
            trials=200, base_seed=BASE_SEED))
        by_alpha = {r.alpha: r for r in rows}
        assert by_alpha[0.2].error_rate > 0.1
        assert by_alpha[1.0].error_rate <= 0.1
        assert by_alpha[0.2].mean_tau < by_alpha[1.0].mean_tau

    def test_two_worker_sweeps_equal_the_serial_sweeps_byte_for_byte(self, degenerate):
        # 7 trials per cell split each policy's batch across cell boundaries;
        # the cap times some trials out.
        # The confidence sweep's cells, then the aggressiveness sweep's.
        for grids in (
                dict(deltas=(0.3, 0.1, 0.05)),
                dict(policies=("FullElim",), deltas=(0.3,), alphas=(0.5, 1.0))):
            csvs = []
            for workers in (1, 2):
                csvs.append(summary_to_csv(run_sweep(ExperimentConfig(
                    environment=degenerate, **grids,
                    trials=7, base_seed=BASE_SEED, workers=workers, max_steps=400))))
            assert csvs[0] == csvs[1]
            assert any(int(line.split(",")[7]) for line in csvs[0].splitlines()[1:])

    def test_spawn_pool_matches_serial(self, skewed, monkeypatch):
        # A platform without fork: the pool falls back to the first listed
        # method, and spawned workers rebuild each job's environment.
        used = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: used.append(method) or get_context(method))
        rows = [run_sweep(ExperimentConfig(
            environment=skewed, policies=("TaS", "FullElim"), deltas=(0.3,),
            trials=8, base_seed=BASE_SEED, workers=workers)) for workers in (1, 2)]
        assert used == ["spawn"]
        assert rows[0] == rows[1]


class TestSerialSweep:
    def test_oracle_solves_only_the_sets_running_trials_track(self, skewed, monkeypatch):
        # exp1-sized serial sweeps: solving a set that no running trial
        # tracks (every candidate's full set up front, or a finished trial's
        # set) raises these counts.
        solves = []
        solve = oracle.oracle_allocation
        monkeypatch.setattr(oracle, "oracle_allocation",
                            lambda env, h, S: solves.append((h, S)) or solve(env, h, S))
        run_sweep(ExperimentConfig(environment=skewed, trials=20))
        assert len(solves) == 32
        solves.clear()
        means = np.random.default_rng(0).uniform(0.0, 1.0, (24, 24))
        k24 = load_environment({"name": "k24", "means": means.tolist(), "sigma": 1.0})
        run_sweep(ExperimentConfig(environment=k24, trials=2, max_steps=20_000))
        assert len(solves) == 201

    def test_serial_sweep_leaves_multiprocessing_unloaded(self):
        # Only a pool imports multiprocessing; checked in a fresh interpreter,
        # since this one has imported it.
        code = ("import sys\n"
                "import activeht.cli\n"
                "from activeht import ExperimentConfig, load_environment, run_sweep\n"
                "run_sweep(ExperimentConfig(environment=load_environment('skewed'),\n"
                "                           policies=('FullElim',), deltas=(0.1,), trials=2))\n"
                "sys.exit('multiprocessing' in sys.modules)\n")
        done = run_fresh_python(code)
        assert done.returncode == 0, done.stderr


class TestBlasThreads:
    # This process imported numpy before activeht, so numpy kept its own
    # setting here: each check runs in a fresh interpreter, which inherits
    # this process's CPU affinity.
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc/self/task to count threads")
    def test_import_starts_no_blas_worker_thread(self):
        # The package loads numpy only with the module that needs it, so the
        # check asks for a name that loads it.
        done = run_fresh_python("import os, sys\n"
                                "from activeht import run_trials\n"
                                "assert 'numpy' in sys.modules\n"
                                "print(len(os.listdir('/proc/self/task')))\n",
                                OPENBLAS_NUM_THREADS=None)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"

    def test_exported_thread_count_is_kept(self):
        done = run_fresh_python("import os, activeht\n"
                                "print(os.environ['OPENBLAS_NUM_THREADS'])\n",
                                OPENBLAS_NUM_THREADS="2")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "2"


@pytest.fixture
def batch_calls(monkeypatch):
    """(pool size, batch sizes) of each sweep's ``_run_batches`` call."""
    calls = []
    run_batches = harness._run_batches

    def recording_run(jobs, workers):
        calls.append((workers, [len(cfgs) for _, _, cfgs, _ in jobs]))
        return run_batches(jobs, workers)

    monkeypatch.setattr(harness, "_run_batches", recording_run)
    return calls


class TestRowCap:
    def test_batches_are_capped_and_cover_every_worker(self, skewed, batch_calls):
        # One trial more per cell than ROW_CAP trials spread over the 8 cells.
        trials = harness.ROW_CAP // 8 + 1
        csvs = []
        for workers in (1, 2, 3):
            csvs.append(summary_to_csv(run_sweep(ExperimentConfig(
                environment=skewed, deltas=(0.3, 0.1), trials=trials,
                base_seed=BASE_SEED, workers=workers, max_steps=30))))
        assert csvs[0] == csvs[1] == csvs[2]
        assert [workers for workers, _ in batch_calls] == [1, 2, 3]
        for workers, batch in batch_calls:
            assert sum(batch) == 8 * trials > harness.ROW_CAP
            assert max(batch) <= harness.ROW_CAP
            assert len(batch) >= workers
            assert max(batch) - min(batch) <= 1
        assert len(batch_calls[2][1]) == 3

    def test_pool_opens_no_more_workers_than_batches(self, skewed, batch_calls):
        # At 3 workers, one cell of 1 or 2 trials makes only 1 or 2 batches.
        for trials in (1, 2):
            csvs = []
            for workers in (1, 3):
                csvs.append(summary_to_csv(run_sweep(ExperimentConfig(
                    environment=skewed, policies=("TaS",), deltas=(0.1,), trials=trials,
                    base_seed=BASE_SEED, workers=workers, max_steps=30))))
            assert csvs[0] == csvs[1]
        assert batch_calls == [(1, [1]), (1, [1]), (1, [2]), (2, [1, 1])]

    def test_a_pool_worker_runs_two_batches(self, skewed, batch_calls):
        # Three batches on two workers: one worker runs two of them, each on
        # the oracle cache its own run_trials call builds.  One trial more per
        # cell than two ROW_CAPs of trials spread over the 8 cells.
        trials = 2 * harness.ROW_CAP // 8 + 1
        csvs = []
        for workers in (1, 2):
            csvs.append(summary_to_csv(run_sweep(ExperimentConfig(
                environment=skewed, deltas=(0.3, 0.1), trials=trials,
                base_seed=BASE_SEED, workers=workers, max_steps=30))))
        assert csvs[0] == csvs[1]
        assert [(workers, len(batch)) for workers, batch in batch_calls] == [(1, 3), (2, 3)]


def _recorded_trial(env, seed):
    cfg = PolicyConfig(kind="FullElim", delta=0.1)
    return run_trial(env, 0, cfg, seed, record_diagnostics=True)


class TestDiagnosticTrial:
    def test_trace_persisted_and_rereadable(self, skewed, tmp_path):
        import json

        out = tmp_path / "trace.json"
        result = _recorded_trial(skewed, BASE_SEED)
        trace = result.diagnostics
        out.write_text(json.dumps(trace.to_document()) + "\n")
        assert trace.meta["policy"] == "FullElim"
        assert trace.meta["tau"] == trace.t[-1] == result.tau
        doc = json.loads(out.read_text())
        for key in ("t", "active_set", "alloc", "min_Z", "beta_elim",
                    "oracle_rate", "empirical_rate", "events"):
            assert key in doc
        assert doc["t"] == trace.t
        assert doc["min_Z"] == trace.min_z
        assert doc["events"] == trace.events

    def test_trace_stops_at_last_crossing(self, skewed):
        trace = _recorded_trial(skewed, BASE_SEED + 1).diagnostics
        assert trace.active_set[-1] == []
        assert trace.min_z[-1] >= trace.beta_elim[-1]
        assert trace.oracle_rate[-1] is None
        assert all(r is not None for r in trace.oracle_rate[:-1])


class TestCsv:
    def test_nan_row_serializes(self):
        row = SummaryRow("e", "TaS", 0.1, 1.0, float("nan"), float("nan"),
                         float("nan"), 3, 3, 0)
        text = summary_to_csv([row])
        assert "nan" in text
        parsed = read_summary_csv_from_text(text)
        assert math.isnan(parsed[0].mean_tau)

    def test_wrong_count_survives_the_csv(self, tmp_path):
        # 3 wrong of 7 completed: 3/7 has no finite decimal form, so the
        # count comes back from the rounded error rate, not a stored column.
        results = ([_result(10 + i) for i in range(4)] + [_result(20, correct=False)] * 3
                   + [_result(99, timed_out=True)] * 2)
        row = aggregate(results, environment="e", policy="TaS", delta=0.1, alpha=1.0)
        assert (row.wrong, completed(row), row.timeouts) == (3, 7, 2)
        out = tmp_path / "rows.csv"
        out.write_text(summary_to_csv([row]))
        assert out.read_text().splitlines()[1].split(",")[6] == "0.428571"
        (back,) = read_summary_csv(out)
        assert back.wrong == 3
        assert failure_rate(back) == failure_rate(row) == 5 / 9

    def test_header_check(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n1,2\n")
        with pytest.raises(ValueError):
            read_summary_csv(bad)


def read_summary_csv_from_text(text):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "x.csv"
        p.write_text(text)
        return read_summary_csv(p)
