import argparse
import hashlib
import json
import math

import pytest

from activeht.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    EXIT_VALIDATION,
    build_parser,
    dispatch,
)
from activeht import PRESET_NAMES, PolicyConfig, __version__, engine, load_environment
from activeht.engine import DEFAULT_C_OFFSET, resolve_config

from conftest import BASE_SEED, run_fresh_python


def run_cli(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["env", "--env", "skewed", "--bogus"])
        assert code == EXIT_USAGE

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["frobnicate"])
        assert code == EXIT_USAGE

    def test_out_of_range_delta_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, [
            "trial", "--env", "skewed", "--policy", "TaS", "--delta", "1.5"])
        assert code == EXIT_VALIDATION
        assert "delta" in err

    @pytest.mark.parametrize("source, field", [
        ("missing-env", "neither a preset name nor an existing file"),
        ("typo", "presets: degenerate, hard-weak, skewed"),
        # An empty path reads as the working directory; no directory is a document.
        ("", "'' is neither a preset name nor an existing file"),
        (".", "'.' is neither a preset name nor an existing file"),
        ('{"name": "x", "means": [[0, Infinity], [0.5, 0.2]]}', "non-finite"),
        ('{"name": "x", "means": []}', "non-empty"),
        # no action separates hypotheses 0 and 1
        ('{"name": "x", "means": [[0.3, 0.3, 0.1], [0.7, 0.7, 0.2]]}', "[(0, 1)]"),
        # Text that does not open with "{" names a file, so the list is read
        # from one.
        ([[0.1, 0.9], [0.4, 0.2]], "JSON object"),
    ])
    def test_bad_environment_is_validation_error(self, capsys, tmp_path, source, field):
        if not isinstance(source, str):
            path = tmp_path / "env.json"
            path.write_text(json.dumps(source))
            source = str(path)
        code, _, err = run_cli(capsys, ["env", "--env", source])
        assert code == EXIT_VALIDATION
        assert field in err

    @pytest.mark.parametrize("argv", [
        ["exp1", "--deltas", "0.1,x"],
        ["solve-oracle", "--h", "0", "--opponents", "1,x"],
    ])
    def test_unparsable_list_is_usage_error(self, capsys, tmp_path, argv):
        command, *flags = argv
        out = ["--out", str(tmp_path / "out")] if command == "exp1" else []
        code, _, _ = run_cli(capsys, [command, "--env", "skewed", *flags, *out])
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_is_runtime_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, [
            "exp1", "--env", "skewed", "--trials", "1", "--deltas", "0.5",
            "--policies", "TaS", "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert code == EXIT_RUNTIME

    @pytest.mark.parametrize("command", [
        ["exp1", "--trials", "200"],
        ["exp2", "--trials", "200"],
        ["diagnose"],
    ])
    @pytest.mark.parametrize("target, named, message", [
        ("missing/x.csv", "missing/x.csv", "[Errno 2] No such file or directory"),
        ("dir", "dir", "[Errno 21] Is a directory"),
        # The manifest is checked with --out, before the run writes anything.
        ("x.csv", "x.csv.manifest.json", "[Errno 21] Is a directory"),
    ])
    def test_bad_output_path_fails_before_any_trial(self, capsys, tmp_path, monkeypatch,
                                                    command, target, named, message):
        calls = []
        # harness first: importing it binds the engine's run_trials, which must
        # still be the real one for monkeypatch to restore it.
        for module in ("activeht.harness", "activeht.engine"):
            monkeypatch.setattr(f"{module}.run_trials", lambda *args, **kwargs: calls.append(args))
        (tmp_path / "dir").mkdir()
        (tmp_path / "x.csv.manifest.json").mkdir()
        out = tmp_path / target
        code, _, err = run_cli(capsys, [*command, "--env", "skewed", "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert f"{message}: {str(tmp_path / named)!r}" in err
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "dir", tmp_path / "x.csv.manifest.json"]

    @pytest.mark.parametrize("plot_dir", ["afile", "afile/sub"])
    def test_plot_dir_at_a_file_fails_before_the_trial(self, capsys, tmp_path, monkeypatch,
                                                       plot_dir):
        # The panels' mkdir would fail only once the trial and its trace
        # were done.
        calls = []
        monkeypatch.setattr("activeht.engine.run_trials", lambda *args, **kwargs: calls.append(args))
        (tmp_path / "afile").write_text("")
        code, _, err = run_cli(capsys, [
            "diagnose", "--env", "skewed", "--seed", "7", "--out", str(tmp_path / "trace.json"),
            "--plot-dir", str(tmp_path / plot_dir)])
        assert code == EXIT_RUNTIME
        assert f"[Errno 17] File exists: {str(tmp_path / 'afile')!r}" in err
        assert calls == []
        assert list(tmp_path.iterdir()) == [tmp_path / "afile"]

    @pytest.mark.parametrize("out, plot_dir", [
        *((f"plots/{panel}", "plots")
          for panel in ("active_set.csv", "allocation.csv", "evidence.csv", "rates.csv")),
        ("t", "t"), ("t", "t/sub"), ("t", "t.manifest.json"),
    ])
    def test_overlapping_trace_and_plot_dir_fail_before_the_trial(self, capsys, tmp_path, out,
                                                                   plot_dir):
        # A panel would overwrite the trace, or the panels' mkdir would fail
        # once the trace and its manifest were written.
        (tmp_path / "plots").mkdir()
        code, _, err = run_cli(capsys, [
            "diagnose", "--env", "skewed", "--seed", "7", "--out", str(tmp_path / out),
            "--plot-dir", str(tmp_path / plot_dir)])
        assert code == EXIT_RUNTIME
        assert f"[Errno 17] --out and --plot-dir overlap: {str(tmp_path / plot_dir)!r}" in err
        assert list(tmp_path.rglob("*")) == [tmp_path / "plots"]

    @pytest.mark.parametrize("panel", ["active_set.csv", "allocation.csv", "evidence.csv",
                                       "rates.csv"])
    def test_panel_path_at_a_directory_fails_before_the_trial(self, capsys, tmp_path,
                                                              monkeypatch, panel):
        # Each panel is checked before the trial, so no trace, manifest or
        # earlier panel is left behind.
        calls = []
        monkeypatch.setattr("activeht.engine.run_trials", lambda *args, **kwargs: calls.append(args))
        blocked = tmp_path / "plots" / panel
        blocked.mkdir(parents=True)
        code, _, err = run_cli(capsys, [
            "diagnose", "--env", "skewed", "--seed", "7", "--out", str(tmp_path / "trace.json"),
            "--plot-dir", str(tmp_path / "plots")])
        assert code == EXIT_RUNTIME
        assert f"[Errno 21] Is a directory: {str(blocked)!r}" in err
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "plots", blocked]


# Every subcommand's flags: option -> (default, required, type name, choices).
_ENV = {"--env": (None, True, None, None)}
_RUN = {
    "--true-h": (0, False, "int", None),
    "--seed": (0, False, "int", None),
    "--b": (0.8, False, "float", None),
    "--c": (None, False, "float", None),
    "--max-steps": (20000, False, "int", None),
}
_SWEEP = {
    "--trials": (1000, False, "int", None),
    "--workers": (1, False, "int", None),
    "--out": (None, True, None, None),
}
CLI_SURFACE = {
    "env": _ENV,
    "solve-oracle": {
        **_ENV,
        "--h": (None, True, "int", None),
        "--opponents": (None, True, "_int_list", None),
    },
    "trial": {
        **_ENV, **_RUN,
        "--policy": (None, True, None, None),
        "--delta": (None, True, "float", None),
        "--alpha": (1.0, False, "float", None),
    },
    "exp1": {
        **_ENV, **_RUN, **_SWEEP,
        "--deltas": ((0.1, 0.05, 0.01, 0.005, 0.001), False, "_float_list", None),
        "--policies": ("Greedy,TaS,StopElim,FullElim", False, None, None),
    },
    "exp2": {
        **_ENV, **_RUN, **_SWEEP,
        "--delta": (0.1, False, "float", None),
        "--alphas": ((0.2, 0.4, 0.6, 0.8, 1.0), False, "_float_list", None),
    },
    "diagnose": {
        **_ENV, **_RUN,
        "--policy": ("FullElim", False, None, None),
        "--delta": (0.1, False, "float", None),
        "--alpha": (1.0, False, "float", None),
        "--out": (None, True, None, None),
        "--plot-dir": (None, False, None, None),
    },
}


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestParserSurface:
    def test_subcommands(self):
        assert set(_subparsers()) == set(CLI_SURFACE)

    @pytest.mark.parametrize("command", sorted(CLI_SURFACE))
    def test_flag_table(self, command):
        actions = [a for a in _subparsers()[command]._actions
                   if not isinstance(a, argparse._HelpAction)]
        assert all(len(a.option_strings) == 1 for a in actions)
        table = {
            a.option_strings[0]: (
                a.default, a.required, getattr(a.type, "__name__", None),
                tuple(a.choices) if a.choices is not None else None,
            )
            for a in actions
        }
        assert table == CLI_SURFACE[command]

    @pytest.mark.parametrize("command", ["trial", "diagnose"])
    def test_policy_help_names_every_kind(self, command):
        # PolicyConfig checks the kind; the help text still lists the kinds.
        policy = next(a for a in _subparsers()[command]._actions if a.dest == "policy")
        assert policy.help.endswith("one of Greedy, TaS, StopElim, FullElim")


SMALL_SWEEP = ["--trials", "1", "--deltas", "0.1", "--policies", "TaS", "--max-steps", "50"]


class TestValidationRules:
    """Each out-of-range value exits 3 and names the rejected field."""

    @pytest.mark.parametrize("argv, field", [
        (["trial", "--policy", "TaS", "--delta", "1.5"], "delta"),
        (["trial", "--policy", "TaS", "--delta", "0.1", "--alpha", "0"], "alpha"),
        (["trial", "--policy", "TaS", "--delta", "0.1", "--b", "-1"], "slope b"),
        (["trial", "--policy", "TaS", "--delta", "0.1", "--max-steps", "0"], "max_steps"),
        (["trial", "--policy", "TaS", "--delta", "0.1", "--true-h", "-1"], "true hypothesis"),
        (["exp1", "--trials", "0"], "trials"),
        (["exp1", "--workers", "0"], "workers"),
        (["exp1", "--deltas", "0.1,1.2"], "delta"),
        (["exp1", "--max-steps", "0"], "max_steps"),
        # raised by run_trial inside a pool worker and re-raised by pool.map
        (["exp1", "--true-h", "-1", "--workers", "2", "--trials", "4", "--policies", "TaS"],
         "true hypothesis"),
        (["exp2", "--alphas", "0,1"], "alpha"),
        (["exp2", "--delta", "0"], "delta"),
        (["diagnose", "--alpha", "1.5"], "alpha"),
        (["diagnose", "--max-steps", "0"], "max_steps"),
        (["exp1", "--policies", "TaS,TaS"], "policies"),
        (["exp2", "--alphas", "0.5,0.5"], "alphas"),
        # Small runs, so that an accepted value fails fast instead of running
        # to the cap.
        (["trial", "--policy", "TaS", "--delta", "0.1", "--c", "nan", "--max-steps", "50"],
         "offset c"),
        (["trial", "--policy", "TaS", "--delta", "0.1", "--c=-inf"], "offset c"),
        (["trial", "--policy", "TaS", "--delta", "0.1", "--b", "inf", "--max-steps", "50"],
         "slope b"),
        (["exp1", "--c", "nan", *SMALL_SWEEP], "offset c"),
        (["diagnose", "--b", "inf", "--max-steps", "50"], "slope b"),
        # A later --env overrides the default one.  A comma in the name would
        # split its CSV row.
        (["exp1", "--env", '{"name": "a,b", "means": [[0.1, 0.9], [0.4, 0.2]]}', *SMALL_SWEEP],
         "environment name"),
        # sigma**2 underflows to 0: the likelihood scale divided by it
        (["trial", "--env", '{"name": "x", "means": [[0, 1], [0.5, 0.2]], "sigma": 1e-170}',
          "--policy", "TaS", "--delta", "0.1"], "sigma"),
        # A null entry used to escape as a TypeError traceback.
        (["trial", "--env", '{"name": "x", "means": [[0.1, null], [0.2, 0.3]]}',
          "--policy", "TaS", "--delta", "0.1"], "means[0][1]"),
        # A null name used to load as the text "None" in every CSV row.
        (["exp1", "--env", '{"name": null, "means": [[0.1, 0.9], [0.4, 0.2]]}', *SMALL_SWEEP],
         "environment name"),
        (["solve-oracle", "--h", "9", "--opponents", "1,2"], "hypothesis index 9"),
        (["solve-oracle", "--h", "0", "--opponents", "1,9"], "opponent index 9"),
        # Divergences of 5e-11, below the simplex's absolute pivot tolerance:
        # its answer fails its own certificate instead of printing rate 0.
        (["solve-oracle", "--env", '{"name": "tiny", "means": [[0, 1e-5, 0], [0, 0, 1e-5]]}',
          "--h", "0", "--opponents", "1,2"], "not certified"),
        # A negative seed is named here, not left to numpy's message.
        (["trial", "--policy", "TaS", "--delta", "0.1", "--seed", "-5"], "seed"),
        (["diagnose", "--seed", "-5"], "seed"),
        # Entries that print alike would label two rows alike.
        (["exp1", "--trials", "3", "--policies", "TaS", "--deltas", "0.1,0.1000001"], "deltas"),
        (["exp2", "--trials", "3", "--alphas", "0.5,0.5000001"], "alphas"),
        # PolicyConfig is the one policy-kind rule, for every command.
        (["trial", "--policy", "Nope", "--delta", "0.1"], "unknown policy kind 'Nope'"),
        (["diagnose", "--policy", "Nope"], "unknown policy kind 'Nope'"),
        # Every command loads --env first, so a bad one is named before the
        # policy or the confidence level.
        (["trial", "--env", "nope", "--policy", "Nope", "--delta", "0.1"],
         "neither a preset name"),
        (["diagnose", "--env", "nope", "--delta", "2"], "neither a preset name"),
    ])
    def test_rejected(self, capsys, tmp_path, argv, field):
        command, *flags = argv
        out = ["--out", str(tmp_path / "out")] if command in ("exp1", "exp2", "diagnose") else []
        code, _, err = run_cli(capsys, [command, "--env", "skewed", *flags, *out])
        assert code == EXIT_VALIDATION
        assert field in err
        assert list(tmp_path.iterdir()) == []


class TestEnv:
    def test_summary_includes_matrix(self, capsys):
        code, out, _ = run_cli(capsys, ["env", "--env", "skewed"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["num_hypotheses"] == 5
        assert doc["means"][0] == [0.5, 0.9, 0.5, 0.3, 0.7]
        assert doc["indistinguishable_pairs"] == []


class TestSolveOracle:
    def test_full_opponent_set(self, capsys):
        code, out, _ = run_cli(capsys, [
            "solve-oracle", "--env", "skewed", "--h", "0", "--opponents", "1,2,3,4"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["rate"] == pytest.approx(0.018, abs=1e-9)
        assert sum(doc["weights"]) == pytest.approx(1.0, abs=1e-9)

    def test_self_opponent_rejected(self, capsys):
        code, _, _ = run_cli(capsys, [
            "solve-oracle", "--env", "skewed", "--h", "0", "--opponents", "0,1"])
        assert code == EXIT_VALIDATION


class TestLightCommands:
    @pytest.mark.parametrize("argv, unloaded", [
        (["env", "--env", "skewed"],
         ("activeht.engine", "activeht.harness", "activeht.oracle", "numpy")),
        (["solve-oracle", "--env", "skewed", "--h", "0", "--opponents", "1,2"],
         ("activeht.engine", "activeht.harness")),
    ])
    def test_command_loads_only_the_modules_it_runs(self, argv, unloaded):
        done, loaded = _run_fresh_cli(argv)
        assert isinstance(json.loads(done.stdout), dict)
        assert "activeht.model" in loaded
        assert loaded.isdisjoint(unloaded), sorted(loaded & set(unloaded))
        # The oracle's LP needs numpy; the environment checks do not.
        assert ("numpy" in loaded) == (argv[0] == "solve-oracle")

    @pytest.mark.parametrize("argv, code, stream, expected", [
        pytest.param(["--version"], EXIT_OK, "stdout", f"activeht {__version__}\n", id="version"),
        pytest.param(["--help"], EXIT_OK, "stdout", None, id="help"),
        pytest.param(["env", "--bogus"], EXIT_USAGE, "stderr", None, id="usage-error"),
        *(pytest.param(["env", "--env", env], EXIT_OK, "stdout", None, id=env)
          for env in PRESET_NAMES),
        pytest.param(
            ["env", "--env", '{"name": "k3", "means": [[0, 1e-160, 2], [1, 1, 1]], "sigma": 3}'],
            EXIT_OK, "stdout", None, id="document"),
        pytest.param(
            ["env", "--env", '{"name": "x", "means": [[0, 1e200], [0.5, 0.2]]}'],
            EXIT_VALIDATION, "stderr",
            "validation error: means gaps overflow the divergence table\n", id="overflow"),
        pytest.param(
            ["env", "--env", '{"name": "x", "means": [[0.1, true], [0.2, 0.3]]}'],
            EXIT_VALIDATION, "stderr",
            "validation error: means[0][1] must be a number, got True\n", id="bool-entry"),
        pytest.param(
            ["env", "--env", '{"name": "bad", "means": [[0.3, 0.3], [0.7, 0.7]]}'],
            EXIT_VALIDATION, "stderr",
            "validation error: no action distinguishes hypothesis pairs [(0, 1)]\n",
            id="unidentifiable"),
    ])
    def test_light_paths_never_load_numpy(self, argv, code, stream, expected):
        done, loaded = _run_fresh_cli(argv, code)
        assert "numpy" not in loaded
        # Environment is a plain class, and only the manifest writers import
        # asdict, so nothing here pays for dataclasses and the inspect it loads.
        assert loaded.isdisjoint({"dataclasses", "inspect"}), sorted(loaded)
        if expected is not None:
            assert getattr(done, stream) == expected

    @pytest.mark.parametrize("argv", [
        ["trial", "--policy", "FullElim", "--delta", "0.1"],
        ["diagnose", "--out", "trace.json"],
        ["exp1", "--trials", "2", "--out", "exp1.csv"],
        ["exp2", "--trials", "2", "--workers", "2", "--out", "exp2.csv"],
    ])
    def test_trial_commands_leave_the_reference_unloaded(self, tmp_path, argv):
        # The single-trial reference is for the benchmark's traced run and
        # the tests; the engine keeps none of it.
        command, *flags = argv
        flags = [str(tmp_path / f) if f.endswith((".json", ".csv")) else f for f in flags]
        _, loaded = _run_fresh_cli([command, "--env", "skewed", *flags])
        assert "activeht.engine" in loaded
        assert "numpy" in loaded
        assert "activeht.reference" not in loaded
        assert not hasattr(engine, "new_trial_state")


def _run_fresh_cli(argv, code=EXIT_OK):
    """Run ``activeht *argv`` in a fresh interpreter, since this one has
    loaded every module; check that it exits with ``code`` and return the
    finished process, with the modules' line cut from its stderr, and the
    modules the command loaded."""
    script = ("import json, sys\n"
              "from activeht.cli import main\n"
              f"sys.argv = ['activeht', *{argv!r}]\n"
              "try:\n"
              "    main()\n"
              "finally:\n"
              "    print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n")
    done = run_fresh_python(script)
    assert done.returncode == code, done.stderr
    *messages, modules = done.stderr.splitlines(keepends=True)
    done.stderr = "".join(messages)
    return done, set(json.loads(modules))


class TestTrial:
    def test_single_trial_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, [
            "trial", "--env", "skewed", "--policy", "FullElim", "--delta", "0.2",
            "--seed", "5"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["tau"] >= 1
        assert doc["recommendation"] in range(5)
        code2, out2, _ = run_cli(capsys, [
            "trial", "--env", "skewed", "--policy", "FullElim", "--delta", "0.2",
            "--seed", "5"])
        assert json.loads(out2) == doc

    def test_proven_threshold_pair(self, capsys):
        # b = 0 and c = log(K - 1), K = 5: the pair Ville's inequality proves.
        argv = ["trial", "--env", "hard-weak", "--policy", "TaS", "--delta", "0.05",
                "--seed", "3", "--b", "0", "--c", "1.3862943611198906"]
        code, out, _ = run_cli(capsys, argv)
        assert code == EXIT_OK
        assert run_cli(capsys, argv) == (EXIT_OK, out, "")


class TestExperiments:
    def test_exp1_default_grid_has_twenty_rows(self, capsys, tmp_path):
        out_path = tmp_path / "exp1.csv"
        code, out, _ = run_cli(capsys, [
            "exp1", "--env", "skewed", "--trials", "1", "--seed", "7",
            "--out", str(out_path)])
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 20  # header + 4 policies x 5 deltas
        assert out.startswith("environment,policy,")
        manifest = json.loads((tmp_path / "exp1.csv.manifest.json").read_text())
        assert manifest["command"] == "exp1"
        assert manifest["config"]["base_seed"] == 7
        assert manifest["config"]["trials"] == 1
        assert manifest["config"]["environment"] == "skewed"
        assert manifest["config"]["environment_sha256"] == load_environment("skewed").sha256()

    def test_manifest_holds_the_resolved_c_at_k3(self, capsys, tmp_path):
        # Below K = 5 the default c is floored at log 4, so a manifest that
        # left it unresolved would not say which threshold ran.
        doc = {"name": "k3", "sigma": 0.384,
               "means": [[0.4166, 0.7742, 0.9585], [0.8884, 0.6209, 0.1603]]}
        env_path, out_path = tmp_path / "k3.json", tmp_path / "exp1.csv"
        env_path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, ["exp1", "--env", str(env_path), "--true-h", "1",
                                      "--trials", "2", "--deltas", "0.1", "--out", str(out_path)])
        assert code == EXIT_OK
        config = json.loads((tmp_path / "exp1.csv.manifest.json").read_text())["config"]
        expected = resolve_config(PolicyConfig(kind="TaS", delta=0.1), load_environment(doc)).c
        assert config["c"] == expected == math.log(4) + DEFAULT_C_OFFSET

    def test_exp1_rerun_is_byte_identical(self, capsys, tmp_path):
        argv = ["exp1", "--env", "skewed", "--trials", "4", "--deltas", "0.4,0.2",
                "--policies", "TaS,FullElim", "--seed", "11"]
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert run_cli(capsys, argv + ["--out", str(a)])[0] == EXIT_OK
        assert run_cli(capsys, argv + ["--out", str(b)])[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        # Spaces around --policies entries are dropped, as for --deltas; the
        # later flag overrides the earlier one.
        spaced = argv + ["--policies", "TaS, FullElim", "--out", str(c)]
        assert run_cli(capsys, spaced)[0] == EXIT_OK
        assert c.read_bytes() == a.read_bytes()

    def test_exp2_grid_rows(self, capsys, tmp_path):
        out_path = tmp_path / "exp2.csv"
        code, _, _ = run_cli(capsys, [
            "exp2", "--env", "skewed", "--delta", "0.2",
            "--alphas", "0.2,0.4,0.6,0.8,1.0", "--trials", "2",
            "--seed", "3", "--out", str(out_path)])
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 5
        alphas = [float(line.split(",")[3]) for line in lines[1:]]
        assert alphas == [0.2, 0.4, 0.6, 0.8, 1.0]
        assert all(line.split(",")[1] == "FullElim" for line in lines[1:])

    def test_manifest_pins_a_json_file_environment(self, capsys, tmp_path):
        env_path = tmp_path / "env.json"
        out_path = tmp_path / "exp2.csv"
        argv = ["exp2", "--env", str(env_path), "--delta", "0.2", "--alphas", "1.0",
                "--trials", "1", "--out", str(out_path)]
        digests = []
        for sigma in (1.0, 0.5):
            env_path.write_text(json.dumps(
                {"name": "file", "means": [[0, 1, 2], [2, 0, 1]], "sigma": sigma}))
            assert run_cli(capsys, argv)[0] == EXIT_OK
            config = json.loads((tmp_path / "exp2.csv.manifest.json").read_text())["config"]
            assert config["environment"] == str(env_path)
            digests.append(config["environment_sha256"])
        # The path is the same for both runs; only the digest tells them apart.
        assert digests[0] != digests[1]
        assert digests[1] == load_environment(str(env_path)).sha256()


class TestPinnedSweeps:
    """SHA-256 digests of sweep CSVs and manifests (``out`` blanked).

    A change to the sweep code that keeps these digests keeps the published
    tables byte for byte: cell order, seeds, batching and formatting.  The
    first two rows leave c at its default, and their manifests hold the
    resolved value.
    """

    @pytest.mark.parametrize("argv, csv_digest, manifest_digest", [
        (["exp1", "--env", "skewed", "--trials", "3"],
         "afd4183bc2a26031e3e5467d9af242e51371caeed2d9e1a4d2cd6a0a1a9da257",
         "73f19bdaff4007aa661398e691dee2e76e8269a22e426df85bd164d321300e06"),
        # every trial times out at the 400-step cap: NaN rows
        (["exp1", "--env", "degenerate", "--trials", "3", "--workers", "2",
          "--max-steps", "400"],
         "8e9279a245fd48a3931ca67dc3964128d7a67333a591f391858221f06407b1af",
         "46fec8ad1e49e47bf021c930ded7f5ffeceaf05894bedd3e13960836c695d408"),
        (["exp2", "--env", "hard-weak", "--trials", "3", "--workers", "2",
          "--b", "0.7", "--c", "0.1"],
         "e757cd8178e1f84dbb94b2316de8fbc91f34c42c01de5394eb540b51b54dee4b",
         "f7dc8449983de4526b628f7d70f9acc99d305520567141b67fc068bb9095b194"),
    ])
    def test_digests(self, capsys, tmp_path, argv, csv_digest, manifest_digest):
        out_path = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, [*argv, "--out", str(out_path)])
        assert code == EXIT_OK
        csv = out_path.read_text()
        assert out == csv
        manifest = (tmp_path / "out.csv.manifest.json").read_text()
        manifest = manifest.replace(json.dumps(str(out_path)), '""')
        assert hashlib.sha256(csv.encode()).hexdigest() == csv_digest
        assert hashlib.sha256(manifest.encode()).hexdigest() == manifest_digest


# SHA-256 of `diagnose --env skewed --delta 0.1 --seed 7` output files.
PINNED_DIAGNOSE_SHA256 = {
    "trace.json": "1fec91ef10486fef33092cfcabe4314c058e14263653d975d2e924db269ab62a",
    "active_set.csv": "bed9c440bb61eeab91dcdcaaac57aa94310d8e4c9943cc828ce40ce6a4e268d0",
    "allocation.csv": "7a5589cb131c2e829fb8c77f396f57ae568b9b49f4ac88bf41a8c19710f0f1d5",
    "evidence.csv": "3341e9042e5ef2d19e39a88efa6c8391fd473b0191e246c935fa910f2f049bd1",
    "rates.csv": "e6acbb786f04272daf214833739175f9407c959a143e27a00b585225137c46de",
}


class TestDiagnose:
    def test_trace_and_panels_match_pinned_digests(self, capsys, tmp_path):
        plots = tmp_path / "plots"
        code, _, _ = run_cli(capsys, [
            "diagnose", "--env", "skewed", "--delta", "0.1", "--seed", "7",
            "--out", str(tmp_path / "trace.json"), "--plot-dir", str(plots)])
        assert code == EXIT_OK
        paths = [tmp_path / "trace.json", *(plots / name for name in list(PINNED_DIAGNOSE_SHA256)[1:])]
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in paths} == PINNED_DIAGNOSE_SHA256

    def test_trace_and_panels(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        plots = tmp_path / "plots"
        code, out, _ = run_cli(capsys, [
            "diagnose", "--env", "skewed", "--delta", "0.1", "--seed",
            str(BASE_SEED), "--out", str(out_path), "--plot-dir", str(plots)])
        assert code == EXIT_OK
        trace = json.loads(out_path.read_text())
        for name in ("active_set.csv", "allocation.csv", "evidence.csv", "rates.csv"):
            assert (plots / name).exists()
        event_rows = (plots / "active_set.csv").read_text().strip().splitlines()[1:]
        assert len(event_rows) == len([e for e in trace["events"] if e])
        rate_rows = (plots / "rates.csv").read_text().strip().splitlines()[1:]
        assert len(rate_rows) == len([r for r in trace["oracle_rate"] if r is not None])
        # the recomputed oracle-rate column is a monotone staircase per champion run
        by_t = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rate_rows}
        for j in range(1, len(trace["t"])):
            if trace["champion"][j] != trace["champion"][j - 1]:
                continue
            t_prev, t_cur = trace["t"][j - 1], trace["t"][j]
            if t_prev in by_t and t_cur in by_t:
                assert by_t[t_cur] >= by_t[t_prev] - 1e-12

    def test_matches_fullelim_trial(self, capsys, tmp_path):
        flags = ["--env", "hard-weak", "--delta", "0.05", "--seed", "13"]
        code, out, _ = run_cli(capsys, ["trial", "--policy", "FullElim", *flags])
        assert code == EXIT_OK
        trial = json.loads(out)
        out_path = tmp_path / "trace.json"
        assert run_cli(capsys, ["diagnose", *flags, "--out", str(out_path)])[0] == EXIT_OK
        meta = json.loads(out_path.read_text())["meta"]
        for key in ("tau", "recommendation", "correct", "timed_out"):
            assert meta[key] == trial[key]

    @pytest.mark.parametrize("policy", ["Greedy", "TaS", "StopElim", "FullElim"])
    def test_policy_outcome_matches_trial(self, capsys, tmp_path, policy):
        flags = ["--env", "hard-weak", "--policy", policy, "--delta", "0.05",
                 "--alpha", "0.5", "--seed", "13"]
        code, out, _ = run_cli(capsys, ["trial", *flags])
        assert code == EXIT_OK
        trial = json.loads(out)
        out_path = tmp_path / "trace.json"
        assert run_cli(capsys, ["diagnose", *flags, "--out", str(out_path),
                                "--plot-dir", str(tmp_path / "plots")])[0] == EXIT_OK
        trace = json.loads(out_path.read_text())
        assert trace["meta"]["policy"] == policy
        assert trace["t"][-1] == trial["tau"]
        for key in ("tau", "recommendation", "correct", "timed_out"):
            assert trace["meta"][key] == trial[key]

    def test_capped_trace(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code, _, _ = run_cli(capsys, ["diagnose", "--env", "skewed", "--max-steps", "5",
                                      "--out", str(out_path)])
        assert code == EXIT_OK
        trace = json.loads(out_path.read_text())
        assert trace["meta"]["timed_out"] is True
        assert trace["meta"]["tau"] == 5
        assert trace["t"] == [1, 2, 3, 4, 5]
        assert trace["oracle_rate"][-1] is not None

    def test_manifest_holds_the_trial_config(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code, _, _ = run_cli(capsys, ["diagnose", "--env", "skewed", "--seed", "7",
                                      "--out", str(out_path)])
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "trace.json.manifest.json").read_text())
        assert manifest["command"] == "diagnose"
        assert manifest["config"] == {
            "environment": "skewed", "true_h": 0, "seed": 7, "out": str(out_path),
            "kind": "FullElim", "delta": 0.1, "alpha": 1.0, "b": 0.8, "c": -0.4000056388801094,
            "max_steps": 20000,
        }


class TestProcessExit:
    def test_atexit_handlers_run_and_piped_output_arrives_whole(self, tmp_path):
        # main() freezes the heap before it exits; the exit must still run
        # atexit handlers and flush the block-buffered pipe.
        out_path = tmp_path / "exp1.csv"
        code = ("import atexit, sys\n"
                "atexit.register(print, 'atexit handler ran')\n"
                "from activeht.cli import main\n"
                f"sys.argv = ['activeht', 'exp1', '--env', 'skewed', '--trials', '2',\n"
                f"            '--out', {str(out_path)!r}]\n"
                "main()\n")
        done = run_fresh_python(code)
        assert done.returncode == EXIT_OK, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 22
        assert "\n".join(lines[:21]) + "\n" == out_path.read_text()
        assert lines[21] == "atexit handler ran"
