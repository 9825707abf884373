import inspect
import json
import pickle

import numpy as np
import pytest

from activeht import (
    Environment,
    IdentifiabilityError,
    MalformedDocumentError,
    OracleCache,
    PolicyConfig,
    load_environment,
    run_trials,
)


def test_skewed_preset_matches_published_matrix(skewed):
    assert skewed.num_hypotheses == 5
    assert skewed.num_actions == 5
    assert skewed.sigma == 1.0
    assert skewed.means[0] == (0.5, 0.9, 0.5, 0.3, 0.7)


@pytest.mark.parametrize("means", [
    [[0.3, 0.3], [0.7, 0.7]],
    # hypothesis 0 is indistinguishable from every other hypothesis
    [[0.5, 0.5, 0.5], [0.2, 0.2, 0.2]],
])
def test_identical_columns_rejected(means):
    with pytest.raises(IdentifiabilityError):
        load_environment({"name": "bad", "means": means})


def test_degenerate_preset_loads_with_one_collapsed_pair(degenerate):
    # Rows 3 and 4 (1-indexed) are fully uninformative, and hypotheses 3 and
    # 4 share every column entry: they are mutually indistinguishable while
    # every other pair still differs under some action.
    assert degenerate.means[2] == (0.5,) * 5
    assert degenerate.means[3] == (0.5,) * 5
    assert degenerate.indistinguishable_pairs() == [(3, 4)]
    maxd = degenerate.max_divergence
    for h in range(5):
        for g in range(h + 1, 5):
            if (h, g) != (3, 4):
                assert maxd[h][g] > 0


def test_collapsed_pair_documents_rejected(degenerate):
    # The preset is trusted; a document with the same matrix is not.
    doc = {"name": "copy", "means": [list(r) for r in degenerate.means]}
    with pytest.raises(IdentifiabilityError, match=r"\[\(3, 4\)\]"):
        load_environment(doc)


@pytest.mark.parametrize("doc", [
    {"name": "x"},
    {"name": "x", "means": [[0.1, 0.2], [0.3]]},
    {"name": "x", "means": "nope"},
    {"name": "x", "means": [[0.1, 0.2]], "sigma": 0.0},
    {"name": "x", "means": [[0.1, 0.2]], "sigma": -1.0},
    {"name": "x", "means": [[0.1, 0.2], [0.2, 0.1]], "num_actions": 3},
    # the name is a summary-CSV field
    {"name": "a,b", "means": [[0.1, 0.2]]},
    {"name": "a\nb", "means": [[0.1, 0.2]]},
    {"name": "a\rb", "means": [[0.1, 0.2]]},
    # sigma**2 underflows to 0, sigma**2 overflows, a squared gap overflows
    {"name": "x", "means": [[0, 1], [0.5, 0.2]], "sigma": 1e-170},
    {"name": "x", "means": [[0, 1], [0.5, 0.2]], "sigma": 1e170},
    {"name": "x", "means": [[0, 1e200], [0.5, 0.2]]},
    # entries that are not numbers, and an integer beyond float range
    {"name": "x", "means": [[0.1, None], [0.2, 0.3]]},
    {"name": "x", "means": [[0.1, [0.2]], [0.2, 0.3]]},
    {"name": "x", "means": [[0.1, {}], [0.2, 0.3]]},
    {"name": "x", "means": [[0.1, "0.2"], [0.2, 0.3]]},
    {"name": "x", "means": [[0.1, True], [0.2, 0.3]]},
    {"name": "x", "means": [[0.1, 10**400], [0.2, 0.3]]},
    {"name": "x", "means": [[0.1, 0.2], [0.2, 0.3]], "sigma": None},
    {"name": "x", "means": [[0.1, 0.2], [0.2, 0.3]], "sigma": [1.0]},
    {"name": "x", "means": [[0.1, 0.2], [0.2, 0.3]], "sigma": {"value": 1.0}},
    {"name": "x", "means": [[0.1, 0.2], [0.2, 0.3]], "num_actions": None},
    {"name": "x", "means": [[0.1, 0.2], [0.2, 0.3]], "num_hypotheses": [2]},
    {"name": "x", "means": [[0.1, 0.2], [0.2, 0.3]], "num_hypotheses": {"n": 2}},
    {"name": "x", "means": [[0.1, 0.2], [0.2, 0.3]], "num_actions": 2.5},
    # The name is written into every CSV row as it stands.
    {"name": None, "means": [[0.1, 0.9], [0.4, 0.2]]},
    {"name": {"a": 1}, "means": [[0.1, 0.9], [0.4, 0.2]]},
    {"name": 7, "means": [[0.1, 0.9], [0.4, 0.2]]},
    {"name": ["x"], "means": [[0.1, 0.9], [0.4, 0.2]]},
    {"name": True, "means": [[0.1, 0.9], [0.4, 0.2]]},
])
def test_malformed_documents_rejected(doc):
    with pytest.raises(MalformedDocumentError):
        load_environment(doc)


@pytest.mark.parametrize("sigma", [1e-3, 1e2])
def test_sigma_range_ends_load(sigma):
    env = load_environment({"name": "x", "means": [[0, 1], [0.5, 0.2]], "sigma": sigma})
    assert np.isfinite(env.kl_table).all() and env.kl_table.max() > 0


def test_load_sources(tmp_path, skewed):
    path = tmp_path / "env.json"
    doc = {"name": "filecopy", "means": [list(r) for r in skewed.means], "sigma": 2.0}
    path.write_text(json.dumps(doc))
    from_file = load_environment(path)
    assert from_file.sigma == 2.0
    assert from_file.means == skewed.means

    from_text = load_environment(json.dumps(doc))
    assert from_text == from_file

    # An Environment is no document: it fails as load_environment(42) does.
    with pytest.raises(TypeError, match="the JSON object must be str"):
        load_environment(skewed)
    with pytest.raises(MalformedDocumentError):
        load_environment("no-such-preset-or-file")
    with pytest.raises(MalformedDocumentError):
        load_environment("{not json")


def test_unknown_preset_lists_choices():
    with pytest.raises(MalformedDocumentError, match="degenerate"):
        load_environment("typo")


def closed_form_kl(env, a, h, g):
    """d_a(h, g) for equal-variance Gaussians: squared mean gap over 2 sigma^2."""
    gap = env.means[a][h] - env.means[a][g]
    return gap * gap / (2.0 * env.sigma**2)


def test_kl_closed_form(skewed):
    assert skewed.kl_table[0, 0, 1] == pytest.approx(0.08, abs=1e-15)
    assert skewed.kl_table[2, 0, 0] == 0.0
    # sigma scales the divergence by 1/sigma^2
    half = Environment(name="s", means=skewed.means, sigma=2.0)
    assert half.kl_table[0, 0, 1] == pytest.approx(0.02, abs=1e-15)


def test_kl_degenerate_row_is_zero(degenerate):
    assert np.array_equal(degenerate.kl_table[2], np.zeros((5, 5)))


def test_kl_table_invariants(skewed, hard_weak, degenerate):
    rng = np.random.default_rng(0)
    envs = [skewed, hard_weak, degenerate]
    for _ in range(5):
        means = rng.uniform(-1, 1, size=(rng.integers(1, 5), rng.integers(2, 6)))
        envs.append(Environment(name="r", means=tuple(map(tuple, means)),
                                sigma=float(rng.uniform(0.5, 2.0))))
    for env in envs:
        table = env.kl_table
        assert table.shape == (env.num_actions, env.num_hypotheses, env.num_hypotheses)
        assert (table >= 0).all()
        for a in range(env.num_actions):
            assert np.array_equal(np.diag(table[a]), np.zeros(env.num_hypotheses))
            assert np.array_equal(table[a], table[a].T)
        for a in range(env.num_actions):
            for h in range(env.num_hypotheses):
                for g in range(env.num_hypotheses):
                    assert table[a, h, g] == closed_form_kl(env, a, h, g)


def test_environment_is_immutable(skewed):
    for field in ("name", "means", "sigma"):
        with pytest.raises(AttributeError):
            setattr(skewed, field, getattr(skewed, field))
        with pytest.raises(AttributeError):
            delattr(skewed, field)
    assert skewed == load_environment("skewed")
    assert not skewed.means_array.flags.writeable


def test_environment_compares_by_its_fields_as_a_frozen_dataclass_did():
    env = Environment("x", [[0, 1]], 2)
    assert list(inspect.signature(Environment).parameters) == ["name", "means", "sigma"]
    assert repr(env) == "Environment(name='x', means=((0.0, 1.0),), sigma=2.0)"
    fields = ("x", ((0.0, 1.0),), 2.0)
    assert env == Environment(*fields)
    assert hash(env) == hash(Environment(*fields)) == hash(fields)
    assert env != fields and fields != env
    assert env != Environment("x", ((0.0, 1.0),), 1.0)
    assert env != Environment("y", ((0.0, 1.0),), 2.0)


def test_pickled_environment_keeps_read_only_tables(skewed):
    # Sweep jobs pickle their environment for pool workers; a copy is
    # rebuilt from its fields, so no table comes back writable.
    names = ("means_array", "kl_table", "max_divergence", "best_action")
    tables = {name: getattr(skewed, name) for name in names}
    back = pickle.loads(pickle.dumps(skewed))
    assert back == skewed
    for name, table in tables.items():
        assert np.array_equal(getattr(back, name), table)
        assert not getattr(back, name).flags.writeable, name


@pytest.mark.parametrize("means, sigma, message", [
    (((10**400, 0),), 1.0, r"means\[0\]\[0\] overflows a float"),
    (((True, 0.5),), 1.0, r"means\[0\]\[0\] must be a number, got True"),
    (((0.1, "0.2"),), 1.0, r"means\[0\]\[1\] must be a number"),
    (((0.1, 0.2),), 10**400, "sigma overflows a float"),
    (((0.1, 0.2),), None, "sigma must be a number, got None"),
    # and its row rule
    ((1, 2), 1.0, "'means' must be a list of per-action rows"),
    (((0, 1), 5), 1.0, "'means' must be a list of per-action rows"),
])
def test_direct_construction_shares_the_loaders_number_rule(means, sigma, message):
    with pytest.raises(MalformedDocumentError, match=message):
        Environment(name="x", means=means, sigma=sigma)
    with pytest.raises(MalformedDocumentError, match=message):
        load_environment({"name": "x", "means": means, "sigma": sigma})


def test_direct_construction_stores_floats():
    env = Environment(name="ints", means=((0, 1), (2, 2)), sigma=2)
    assert env.means == ((0, 1), (2, 2)) and env.sigma == 2
    assert all(type(x) is float for row in env.means for x in row)
    assert type(env.sigma) is float
    assert env.indistinguishable_pairs() == []
    assert env.kl_table[0, 0, 1] == 1 / 8


@pytest.mark.parametrize("means, sigma", [
    (((0, 1), (2, 2)), 2),
    ((tuple(np.float64([0, 1])), tuple(np.float64([2, 2]))), np.float64(2.0)),
    ([[0, 1.0], np.array([2.0, 2]).tolist()], 2.0),
])
def test_stored_entries_and_sigma_are_floats(means, sigma):
    env = Environment(name="x", means=means, sigma=sigma)
    assert type(env.means) is tuple
    assert all(type(row) is tuple for row in env.means)
    assert all(type(x) is float for row in env.means for x in row)
    assert type(env.sigma) is float
    assert env == Environment(name="x", means=((0.0, 1.0), (2.0, 2.0)), sigma=2.0)
    with pytest.raises(MalformedDocumentError, match=r"means\[0\]\[1\] must be a number, got True"):
        Environment(name="x", means=((0.0, True), (2.0, 2.0)), sigma=sigma)
    with pytest.raises(MalformedDocumentError, match="sigma must be a number, got True"):
        Environment(name="x", means=means, sigma=True)


def test_list_and_tuple_rows_build_the_same_environment():
    rows = [[0.5, 0.9, 0.5], [0.3, 0.5, 0.7]]
    from_lists = Environment(name="x", means=rows)
    from_tuples = Environment(name="x", means=tuple(map(tuple, rows)))
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    assert from_lists.sha256() == from_tuples.sha256()
    # An oracle cache is bound to the environment it was built for; an
    # equal one built from lists may use it.
    cfg = PolicyConfig(kind="FullElim", delta=0.1)
    shared = run_trials(from_lists, 0, [cfg], [1], cache=OracleCache(from_tuples))
    assert shared == run_trials(from_tuples, 0, [cfg], [1])


@pytest.mark.parametrize("doc, message", [
    # a bad name and a bad entry
    ({"name": "a,b", "means": [[True, 0]]}, "means[0][0] must be a number, got True"),
    # ragged rows and a bad entry
    ({"name": "x", "means": [[0.1, 0.2], [None]]}, "means[1][0] must be a number, got None"),
    # a bad sigma and a bad name
    ({"name": 7, "means": [[0.1, 0.2]], "sigma": None}, "sigma must be a number, got None"),
    ({"name": "a,b", "means": [[0.1, 0.2]], "sigma": -1},
     "environment name 'a,b' must not contain a comma or line break"),
    # a bad row shape and a bad sigma
    ({"name": "x", "means": [[0.1], 5], "sigma": "1"}, "'means' must be a list of per-action rows"),
    # ragged rows and a non-finite entry
    ({"name": "x", "means": [[0.1, float("inf")], [0.2]]}, "means matrix rows have unequal lengths"),
    # a non-finite entry and a bad sigma range
    ({"name": "x", "means": [[0.1, float("nan")]], "sigma": 0}, "means matrix contains non-finite"),
])
def test_first_of_two_faults_is_reported(doc, message):
    with pytest.raises(MalformedDocumentError) as info:
        load_environment(doc)
    assert str(info.value).startswith(message)


def numpy_kl_table(means, sigma):
    """The divergence table as numpy builds it, overflow included."""
    mu = np.array(means, dtype=float)
    with np.errstate(over="ignore"):
        gaps = mu[:, :, None] - mu[:, None, :]
        return gaps**2 / (2.0 * sigma**2)


def test_float_checks_agree_with_numpy_tables():
    # Construction and indistinguishable_pairs work in plain floats; they
    # must decide exactly as the numpy table would, on a family that
    # reaches the overflow edge and pairs whose squared gap underflows.
    rng = np.random.default_rng(20260)
    accepted = rejected = collapsed = 0
    for _ in range(4000):
        k, a = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        means = rng.uniform(-1, 1, size=(a, k)) * 10.0 ** int(rng.integers(-200, 201))
        sigma = 10.0 ** int(rng.integers(-150, 151))
        if rng.random() < 0.5:
            h, g = rng.choice(k, size=2, replace=False)
            means[:, h] = 0.0
            means[:, g] = rng.choice([0.0, 1e-300, 5e-162, 1e-170, 1e-160]) * rng.choice([-1, 1])
        table = numpy_kl_table(means, sigma)
        rows = tuple(map(tuple, means.tolist()))
        if not np.isfinite(table).all():
            rejected += 1
            with pytest.raises(MalformedDocumentError, match="overflow the divergence table"):
                Environment(name="r", means=rows, sigma=sigma)
            continue
        accepted += 1
        env = Environment(name="r", means=rows, sigma=sigma)
        pairs = env.indistinguishable_pairs()
        assert np.array_equal(env.kl_table, table)
        assert pairs == [(h, g) for h in range(k) for g in range(h + 1, k)
                         if env.max_divergence[h][g] == 0]
        collapsed += bool(pairs)
    # The family exercises every outcome.
    assert min(accepted, rejected, collapsed) > 100, (accepted, rejected, collapsed)


def test_tables_are_built_on_first_use(skewed):
    names = ("means_array", "kl_table", "max_divergence", "best_action")
    doc = {"name": "fresh", "means": [list(r) for r in skewed.means]}
    for env in (Environment(name="fresh", means=skewed.means), load_environment(doc)):
        assert env.indistinguishable_pairs() == []
        assert not set(names) & set(vars(env))
        back = pickle.loads(pickle.dumps(env))
        assert not set(names) & set(vars(back))
        for name in names:
            assert np.array_equal(getattr(back, name), getattr(skewed, name))
            assert not getattr(back, name).flags.writeable, name
