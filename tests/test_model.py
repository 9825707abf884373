import json
import pickle

import numpy as np
import pytest

from activeht import (
    Environment,
    IdentifiabilityError,
    MalformedDocumentError,
    load_environment,
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

    assert load_environment(skewed) is skewed
    # An Environment is returned as built, even with a collapsed pair.
    built = Environment(name="pair", means=((0.3, 0.3), (0.7, 0.7)))
    assert load_environment(built) is built
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
    with pytest.raises(Exception):
        skewed.sigma = 2.0
    assert not skewed.means_array.flags.writeable


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
