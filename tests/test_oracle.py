import contextlib
import hashlib
import math

import numpy as np
import pytest

from activeht import (
    Allocation,
    DegenerateInstanceError,
    Environment,
    OracleCache,
    OracleError,
    load_environment,
    oracle_allocation,
    worst_case_rate,
)

from conftest import BASE_SEED, certified_allocation

# Slack for a rate recomputed from the returned weights.
RATE_TOL = 1e-8


def cross_env():
    """Two actions whose divergence rows against opponents 1, 2 are (1, 0)
    and (0, 1): the max-min optimum is w = (1/2, 1/2) with value 1/2."""
    r2 = math.sqrt(2.0)
    return load_environment({"name": "cross", "means": [[0, r2, 0], [0, 0, r2]]})


def random_env(rng, num_actions, num_hypotheses):
    means = rng.uniform(0, 1, size=(num_actions, num_hypotheses))
    return load_environment({"name": "rand", "means": means.tolist()})


def live_opponents(env, h):
    return [g for g in range(env.num_hypotheses) if g != h and env.max_divergence[h][g] > 0]


class TestAllocation:
    def test_tiny_negative_weights_clamp_to_zero(self):
        alloc = Allocation((1.0 + 5e-13, -5e-13, 0.0))
        assert alloc.weights[1] == 0.0

    def test_real_negatives_rejected(self):
        with pytest.raises(OracleError):
            Allocation((1.1, -0.1))

    def test_bad_sum_rejected(self):
        with pytest.raises(OracleError):
            Allocation((0.7, 0.2))
        with pytest.raises(OracleError):
            Allocation(())

    def test_non_finite_weights_rejected(self, skewed):
        for weights in ((math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0)):
            with pytest.raises(OracleError):
                Allocation(weights)
        with pytest.raises(OracleError):
            worst_case_rate(skewed, 0, (1, 2), (math.nan,) * 5)


class TestWorstCaseRate:
    def test_unit_mass_reduces_to_divergence_row_minimum(self, skewed):
        for a in range(skewed.num_actions):
            w = tuple(1.0 if i == a else 0.0 for i in range(skewed.num_actions))
            expected = min(float(skewed.kl_table[a, 0, g]) for g in (1, 2, 3, 4))
            assert worst_case_rate(skewed, 0, (1, 2, 3, 4), w) == pytest.approx(expected)

    def test_cross_instance_midpoint(self):
        env = cross_env()
        assert worst_case_rate(env, 0, (1, 2), (0.5, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_subset_can_only_raise_the_rate(self, skewed):
        rng = np.random.default_rng(BASE_SEED)
        for _ in range(50):
            w = rng.dirichlet(np.ones(skewed.num_actions))
            big = worst_case_rate(skewed, 0, (1, 2, 3, 4), tuple(w))
            small = worst_case_rate(skewed, 0, (1, 2), tuple(w))
            assert small >= big - 1e-12

    @pytest.mark.parametrize("S, w", [
        ((), (0.2,) * 5),
        ((0, 1), (0.2,) * 5),
        # two weights for five actions, and no weight at all
        ((1, 2), (0.5, 0.5)),
        ((1, 2), ()),
    ])
    def test_rejects_bad_opponents_or_allocation(self, skewed, S, w):
        with pytest.raises(OracleError):
            worst_case_rate(skewed, 0, S, w)

    def test_non_integral_indices_rejected_not_truncated(self, skewed):
        w = (0.2,) * 5
        for h, S in ((0, [1.7, 2]), (0, [1.0, 2]), (0, np.array([1.0, 2.0])), (0.0, [1, 2])):
            with pytest.raises(OracleError):
                worst_case_rate(skewed, h, S, w)
            with pytest.raises(OracleError):
                oracle_allocation(skewed, h, S)

    def test_numpy_integer_indices_accepted(self, skewed):
        plain = certified_allocation(skewed, 0, [1, 2])
        assert certified_allocation(skewed, np.int64(0), np.array([2, 1], dtype=np.int32)) == plain
        assert worst_case_rate(skewed, np.int32(0), np.array([1, 2]), plain.allocation) == plain.rate

    def test_bool_candidate_reads_as_hypothesis_1(self, skewed):
        # run_trials reads true_h = True as 1; the oracle once indexed its
        # tables with True itself and failed inside numpy.
        one = certified_allocation(skewed, 1, [0, 2])
        assert oracle_allocation(skewed, True, [0, 2]) == one
        assert worst_case_rate(skewed, True, [0, 2], one.allocation) == one.rate
        assert OracleCache(skewed).target(True, [0, 2]) == (one.allocation.weights, one.rate)


class TestOracleAllocation:
    def test_singleton_opponent_takes_best_action_lowest_index(self, skewed):
        # divergence row of (0 vs 1) is (0.08, 0.02, 0.045, 0.08, 0.02):
        # actions 0 and 3 tie, so the lowest index wins.
        sol = certified_allocation(skewed, 0, [1])
        assert sol.allocation.weights == (1.0, 0.0, 0.0, 0.0, 0.0)
        assert sol.rate == pytest.approx(0.08)
        assert sol.dual_weights == (1.0,)

    def test_cross_instance_optimum(self):
        env = cross_env()
        sol = certified_allocation(env, 0, [1, 2])
        assert sol.rate == pytest.approx(0.5, abs=1e-9)
        assert sol.dual_weights == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_single_action_environment(self):
        env = load_environment({"name": "one", "means": [[0.0, 10.0]]})
        sol = certified_allocation(env, 0, [1])
        assert sol.allocation.weights == (1.0,)
        assert sol.rate == pytest.approx(50.0)

    def test_single_action_dual_is_the_closest_opponent(self):
        # Divergences 4.5, 0.5 and 2.0: the rate is 0.5, all against opponent 2.
        env = load_environment({"name": "one", "means": [[0.0, 3.0, 1.0, 2.0]]})
        sol = certified_allocation(env, 0, [3, 1, 2])
        assert sol.rate == pytest.approx(0.5)
        assert sol.dual_weights == (0.0, 1.0, 0.0)

    def test_skewed_full_set_value(self, skewed):
        # Hand-checkable structure: opponent 2 is informative only under
        # action 4, opponent 3 only meaningfully under action 3, giving
        # w* = (0, 0, 0, 0.1, 0.9) and value 0.018.
        sol = certified_allocation(skewed, 0, [1, 2, 3, 4])
        assert sol.rate == pytest.approx(0.018, abs=1e-9)

    def test_degenerate_pair_is_an_error(self, degenerate):
        with pytest.raises(DegenerateInstanceError):
            oracle_allocation(degenerate, 3, [0, 4])

    def test_solution_is_feasible_and_consistent(self, skewed):
        rng = np.random.default_rng(BASE_SEED + 1)
        for _ in range(25):
            env = random_env(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            opponents = live_opponents(env, 0)
            if not opponents:
                continue
            sol = certified_allocation(env, 0, opponents)
            assert min(sol.allocation.weights) >= 0.0
            assert sum(sol.allocation.weights) == pytest.approx(1.0, abs=1e-9)
            achieved = worst_case_rate(env, 0, opponents, sol.allocation)
            assert sol.rate == pytest.approx(achieved, abs=1e-8)

    def test_deterministic_for_fixed_inputs(self, skewed):
        a = certified_allocation(skewed, 2, [0, 1, 3, 4])
        b = certified_allocation(skewed, 2, [0, 1, 3, 4])
        assert a == b

    def test_drive_out_pivot_on_a_near_collapsed_opponent(self):
        # Opponent 1 differs from 0 only under action 0, by a divergence of
        # 5e-13, below the pivot tolerance: phase 1 ends with that row's
        # artificial basic at level 0, and the drive-out pivots it out.
        env = load_environment({"name": "near", "means": [[0.0, 1e-6, 1.0], [0.0, 0.0, 1.0]]})
        sol = certified_allocation(env, 0, [1, 2])
        assert sol.allocation.weights == (1.0, 0.0)
        assert sol.rate == pytest.approx(5e-13, rel=1e-9)
        assert sol.dual_weights == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_uncertified_solution_raises(self):
        # Divergences of 5e-11 sit below the absolute pivot tolerance: the
        # simplex stops at w = (1, 0) with rate 0, against the optimum
        # 2.5e-11 at (1/2, 1/2), and the dual bound stays at 5e-11.
        env = load_environment({"name": "tiny", "means": [[0, 1e-5, 0], [0, 0, 1e-5]]})
        with pytest.raises(OracleError, match="not certified"):
            oracle_allocation(env, 0, [1, 2])
        with pytest.raises(OracleError, match="not certified"):
            OracleCache(env).target(0, [1, 2])

    @pytest.mark.xfail(strict=True, raises=OracleError, reason=(
        "the absolute pivot tolerance misjudges divergences near 1e-5; ROADMAP item 7 "
        "scales the LP by a power of two"))
    def test_large_sigma_twin_certifies(self):
        # At sigma = 1 this instance certifies with rate 0.0017715456674473038
        # and weights (0.015807962529273967, 0.984192037470726).  At
        # sigma = 100 every divergence is 1e-4 of its sigma = 1 value, so the
        # weights stay and the rate scales by 1e-4; today the solver stops
        # 2.3e-8 below its dual bound and raises.
        means = [[0.07, 0.67, 0.15, 0.26, 0.67, 0.91], [0.97, 0.21, 0.21, 0.24, 0.27, 0.57]]
        env = load_environment({"name": "wide", "sigma": 100.0, "means": means})
        sol = certified_allocation(env, 1, [0, 2, 3, 4, 5])
        assert sol.allocation.weights == pytest.approx(
            (0.015807962529273967, 0.984192037470726), abs=1e-9)
        assert sol.rate == pytest.approx(1e-4 * 0.0017715456674473038, rel=1e-6)

    @pytest.mark.parametrize("scale", [
        pytest.param(1, marks=pytest.mark.xfail(strict=True, raises=OracleError, reason=(
            "the absolute pivot tolerance misjudges divergences near 4e5; ROADMAP item 7 "
            "scales the LP by a power of two"))),
        2, 16, 1024])
    def test_small_sigma_instance_certifies(self, scale):
        # An identifiable 3 x 10 document whose twins at sigma * 2**k, k = 1
        # to 11, all certify with weights (7/68, 1/17, 57/68).  At scale 1
        # the largest divergence is 4.2e5, and the solver stops 1.0e4 below
        # its dual bound and raises.
        env = load_environment({"name": "q", "sigma": 0.0010891174615522959 * scale, "means": [
            [0.25, 0.5, 0.5, 0.0, 0.25, 0.75, 0.25, 0.0, 0.5, 1.0],
            [0.25, 1.0, 0.5, 0.75, 0.5, 0.75, 0.0, 0.0, 0.0, 0.75],
            [0.5, 0.75, 0.0, 0.75, 0.25, 1.0, 0.5, 0.0, 0.75, 0.5]]})
        sol = certified_allocation(env, 8, [0, 1, 2, 3, 4, 5, 6, 7, 9])
        assert sol.allocation.weights == pytest.approx((7 / 68, 1 / 17, 57 / 68), abs=1e-12)

    def test_singular_final_basis_raises_an_oracle_error(self):
        # Phase 2 ends on a basis whose dual solve is singular; numpy's
        # LinAlgError must not escape.  Once the LP solves, it must certify.
        # Each digit is a mean in quarters.
        rows = ["1343102111344142324133010430410121",
                "2222331302323124001303233432123111",
                "3234102112311422241024211330432220",
                "3202241421213324132332122132203032",
                "2434144122441411021130222340440330",
                "3113112314103041221103141343102231"]
        env = Environment(name="singular", means=tuple(tuple(int(c) / 4 for c in row)
                                                        for row in rows),
                          sigma=0.0026017509786058547)
        others = [g for g in range(34) if g != 6]
        for solve in (lambda: certified_allocation(env, 6, others),
                      lambda: OracleCache(env).target(6, others)):
            with contextlib.suppress(OracleError):
                solve()

    def test_random_instances_up_to_40_actions(self):
        """K != A, any candidate, and in a third of the instances an
        opponent within 1e-7 of the candidate in half of the actions."""
        rng = np.random.default_rng(BASE_SEED + 8)
        checked = 0
        for i in range(60):
            num_actions, num_hypotheses = (int(v) for v in rng.integers(2, 41, size=2))
            means = rng.uniform(0, 1, size=(num_actions, num_hypotheses))
            h = int(rng.integers(num_hypotheses))
            if i % 3 == 0:
                g = (h + 1) % num_hypotheses
                means[:, g] = means[:, h] + (rng.normal(0, 1e-7, size=num_actions)
                                             * (rng.random(num_actions) < 0.5))
            # Built directly: with no action perturbed, columns g and h
            # coincide, which a document may not hold.
            env = Environment(name="rand", means=tuple(map(tuple, means.tolist())))
            opponents = live_opponents(env, h)
            if not opponents:
                continue
            size = int(rng.integers(1, len(opponents) + 1))
            certified_allocation(env, h, rng.choice(opponents, size=size, replace=False))
            checked += 1
        assert checked >= 50


# SHA-256 over float.hex() of every weight and rate on the grid below,
# taken from the row-by-row scalar simplex.  The vectorized solver must
# reproduce every bit: sweep CSVs and traces depend on which optimal vertex
# Bland's rule reaches.
PINNED_LP_SHA256 = "2028585d60556c646ea27199c3b31121885d2ca04b26f57f5be00a99cc05241d"


class TestPinnedLargeInstances:
    """Random K = A instances at sizes the presets never reach."""

    def test_weights_and_rates_match_pinned_digest(self):
        rng = np.random.default_rng(BASE_SEED + 6)
        digest = hashlib.sha256()
        for num_actions in (5, 10, 20, 24, 40):
            for size in (2, num_actions // 2, num_actions - 1):
                for _ in range(5):
                    env = random_env(rng, num_actions, num_actions)
                    chosen = rng.choice(np.arange(1, num_actions), size=size, replace=False)
                    sol = certified_allocation(env, 0, chosen.tolist())
                    for v in (*sol.allocation.weights, sol.rate):
                        digest.update(v.hex().encode() + b"\n")
        assert digest.hexdigest() == PINNED_LP_SHA256

    def test_no_dirichlet_allocation_beats_the_lp_at_24_actions(self):
        rng = np.random.default_rng(BASE_SEED + 7)
        env = random_env(rng, 24, 24)
        opponents = live_opponents(env, 0)
        sol = certified_allocation(env, 0, opponents)
        rows = env.kl_table[:, 0, opponents]
        # Half spread over the simplex, half concentrated near its faces.
        draws = np.vstack([rng.dirichlet(np.full(24, 1.0), size=1000),
                           rng.dirichlet(np.full(24, 0.1), size=1000)])
        assert (draws @ rows).min(axis=1).max() <= sol.rate + RATE_TOL
        achieved = float((np.array(sol.allocation.weights) @ rows).min())
        assert achieved == pytest.approx(sol.rate, abs=RATE_TOL)


# SHA-256 over repr(oracle_allocation(...)), or the raised error's class
# name, for every candidate of the random family below.  Any change to the
# simplex's pivot path, its tolerances or its certificate shows here.
PINNED_FAMILY_SHA256 = "8adab7e70206569a7114da8c120cdbebd8daf6776cf4c7d04039481a60db82b3"


class TestPinnedRandomFamily:
    """A from 1 to 20, K from 2 to 20, sigma = 10^U(-3, 2), and in every
    third environment a pair within 1e-7 of each other in half the actions
    (or in none, so the pair coincides)."""

    def test_solutions_and_errors_match_pinned_digest(self):
        rng = np.random.default_rng(BASE_SEED + 9)
        digest = hashlib.sha256()
        for i in range(60):
            num_actions = int(rng.integers(1, 21))
            num_hypotheses = int(rng.integers(2, 21))
            sigma = float(10.0 ** rng.uniform(-3, 2))
            means = rng.uniform(0, 1, size=(num_actions, num_hypotheses))
            if i % 3 == 0:
                g, h = rng.choice(num_hypotheses, size=2, replace=False)
                means[:, g] = means[:, h] + (rng.normal(0, 1e-7, size=num_actions)
                                             * (rng.random(num_actions) < 0.5))
            env = Environment(name="rand", means=tuple(map(tuple, means.tolist())), sigma=sigma)
            for h in range(num_hypotheses):
                others = [g for g in range(num_hypotheses) if g != h]
                size = int(rng.integers(1, len(others) + 1))
                S = rng.choice(others, size=size, replace=False).tolist()
                try:
                    out = repr(oracle_allocation(env, h, S))
                except OracleError as exc:
                    out = type(exc).__name__
                digest.update(out.encode() + b"\n")
        assert digest.hexdigest() == PINNED_FAMILY_SHA256


class TestStructuralProperties:
    def test_set_monotonicity_on_nested_random_pairs(self):
        rng = np.random.default_rng(BASE_SEED + 3)
        done = 0
        while done < 100:
            env = random_env(rng, int(rng.integers(2, 6)), int(rng.integers(3, 6)))
            opponents = live_opponents(env, 0)
            if len(opponents) < 2:
                continue
            size = int(rng.integers(1, len(opponents)))
            subset = sorted(rng.choice(opponents, size=size, replace=False).tolist())
            big = certified_allocation(env, 0, opponents)
            small = certified_allocation(env, 0, subset)
            assert small.rate >= big.rate - 1e-9
            done += 1

    def test_concavity_at_midpoints(self):
        rng = np.random.default_rng(BASE_SEED + 4)
        done = 0
        while done < 100:
            env = random_env(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            opponents = live_opponents(env, 0)
            if not opponents:
                continue
            w1 = tuple(rng.dirichlet(np.ones(env.num_actions)))
            w2 = tuple(rng.dirichlet(np.ones(env.num_actions)))
            mid = tuple((a + b) / 2 for a, b in zip(w1, w2))
            f1 = worst_case_rate(env, 0, opponents, w1)
            f2 = worst_case_rate(env, 0, opponents, w2)
            fmid = worst_case_rate(env, 0, opponents, mid)
            assert fmid >= (f1 + f2) / 2 - 1e-12
            done += 1

    def test_lipschitz_in_l1(self):
        rng = np.random.default_rng(BASE_SEED + 5)
        done = 0
        while done < 100:
            env = random_env(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            opponents = live_opponents(env, 0)
            if not opponents:
                continue
            lipschitz = max(float(env.max_divergence[0][g]) for g in opponents)
            w1 = tuple(rng.dirichlet(np.ones(env.num_actions)))
            w2 = tuple(rng.dirichlet(np.ones(env.num_actions)))
            gap = abs(
                worst_case_rate(env, 0, opponents, w1)
                - worst_case_rate(env, 0, opponents, w2)
            )
            l1 = sum(abs(a - b) for a, b in zip(w1, w2))
            assert gap <= lipschitz * l1 + 1e-12
            done += 1


class TestOracleCache:
    def test_cache_returns_same_solution_as_direct_solve(self, skewed):
        cache = OracleCache(skewed)
        direct = certified_allocation(skewed, 0, [1, 2, 3])
        cached_w, cached_rate = cache.target(0, {1, 2, 3})
        assert cached_w == direct.allocation.weights
        assert cached_rate == direct.rate
        again_w, again_rate = cache.target(0, [3, 2, 1])
        assert again_w == cached_w and again_rate == cached_rate

    def test_collapsed_opponents_yield_zero_rate_but_usable_target(self, degenerate):
        cache = OracleCache(degenerate)
        w, rate = cache.target(3, {0, 1, 2, 4})
        assert rate == 0.0
        assert sum(w) == pytest.approx(1.0, abs=1e-9)
        # mass flows to actions that still separate 3 from its live opponents
        assert w[4] > 0.5

    def test_keys_of_opponents_past_63_do_not_collide(self):
        # 1 << g for a numpy integer g >= 64 wraps to 0, so {1, 66} and
        # {1, 65} once shared a key.
        rng = np.random.default_rng(BASE_SEED + 9)
        env = random_env(rng, 3, 70)
        cache = OracleCache(env)
        cache.target(0, np.array([1, 65]))
        for S in ([1, 66], np.array([1, 66]), np.array([1, 67])):
            direct = certified_allocation(env, 0, S)
            assert cache.target(0, S) == (direct.allocation.weights, direct.rate)

    def test_all_collapsed_falls_back_to_uniform(self, degenerate):
        cache = OracleCache(degenerate)
        w, rate = cache.target(3, {4})
        assert rate == 0.0
        assert w == tuple([1 / 5] * 5)

    @pytest.mark.parametrize("name, h, S", [
        ("skewed", 0, [0, 1]),
        ("skewed", 2, [2]),
        # the candidate next to a collapsed opponent, and alone with it
        ("degenerate", 3, [3, 4]),
        ("degenerate", 3, [0, 3, 4]),
    ])
    def test_candidate_in_its_own_set_raises_and_is_not_cached(self, request, name, h, S):
        # d(h, h) = 0, so h once passed for a collapsed opponent and the
        # cache returned rate 0.
        env = request.getfixturevalue(name)
        cache = OracleCache(env)
        for _ in range(2):
            with pytest.raises(OracleError, match="its own opponent"):
                cache.target(h, S)

    @pytest.mark.parametrize("h, error", [(-1, IndexError), (5, IndexError), (1.5, OracleError)])
    def test_invalid_candidate_raises_like_the_oracle_and_is_not_cached(self, degenerate, h, error):
        # degenerate has K = 5.  max_divergence[-1] is hypothesis 4's row,
        # where 3 is collapsed, so -1 once got the uniform fallback and a
        # cache entry.
        with pytest.raises(error):
            oracle_allocation(degenerate, h, [3])
        cache = OracleCache(degenerate)
        for _ in range(2):
            with pytest.raises(error):
                cache.target(h, [3])
        assert cache.target(4, [3]) == (tuple([1 / 5] * 5), 0.0)

    @pytest.mark.parametrize("S, error", [([1.7, 2], OracleError), ([-1, 2], IndexError)])
    def test_bad_opponents_after_a_cached_key_raise_like_the_oracle(self, skewed, S, error):
        # The key of [1.7, 2] was once built with int(1.7), so the cache
        # served [1, 2]'s solution; -1 raised "negative shift count".
        cache = OracleCache(skewed)
        cache.target(0, [1, 2])
        with pytest.raises(error):
            oracle_allocation(skewed, 0, S)
        for _ in range(2):
            with pytest.raises(error):
                cache.target(0, S)

    def test_a_generator_of_opponents_is_read_once(self, skewed):
        # The key once read the generator before the opponent check, which
        # then saw an empty set.
        direct = certified_allocation(skewed, 0, [1, 2])
        cache = OracleCache(skewed)
        assert cache.target(0, (g for g in [1, 2])) == (direct.allocation.weights, direct.rate)

    def test_a_generator_with_a_bad_element_caches_nothing(self, skewed):
        # It raises as oracle_allocation does, and later lookups still raise.
        cache = OracleCache(skewed)
        with pytest.raises(OracleError):
            cache.target(0, (g for g in [1.7, 2]))
        for h, S, error in [(3, [1.7], OracleError), (0, [-1], IndexError)]:
            with pytest.raises(error):
                cache.target(h, S)
        assert cache.target(0, [2]) == cache.target(0, np.array([2]))
