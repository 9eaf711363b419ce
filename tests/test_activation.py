"""Activation scoring: decay sums, normalization, mixing, ranking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashrec.activation import (
    ActivationParams,
    TagScores,
    _group,
    base_level_activation,
    history_scores,
    individual_activations,
    mix_scores,
    normalize_softmax,
    rank_top_k,
    recommend_bll_is,
    social_activations,
)
from hashrec.corpus import FollowGraph, Tweet, build_corpus, build_usage_index


def index_of(*rows):
    tweets = [
        Tweet(tweet_id=f"t{i}", user_id=u, time=t, hashtags=frozenset(tags))
        for i, (u, t, tags) in enumerate(rows)
    ]
    return build_usage_index(build_corpus(tweets))


class TestBaseLevelActivation:
    def test_single_unit_age_is_zero(self):
        for d in (0.1, 0.5, 1.0, 2.0):
            assert base_level_activation([1.0], d) == 0.0

    def test_two_ages_hand_value(self):
        np.testing.assert_allclose(
            base_level_activation([1.0, 4.0], 0.5), math.log(1.5), rtol=1e-12
        )

    def test_reciprocal_pair_cancels(self):
        np.testing.assert_allclose(base_level_activation([2.0, 2.0], 1.0), 0.0, atol=1e-12)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            base_level_activation([], 0.5)

    def test_non_positive_age_rejected(self):
        with pytest.raises(ValueError):
            base_level_activation([1.0, 0.0], 0.5)
        with pytest.raises(ValueError):
            base_level_activation([-3.0], 0.5)

    @pytest.mark.parametrize("ages", [[math.nan], [math.inf], [1.0, math.nan], [math.inf, 2.0]])
    def test_non_finite_age_rejected(self, ages):
        with pytest.raises(ValueError, match="use ages must be positive and finite"):
            base_level_activation(ages, 0.5)

    @pytest.mark.parametrize("d", [math.nan, math.inf, 0.0, -1.0])
    def test_decay_outside_positive_finite_rejected(self, d):
        with pytest.raises(ValueError, match="^d must be positive and finite"):
            base_level_activation([1.0], d)

    def test_underflowing_sum_matches_the_array_path(self):
        # 2**62 ** -20 is below the smallest subnormal, so every term is 0.
        expected = -20 * math.log(2**62)
        np.testing.assert_allclose(base_level_activation([2.0**62], 20.0), expected, rtol=1e-12)
        index = index_of(("u1", 0, ["old"]))
        acts = individual_activations(index, "u1", 2**62, ActivationParams(d_individual=20.0))
        np.testing.assert_allclose(acts["old"], expected, rtol=1e-12)

    def test_one_more_use_strictly_increases(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            ages = list(rng.uniform(1, 1e5, size=int(rng.integers(1, 20))))
            d = float(rng.uniform(0.05, 2.0))
            extra = float(rng.uniform(1, 1e5))
            assert base_level_activation(ages + [extra], d) > base_level_activation(ages, d)

    def test_aging_every_use_strictly_decreases(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            ages = rng.uniform(1, 1e5, size=int(rng.integers(1, 20)))
            d = float(rng.uniform(0.05, 2.0))
            shift = float(rng.uniform(1, 1e4))
            assert base_level_activation(ages + shift, d) < base_level_activation(ages, d)


class TestIndividualActivations:
    def test_single_use_one_second_ago(self):
        index = index_of(("u1", 9, ["nlp"]))
        assert individual_activations(index, "u1", 10) == {"nlp": 0.0}

    def test_two_uses_hand_value(self):
        index = index_of(("u1", 9, ["nlp"]), ("u1", 6, ["nlp"]))
        acts = individual_activations(index, "u1", 10, ActivationParams(d_individual=0.5))
        np.testing.assert_allclose(acts["nlp"], math.log(1.5), rtol=1e-12)

    def test_unknown_user_empty(self):
        index = index_of(("u1", 9, ["nlp"]))
        assert individual_activations(index, "zz", 10) == {}

    def test_uses_at_or_after_now_excluded(self):
        index = index_of(("u1", 10, ["a"]), ("u1", 12, ["a"]), ("u1", 5, ["b"]))
        acts = individual_activations(index, "u1", 10)
        assert set(acts) == {"b"}

    def test_underflowing_activation_ranks_last(self):
        # 1e6 ** -60 is below the smallest double, so the sum of "a" is
        # 0; it is taken in log space and ranks below "b" and "c".
        index = index_of(
            ("u1", 0, ["a"]), ("u1", 10, ["a"]), ("u1", 999_990, ["b"]), ("u1", 999_000, ["c"])
        )
        params = ActivationParams(d_individual=60.0, beta=1.0)
        acts = individual_activations(index, "u1", 1_000_000, params)
        np.testing.assert_allclose(
            acts["a"], math.log(2.0) + 60 * math.log(1.0 / 999_995), rtol=1e-3
        )
        # The sums that do not underflow keep their bits.
        without_a = individual_activations(
            index_of(("u1", 999_990, ["b"]), ("u1", 999_000, ["c"])), "u1", 1_000_000, params
        )
        assert (acts["b"], acts["c"]) == (without_a["b"], without_a["c"])
        ranked = recommend_bll_is(index, FollowGraph(), "u1", 1_000_000, params, k=3)
        assert [tag for tag, _ in ranked] == ["b", "c", "a"]

    def test_min_age_clamp(self):
        # Integer times are at least 1 s before an integer now; a fractional
        # now puts the use at 9 a quarter second back, clamped to 1 s.
        index = index_of(("u1", 8, ["a"]), ("u1", 9, ["a"]))
        acts = individual_activations(index, "u1", 9.25)
        np.testing.assert_allclose(acts["a"], math.log(1.25**-0.5 + 1.0), rtol=1e-12)


class TestSocialActivations:
    GRAPH = FollowGraph(edges={"u1": frozenset({"a", "b"})})

    def test_single_followee_unit_age(self):
        index = index_of(("a", 9, ["ai"]))
        assert social_activations(index, self.GRAPH, "u1", 10) == {"ai": 0.0}

    def test_two_followees_pool_into_one_multiset(self):
        index = index_of(("a", 9, ["ai"]), ("b", 9, ["ai"]))
        acts = social_activations(index, self.GRAPH, "u1", 10)
        np.testing.assert_allclose(acts["ai"], math.log(2), rtol=1e-12)

    def test_idle_followee_contributes_nothing(self):
        index = index_of(("zz", 9, ["ai"]))
        assert social_activations(index, self.GRAPH, "u1", 10) == {}

    def test_no_followees_empty(self):
        index = index_of(("a", 9, ["ai"]))
        assert social_activations(index, FollowGraph(edges={}), "u1", 10) == {}

    def test_own_uses_not_in_social_pool(self):
        index = index_of(("u1", 9, ["ai"]))
        assert social_activations(index, self.GRAPH, "u1", 10) == {}


class TestNormalizeSoftmax:
    def test_symmetry(self):
        out = normalize_softmax({"a": 0.0, "b": 0.0})
        np.testing.assert_allclose([out["a"], out["b"]], [0.5, 0.5], rtol=1e-12)

    def test_hand_value(self):
        out = normalize_softmax({"a": math.log(2), "b": 0.0})
        np.testing.assert_allclose([out["a"], out["b"]], [2 / 3, 1 / 3], rtol=1e-12)

    def test_singleton_and_empty(self):
        assert normalize_softmax({"a": 7.0}) == {"a": 1.0}
        assert normalize_softmax({}) == {}

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            scores = {f"h{i}": float(v) for i, v in enumerate(rng.normal(0, 50, size=int(rng.integers(1, 15))))}
            out = normalize_softmax(scores)
            np.testing.assert_allclose(sum(out.values()), 1.0, atol=1e-9)
            shift = float(rng.uniform(-1e3, 1e3))
            shifted = normalize_softmax({k: v + shift for k, v in scores.items()})
            for key in scores:
                np.testing.assert_allclose(shifted[key], out[key], rtol=1e-9)

    def test_large_scores_do_not_overflow(self):
        out = normalize_softmax({"a": 1e4, "b": 1e4 - 1})
        assert math.isfinite(out["a"]) and out["a"] > out["b"]


class TestMixScores:
    def test_beta_one_keeps_individual_with_zero_fill(self):
        mixed = mix_scores({"a": 0.8, "b": 0.2}, {"a": 0.1, "c": 0.9}, beta=1.0)
        assert mixed == {"a": 0.8, "b": 0.2, "c": 0.0}

    def test_hand_arithmetic(self):
        mixed = mix_scores({"a": 0.8, "b": 0.2}, {"a": 0.2, "b": 0.4, "c": 0.4}, beta=0.5)
        np.testing.assert_allclose(
            [mixed["a"], mixed["b"], mixed["c"]], [0.5, 0.3, 0.2], rtol=1e-12
        )

    def test_both_empty(self):
        assert mix_scores({}, {}, beta=0.3) == {}

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            mix_scores({}, {}, beta=1.5)


class TestRankTopK:
    def test_ties_break_lexicographically(self):
        ranked = rank_top_k({"zebra": 1.0, "apple": 1.0, "mango": 2.0}, 3)
        assert ranked == [("mango", 2.0), ("apple", 1.0), ("zebra", 1.0)]

    def test_k_truncates_and_k_beyond_size_keeps_all(self):
        scores = {"a": 3.0, "b": 2.0, "c": 1.0}
        assert [t for t, _ in rank_top_k(scores, 2)] == ["a", "b"]
        assert len(rank_top_k(scores, 10)) == 3

    def test_k_validated(self):
        with pytest.raises(ValueError):
            rank_top_k({"a": 1.0}, 0)


class TestRecommendBllIs:
    def test_no_history_no_candidates(self):
        index = index_of(("zz", 5, ["x"]))
        assert recommend_bll_is(index, FollowGraph(edges={}), "u1", 10) == []

    def test_single_own_hashtag_scores_beta(self):
        index = index_of(("u1", 5, ["x"]))
        for beta in (0.0, 0.3, 1.0):
            params = ActivationParams(beta=beta)
            assert recommend_bll_is(index, FollowGraph(edges={}), "u1", 10, params) == [
                ("x", beta)
            ]

    def test_tie_scores_order_lexicographically(self):
        index = index_of(("u1", 5, ["apple", "zebra"]))
        ranked = recommend_bll_is(index, FollowGraph(edges={}), "u1", 10)
        assert [t for t, _ in ranked] == ["apple", "zebra"]

    def test_recency_wins_at_equal_frequency(self):
        index = index_of(("u1", 100, ["old"]), ("u1", 900, ["new"]))
        ranked = recommend_bll_is(index, FollowGraph(edges={}), "u1", 1000)
        assert [t for t, _ in ranked] == ["new", "old"]

    def test_translation_invariance_bit_exact(self):
        graph = FollowGraph(edges={"u1": frozenset({"a"})})
        rows = [("u1", 5, ["x"]), ("u1", 40, ["y"]), ("a", 30, ["z", "x"])]
        base = recommend_bll_is(index_of(*rows), graph, "u1", 50)
        shifted_rows = [(u, t + 123456, tags) for u, t, tags in rows]
        shifted = recommend_bll_is(index_of(*shifted_rows), graph, "u1", 50 + 123456)
        assert base == shifted

    def test_deterministic_across_calls(self):
        graph = FollowGraph(edges={"u1": frozenset({"a", "b"})})
        index = index_of(("u1", 5, ["x"]), ("a", 7, ["y"]), ("b", 8, ["x", "y"]))
        first = recommend_bll_is(index, graph, "u1", 20)
        for _ in range(5):
            assert recommend_bll_is(index, graph, "u1", 20) == first


class TestActivationParams:
    def test_defaults(self):
        params = ActivationParams()
        assert (params.d_individual, params.d_social, params.beta, params.min_age) == (
            0.5,
            0.5,
            0.5,
            1.0,
        )

    def test_min_age_is_a_constant_not_a_field(self):
        assert ActivationParams().min_age == ActivationParams.min_age == 1.0
        with pytest.raises(TypeError, match="min_age"):
            ActivationParams(min_age=5.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d_individual": 0.0},
            {"d_social": -1.0},
            {"beta": -0.1},
            {"beta": 1.1},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ActivationParams(**kwargs)

    @pytest.mark.parametrize("field", ["d_individual", "d_social"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ActivationParams(**{field: value})


class TestBllIsScores:
    def random_fixture(self, rng):
        users = [f"u{i}" for i in range(4)]
        rows = [
            (users[int(rng.integers(4))], int(rng.integers(100)),
             {f"h{int(rng.integers(6))}" for _ in range(int(rng.integers(1, 3)))})
            for _ in range(int(rng.integers(1, 25)))
        ]
        graph = FollowGraph(edges={
            u: frozenset(v for v in users if v != u and rng.random() < 0.5) for u in users
        })
        return index_of(*rows), graph

    def test_ranking_the_scores_is_recommend_bll_is(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            index, graph = self.random_fixture(rng)
            params = ActivationParams(
                d_individual=float(rng.uniform(0.1, 2.0)),
                d_social=float(rng.uniform(0.1, 2.0)),
                beta=float(rng.uniform()),
            )
            now = int(rng.integers(1, 120))
            for k in (1, 3, 100):
                scores = history_scores(index, graph, "u0", now, params)
                assert rank_top_k(scores, k) == recommend_bll_is(index, graph, "u0", now, params, k)

    def test_unranked_scores_cover_own_and_followee_hashtags(self):
        graph = FollowGraph(edges={"u1": frozenset({"a"})})
        index = index_of(("u1", 5, ["x"]), ("a", 7, ["y"]), ("b", 8, ["z"]), ("u1", 30, ["w"]))
        scores = history_scores(index, graph, "u1", 20, ActivationParams(beta=0.25))
        assert scores == {"x": 0.25, "y": 0.75}


def fsum_activation(ages, d):
    """ln of sum age**(-d) by an independent route: exp/log per term,
    accumulated exactly by ``math.fsum``."""
    return math.log(math.fsum(math.exp(-d * math.log(a)) for a in ages))


def reference_activations(tweets, users, now, d, min_age):
    """Scalar BLL from the raw tweets: every hashtag's ages collected
    user by user (in the given order) and in time order within a user,
    then summed by ``fsum_activation``."""
    ordered = sorted(tweets, key=Tweet.sort_key)
    ages: dict[str, list[float]] = {}
    for user in users:
        for tweet in ordered:
            if tweet.user_id == user and tweet.time < now:
                for tag in sorted(tweet.hashtags):
                    ages.setdefault(tag, []).append(max(float(now - tweet.time), min_age))
    return {tag: fsum_activation(a, d) for tag, a in ages.items()}


def reference_ranking(tweets, graph, user, now, params, k):
    own = reference_activations(tweets, [user], now, params.d_individual, params.min_age)
    social = reference_activations(
        tweets, sorted(graph.followees(user)), now, params.d_social, params.min_age
    )
    mixed = mix_scores(normalize_softmax(own), normalize_softmax(social), params.beta)
    return sorted(mixed.items(), key=lambda item: (-item[1], item[0]))[:k]


def assert_same_scores(actual, expected):
    assert set(actual) == set(expected)
    for tag, value in expected.items():
        np.testing.assert_allclose(actual[tag], value, rtol=1e-9, atol=1e-300)


class TestArrayPathAgainstScalarOracle:
    """The columnar path against an ``fsum`` oracle on random corpora.

    The corpora have repeated timestamps, uses exactly at ``now``, ages
    under ``min_age``, users without history or followees, followees
    sharing the user's hashtags, and non-ASCII hashtags whose ties must
    break in code-point order.
    """

    TAGS = ["a", "b", "z", "é", "ω", "日本", "zz"]
    USERS = ["u0", "u1", "u2", "u3", "idle"]

    def random_corpus(self, rng):
        tweets = [
            Tweet(
                tweet_id=f"t{i:03d}",
                user_id=self.USERS[int(rng.integers(4))],
                time=int(rng.integers(0, 40)),
                hashtags=frozenset(
                    self.TAGS[int(j)] for j in rng.integers(0, len(self.TAGS), size=int(rng.integers(1, 4)))
                ),
            )
            for i in range(int(rng.integers(0, 60)))
        ]
        graph = FollowGraph(edges={
            u: frozenset(v for v in self.USERS if v != u and rng.random() < 0.5)
            for u in self.USERS[:3]
        })
        return tweets, graph

    def random_params(self, rng):
        return ActivationParams(
            d_individual=float(rng.uniform(0.1, 2.0)),
            d_social=float(rng.uniform(0.1, 2.0)),
            beta=float(rng.uniform()),
        )

    def test_activations_and_rankings_match_the_scalar_oracle(self):
        rng = np.random.default_rng(2017)
        for _ in range(150):
            tweets, graph = self.random_corpus(rng)
            index = build_usage_index(build_corpus(tweets, graph))
            params = self.random_params(rng)
            # now often equals a use time, whose use must then not count.
            if tweets and rng.random() < 0.5:
                now = int(rng.choice([t.time for t in tweets]))
            else:
                now = int(rng.integers(0, 45))
            # A fractional now leaves uses under 1 s old, so the clamp binds.
            if rng.random() < 0.5:
                now += float(rng.choice([0.25, 0.5, 0.75]))
            for user in self.USERS:
                assert_same_scores(
                    individual_activations(index, user, now, params),
                    reference_activations(tweets, [user], now, params.d_individual, params.min_age),
                )
                assert_same_scores(
                    social_activations(index, graph, user, now, params),
                    reference_activations(
                        tweets, sorted(graph.followees(user)), now, params.d_social, params.min_age
                    ),
                )
                for k in (1, 3, 10):
                    ranked = recommend_bll_is(index, graph, user, now, params, k)
                    expected = reference_ranking(tweets, graph, user, now, params, k)
                    assert [tag for tag, _ in ranked] == [tag for tag, _ in expected]
                    np.testing.assert_allclose(
                        [s for _, s in ranked], [s for _, s in expected], rtol=1e-9, atol=1e-300
                    )

    def test_ties_break_in_code_point_order(self):
        tags = ["日本", "z", "é", "a", "ω", "Z"]
        index = index_of(("u1", 5, tags))
        ranked = recommend_bll_is(index, FollowGraph(edges={}), "u1", 10)
        assert [t for t, _ in ranked] == sorted(tags) == ["Z", "a", "z", "é", "ω", "日本"]

    def test_activation_view_reads_like_a_dict(self):
        index = index_of(("u1", 9, ["é"]), ("u1", 6, ["a"]), ("u2", 1, ["b"]))
        acts = individual_activations(index, "u1", 10)
        assert list(acts) == ["a", "é"] and len(acts) == 2
        assert acts == {"a": base_level_activation([4.0], 0.5), "é": 0.0}
        assert "b" not in acts and "zz" not in acts and acts.get("b") is None
        with pytest.raises(KeyError):
            acts["b"]


@st.composite
def tag_views(draw, tags=None):
    """A ``TagScores`` over a few distinct score values, so ties straddle the k-th place."""
    if tags is None:
        tags = sorted(draw(st.lists(st.text(max_size=3), unique=True, max_size=30)))
    ids = sorted(draw(st.sets(st.integers(0, max(len(tags) - 1, 0)), max_size=len(tags))))
    pool = draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=3))
    scores = [draw(st.sampled_from(pool)) for _ in ids]
    return TagScores(tags, np.array(ids, dtype=np.int32), np.array(scores, dtype=float))


class TestTagScoresAgainstDicts:
    """The view's array methods against the dict functions they stand for."""

    @settings(max_examples=400, deadline=None)
    @given(view=tag_views(), extra_k=st.integers(1, 40))
    def test_top_k_is_rank_top_k(self, view, extra_k):
        n = len(view)
        for k in sorted({1, n - 1, n, n + 1, extra_k} - {-1, 0}):
            assert view.top_k(k) == rank_top_k(dict(view), k)

    def test_top_k_of_the_empty_view(self):
        empty = TagScores(["a", "b"], np.empty(0, dtype=np.int32), np.empty(0))
        for k in (1, 2, 10):
            assert empty.top_k(k) == []
        with pytest.raises(ValueError):
            empty.top_k(0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), weight=st.floats(0.0, 1.0))
    def test_mix_is_mix_scores(self, data, weight):
        tags = sorted(data.draw(st.lists(st.text(max_size=3), unique=True, max_size=30)))
        mine, theirs = data.draw(tag_views(tags)), data.draw(tag_views(tags))
        # Infinite or huge scores may overflow or blend to nan, which numpy
        # warns of and the dict path does silently; the values are compared below.
        with np.errstate(over="ignore", invalid="ignore"):
            mixed = mine.mix(theirs, weight)
        assert mixed.ids.dtype == np.int32
        assert (np.diff(mixed.ids) > 0).all()
        got, expected = dict(mixed), mix_scores(dict(mine), dict(theirs), weight)
        assert got.keys() == expected.keys()
        # Infinite scores can blend to nan (0 * inf, inf - inf) on both sides;
        # assert_array_equal counts nan in the same place as equal.
        np.testing.assert_array_equal([got[tag] for tag in expected], list(expected.values()))

    def test_mix_with_empty_sides(self):
        tags = ["a", "b", "c"]
        empty = TagScores(tags, np.empty(0, dtype=np.int32), np.empty(0))
        full = TagScores(tags, np.array([0, 2], dtype=np.int32), np.array([0.75, 0.25]))
        for mine, theirs in ((empty, empty), (empty, full), (full, empty)):
            mixed = mine.mix(theirs, 0.25)
            assert mixed.ids.dtype == np.int32
            assert dict(mixed) == mix_scores(dict(mine), dict(theirs), 0.25)


class TestGroup:
    """``_group`` against ``np.unique(x, return_inverse=True)``."""

    @pytest.mark.parametrize(
        "values",
        [
            np.empty(0, dtype=np.int32),
            np.array([7], dtype=np.int32),
            np.full(9, 4, dtype=np.int32),
            *(np.random.default_rng(seed).integers(-5, 40, size=200).astype(np.int32) for seed in range(5)),
            np.random.default_rng(5).integers(0, 2**31 - 1, size=1000).astype(np.int32),
        ],
    )
    def test_matches_np_unique(self, values):
        present, inverse = _group(values)
        expected_present, expected_inverse = np.unique(values, return_inverse=True)
        assert present.dtype == expected_present.dtype and inverse.dtype == expected_inverse.dtype
        np.testing.assert_array_equal(present, expected_present)
        np.testing.assert_array_equal(inverse, expected_inverse)
