"""Reuse categorization, age histograms, and power-law fitting."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashrec import reuse
from hashrec.corpus import (
    FollowGraph,
    Tweet,
    build_corpus,
    build_usage_index,
    chronological_split,
    parse_follows,
    parse_tweets,
)
from hashrec.reuse import (
    TIME_UNIT_SECONDS,
    AgeHistogram,
    ReuseCategory,
    categorize_assignment,
    category_distribution,
    fit_power_law,
    log_bucket_edges,
    reuse_age_histogram,
)
from hashrec.synth import GenConfig, generate


def make_tweet(tweet_id, user_id, time, hashtags):
    return Tweet(tweet_id=tweet_id, user_id=user_id, time=time, hashtags=frozenset(hashtags))


def corpus_of(rows, edges=None):
    """rows: (tweet_id, user_id, time, hashtags)."""
    graph = FollowGraph(edges={u: frozenset(vs) for u, vs in (edges or {}).items()})
    return build_corpus([make_tweet(*row) for row in rows], graph)


def recount_ages(corpus, kind):
    """Every reuse age of the kind, by a scan of all tweets per assignment."""
    ages = []
    for tweet in corpus.tweets:
        if kind == "individual":
            sources = {tweet.user_id}
        else:
            sources = corpus.graph.followees(tweet.user_id)
        for tag in tweet.hashtags:
            prior = [t.time for t in corpus.tweets
                     if t.user_id in sources and t.time < tweet.time and tag in t.hashtags]
            if prior:
                ages.append(tweet.time - max(prior))
    return ages


def recount_categories(corpus):
    """Every assignment categorized against an index of strictly earlier tweets."""
    counts = {category: 0 for category in ReuseCategory}
    for tweet in corpus.tweets:
        prefix = build_usage_index([t for t in corpus.tweets if t.time < tweet.time])
        for tag in tweet.hashtags:
            counts[categorize_assignment(prefix, corpus.graph, tweet.user_id, tag, tweet.time)] += 1
    return counts


# "quiet" is only followed and never tweets; "mute" tweets without
# hashtags, so it has no usage column; "u3" follows nobody.
corpora = st.builds(
    lambda rows, edges: corpus_of(
        [(f"t{i:03d}", user, time, tags) for i, (user, time, tags) in enumerate(rows)], edges
    ),
    st.lists(
        st.tuples(
            st.sampled_from(["u0", "u1", "u2", "u3", "mute"]),
            st.integers(0, 30),
            st.frozensets(st.sampled_from(["a", "b", "c"]), max_size=3),
        ).map(lambda row: row if row[0] != "mute" else (row[0], row[1], frozenset())),
        max_size=40,
    ),
    st.dictionaries(
        st.sampled_from(["u0", "u1", "u2"]),
        st.frozensets(st.sampled_from(["u0", "u1", "u2", "u3", "mute", "quiet"]), max_size=4),
    ).map(lambda edges: {u: vs - {u} for u, vs in edges.items()}),
)


class TestCategorizeAssignment:
    GRAPH = FollowGraph(edges={"u1": frozenset({"u2"})})

    def index_of(self, *rows):
        return build_usage_index(build_corpus([make_tweet(*row) for row in rows]))

    def test_only_own_prior_use_is_individual(self):
        index = self.index_of(("t1", "u1", 5, ["h"]))
        assert categorize_assignment(index, self.GRAPH, "u1", "h", 10) is ReuseCategory.INDIVIDUAL

    def test_only_followee_prior_use_is_social(self):
        index = self.index_of(("t1", "u2", 5, ["h"]))
        assert categorize_assignment(index, self.GRAPH, "u1", "h", 10) is ReuseCategory.SOCIAL

    def test_both_is_individual_social(self):
        index = self.index_of(("t1", "u1", 5, ["h"]), ("t2", "u2", 6, ["h"]))
        assert (
            categorize_assignment(index, self.GRAPH, "u1", "h", 10)
            is ReuseCategory.INDIVIDUAL_SOCIAL
        )

    def test_non_followee_prior_use_is_network(self):
        index = self.index_of(("t1", "u9", 5, ["h"]))
        assert categorize_assignment(index, self.GRAPH, "u1", "h", 10) is ReuseCategory.NETWORK

    def test_globally_unseen_is_external(self):
        index = self.index_of(("t1", "u9", 5, ["other"]))
        assert categorize_assignment(index, self.GRAPH, "u1", "h", 10) is ReuseCategory.EXTERNAL

    def test_same_timestamp_use_does_not_count(self):
        index = self.index_of(("t1", "u1", 10, ["h"]))
        assert categorize_assignment(index, self.GRAPH, "u1", "h", 10) is ReuseCategory.EXTERNAL

    def test_unknown_user_has_no_history_or_followees(self):
        index = self.index_of(("t1", "u9", 5, ["h"]))
        assert categorize_assignment(index, self.GRAPH, "zz", "h", 10) is ReuseCategory.NETWORK


class TestCategoryDistribution:
    def test_single_assignment_is_external(self):
        dist = category_distribution(corpus_of([("t1", "u1", 1, ["a"])]))
        assert dist[ReuseCategory.EXTERNAL] == (1, 1.0)
        assert dist[ReuseCategory.INDIVIDUAL] == (0, 0.0)

    def test_repeat_by_same_user(self):
        dist = category_distribution(
            corpus_of([("t1", "u1", 1, ["a"]), ("t2", "u1", 2, ["a"])])
        )
        assert dist[ReuseCategory.EXTERNAL] == (1, 0.5)
        assert dist[ReuseCategory.INDIVIDUAL] == (1, 0.5)

    def test_five_way_hand_fixture(self):
        # u2 follows u1.  x: first use external; u2's use social; u1's
        # second use individual; u3's use network; u2's second use has
        # both own and followee history.
        rows = [
            ("t1", "u1", 1, ["x"]),
            ("t2", "u2", 2, ["x"]),
            ("t3", "u1", 3, ["x"]),
            ("t4", "u3", 4, ["x"]),
            ("t5", "u2", 5, ["x"]),
        ]
        dist = category_distribution(corpus_of(rows, {"u2": ["u1"]}))
        counts = {cat: c for cat, (c, _) in dist.items()}
        assert counts == {
            ReuseCategory.EXTERNAL: 1,
            ReuseCategory.SOCIAL: 1,
            ReuseCategory.INDIVIDUAL: 1,
            ReuseCategory.NETWORK: 1,
            ReuseCategory.INDIVIDUAL_SOCIAL: 1,
        }

    def test_same_timestamp_tweets_do_not_see_each_other(self):
        rows = [("t1", "u1", 5, ["x"]), ("t2", "u2", 5, ["x"])]
        dist = category_distribution(corpus_of(rows, {"u2": ["u1"]}))
        assert dist[ReuseCategory.EXTERNAL] == (2, 1.0)

    def test_empty_corpus_all_zero_shares(self):
        dist = category_distribution(corpus_of([]))
        assert all(v == (0, 0.0) for v in dist.values())

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            rows = [
                (f"t{i}", f"u{int(rng.integers(4))}", int(rng.integers(30)),
                 [f"h{int(rng.integers(5))}"])
                for i in range(int(rng.integers(1, 40)))
            ]
            dist = category_distribution(corpus_of(rows, {"u0": ["u1"], "u2": ["u0", "u3"]}))
            total = sum(share for _, share in dist.values())
            np.testing.assert_allclose(total, 1.0, atol=1e-9)
            assert sum(count for count, _ in dist.values()) == sum(len(r[3]) for r in rows)

    def test_streaming_matches_prefix_recategorization(self):
        # Same check as the acceptance gate, kept small here: the
        # one-pass distribution must equal categorizing every
        # assignment against an index of strictly earlier tweets.
        rng = np.random.default_rng(42)
        for _ in range(10):
            rows = [
                (f"t{i:03d}", f"u{int(rng.integers(5))}", int(rng.integers(20)),
                 {f"h{int(rng.integers(4))}" for _ in range(int(rng.integers(0, 3)))})
                for i in range(int(rng.integers(1, 30)))
            ]
            edges = {f"u{a}": [f"u{b}" for b in range(5) if b != a and rng.random() < 0.3]
                     for a in range(5)}
            corpus = corpus_of(rows, edges)
            streamed = {cat: count for cat, (count, _) in category_distribution(corpus).items()}
            assert streamed == recount_categories(corpus)

    @settings(max_examples=150, deadline=None)
    @given(corpus=corpora)
    def test_columns_match_recategorization_on_random_corpora(self, corpus):
        streamed = {cat: count for cat, (count, _) in category_distribution(corpus).items()}
        assert streamed == recount_categories(corpus)


class TestLogBucketEdges:
    def test_edges_cover_and_increase(self):
        edges = log_bucket_edges(3.0, 4000.0)
        assert edges[0] <= 3.0 and edges[-1] >= 4000.0
        assert np.all(np.diff(edges) > 0)

    def test_twenty_buckets_per_decade(self):
        edges = log_bucket_edges(1.0, 10.0)
        assert len(edges) == 21
        np.testing.assert_allclose(edges[0], 1.0)
        np.testing.assert_allclose(edges[-1], 10.0)

    def test_exact_power_of_ten_age_is_covered(self):
        for age in (1.0, 10.0, 100.0, 1000.0):
            edges = log_bucket_edges(age, age)
            assert edges[0] <= age <= edges[-1]

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            log_bucket_edges(0.0, 5.0)
        with pytest.raises(ValueError):
            log_bucket_edges(5.0, 4.0)


class TestReuseAgeHistogram:
    def test_single_individual_reuse_age(self):
        corpus = corpus_of([("t1", "u1", 0, ["h"]), ("t2", "u1", 10, ["h"])])
        hist = reuse_age_histogram(corpus, "individual")
        assert hist.counts.sum() == 1
        mids = hist.midpoints()
        bucket = int(np.flatnonzero(hist.counts)[0])
        assert hist.edges[bucket] <= 10.0 <= hist.edges[bucket + 1]
        assert mids.shape == (len(hist.counts),)

    def test_social_age_uses_most_recent_followee_use(self):
        rows = [("t1", "u2", 0, ["x"]), ("t2", "u2", 8, ["x"]), ("t3", "u1", 10, ["x"])]
        corpus = corpus_of(rows, {"u1": ["u2"]})
        hist = reuse_age_histogram(corpus, "social")
        # one social reuse of age 2 (most recent use at t=8, not t=0)
        assert hist.counts.sum() == 1
        bucket = int(np.flatnonzero(hist.counts)[0])
        assert hist.edges[bucket] <= 2.0 <= hist.edges[bucket + 1]

    def test_no_reuses_all_zero(self):
        corpus = corpus_of([("t1", "u1", 0, ["a"]), ("t2", "u1", 10, ["b"])])
        hist = reuse_age_histogram(corpus, "individual")
        assert hist.counts.sum() == 0

    def test_sub_unit_ages_clamped_to_one(self):
        corpus = corpus_of([("t1", "u1", 0, ["h"]), ("t2", "u1", 1800, ["h"]),
                            ("t3", "u1", 7200, ["h"])])
        hist = reuse_age_histogram(corpus, "individual", time_unit="hours")
        assert hist.counts.sum() == 2
        assert hist.edges[0] <= 1.0

    def test_time_unit_coarser_than_span_rejected(self):
        corpus = corpus_of([("t1", "u1", 0, ["h"]), ("t2", "u1", 500, ["h"])])
        with pytest.raises(ValueError, match="coarser"):
            reuse_age_histogram(corpus, "individual", time_unit="hours")

    def test_same_second_corpus_gives_one_zero_bucket(self):
        # No age is finer than a second, so seconds are never too coarse.
        corpus = corpus_of([("t1", "u1", 5, ["h"]), ("t2", "u1", 5, ["h"])])
        for kind in ("individual", "social"):
            hist = reuse_age_histogram(corpus, kind, time_unit="seconds")
            assert hist.counts.tolist() == [0]

    def test_unknown_kind_and_unit_rejected(self):
        corpus = corpus_of([("t1", "u1", 0, ["h"])])
        with pytest.raises(ValueError):
            reuse_age_histogram(corpus, "global")
        with pytest.raises(ValueError):
            reuse_age_histogram(corpus, "individual", time_unit="weeks")

    def test_counts_match_brute_force_age_list(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            rows = [
                (f"t{i:03d}", f"u{int(rng.integers(3))}", int(rng.integers(1000)),
                 [f"h{int(rng.integers(3))}"])
                for i in range(int(rng.integers(2, 40)))
            ]
            corpus = corpus_of(rows, {"u0": ["u1", "u2"]})
            expected = 0
            for tweet in corpus.tweets:
                for tag in tweet.hashtags:
                    prior = [
                        t.time
                        for t in corpus.tweets
                        if t.user_id == tweet.user_id and t.time < tweet.time and tag in t.hashtags
                    ]
                    if prior:
                        expected += 1
            hist = reuse_age_histogram(corpus, "individual")
            assert hist.counts.sum() == expected

    def test_ages_match_brute_force_recount_with_same_timestamp_tweets(self):
        # Times are drawn from a narrow range so many tweets share a
        # timestamp; those must not count as earlier uses of each other.
        rng = np.random.default_rng(2017)
        for _ in range(30):
            n_users = int(rng.integers(1, 5))
            rows = [
                (f"t{i:03d}", f"u{int(rng.integers(n_users))}", int(rng.integers(30)),
                 {f"h{int(rng.integers(4))}" for _ in range(int(rng.integers(0, 3)))})
                for i in range(int(rng.integers(1, 40)))
            ]
            edges = {f"u{a}": [f"u{b}" for b in range(n_users) if b != a and rng.random() < 0.5]
                     for a in range(n_users)}
            corpus = corpus_of(rows, edges)
            for kind in ("individual", "social"):
                ages = recount_ages(corpus, kind)
                hist = reuse_age_histogram(corpus, kind)
                if not ages:
                    assert hist.counts.sum() == 0
                    continue
                assert min(ages) >= 1
                np.testing.assert_array_equal(
                    hist.edges, log_bucket_edges(float(min(ages)), float(max(ages)))
                )
                expected, _ = np.histogram(np.array(ages, dtype=float), bins=hist.edges)
                np.testing.assert_array_equal(hist.counts, expected)

    @settings(max_examples=150, deadline=None)
    @given(corpus=corpora)
    def test_column_ages_match_recount_on_random_corpora(self, corpus):
        for kind in ("individual", "social"):
            assert sorted(corpus.reuse_replay[kind].tolist()) == sorted(recount_ages(corpus, kind))


class TestCorpusIndex:
    @settings(max_examples=50, deadline=None)
    @given(corpus=corpora)
    def test_index_is_built_once_and_is_not_part_of_the_value(self, corpus):
        twin = build_corpus(corpus.tweets, corpus.graph)

        def identity(c):
            try:
                hashed = hash(c)
            except TypeError as exc:  # a dict-backed follow graph is unhashable
                hashed = str(exc)
            return c == twin, twin == c, repr(c), hashed

        before = identity(corpus)
        assert corpus.index is corpus.index
        assert identity(corpus) == before
        assert before[:2] == (True, True)


class TestFitPowerLaw:
    @staticmethod
    def hist_with_midpoints(midpoints, counts):
        # Edges at geometric half-steps make the requested midpoints exact.
        mids = np.asarray(midpoints, dtype=float)
        ratio = mids[1] / mids[0]
        half = math.sqrt(ratio)
        edges = np.concatenate(([mids[0] / half], mids * half))
        return AgeHistogram(edges=edges, counts=np.asarray(counts), time_unit="seconds")

    def test_exact_inverse_law(self):
        hist = self.hist_with_midpoints([1, 2, 4, 8], [8, 4, 2, 1])
        np.testing.assert_allclose(hist.midpoints(), [1, 2, 4, 8], rtol=1e-12)
        fit = fit_power_law(hist)
        np.testing.assert_allclose(fit.slope, -1.0, atol=1e-12)
        np.testing.assert_allclose(fit.intercept, math.log(8), atol=1e-12)
        np.testing.assert_allclose(fit.r_squared, 1.0, atol=1e-12)

    def test_constant_counts_zero_variance_convention(self):
        hist = self.hist_with_midpoints([1, 2, 4], [5, 5, 5])
        fit = fit_power_law(hist)
        np.testing.assert_allclose(fit.slope, 0.0, atol=1e-12)
        assert fit.r_squared == 1.0

    def test_single_positive_bucket_rejected(self):
        hist = self.hist_with_midpoints([1, 2, 4], [0, 7, 0])
        with pytest.raises(ValueError, match="two positive"):
            fit_power_law(hist)

    def test_zero_count_buckets_do_not_change_fit(self):
        dense = self.hist_with_midpoints([1, 2, 4, 8], [8, 4, 2, 1])
        padded = self.hist_with_midpoints([1, 2, 4, 8, 16, 32], [8, 4, 2, 1, 0, 0])
        fit_a, fit_b = fit_power_law(dense), fit_power_law(padded)
        np.testing.assert_allclose(
            (fit_a.slope, fit_a.intercept, fit_a.r_squared),
            (fit_b.slope, fit_b.intercept, fit_b.r_squared),
            rtol=1e-12,
        )

    def test_matches_closed_form_least_squares(self):
        # Independent OLS route: explicit normal-equation sums.
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(3, 12))
            mids = np.cumprod(rng.uniform(1.5, 3.0, size=n)) * 10
            counts = rng.integers(1, 1000, size=n)
            hist = self.hist_with_midpoints(mids, counts)
            x = np.log(hist.midpoints())
            y = np.log(counts.astype(float))
            sx, sy = x.sum(), y.sum()
            sxx, sxy = (x * x).sum(), (x * y).sum()
            slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
            intercept = (sy - slope * sx) / n
            fit = fit_power_law(hist)
            np.testing.assert_allclose(fit.slope, slope, rtol=1e-9)
            np.testing.assert_allclose(fit.intercept, intercept, rtol=1e-9, atol=1e-12)
            residual = y - (slope * x + intercept)
            ss_tot = ((y - y.mean()) ** 2).sum()
            np.testing.assert_allclose(
                fit.r_squared, 1 - (residual**2).sum() / ss_tot, rtol=1e-9, atol=1e-12
            )

    def test_histogram_invariants_enforced(self):
        with pytest.raises(ValueError):
            AgeHistogram(edges=np.array([1.0, 2.0]), counts=np.array([1, 2]), time_unit="seconds")
        with pytest.raises(ValueError):
            AgeHistogram(edges=np.array([2.0, 1.0, 3.0]), counts=np.array([1, 2]), time_unit="seconds")
        with pytest.raises(ValueError):
            AgeHistogram(edges=np.array([1.0, 2.0, 3.0]), counts=np.array([1, -2]), time_unit="seconds")


# The seed-7 corpus of CI's hash-seed step.  Only integers are pinned:
# the bucket edges come from np.power and the fits from polyfit, whose
# last bits may move between numpy builds.
SEED7_CONFIG = GenConfig(
    n_users=80, n_tweets=6000, follow_prob=0.05, p_individual=0.45, p_social=0.22,
    alpha=1.0, zipf_s=0.6, vocab_size=2000, seed=7,
)
PINNED_CATEGORY_COUNTS = {
    "individual": 1539, "social": 1383, "individual_social": 1135, "network": 829, "external": 1114,
}
PINNED_HISTOGRAM_COUNTS = {
    ("individual", "seconds"): [
        126, 284, 235, 232, 212, 177, 157, 141, 117, 105, 96, 85, 84, 74, 70, 51, 49, 56, 44, 30,
        43, 33, 17, 22, 15, 14, 16, 11, 16, 16, 6, 9, 12, 9, 2, 3, 2, 3,
    ],
    ("social", "seconds"): [
        1, 0, 0, 0, 0, 0, 0, 3, 0, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 5, 0, 5, 2, 2, 3, 4, 4, 3, 4,
        8, 7, 5, 10, 5, 5, 10, 9, 13, 6, 11, 25, 15, 72, 128, 137, 119, 96, 86, 83, 84, 110, 89, 82,
        60, 83, 66, 52, 69, 71, 54, 67, 45, 53, 42, 51, 40, 43, 39, 35, 31, 19, 16, 19, 28, 24, 14,
        15, 7, 5, 13, 2, 7, 13, 17, 16, 20, 12, 3, 16, 13, 11, 5, 13, 15, 7, 14, 4, 8, 1,
    ],
    ("individual", "hours"): [
        2300, 56, 43, 32, 41, 31, 18, 21, 15, 14, 14, 13, 17, 13, 7, 10, 12, 7, 3, 2, 3, 2,
    ],
    ("social", "hours"): [
        1666, 58, 60, 49, 51, 40, 57, 35, 44, 44, 32, 27, 18, 17, 18, 33, 18, 19, 11, 6, 6, 12, 2,
        8, 14, 17, 20, 15, 11, 5, 20, 8, 11, 5, 14, 13, 10, 12, 3, 9,
    ],
}


@pytest.fixture(scope="module")
def seed7_corpus():
    result = generate(SEED7_CONFIG)
    return build_corpus(parse_tweets(result.tweets_jsonl.splitlines()), parse_follows(result.follows_tsv.splitlines()))


def test_seed7_category_counts_are_pinned(seed7_corpus):
    distribution = category_distribution(seed7_corpus)
    assert {category.value: count for category, (count, _) in distribution.items()} == PINNED_CATEGORY_COUNTS


@pytest.mark.parametrize("kind, time_unit", sorted(PINNED_HISTOGRAM_COUNTS))
def test_seed7_histogram_counts_are_pinned(seed7_corpus, kind, time_unit):
    hist = reuse_age_histogram(seed7_corpus, kind=kind, time_unit=time_unit)
    assert hist.counts.tolist() == PINNED_HISTOGRAM_COUNTS[kind, time_unit]


ANALYSES = ("categories", *((kind, unit) for kind in ("individual", "social") for unit in TIME_UNIT_SECONDS))


def analysis(corpus, call):
    if call == "categories":
        return category_distribution(corpus)
    hist = reuse_age_histogram(corpus, *call)
    return hist.edges.tolist(), hist.counts.tolist()


def fresh(corpus):
    return build_corpus(corpus.tweets, corpus.graph)


class TestReuseReplay:
    @pytest.fixture(scope="class")
    def expected(self, seed7_corpus):
        """Every analysis, each on its own freshly built corpus."""
        return {call: analysis(fresh(seed7_corpus), call) for call in ANALYSES}

    @settings(max_examples=20, deadline=None)
    @given(order=st.permutations(ANALYSES))
    def test_replay_runs_once_per_corpus(self, seed7_corpus, expected, order):
        corpus = fresh(seed7_corpus)
        with mock.patch("hashrec.reuse.replay", wraps=reuse.replay) as spy:
            results = {call: analysis(corpus, call) for call in order}
        assert spy.call_count == 1
        assert results == expected

    def test_split_train_replays_its_own_uses(self, seed7_corpus):
        corpus = fresh(seed7_corpus)
        analysis(corpus, "categories")
        train, _ = chronological_split(corpus)
        with mock.patch("hashrec.reuse.replay", wraps=reuse.replay) as spy:
            categories = category_distribution(train)
        assert spy.call_count == 1
        assert categories == category_distribution(fresh(train))
        assert categories != category_distribution(corpus)

    @settings(max_examples=50, deadline=None)
    @given(corpus=corpora)
    def test_replay_is_not_part_of_the_value(self, corpus):
        def identity(c):
            try:
                hashed = hash(c)
            except TypeError as exc:  # a dict-backed follow graph is unhashable
                hashed = str(exc)
            return c == fresh(c), repr(c), hashed

        before = identity(corpus)
        assert corpus.reuse_replay is corpus.reuse_replay
        assert identity(corpus) == before
        assert before[0]
