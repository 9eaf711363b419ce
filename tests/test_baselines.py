"""Frequency and recency baselines."""

import math
from collections import Counter

import numpy as np
import pytest

from hashrec.activation import ActivationParams, recommend_bll_is
from hashrec.baselines import most_recent, mp_global, mp_social, mp_user
from hashrec.content import build_profiles, recommend_bll_isc
from hashrec.corpus import FollowGraph, Tweet, build_corpus, build_usage_index


def index_of(*rows):
    tweets = [
        Tweet(tweet_id=f"t{i}", user_id=u, time=t, hashtags=frozenset(tags))
        for i, (u, t, tags) in enumerate(rows)
    ]
    return build_usage_index(build_corpus(tweets))


class TestMpGlobal:
    def test_count_order(self):
        index = index_of(("u1", 1, ["a"]), ("u2", 2, ["a"]), ("u3", 3, ["a", "b"]))
        assert mp_global(index, 10) == [("a", 3.0), ("b", 1.0)]

    def test_empty_index(self):
        assert mp_global(index_of(), 10) == []

    def test_tie_counts_lexicographic(self):
        index = index_of(("u1", 1, ["zz", "aa"]))
        assert [t for t, _ in mp_global(index, 10)] == ["aa", "zz"]

    def test_strictly_before_now(self):
        index = index_of(("u1", 5, ["a"]), ("u1", 10, ["a"]), ("u1", 15, ["a"]))
        assert mp_global(index, 10) == [("a", 1.0)]


class TestMpUser:
    def test_own_counts_only(self):
        index = index_of(("u1", 1, ["x"]), ("u2", 2, ["y"]), ("u2", 3, ["y"]))
        assert mp_user(index, "u1", 10) == [("x", 1.0)]

    def test_unknown_user(self):
        assert mp_user(index_of(("u1", 1, ["x"])), "zz", 10) == []

    def test_equal_counts_lexicographic(self):
        index = index_of(("u1", 1, ["x"]), ("u1", 2, ["y"]), ("u1", 3, ["x"]), ("u1", 4, ["y"]))
        assert mp_user(index, "u1", 10) == [("x", 2.0), ("y", 2.0)]


class TestMpSocial:
    GRAPH = FollowGraph(edges={"u1": frozenset({"a", "b"})})

    def test_single_followee_counts(self):
        index = index_of(("a", 1, ["p"]), ("a", 2, ["p"]), ("a", 3, ["q"]))
        assert mp_social(index, self.GRAPH, "u1", 10) == [("p", 2.0), ("q", 1.0)]

    def test_no_followees(self):
        index = index_of(("a", 1, ["p"]))
        assert mp_social(index, FollowGraph(edges={}), "u1", 10) == []

    def test_pooled_across_followees(self):
        index = index_of(("a", 1, ["p"]), ("b", 2, ["p"]), ("b", 3, ["q"]), ("zz", 4, ["q"]))
        assert mp_social(index, self.GRAPH, "u1", 10) == [("p", 2.0), ("q", 1.0)]


class TestMostRecent:
    def test_fresher_first(self):
        index = index_of(("u1", 5, ["x"]), ("u1", 9, ["y"]))
        assert most_recent(index, "u1", 10) == [("y", -1.0), ("x", -5.0)]

    def test_same_last_use_lexicographic(self):
        index = index_of(("u1", 9, ["b", "a"]))
        assert [t for t, _ in most_recent(index, "u1", 10)] == ["a", "b"]

    def test_unknown_user(self):
        assert most_recent(index_of(("u1", 1, ["x"])), "zz", 10) == []

    def test_use_at_now_excluded(self):
        index = index_of(("u1", 10, ["x"]), ("u1", 4, ["y"]))
        assert most_recent(index, "u1", 10) == [("y", -6.0)]


class TestAgreementWithActivationLimits:
    def test_mp_user_matches_bll_ranking_as_decay_vanishes(self):
        # With d almost 0 every age contributes ~1, so activation
        # becomes a pure count.  Distinct counts per hashtag keep the
        # comparison away from ties, where the two tie rules
        # legitimately differ (lexicographic vs. residual recency).
        rng = np.random.default_rng(42)
        graph = FollowGraph(edges={})
        params = ActivationParams(d_individual=1e-6, d_social=1e-6, beta=1.0)
        for _ in range(25):
            n_tags = int(rng.integers(2, 7))
            times = iter(sorted(rng.choice(np.arange(1, 5000), size=n_tags * (n_tags + 1) // 2, replace=False)))
            rows = []
            for i in range(n_tags):
                rows.extend(("u1", int(next(times)), [f"h{i}"]) for _ in range(i + 1))
            index = index_of(*rows)
            now = 10_000
            counts = [t for t, _ in mp_user(index, "u1", now, k=50)]
            bll = [t for t, _ in recommend_bll_is(index, graph, "u1", now, params, k=50)]
            assert counts == bll

    def test_most_recent_matches_bll_on_single_use_histories(self):
        rng = np.random.default_rng(42)
        graph = FollowGraph(edges={})
        params = ActivationParams(beta=1.0)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            times = rng.choice(np.arange(1, 900), size=n, replace=False)
            rows = [("u1", int(t), [f"h{i}"]) for i, t in enumerate(times)]
            index = index_of(*rows)
            recency = [t for t, _ in most_recent(index, "u1", 1000, k=20)]
            bll = [t for t, _ in recommend_bll_is(index, graph, "u1", 1000, params, k=20)]
            assert recency == bll


def recount(tweets, users, now):
    """Every hashtag's uses by ``users`` (None: by anyone) strictly
    before now, counted and last-timed from the raw tweets."""
    counts: Counter = Counter()
    last: dict[str, int] = {}
    for tweet in tweets:
        if tweet.time < now and (users is None or tweet.user_id in users):
            counts.update(tweet.hashtags)
            for tag in tweet.hashtags:
                last[tag] = max(last.get(tag, tweet.time), tweet.time)
    return counts, last


def ranked(scores, k):
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]


class TestAgainstBruteForceRecount:
    """All four baselines against a pure-Python recount on random corpora.

    The corpora have repeated timestamps, uses exactly at ``now``, an
    unknown user, users without followees, followees sharing hashtags,
    and non-ASCII hashtags whose ties must break in code-point order.
    """

    TAGS = ["a", "b", "z", "Z", "é", "ω", "日本", "zz"]
    USERS = ["u0", "u1", "u2", "u3", "ghost"]

    def random_corpus(self, rng):
        tweets = [
            Tweet(
                tweet_id=f"t{i:03d}",
                user_id=self.USERS[int(rng.integers(4))],
                time=int(rng.integers(0, 30)),
                hashtags=frozenset(
                    self.TAGS[int(j)] for j in rng.integers(0, len(self.TAGS), size=int(rng.integers(1, 4)))
                ),
            )
            for i in range(int(rng.integers(0, 60)))
        ]
        # u3 and ghost follow nobody.
        graph = FollowGraph(edges={
            u: frozenset(v for v in self.USERS if v != u and rng.random() < 0.6)
            for u in self.USERS[:3]
        })
        return tweets, graph

    def test_rankings_equal_the_recount(self):
        rng = np.random.default_rng(1908)
        for _ in range(200):
            tweets, graph = self.random_corpus(rng)
            index = build_usage_index(build_corpus(tweets, graph))
            # now often equals a use time, whose uses must then not count.
            if tweets and rng.random() < 0.5:
                now = int(rng.choice([t.time for t in tweets]))
            else:
                now = int(rng.integers(0, 35))
            for k in (1, 3, 50):
                overall, _ = recount(tweets, None, now)
                assert mp_global(index, now, k) == ranked({t: float(c) for t, c in overall.items()}, k)
                for user in self.USERS:
                    own, last = recount(tweets, {user}, now)
                    social, _ = recount(tweets, graph.followees(user), now)
                    assert mp_user(index, user, now, k) == ranked({t: float(c) for t, c in own.items()}, k)
                    assert mp_social(index, graph, user, now, k) == ranked(
                        {t: float(c) for t, c in social.items()}, k
                    )
                    assert most_recent(index, user, now, k) == ranked(
                        {t: -float(now - time) for t, time in last.items()}, k
                    )


class TestSharedContracts:
    @pytest.mark.parametrize("k", [0, -3])
    def test_k_validated_everywhere(self, k):
        index = index_of(("u1", 1, ["x"]))
        graph = FollowGraph(edges={})
        for call in (
            lambda: mp_global(index, 10, k),
            lambda: mp_user(index, "u1", 10, k),
            lambda: mp_social(index, graph, "u1", 10, k),
            lambda: most_recent(index, "u1", 10, k),
        ):
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf, 2**63])
    def test_a_query_time_the_columns_cannot_cut_is_rejected_naming_now(self, now):
        tweets = [Tweet("t1", "u1", 1, frozenset({"x"}), ("deep",)), Tweet("t2", "a", 2, frozenset({"y"}))]
        corpus = build_corpus(tweets, FollowGraph(edges={"u1": frozenset({"a"})}))
        index, graph, profile = corpus.index, corpus.graph, build_profiles(corpus)
        for call in (
            lambda: recommend_bll_is(index, graph, "u1", now),
            lambda: recommend_bll_isc(index, graph, profile, "u1", now, ["deep"]),
            lambda: mp_global(index, now),
            lambda: mp_user(index, "u1", now),
            lambda: mp_social(index, graph, "u1", now),
            lambda: most_recent(index, "u1", now),
        ):
            with pytest.raises(ValueError, match="now"):
                call()
