"""The content profile as of a time: one forward pass against a recount."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashrec.content import content_scores, profiles_before
from hashrec.corpus import FollowGraph, Tweet, build_corpus

WORDS = ["deep", "nets", "pip", "go"]
TAGS = ["a", "b", "c"]


def recount(tweets, now):
    """doc_count, df and assoc from the tweets strictly before ``now``."""
    doc_count = 0
    df: Counter[str] = Counter()
    assoc: dict[str, Counter[str]] = {}
    for tweet in tweets:
        if tweet.time >= now or not tweet.tokens:
            continue
        doc_count += 1
        for token in set(tweet.tokens):
            df[token] += 1
            if tweet.hashtags:
                assoc.setdefault(token, Counter()).update(tweet.hashtags)
    return (
        doc_count,
        dict(df),
        {token: dict(row) for token, row in assoc.items()},
    )


def as_tuple(profile):
    return (
        profile.doc_count,
        dict(profile.df),
        {token: dict(row) for token, row in profile.assoc.items()},
    )


rows = st.lists(
    st.tuples(
        st.integers(0, 20),
        st.frozensets(st.sampled_from(TAGS), max_size=2),
        st.none() | st.lists(st.sampled_from(WORDS), max_size=4).map(tuple),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(rows=rows, times=st.lists(st.integers(-1, 22), max_size=8).map(sorted))
def test_each_profile_equals_a_recount_of_the_earlier_tweets(rows, times):
    tweets = [Tweet(f"t{i:03d}", "u1", time, tags, tokens) for i, (time, tags, tokens) in enumerate(rows)]
    corpus = build_corpus(tweets, FollowGraph())
    drawn = []
    # A profile is read before the next one is drawn: they share counters.
    for now, profile in zip(times, profiles_before(corpus, times)):
        drawn.append(now)
        assert as_tuple(profile) == recount(tweets, now)
    assert drawn == times


@settings(max_examples=200, deadline=None)
@given(
    rows=rows,
    times=st.lists(st.integers(-1, 22), max_size=8).map(sorted),
    kept=st.frozensets(st.sampled_from(WORDS + ["unseen"])),
    data=st.data(),
)
def test_a_profile_of_some_tokens_counts_them_as_the_full_profile_does(rows, times, kept, data):
    tweets = [Tweet(f"t{i:03d}", "u1", time, tags, tokens) for i, (time, tags, tokens) in enumerate(rows)]
    corpus = build_corpus(tweets, FollowGraph())
    pairs = zip(times, profiles_before(corpus, times), profiles_before(corpus, times, kept))
    # Each pair is read before the next is drawn: each replay shares its counters.
    for now, whole, part in pairs:
        doc_count, df, assoc = recount(tweets, now)
        assert as_tuple(part) == (
            doc_count,
            {token: n for token, n in df.items() if token in kept},
            {token: row for token, row in assoc.items() if token in kept},
        )
        query = data.draw(st.lists(st.sampled_from(sorted(kept)), max_size=5)) if kept else []
        assert content_scores(part, query) == content_scores(whole, query)


def test_a_time_lower_than_the_one_before_is_rejected():
    corpus = build_corpus([Tweet("t1", "u1", 5, frozenset({"a"}), ("deep",))], FollowGraph())
    for times in ([3, 8, 7], [25, math.nan, 15], [math.nan], [3, math.inf, math.nan]):
        with pytest.raises(ValueError, match="times"):
            list(profiles_before(corpus, times))
