"""Token-hashtag profiles, tf-idf content scores, and the hybrid blend."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashrec.activation import (
    ActivationParams,
    history_scores,
    mix_scores,
    normalize_softmax,
    rank_top_k,
    recommend_bll_is,
)
from hashrec.content import (
    TokenHashtagProfile,
    build_profiles,
    content_scores,
    idf,
    recommend_bll_isc,
)
from hashrec.corpus import FollowGraph, Tweet, build_corpus, build_usage_index


def corpus_of(rows, edges=None):
    """rows: (user_id, time, hashtags, tokens-or-None)."""
    tweets = [
        Tweet(
            tweet_id=f"t{i:03d}",
            user_id=u,
            time=t,
            hashtags=frozenset(tags),
            tokens=tuple(tokens) if tokens is not None else None,
        )
        for i, (u, t, tags, tokens) in enumerate(rows)
    ]
    graph = FollowGraph(edges={u: frozenset(vs) for u, vs in (edges or {}).items()})
    return build_corpus(tweets, graph)


class TestBuildProfiles:
    def test_single_tweet_association(self):
        profile = build_profiles(corpus_of([("u1", 1, ["ml"], ["deep", "learning"])]))
        assert profile.doc_count == 1
        assert profile.df == {"deep": 1, "learning": 1}
        assert profile.assoc["deep"] == {"ml": 1}

    def test_hashtagless_tweet_counts_for_df_only(self):
        profile = build_profiles(corpus_of([("u1", 1, [], ["deep"])]))
        assert profile.doc_count == 1
        assert profile.df == {"deep": 1}
        assert "deep" not in profile.assoc

    def test_tokenless_tweets_skipped(self):
        profile = build_profiles(
            corpus_of([("u1", 1, ["ml"], None), ("u1", 2, ["ml"], []), ("u1", 3, ["ml"], ["ok"])])
        )
        assert profile.doc_count == 1

    def test_df_counts_documents_not_occurrences(self):
        profile = build_profiles(corpus_of([("u1", 1, ["ml"], ["go", "go", "go"])]))
        assert profile.df["go"] == 1

    def test_four_tweet_fixture_hand_counts(self):
        rows = [
            ("u1", 1, ["ml"], ["deep", "net"]),
            ("u1", 2, ["ml", "ai"], ["deep"]),
            ("u2", 3, [], ["deep", "sea"]),
            ("u2", 4, ["sea"], ["sea", "fish"]),
        ]
        profile = build_profiles(corpus_of(rows))
        assert profile.doc_count == 4
        assert profile.df == {"deep": 3, "net": 1, "sea": 2, "fish": 1}
        assert profile.assoc["deep"] == {"ml": 2, "ai": 1}
        assert profile.assoc["sea"] == {"sea": 1}


class TestIdf:
    def test_token_in_all_docs_is_zero(self):
        profile = build_profiles(corpus_of([("u1", t, ["x"], ["w"]) for t in range(4)]))
        assert idf(profile, "w") == 0.0

    def test_rare_token_hand_value(self):
        rows = [("u1", t, ["x"], ["common"]) for t in range(3)] + [("u1", 9, ["x"], ["rare"])]
        profile = build_profiles(corpus_of(rows))
        np.testing.assert_allclose(idf(profile, "rare"), math.log(4), rtol=1e-12)

    def test_unknown_token_raises(self):
        profile = build_profiles(corpus_of([("u1", 1, ["x"], ["w"])]))
        with pytest.raises(KeyError):
            idf(profile, "nope")


class TestContentScores:
    def fixture_profile(self):
        # "deep" occurs in 1 of 4 docs (idf = ln 4) and co-occurs with
        # ml three times and ai once.
        return TokenHashtagProfile(
            doc_count=4,
            df={"deep": 1, "filler1": 2, "filler2": 2},
            assoc={
                "deep": {"ml": 3, "ai": 1},
                "filler1": {"ml": 2},
                "filler2": {"ml": 1, "ai": 1},
            },
        )

    def test_hand_split_across_hashtags(self):
        scores = content_scores(self.fixture_profile(), ["deep"])
        np.testing.assert_allclose(scores["ml"], 0.75 * math.log(4), rtol=1e-12)
        np.testing.assert_allclose(scores["ai"], 0.25 * math.log(4), rtol=1e-12)

    def test_term_frequency_multiplies(self):
        profile = self.fixture_profile()
        single = content_scores(profile, ["deep"])
        double = content_scores(profile, ["deep", "deep"])
        np.testing.assert_allclose(double["ml"], 2 * single["ml"], rtol=1e-12)

    def test_empty_and_unseen_tokens(self):
        profile = self.fixture_profile()
        assert content_scores(profile, []) == {}
        assert content_scores(profile, ["unseen", "tokens"]) == {}

    def test_a_str_of_tokens_is_rejected(self):
        # Read as characters, "deep learning" would vote for nothing, and
        # the hybrid would rank its history alone without a word.
        corpus = corpus_of([("u1", 1, ["ml"], ["deep", "learning"]), ("u1", 2, ["ai"], ["news"])])
        profile = build_profiles(corpus)
        with pytest.raises(TypeError, match="tokens"):
            content_scores(profile, "deep learning")
        with pytest.raises(TypeError, match="tokens"):
            recommend_bll_isc(
                build_usage_index(corpus), corpus.graph, profile, "u1", 3, "deep learning", lambda_weight=0.0, k=3
            )
        assert content_scores(profile, ("deep", "learning")).keys() == {"ml"}

    def test_token_seen_only_without_hashtags_skipped(self):
        profile = build_profiles(corpus_of([("u1", 1, [], ["lonely"]), ("u1", 2, ["x"], ["w"])]))
        assert content_scores(profile, ["lonely"]) == {}

    def test_replayed_votes_split_by_the_row_sum(self):
        # "deep" is in 3 of 4 docs and co-occurs with ml 2, ai 2 and nlp 1
        # times (row sum 5); "text" is in 1 doc, with ml, ai and nlp once.
        rows = [
            ("u1", 1, ["ml", "ai"], ["deep"]),
            ("u1", 2, ["ml", "nlp", "ai"], ["deep", "text", "deep"]),
            ("u2", 3, [], ["deep"]),
            ("u2", 4, ["sea"], ["fish"]),
        ]
        profile = build_profiles(corpus_of(rows))
        scores = content_scores(profile, ["text", "deep"])
        assert sorted(scores) == ["ai", "ml", "nlp"]
        deep, text = math.log(4 / 3), math.log(4)
        np.testing.assert_allclose(scores["ml"], deep * 2 / 5 + text / 3, rtol=1e-12)
        np.testing.assert_allclose(scores["ai"], deep * 2 / 5 + text / 3, rtol=1e-12)
        np.testing.assert_allclose(scores["nlp"], deep / 5 + text / 3, rtol=1e-12)

    def test_additive_over_token_multisets(self):
        profile = self.fixture_profile()
        rng = np.random.default_rng(42)
        vocab = ["deep", "filler1", "filler2", "unseen"]
        for _ in range(20):
            part_a = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=int(rng.integers(0, 6)))]
            part_b = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=int(rng.integers(0, 6)))]
            combined = content_scores(profile, part_a + part_b)
            split_a, split_b = content_scores(profile, part_a), content_scores(profile, part_b)
            for tag in set(split_a) | set(split_b):
                np.testing.assert_allclose(
                    combined.get(tag, 0.0),
                    split_a.get(tag, 0.0) + split_b.get(tag, 0.0),
                    rtol=1e-9,
                    atol=1e-12,
                )


class TestRecommendBllIsc:
    def setup_corpus(self):
        rows = [
            ("u1", 10, ["x"], ["alpha"]),
            ("u1", 40, ["y"], ["beta"]),
            ("u2", 30, ["z"], ["gamma", "beta"]),
        ]
        return corpus_of(rows, {"u1": ["u2"]})

    def test_lambda_one_matches_history_only_recommender(self):
        corpus = self.setup_corpus()
        index = build_usage_index(corpus)
        profile = build_profiles(corpus)
        history = recommend_bll_is(index, corpus.graph, "u1", 50, k=10)
        hybrid = recommend_bll_isc(
            index, corpus.graph, profile, "u1", 50, ["gamma"], lambda_weight=1.0, k=10
        )
        hybrid_restricted = [(t, s) for t, s in hybrid if s > 0.0]
        assert hybrid_restricted == history

    def test_lambda_zero_is_softmaxed_content(self):
        corpus = self.setup_corpus()
        index = build_usage_index(corpus)
        profile = build_profiles(corpus)
        ranked = recommend_bll_isc(
            index, corpus.graph, profile, "u1", 50, ["gamma"], lambda_weight=0.0, k=10
        )
        expected = normalize_softmax(content_scores(profile, ["gamma"]))
        positive = [(t, s) for t, s in ranked if s > 0.0]
        assert positive == rank_top_k(expected, 10)

    def test_content_only_candidate_wins_at_lambda_zero(self):
        ranked_tags = [t for t, _ in recommend_bll_isc(
            build_usage_index(self.setup_corpus()),
            self.setup_corpus().graph,
            build_profiles(self.setup_corpus()),
            "u1",
            50,
            ["gamma"],
            lambda_weight=0.0,
            k=1,
        )]
        assert ranked_tags == ["z"]

    def test_scores_stay_in_unit_interval_and_union_candidates(self):
        corpus = self.setup_corpus()
        index = build_usage_index(corpus)
        profile = build_profiles(corpus)
        ranked = recommend_bll_isc(index, corpus.graph, profile, "u1", 50, ["beta", "gamma"], k=10)
        assert all(0.0 <= s <= 1.0 for _, s in ranked)
        assert {t for t, _ in ranked} == {"x", "y", "z"}

    def test_never_used_hashtag_promoted_by_content(self):
        # u1's weak, stale history vs fresh content evidence for a tag
        # u1 never used: at lambda 0.5 the content candidate must win.
        rows = [
            ("u1", 1, ["old"], None),
            ("u2", 2, ["fresh"], ["query", "terms"]),
        ]
        corpus = corpus_of(rows)
        index = build_usage_index(corpus)
        profile = build_profiles(corpus)
        ranked = recommend_bll_isc(
            index, corpus.graph, profile, "u1", 1_000_000, ["query"], lambda_weight=0.5, k=2
        )
        # hand arithmetic: mix = {old: 0.5}; content softmax = {fresh: 1.0}
        # final = {old: 0.25, fresh: 0.5}
        assert [t for t, _ in ranked] == ["fresh", "old"]
        np.testing.assert_allclose([s for _, s in ranked], [0.5, 0.25], rtol=1e-12)

    def test_lambda_validated(self):
        corpus = self.setup_corpus()
        with pytest.raises(ValueError):
            recommend_bll_isc(
                build_usage_index(corpus),
                corpus.graph,
                build_profiles(corpus),
                "u1",
                50,
                [],
                lambda_weight=1.5,
            )

    def test_no_tokens_none_is_history_times_lambda(self):
        corpus = self.setup_corpus()
        index = build_usage_index(corpus)
        profile = build_profiles(corpus)
        ranked = recommend_bll_isc(index, corpus.graph, profile, "u1", 50, None, lambda_weight=0.5)
        history = recommend_bll_is(index, corpus.graph, "u1", 50, ActivationParams())
        assert [t for t, _ in ranked] == [t for t, _ in history]
        np.testing.assert_allclose(
            [s for _, s in ranked], [0.5 * s for _, s in history], rtol=1e-12
        )

    def test_interior_lambda_matches_hand_blend(self):
        # Recompute every score from the activation equation: softmax
        # each side, mix by beta, then blend with content by lambda.
        rows = [
            ("u1", 10, ["x"], ["alpha"]),
            ("u1", 25, ["x", "y"], ["beta"]),
            ("u1", 40, ["y"], ["beta"]),
            ("u2", 30, ["z", "x"], ["gamma", "beta"]),
            ("u3", 35, ["z"], ["gamma"]),
            ("u4", 20, ["solo"], ["gamma"]),
        ]
        corpus = corpus_of(rows, {"u1": ["u2", "u3"]})
        index = build_usage_index(corpus)
        profile = build_profiles(corpus)
        params = ActivationParams(d_individual=0.7, d_social=0.4, beta=0.6)
        now, lam, tokens = 50, 0.3, ["gamma", "beta"]

        def softmax(scores):
            exps = {tag: math.exp(value) for tag, value in scores.items()}
            return {tag: value / sum(exps.values()) for tag, value in exps.items()}

        def activations(users, d):
            ages = {}
            for user, time, tags, _ in rows:
                if user in users and time < now:
                    for tag in tags:
                        ages.setdefault(tag, []).append(now - time)
            # exp/log per term summed by fsum: independent of the kernel
            return softmax({
                tag: math.log(math.fsum(math.exp(-d * math.log(age)) for age in a))
                for tag, a in ages.items()
            })

        own = activations({"u1"}, params.d_individual)
        social = activations({"u2", "u3"}, params.d_social)
        content = softmax(content_scores(profile, tokens))
        expected = {
            tag: lam * (params.beta * own.get(tag, 0.0) + (1 - params.beta) * social.get(tag, 0.0))
            + (1 - lam) * content.get(tag, 0.0)
            for tag in set(own) | set(social) | set(content)
        }
        ranked = recommend_bll_isc(index, corpus.graph, profile, "u1", now, tokens, params, lam, k=10)
        assert {tag for tag, _ in ranked} == set(expected) == {"x", "y", "z", "solo"}
        for tag, score in ranked:
            np.testing.assert_allclose(score, expected[tag], rtol=1e-12)
        assert [s for _, s in ranked] == sorted((s for _, s in ranked), reverse=True)

    def test_profile_hashtags_the_index_never_saw_stay_candidates(self):
        # The profile comes from a larger corpus than the index, so some
        # content hashtags have no interned id; they must still rank, in
        # hashtag order among equal scores.
        rows = [
            ("u1", 10, ["x"], ["alpha"]),
            ("u1", 40, ["y"], ["beta"]),
            ("u2", 30, ["z"], ["gamma", "beta"]),
        ]
        unseen = [("u3", 20, ["ñew", "aaa", "y"], ["beta", "gamma"]), ("u3", 45, ["zzz"], ["gamma"])]
        corpus = corpus_of(rows, {"u1": ["u2"]})
        index = build_usage_index(corpus)
        profile = build_profiles(corpus_of(rows + unseen))
        assert {"ñew", "aaa", "zzz"}.isdisjoint(index.tags)
        params = ActivationParams(beta=0.4)
        for lam in (0.0, 0.3, 1.0):
            for k in (1, 3, 10):
                for tokens in (["gamma"], ["beta", "gamma"], ["beta"]):
                    ranked = recommend_bll_isc(index, corpus.graph, profile, "u1", 50, tokens, params, lam, k)
                    expected = rank_top_k(
                        mix_scores(
                            history_scores(index, corpus.graph, "u1", 50, params),
                            normalize_softmax(content_scores(profile, tokens)),
                            lam,
                        ),
                        k,
                    )
                    assert ranked == expected
        ranked = recommend_bll_isc(index, corpus.graph, profile, "u1", 50, ["gamma"], params, 0.0, 10)
        assert {"ñew", "aaa", "zzz"} <= {tag for tag, _ in ranked}


def rows_of(tags):
    """Tweets as ``corpus_of`` rows, hashtags drawn from ``tags``."""
    return st.lists(
        st.tuples(
            st.sampled_from(["u1", "u2", "u3"]),
            st.integers(0, 30),
            st.frozensets(st.sampled_from(tags), max_size=3),
            st.none() | st.lists(st.sampled_from(["deep", "nets", "pip", "go"]), max_size=3),
        ),
        max_size=25,
    )


@settings(max_examples=300, deadline=None)
@given(
    rows=rows_of(["a", "b", "c", "d", "e"]),
    later=rows_of(["c", "f", "zz"]),
    now=st.integers(0, 32),
    lam=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    k=st.integers(1, 5),
    tokens=st.lists(st.sampled_from(["deep", "nets", "pip", "go", "new"]), max_size=4),
)
def test_the_blend_is_the_ranked_mix_of_the_whole_union(rows, later, now, lam, k, tokens):
    # The profile comes from a larger corpus than the index, so some
    # content hashtags were never interned.
    corpus = corpus_of(rows, {"u1": ["u2", "u3"], "u2": ["u3"]})
    index = build_usage_index(corpus)
    profile = build_profiles(corpus_of(rows + later))
    content = normalize_softmax(content_scores(profile, tokens))
    for user in ("u1", "u2", "u3"):
        expected = rank_top_k(mix_scores(history_scores(index, corpus.graph, user, now), content, lam), k)
        assert recommend_bll_isc(index, corpus.graph, profile, user, now, tokens, lambda_weight=lam, k=k) == expected


@settings(max_examples=200, deadline=None)
@given(
    rows=rows_of(["a", "b", "c", "d", "e"]),
    now=st.integers(0, 32),
    k=st.integers(1, 5),
    tokens=st.none() | st.lists(st.sampled_from(["deep", "nets", "pip", "go"]), max_size=4),
)
def test_an_empty_profile_ranks_history_scaled_by_lambda(rows, now, k, tokens):
    # Scenario 1's case: with no content evidence only lambda * history
    # ranks.  Scaling by other lambdas can merge adjacent floats into ties,
    # so only 0.5 (exact) and 1.0 are compared with the history-only list.
    corpus = corpus_of(rows, {"u1": ["u2", "u3"], "u2": ["u3"]})
    index = build_usage_index(corpus)
    for user in ("u1", "u2", "u3", "ghost"):
        history = recommend_bll_is(index, corpus.graph, user, now, k=k)

        def blend(lam):
            return recommend_bll_isc(
                index, corpus.graph, TokenHashtagProfile(0, {}, {}), user, now, tokens, lambda_weight=lam, k=k
            )

        assert blend(1.0) == history
        assert blend(0.5) == [(tag, 0.5 * score) for tag, score in history]
        assert blend(0.0) == [(tag, 0.0) for tag in list(history_scores(index, corpus.graph, user, now))[:k]]
