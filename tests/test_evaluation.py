"""Ranking metrics and the offline evaluation harness."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hashrec.corpus import FollowGraph, Tweet, build_corpus, chronological_split, parse_follows, parse_tweets
from hashrec.evaluation import pr_curve, query_metrics, run_eval
from hashrec.synth import GenConfig, generate


def make_tweet(tweet_id, user_id, time, hashtags, tokens=None):
    return Tweet(
        tweet_id=tweet_id,
        user_id=user_id,
        time=time,
        hashtags=frozenset(hashtags),
        tokens=tuple(tokens) if tokens is not None else None,
    )


class TestPrecisionRecall:
    def test_hand_counts(self):
        row = query_metrics(["a", "c"], {"a", "b"}, 2)
        assert (row["precision"][1], row["recall"][1]) == (0.5, 0.5)

    def test_empty_recommendation(self):
        row = query_metrics([], {"a"}, 5)
        assert (row["precision"][4], row["recall"][4]) == (0.0, 0.0)

    def test_all_relevant_tops(self):
        assert query_metrics(["a", "b"], {"a", "b"}, 2)["precision"][1] == 1.0
        assert query_metrics(["a", "b"], {"a", "b"}, 5)["recall"][4] == 1.0

    def test_precision_denominator_is_k_even_for_short_lists(self):
        assert query_metrics(["a"], {"a"}, 5)["precision"][4] == 0.2

    def test_scored_lists_accepted(self):
        assert query_metrics([("a", 0.9), ("c", 0.1)], {"a", "b"}, 2)["precision"][1] == 0.5

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError, match="relevant set must be non-empty"):
            query_metrics(["a"], set(), 1)


class TestRankMetrics:
    def test_first_item_relevant(self):
        assert query_metrics(["a", "b"], {"a"}, 1)["mrr"] == 1.0

    def test_second_item_relevant_hand_values(self):
        row = query_metrics(["x", "a"], {"a"}, 2)
        assert row["mrr"] == 0.5
        assert row["ap"] == 0.5
        np.testing.assert_allclose(row["ndcg"], 1 / math.log2(3), rtol=1e-12)

    def test_nothing_relevant_retrieved(self):
        row = query_metrics(["x", "y"], {"a"}, 2)
        assert (row["mrr"], row["ap"], row["ndcg"]) == (0.0, 0.0, 0.0)

    def test_ap_denominator_truncates_at_k(self):
        # Perfect top-3 out of 5 relevant: k caps the achievable set.
        assert query_metrics(["a", "b", "c"], {"a", "b", "c", "d", "e"}, 3)["ap"] == 1.0

    def test_ndcg_ideal_truncates_at_k(self):
        assert query_metrics(["a", "b"], {"a", "b", "c"}, 2)["ndcg"] == 1.0

    def test_ap_at_list_length(self):
        np.testing.assert_allclose(
            query_metrics(["x", "a", "b"], {"a", "b"}, 3)["ap"],
            (1 / 2 + 2 / 3) / 2,
            rtol=1e-12,
        )


# Tags h0..h15: a list of at most 12 leaves some relevant tags out of it.
TAG_POOL = [f"h{i}" for i in range(16)]


def oracle_metrics(tags, relevant, k_max):
    """The metrics from set intersections of list prefixes, written apart
    from the one-pass ranks of query_metrics."""

    def hits(k):
        return len(set(tags[:k]) & relevant)

    def dcg(positions):
        return sum(1 / math.log2(i + 1) for i in positions)

    hit_positions = [i for i in range(1, len(tags) + 1) if hits(i) > hits(i - 1)]
    top = [i for i in hit_positions if i <= k_max]
    ideal = min(len(relevant), k_max)
    return {
        "precision": [hits(k) / k for k in range(1, k_max + 1)],
        "recall": [hits(k) / len(relevant) for k in range(1, k_max + 1)],
        "mrr": 1 / hit_positions[0] if hit_positions else 0.0,
        "ap": sum(hits(i) / i for i in top) / ideal,
        "ndcg": dcg(top) / dcg(range(1, ideal + 1)),
    }


class TestQueryMetrics:
    @settings(max_examples=400, deadline=None)
    @given(
        # About half the lists repeat a hashtag, which query_metrics rejects.
        tags=st.lists(st.sampled_from(TAG_POOL), max_size=12, unique=True)
        | st.lists(st.sampled_from(TAG_POOL), min_size=2, max_size=12),
        scored=st.booleans(),
        relevant=st.frozensets(st.sampled_from(TAG_POOL), min_size=1, max_size=6),
        k_max=st.integers(1, 15),
    )
    # The first hit lies past k_max: MRR still counts it, the rest do not.
    @example(tags=["h0", "h1", "h2", "h3"], scored=False, relevant=frozenset({"h3", "h9"}), k_max=2)
    # A repeated hit would count twice: recall 2 and AP 2.
    @example(tags=["h0", "h0"], scored=False, relevant=frozenset({"h0"}), k_max=2)
    def test_matches_prefix_oracle(self, tags, scored, relevant, k_max):
        rec = [(tag, 1.0 / rank) for rank, tag in enumerate(tags, start=1)] if scored else tags
        repeated = [tag for i, tag in enumerate(tags) if tag in tags[:i]]
        if repeated:
            with pytest.raises(ValueError, match=f"recommended repeats hashtag '{repeated[0]}'"):
                query_metrics(rec, relevant, k_max)
            return
        row = query_metrics(rec, relevant, k_max)
        expected = oracle_metrics(tags, relevant, k_max)
        assert row.keys() == expected.keys()
        for key in expected:
            np.testing.assert_allclose(row[key], expected[key], rtol=0, atol=1e-12, err_msg=key)

    def test_k_below_one_rejected(self):
        for k_max in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                query_metrics(["a"], {"a"}, k_max)

    def test_recall_non_decreasing_in_k(self):
        rng = np.random.default_rng(42)
        pool = [f"h{i}" for i in range(8)]
        for _ in range(30):
            rec = list(rng.choice(pool, size=int(rng.integers(0, 8)), replace=False))
            relevant = set(rng.choice(pool, size=int(rng.integers(1, 5)), replace=False))
            row = query_metrics(rec, relevant, 8)
            assert all(a <= b + 1e-15 for a, b in zip(row["recall"], row["recall"][1:]))


def two_user_fixture():
    """u1 reuses x constantly; u2 mostly y.  Holdout-1 split gives two
    test queries whose mp_u outputs are hand-predictable."""
    tweets = [
        make_tweet("a1", "u1", 10, ["x"]),
        make_tweet("a2", "u1", 20, ["x"]),
        make_tweet("a3", "u1", 30, ["y"]),
        make_tweet("a4", "u1", 40, ["x"]),
        make_tweet("b1", "u2", 15, ["y"]),
        make_tweet("b2", "u2", 25, ["y"]),
        make_tweet("b3", "u2", 45, ["z"]),
    ]
    return build_corpus(tweets, FollowGraph(edges={}))


class TestRunEval:
    def test_hand_computed_report_for_mp_user(self):
        train, test = chronological_split(two_user_fixture())
        assert {t.tweet_id for t in test} == {"a4", "b3"}
        reports = run_eval(train, test, scenario=1, algorithms=["mp_u"], k_max=2)
        report = reports["mp_u"]
        # a4: history {x:2, y:1} → rec [x, y]; relevant {x}: P@1=1, P@2=1/2,
        #     R@1=R@2=1, MRR=1, AP=1, nDCG@2=1.
        # b3: history {y:2} → rec [y]; relevant {z}: all zeros.
        assert report.n_test_queries == 2
        np.testing.assert_allclose(report.precision, [0.5, 0.25], rtol=1e-12)
        np.testing.assert_allclose(report.recall, [0.5, 0.5], rtol=1e-12)
        np.testing.assert_allclose(report.mrr, 0.5, rtol=1e-12)
        np.testing.assert_allclose(report.map, 0.5, rtol=1e-12)
        np.testing.assert_allclose(report.ndcg, 0.5, rtol=1e-12)
        # F1 from the k=min(5, k_max)=2 means: 2PR/(P+R)
        np.testing.assert_allclose(report.f1_at_5, 2 * 0.25 * 0.5 / 0.75, rtol=1e-12)

    def test_report_to_dict_keys_and_values(self):
        train, test = chronological_split(two_user_fixture())
        report = run_eval(train, test, algorithms=["mp_u"], k_max=2)["mp_u"]
        data = report.to_dict()
        assert set(data) == {
            "algorithm", "n_test_queries", "k_max", "precision", "recall",
            "f1_at_5", "mrr", "map", "ndcg",
        }
        assert data["algorithm"] == "mp_u" and data["k_max"] == 2
        assert data["precision"] == report.precision and data["precision"] is not report.precision

    def test_perfect_recommender_scores_one(self):
        tweets = [
            make_tweet("a1", "u1", 10, ["x"]),
            make_tweet("a2", "u1", 20, ["x"]),
        ]
        train, test = chronological_split(build_corpus(tweets, FollowGraph(edges={})))
        report = run_eval(train, test, algorithms=["mp_u"], k_max=1)["mp_u"]
        assert report.precision[0] == 1.0
        assert report.recall[0] == 1.0
        assert report.mrr == 1.0 and report.map == 1.0 and report.ndcg == 1.0

    def test_queries_with_empty_history_still_run(self):
        tweets = [
            make_tweet("a1", "u1", 10, ["x"]),
            make_tweet("a2", "u1", 20, ["x"]),
            make_tweet("b1", "u2", 5, ["y"]),
            make_tweet("b2", "u2", 30, ["y"]),
        ]
        corpus = build_corpus(tweets, FollowGraph(edges={}))
        train, test = chronological_split(corpus)
        # drop u2's train tweet so its query has zero history
        train = build_corpus([t for t in train.tweets if t.user_id != "u2"], corpus.graph)
        report = run_eval(train, test, algorithms=["mp_u"], k_max=2)["mp_u"]
        assert report.n_test_queries == 2
        np.testing.assert_allclose(report.recall[1], 0.5, rtol=1e-12)

    def test_threads_do_not_change_results(self):
        train, test = chronological_split(two_user_fixture())
        a = run_eval(train, test, algorithms=["mp_u", "mr"], k_max=2, threads=1)
        b = run_eval(train, test, algorithms=["mp_u", "mr"], k_max=2, threads=8)
        assert a == b

    def test_test_order_does_not_change_results(self):
        train, test = chronological_split(two_user_fixture())
        a = run_eval(train, test, algorithms=["mp_u"], k_max=2)
        b = run_eval(train, list(reversed(test)), algorithms=["mp_u"], k_max=2)
        assert a == b

    def test_scenario_two_passes_tokens_to_content(self):
        tweets = [
            make_tweet("a1", "u1", 10, ["x"], ["query", "words"]),
            make_tweet("a2", "u2", 20, ["x"], None),
            make_tweet("a3", "u2", 30, ["x"], ["query"]),
        ]
        corpus = build_corpus(tweets, FollowGraph(edges={}))
        train, test = chronological_split(corpus)
        assert [t.tweet_id for t in test] == ["a3"]
        s1 = run_eval(train, test, scenario=1, algorithms=["bll_isc"], k_max=1)["bll_isc"]
        s2 = run_eval(train, test, scenario=2, algorithms=["bll_isc"], k_max=1)["bll_isc"]
        # u2's history has x; content adds evidence for x only in s2.
        assert s1.recall[0] == 1.0 and s2.recall[0] == 1.0

    def test_scenario_two_ignores_training_text_after_the_query(self):
        train = [
            make_tweet("a1", "u1", 10, ["x"], ["query"]),
            make_tweet("a2", "u1", 20, ["y"], ["other"]),
        ]
        late = make_tweet("a3", "u1", 40, ["z"], ["query"])
        test = [make_tweet("q1", "u2", 30, ["z"], ["query"])]
        graph = FollowGraph(edges={})
        reports = [
            run_eval(build_corpus(tweets, graph), test, scenario=2, algorithms=["bll_isc"], k_max=2)
            for tweets in (train, train + [late])
        ]
        # Only the later tweet links "query" to z; a leak would rank z.
        assert reports[0]["bll_isc"].mrr == 0.0
        assert reports[1] == reports[0]

    def test_validation_errors(self):
        train, test = chronological_split(two_user_fixture())
        with pytest.raises(ValueError, match="scenario"):
            run_eval(train, test, scenario=3, algorithms=["mp_u"])
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_eval(train, test, algorithms=["mp_u", "bogus"])
        with pytest.raises(ValueError, match="no test queries"):
            run_eval(train, [], algorithms=["mp_u"])
        with pytest.raises(ValueError, match="no algorithms"):
            run_eval(train, test, algorithms=[])
        with pytest.raises(ValueError, match="k_max"):
            run_eval(train, test, algorithms=["mp_u"], k_max=0)
        with pytest.raises(ValueError, match="threads"):
            run_eval(train, test, algorithms=["mp_u"], threads=0)

    def test_leakage_guard_rejects_overlap(self):
        corpus = two_user_fixture()
        train, test = chronological_split(corpus)
        with pytest.raises(ValueError, match="training"):
            run_eval(corpus, test, algorithms=["mp_u"])

    def test_hashtagless_test_tweet_rejected(self):
        train, _ = chronological_split(two_user_fixture())
        bad = [make_tweet("q1", "u1", 99, [])]
        with pytest.raises(ValueError, match="no hashtags"):
            run_eval(train, bad, algorithms=["mp_u"])

    def test_scenario_two_without_any_text_rejected(self):
        train, test = chronological_split(two_user_fixture())
        with pytest.raises(ValueError, match="text"):
            run_eval(train, test, scenario=2, algorithms=["mp_u"])


class TestPrCurve:
    def test_rows_match_report(self):
        train, test = chronological_split(two_user_fixture())
        report = run_eval(train, test, algorithms=["mp_u"], k_max=10)["mp_u"]
        rows = pr_curve(report)
        assert len(rows) == 10
        assert rows[0] == (1, report.precision[0], report.recall[0])
        recs = [r for _, _, r in rows]
        assert all(a <= b + 1e-15 for a, b in zip(recs, recs[1:]))

    def test_all_metrics_within_unit_interval(self):
        train, test = chronological_split(two_user_fixture())
        for report in run_eval(train, test, k_max=4).values():
            values = report.precision + report.recall + [report.f1_at_5, report.mrr, report.map, report.ndcg]
            assert all(0.0 <= v <= 1.0 for v in values)


# The seed-7 corpus of CI's hash-seed step.
SEED7_CONFIG = GenConfig(
    n_users=80, n_tweets=6000, follow_prob=0.05, p_individual=0.45, p_social=0.22,
    alpha=1.0, zipf_s=0.6, vocab_size=2000, seed=7,
)

# sha256 of json.dumps(report.to_dict(), sort_keys=True), recorded from
# the block-draw stream declared in hashrec.synth; scenario 2 changes
# only bll_isc.
PINNED_REPORTS = {
    "bll_is": "063852f71e261a7121486fda6a2803a5d3ec1b6a17c725c01b35f3ab108e64a5",
    "bll_isc": "4f1d0091429e63836bb7647654fe8a65a7f44bb3d432600f6f9bac4720e16f0e",
    "mp": "b03b10a608c85b349ed859fabdf69ebda4616a60fef204bc379033bb8b45d061",
    "mp_u": "21571d2ae613edb46cdf7f1e50e1005805285da3b025612ef603d4d51cc29074",
    "mp_s": "6da03ccb1306359c938e6f803a3ed87fbe42d45631bcd6df75bbbc2d1d7e9e0e",
    "mr": "f383bf507a23ebb1664463e5a6e61b34f306e651bd98d3742028215d773d1b15",
}
PINNED_SCENARIO_2_BLL_ISC = "4c600fe2903eb9f311b2fe955943897b9b6b0b2a95dbb42d3d82630d85cb9f18"


# The same hashes of the scenario-1 reports at per_user_holdout=3, where
# each user's three held-out tweets leave the training index together.
PINNED_HOLDOUT_3_REPORTS = {
    "bll_is": "7130e76a1ab4b21f91062208843742d13c889295dfb6c248f530f9ed6b9815a6",
    "bll_isc": "8a5c4f1df345b9d599de0050522766d04639cf25fc03d1dddd5bfb02eb3d416f",
    "mp": "6e26466726c980e5b8c47d533f28bb7897b70cffd3b995f50cd61ad16820b94f",
    "mp_u": "16610431f38d417d92cd9aee33c175c6d50dbb5a9b59e937bf91f0784a6c8672",
    "mp_s": "e3d998c0ba5d63a106956dcf83f7a43981874a7573bba478728c8871182855b3",
    "mr": "4b3f24e4cc06041a67526c3ea54b0e8e666e35e5f5eb7875a6d8f7aabf440e60",
}

# The same hashes of the scenario-1 reports at k_max=3, where AP, nDCG
# and f1_at_5 (F1 at k = 3) truncate below the default k_max of 10.
PINNED_K_MAX_3_REPORTS = {
    "bll_is": "5a5ce091e8ea67b64f27073dcc4e6664afae04f46b83ab06ecd3574f85c5b3ad",
    "bll_isc": "8eb0e59e196299904825b885775827d7ee437874486535cb12b86b2ca8f421a1",
    "mp": "fc1dbf6c72fa4ee0687a866ca3b72b19828af37c8c660a47680608dab63e58a0",
    "mp_u": "5b2e35a38b677bea228dd8f72dab318330a0bf79e4620d0e607463ace9d28a36",
    "mp_s": "d832963070917ce81db3627e0fe2295c07304db65f7d1f72f1626ed9f6ea5735",
    "mr": "777581473a3b3816f0899b4ff212f05698b5afcebaf4570fad9a9ce26e2ed1f5",
}


def report_hashes(reports):
    return {
        name: hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()
        for name, report in reports.items()
    }


@pytest.fixture(scope="module")
def seed7_corpus():
    result = generate(SEED7_CONFIG)
    return build_corpus(parse_tweets(result.tweets_jsonl.splitlines()), parse_follows(result.follows_tsv.splitlines()))


@pytest.fixture(scope="module")
def seed7_split(seed7_corpus):
    return chronological_split(seed7_corpus)


@pytest.mark.parametrize("scenario", [1, 2])
def test_seed7_reports_are_pinned(seed7_split, scenario):
    """Any change to a ranking or its tie order changes some report."""
    train, test = seed7_split
    expected = dict(PINNED_REPORTS)
    if scenario == 2:
        expected["bll_isc"] = PINNED_SCENARIO_2_BLL_ISC
    assert report_hashes(run_eval(train, test, scenario=scenario)) == expected


def test_seed7_holdout_3_reports_are_pinned(seed7_corpus):
    train, test = chronological_split(seed7_corpus, per_user_holdout=3)
    assert len(test) == 240
    assert report_hashes(run_eval(train, test, scenario=1)) == PINNED_HOLDOUT_3_REPORTS


def test_seed7_k_max_3_reports_are_pinned(seed7_split):
    train, test = seed7_split
    assert report_hashes(run_eval(train, test, scenario=1, k_max=3)) == PINNED_K_MAX_3_REPORTS
