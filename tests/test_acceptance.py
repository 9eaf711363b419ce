"""Acceptance gate: one test per criterion, at the stated tolerances.

Criteria 3, 4, 5, and 7 share one ~120k-tweet seeded synthetic corpus
(module-scope fixture) whose generator configuration is the oracle for
the planted decay exponent, the reuse shares, and the recency structure
the activation recommender is supposed to exploit.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from hashrec.activation import ActivationParams, base_level_activation, recommend_bll_is
from hashrec.cli import main as cli_main
from hashrec.content import build_profiles, content_scores, recommend_bll_isc
from hashrec.corpus import (
    FollowGraph,
    Tweet,
    build_corpus,
    build_usage_index,
    chronological_split,
    parse_follows,
    parse_tweets,
)
from hashrec.evaluation import query_metrics, run_eval
from hashrec.reuse import (
    ReuseCategory,
    categorize_assignment,
    category_distribution,
    fit_power_law,
    reuse_age_histogram,
)
from hashrec.synth import GenConfig, generate

ACCEPT_CONFIG = GenConfig(
    n_users=550,
    n_tweets=120_000,
    follow_prob=0.01,
    p_individual=0.45,
    p_social=0.22,
    alpha=1.0,
    zipf_s=0.6,
    vocab_size=50_000,
    seed=20260815,
)


@pytest.fixture(scope="module")
def synth_run():
    start = time.perf_counter()
    result = generate(ACCEPT_CONFIG)
    corpus = build_corpus(
        parse_tweets(result.tweets_jsonl.splitlines()),
        parse_follows(result.follows_tsv.splitlines()),
    )
    seconds = time.perf_counter() - start
    sha256 = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in (("tweets.jsonl", result.tweets_jsonl), ("follows.tsv", result.follows_tsv))
    }
    return {"corpus": corpus, "stats": result.stats, "gen_seconds": seconds, "sha256": sha256}


def test_accept_config_bytes_are_pinned(synth_run):
    """Recorded from the block-draw stream declared in ``hashrec.synth``; the stream and the writer must not drift."""
    assert synth_run["sha256"] == {
        "tweets.jsonl": "16e67a9c689175a39e1eb3b3d273850e8b3a0270547a5bcbea75f5bf46c140ca",
        "follows.tsv": "42628a0e00dee132b38ca244f723ddb944ed098b13b837447db579062bcfa55c",
    }


def test_criterion_1_large_scale_numbers_replaced_by_property_checks():
    """The reference result figures were measured on third-party social
    media datasets that cannot be redistributed, so their absolute
    goodness-of-fit and precision/recall numbers are not reproducible
    here.  The stand-ins are the property checks in this module: decay
    exponent recovery with high R-squared (criterion 3), reuse-share
    calibration (criterion 4), and ranking superiority of the
    activation recommender over frequency baselines (criterion 5), all
    on a seeded synthetic corpus whose generator parameters are the
    ground truth."""
    substitutes = [
        test_criterion_3_power_law_recovery,
        test_criterion_4_two_thirds_reuse_share,
        test_criterion_5_ranking_superiority,
    ]
    assert all(callable(t) for t in substitutes)
    print("criterion 1: PASS (documented substitution by criteria 3-5)")


def test_criterion_2_activation_matches_independent_oracle():
    def oracle(ages, d):
        # independent route: exp/log per term, sorted fsum accumulation
        terms = sorted(math.exp(-d * math.log(a)) for a in ages)
        return math.log(math.fsum(terms))

    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        ages = rng.uniform(1.0, 1e7, size=n)
        if rng.random() < 0.3:
            ages = np.floor(ages)
        d = float(rng.uniform(0.05, 2.0))
        got = base_level_activation(ages.tolist(), d)
        np.testing.assert_allclose(got, oracle(ages.tolist(), d), rtol=1e-9, atol=1e-12)
    seconds = time.perf_counter() - start
    assert seconds < 1.0, f"1000 oracle comparisons took {seconds:.2f}s (budget 1s)"
    print(f"criterion 2: PASS (1000 cases, rtol 1e-9, {seconds:.2f}s)")


def test_criterion_3_power_law_recovery(synth_run):
    start = time.perf_counter()
    hist = reuse_age_histogram(synth_run["corpus"], kind="individual", time_unit="seconds")
    fit = fit_power_law(hist)
    seconds = synth_run["gen_seconds"] + (time.perf_counter() - start)
    assert abs(fit.slope - (-1.0)) <= 0.1, f"slope {fit.slope:.4f} not within 0.1 of -1.0"
    assert fit.r_squared >= 0.95, f"r_squared {fit.r_squared:.4f} below 0.95"
    assert seconds < 60.0, f"generation + analysis took {seconds:.1f}s (budget 60s)"
    print(
        f"criterion 3: PASS (slope {fit.slope:.4f}, r_squared {fit.r_squared:.4f}, "
        f"{seconds:.1f}s)"
    )


def test_criterion_4_two_thirds_reuse_share(synth_run):
    dist = category_distribution(synth_run["corpus"])
    family = sum(
        dist[c][1]
        for c in (
            ReuseCategory.INDIVIDUAL,
            ReuseCategory.INDIVIDUAL_SOCIAL,
            ReuseCategory.SOCIAL,
        )
    )
    assert abs(family - 0.67) <= 0.05, f"reuse family share {family:.4f} not 0.67 +/- 0.05"
    print(f"criterion 4: PASS (individual+both+social share {family:.4f})")


def test_criterion_5_ranking_superiority(synth_run):
    start = time.perf_counter()
    train, test = chronological_split(synth_run["corpus"], per_user_holdout=1)
    assert len(test) >= 500, f"only {len(test)} test queries (need >= 500)"
    reports = run_eval(
        train,
        test,
        scenario=1,
        algorithms=["bll_is", "mp", "mp_u"],
        k_max=10,
        threads=4,
    )
    seconds = time.perf_counter() - start
    bll = reports["bll_is"].recall[4]
    global_freq = reports["mp"].recall[4]
    user_freq = reports["mp_u"].recall[4]
    assert bll >= global_freq + 0.02, f"Recall@5 {bll:.4f} vs mp {global_freq:.4f}"
    assert bll >= user_freq + 0.02, f"Recall@5 {bll:.4f} vs mp_u {user_freq:.4f}"
    assert seconds < 60.0, f"evaluation took {seconds:.1f}s (budget 60s)"
    print(
        f"criterion 5: PASS (Recall@5 bll_is {bll:.4f} vs mp {global_freq:.4f}, "
        f"mp_u {user_freq:.4f}; {len(test)} queries, {seconds:.1f}s)"
    )


def _random_fixture(rng):
    """Small corpus with text plus a random query point."""
    n_users = int(rng.integers(2, 7))
    users = [f"u{i}" for i in range(n_users)]
    vocab = [f"w{i}" for i in range(12)]
    tags = [f"h{i}" for i in range(10)]
    tweets = []
    for i in range(int(rng.integers(8, 60))):
        tokens = None
        if rng.random() < 0.7:
            tokens = [vocab[int(j)] for j in rng.integers(0, len(vocab), size=int(rng.integers(1, 4)))]
        tweets.append(
            Tweet(
                tweet_id=f"t{i:03d}",
                user_id=users[int(rng.integers(n_users))],
                time=int(rng.integers(0, 5000)),
                hashtags=frozenset({tags[int(rng.integers(len(tags)))]}),
                tokens=tuple(tokens) if tokens is not None else None,
            )
        )
    edges = {}
    for u in users:
        targets = {v for v in users if v != u and rng.random() < 0.4}
        if targets:
            edges[u] = frozenset(targets)
    corpus = build_corpus(tweets, FollowGraph(edges=edges))
    user = users[int(rng.integers(n_users))]
    now = int(rng.integers(1000, 10_000))
    tokens = [vocab[int(j)] for j in rng.integers(0, len(vocab), size=int(rng.integers(0, 4)))]
    params = ActivationParams(
        d_individual=float(rng.uniform(0.1, 1.5)),
        d_social=float(rng.uniform(0.1, 1.5)),
        beta=float(rng.uniform(0.0, 1.0)),
    )
    return corpus, user, now, tokens, params


def test_criterion_6_hybrid_endpoints_reproduce_components():
    from hashrec.activation import normalize_softmax, rank_top_k

    rng = np.random.default_rng(777)
    for _ in range(100):
        corpus, user, now, tokens, params = _random_fixture(rng)
        index = build_usage_index(corpus)
        profile = build_profiles(corpus)
        k = 1000

        hybrid_one = recommend_bll_isc(
            index, corpus.graph, profile, user, now, tokens, params, lambda_weight=1.0, k=k
        )
        history = recommend_bll_is(index, corpus.graph, user, now, params, k=k)
        history_tags = {t for t, _ in history}
        assert [e for e in hybrid_one if e[0] in history_tags] == history

        hybrid_zero = recommend_bll_isc(
            index, corpus.graph, profile, user, now, tokens, params, lambda_weight=0.0, k=k
        )
        content = rank_top_k(normalize_softmax(content_scores(profile, tokens)), k)
        content_tags = {t for t, _ in content}
        assert [e for e in hybrid_zero if e[0] in content_tags] == content
    print("criterion 6: PASS (lambda endpoints, 100 random fixtures)")


def test_criterion_7_metrics_match_hand_values_and_recall_monotonic(synth_run):
    # Five queries, every metric written out by hand.
    log2 = math.log2
    queries = [
        # (recommended, relevant, P@1..3, R@1..3, MRR, AP@3, nDCG@3)
        (["a", "b", "c"], {"a"},
         [1, 1 / 2, 1 / 3], [1, 1, 1], 1.0, 1.0, 1.0),
        (["x", "a"], {"a", "b"},
         [0, 1 / 2, 1 / 3], [0, 1 / 2, 1 / 2], 1 / 2, (1 / 2) / 2,
         (1 / log2(3)) / (1 + 1 / log2(3))),
        ([], {"z"},
         [0, 0, 0], [0, 0, 0], 0.0, 0.0, 0.0),
        (["b", "a", "d"], {"a", "b", "d"},
         [1, 1, 1], [1 / 3, 2 / 3, 1], 1.0, 1.0, 1.0),
        (["c", "d", "a"], {"a", "x"},
         [0, 0, 1 / 3], [0, 0, 1 / 2], 1 / 3, (1 / 3) / 2,
         (1 / log2(4)) / (1 + 1 / log2(3))),
    ]
    for rec, relevant, precision, recall, mrr_v, ap, ndcg in queries:
        row = query_metrics(rec, relevant, k_max=3)
        np.testing.assert_allclose(row["precision"], precision, rtol=0, atol=1e-12)
        np.testing.assert_allclose(row["recall"], recall, rtol=0, atol=1e-12)
        np.testing.assert_allclose(row["mrr"], mrr_v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(row["ap"], ap, rtol=0, atol=1e-12)
        np.testing.assert_allclose(row["ndcg"], ndcg, rtol=0, atol=1e-12)

    # Per-query recall must be non-decreasing in k over the full
    # synthetic evaluation, not just on toy lists.
    train, test = chronological_split(synth_run["corpus"], per_user_holdout=1)
    index = build_usage_index(train)
    params = ActivationParams()
    checked = 0
    for query in test:
        ranked = recommend_bll_is(index, train.graph, query.user_id, query.time, params, k=10)
        recall = query_metrics(ranked, query.hashtags, k_max=10)["recall"]
        assert all(a <= b + 1e-15 for a, b in zip(recall, recall[1:]))
        checked += 1
    assert checked >= 500
    print(f"criterion 7: PASS (5-query hand fixture exact; {checked} queries monotone)")


def test_criterion_8_cli_evaluate_byte_identical_across_threads(tmp_path):
    config = dict(
        n_users=150,
        n_tweets=10_000,
        follow_prob=0.03,
        p_individual=0.45,
        p_social=0.22,
        alpha=1.0,
        zipf_s=0.6,
        vocab_size=5_000,
        seed=99,
    )
    result = generate(GenConfig(**config))
    tweets = tmp_path / "tweets.jsonl"
    follows = tmp_path / "follows.tsv"
    tweets.write_text(result.tweets_jsonl, encoding="utf-8")
    follows.write_text(result.follows_tsv, encoding="utf-8")
    outputs = []
    for threads in (1, 8):
        out = tmp_path / f"threads{threads}"
        code = cli_main(
            [
                "--quiet",
                "--threads", str(threads),
                "evaluate",
                "--tweets", str(tweets),
                "--follows", str(follows),
                "--scenario", "2",
                "--algorithms", "bll_is,bll_isc,mp,mp_u,mp_s,mr",
                "--out", str(out),
            ]
        )
        assert code == 0
        outputs.append(out)
    for name in ("metrics.json", "pr_curve.csv"):
        bytes_1 = (outputs[0] / name).read_bytes()
        bytes_8 = (outputs[1] / name).read_bytes()
        assert bytes_1 == bytes_8, f"{name} differs between --threads 1 and --threads 8"
    metrics = json.loads((outputs[0] / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["n_test_queries"] >= 100
    print("criterion 8: PASS (byte-identical metrics.json and pr_curve.csv)")


def test_criterion_9_streaming_equals_brute_force_recategorizer():
    rng = np.random.default_rng(4242)
    for trial in range(50):
        n_users = int(rng.integers(2, 8))
        users = [f"u{i}" for i in range(n_users)]
        tweets = []
        total_assignments = 0
        for i in range(int(rng.integers(5, 80))):
            tags = {f"h{int(j)}" for j in rng.integers(0, 6, size=int(rng.integers(0, 4)))}
            total_assignments += len(tags)
            if total_assignments > 200:
                break
            tweets.append(
                Tweet(
                    tweet_id=f"t{i:03d}",
                    user_id=users[int(rng.integers(n_users))],
                    time=int(rng.integers(0, 40)),  # dense times force ties
                    hashtags=frozenset(tags),
                )
            )
        edges = {}
        for u in users:
            targets = {v for v in users if v != u and rng.random() < 0.35}
            if targets:
                edges[u] = frozenset(targets)
        corpus = build_corpus(tweets, FollowGraph(edges=edges))

        brute = {category: 0 for category in ReuseCategory}
        for tweet in corpus.tweets:
            prefix = build_usage_index([t for t in corpus.tweets if t.time < tweet.time])
            for tag in sorted(tweet.hashtags):
                label = categorize_assignment(prefix, corpus.graph, tweet.user_id, tag, tweet.time)
                brute[label] += 1

        streamed = {cat: count for cat, (count, _) in category_distribution(corpus).items()}
        assert streamed == brute, f"trial {trial}: {streamed} != {brute}"
    print("criterion 9: PASS (50 corpora, streaming == brute force)")
