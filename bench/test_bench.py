"""Tests of the benchmark's own helpers: ``python3 -m pytest -q bench``.

They sit outside ``tests/`` so the package's test run does not collect
them.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hashrec  # noqa: E402
from oracles import ContentReplay, HistoryOracle, hybrid_scores, recount_categories, same_top_k  # noqa: E402
from run import leak_probe, percentile, tail_percentile  # noqa: E402
from tracing import NO_PARENT, Tracer, covered, install, self_times  # noqa: E402


def test_percentile_interpolates_between_ranks():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0], 100) == 3.0
    assert percentile([7.0], 95) == 7.0


def test_tail_percentile_needs_ten_samples_beyond():
    # With n distinct samples, p95 leaves n - 1 - floor(0.95 (n - 1)) above it.
    assert tail_percentile([float(i) for i in range(182)], 95) == pytest.approx(171.95)
    with pytest.raises(ValueError, match="9 beyond"):
        tail_percentile([float(i) for i in range(181)], 95)
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 1000, 95)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 4), (8, 12)], 0, 10) == 5
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, NO_PARENT],
        ["child", 1.0, 5.0, 0],
        ["grandchild", 2.0, 4.0, 1],
        ["child", 6.0, 7.0, 0],
    ]
    assert self_times(spans) == [5.0, 2.0, 2.0, 1.0]


def test_tracer_nests_spans_by_call_order():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        tracer.wrap("wrapped", lambda: None)()
    assert tracer.spans == [["outer", 0, 5, NO_PARENT], ["inner", 1, 2, 0], ["wrapped", 3, 4, 0]]
    assert self_times(tracer.spans) == [3, 1, 1]


def _three_tweets():
    tweets = [
        hashrec.Tweet("t1", "a", 100, frozenset({"x"}), ("one",)),
        hashrec.Tweet("t2", "b", 150, frozenset({"y"}), ("two",)),
        hashrec.Tweet("t3", "a", 250, frozenset({"y"}), ("two",)),
    ]
    return hashrec.build_corpus(tweets, hashrec.FollowGraph(edges={"a": frozenset({"b"})}))


def test_install_wraps_calls_made_inside_the_package_and_restores():
    corpus = _three_tweets()
    index = hashrec.build_usage_index(corpus)
    original = hashrec.activation.individual_activations
    tracer = Tracer()
    restore = install(tracer)
    try:
        hashrec.recommend_bll_is(index, corpus.graph, "a", 300)
    finally:
        restore()
    names = [span[0] for span in tracer.spans]
    assert names == [
        "activation.recommend_bll_is",
        "activation.individual_activations",
        "activation.social_activations",
    ]
    assert [span[3] for span in tracer.spans] == [NO_PARENT, 0, 0]
    assert hashrec.activation.individual_activations is original


def test_bll_oracle_matches_hand_computed_scores():
    corpus = _three_tweets()
    params = hashrec.ActivationParams(d_individual=0.5, d_social=0.5, beta=0.5)
    oracle = HistoryOracle(corpus.tweets, corpus.graph, {"a", "b"})
    # Own uses at ages 200 (x) and 50 (y); the followee used y at age 150.
    assert oracle.activations(["a"], 300, 0.5, 1.0) == pytest.approx(
        {"x": math.log(200**-0.5), "y": math.log(50**-0.5)}
    )
    # softmax: x = 200^-.5 / (200^-.5 + 50^-.5) = 1/3, y = 2/3; social y = 1.
    scores = oracle.bll_scores("a", 300, params)
    assert scores == pytest.approx({"x": 1 / 6, "y": 5 / 6}, rel=1e-12)
    # Uses at or after now are invisible.
    assert oracle.bll_scores("a", 150, params) == pytest.approx({"x": 0.5})
    assert oracle.activations(["a"], 100, 0.5, 1.0) == {}
    ranked = hashrec.recommend_bll_is(hashrec.build_usage_index(corpus), corpus.graph, "a", 300, params)
    assert same_top_k(ranked, scores, 10)


def test_same_top_k_accepts_tie_orders_and_rejects_perturbations():
    scores = {"a": 0.4, "b": 0.3, "c": 0.3, "d": 0.2}
    assert same_top_k([("a", 0.4), ("b", 0.3)], scores, 2)
    assert same_top_k([("a", 0.4), ("c", 0.3)], scores, 2)
    assert not same_top_k([("b", 0.3), ("a", 0.4)], scores, 2)
    assert not same_top_k([("a", 0.4), ("d", 0.2)], scores, 2)
    assert not same_top_k([("a", 0.4), ("b", 0.3 * (1 + 1e-6))], scores, 2)
    assert not same_top_k([("a", 0.4)], scores, 2)
    assert same_top_k([("a", 0.4), ("b", 0.3 * (1 + 1e-12))], scores, 2)


def test_content_replay_sees_only_tweets_before_now():
    corpus, _ = leak_probe(hashrec)
    replay = ContentReplay(corpus.tweets, {"beta", "gamma"})
    replay.advance(250)
    assert replay.scores(["gamma"]) == {}
    assert replay.scores(["beta"]) == pytest.approx({"y": math.log(2)})
    replay.advance(math.inf)
    assert replay.scores(["gamma"]) == pytest.approx({"late": math.log(3)})
    params = hashrec.ActivationParams()
    history = HistoryOracle(corpus.tweets, corpus.graph, {"a", "b"})
    clean = hybrid_scores(history.bll_scores("a", 250, params), {}, 0.5)
    assert [tag for tag, _ in sorted(clean.items(), key=lambda kv: (-kv[1], kv[0]))] == ["y", "x"]


def test_recount_categories_agrees_with_streaming_distribution():
    tweets = [
        hashrec.Tweet("t1", "a", 1, frozenset({"x"})),
        hashrec.Tweet("t2", "b", 1, frozenset({"x"})),
        hashrec.Tweet("t3", "a", 2, frozenset({"x", "y"})),
        hashrec.Tweet("t4", "c", 3, frozenset({"y"})),
        hashrec.Tweet("t5", "b", 4, frozenset({"y", "z"})),
    ]
    corpus = hashrec.build_corpus(tweets, hashrec.FollowGraph(edges={"a": frozenset({"b"}), "b": frozenset({"c"})}))
    recount = recount_categories(corpus.tweets, corpus.graph)
    assert recount == {"external": 4, "individual_social": 1, "social": 1, "network": 1}
    streamed = {c.value: n for c, (n, _) in hashrec.category_distribution(corpus).items() if n}
    assert streamed == recount
