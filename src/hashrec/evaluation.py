"""Offline top-k evaluation of hashtag recommenders.

Held-out hashtag-bearing tweets become queries: the recommender sees
only training history strictly before the query time and is scored on
how highly it ranks the tweet's actual hashtags.  Metrics are averaged
per query (macro) so prolific users do not dominate.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import repeat
from operator import add, attrgetter
from typing import Callable, Mapping, Sequence

from hashrec.activation import ActivationParams, ScoredList, recommend_bll_is
from hashrec.baselines import most_recent, mp_global, mp_social, mp_user
from hashrec.content import TokenHashtagProfile, profiles_before, recommend_bll_isc
from hashrec.corpus import Corpus, Tweet, UsageIndex

logger = logging.getLogger(__name__)

ALGORITHMS = ("bll_is", "bll_isc", "mp", "mp_u", "mp_s", "mr")

# Scenario 1's profile: it knows no token, so the query text scores nothing.
_NO_TEXT = TokenHashtagProfile(0, {}, {})

_tweet_id = attrgetter("tweet_id")


def precision_at_k(recommended: Sequence, relevant: set[str] | frozenset[str], k: int) -> float:
    """Hits in the top k divided by k (not by list length)."""
    return query_metrics(recommended, relevant, k)["precision"][k - 1]


def recall_at_k(recommended: Sequence, relevant: set[str] | frozenset[str], k: int) -> float:
    """Hits in the top k divided by the number of relevant hashtags."""
    return query_metrics(recommended, relevant, k)["recall"][k - 1]


def mrr(recommended: Sequence, relevant: set[str] | frozenset[str]) -> float:
    """Reciprocal rank of the first relevant hashtag, else 0."""
    return query_metrics(recommended, relevant, 1)["mrr"]


def average_precision(recommended: Sequence, relevant: set[str] | frozenset[str], k: int | None = None) -> float:
    """Mean of precision at each hit rank, truncated at k.

    The denominator is min(|relevant|, k) so that a perfect list of
    length k scores 1 even when more relevant items exist than fit.
    """
    if k is None:
        recommended = list(recommended)
        k = len(recommended) or 1
    return query_metrics(recommended, relevant, k)["ap"]


def ndcg_at_k(recommended: Sequence, relevant: set[str] | frozenset[str], k: int) -> float:
    """Binary-gain nDCG: DCG over the ideal DCG of min(|relevant|, k) hits."""
    return query_metrics(recommended, relevant, k)["ndcg"]


def query_metrics(recommended: Sequence, relevant: set[str] | frozenset[str], k_max: int) -> dict:
    """All per-query metrics at once: P@1..k_max, R@1..k_max, MRR, AP, nDCG.

    One pass over ``recommended``, a scored or a plain ranked list, keeps
    the 1-based ranks of the relevant hashtags.  Every metric is read from
    them: MRR from the whole list, the others from its top k_max.
    """
    if k_max < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    tags = (item[0] if isinstance(item, tuple) else item for item in recommended)
    ranks = [rank for rank, tag in enumerate(tags, start=1) if tag in relevant]
    ap = dcg = 0.0
    for hits, rank in enumerate(ranks[: bisect_right(ranks, k_max)], start=1):
        ap += hits / rank
        dcg += 1.0 / math.log2(rank + 1)
    ideal_hits = min(len(relevant), k_max)
    idcg = sum(1.0 / math.log2(rank + 1) for rank in range(1, ideal_hits + 1))
    return {
        "precision": [bisect_right(ranks, k) / k for k in range(1, k_max + 1)],
        "recall": [bisect_right(ranks, k) / len(relevant) for k in range(1, k_max + 1)],
        "mrr": 1.0 / ranks[0] if ranks else 0.0,
        "ap": ap / ideal_hits,
        "ndcg": dcg / idcg,
    }


@dataclass(frozen=True)
class EvalReport:
    """Macro-averaged metrics for one algorithm.

    ``precision`` and ``recall`` hold k = 1..k_max; ``f1_at_5`` is F1 at min(5, k_max).
    """

    algorithm: str
    n_test_queries: int
    k_max: int
    precision: list[float]
    recall: list[float]
    f1_at_5: float
    mrr: float
    map: float
    ndcg: float

    def to_dict(self) -> dict:
        return asdict(self)


def pr_curve(report: EvalReport) -> list[tuple[int, float, float]]:
    """(k, precision@k, recall@k) points for k = 1..k_max."""
    return [
        (k, report.precision[k - 1], report.recall[k - 1])
        for k in range(1, report.k_max + 1)
    ]


def _make_recommenders(
    index: UsageIndex,
    graph,
    params: ActivationParams,
    lambda_weight: float,
    k_max: int,
) -> Mapping[str, Callable[[Tweet, TokenHashtagProfile], ScoredList]]:
    return {
        "bll_is": lambda q, profile: recommend_bll_is(index, graph, q.user_id, q.time, params, k_max),
        "bll_isc": lambda q, profile: recommend_bll_isc(
            index, graph, profile, q.user_id, q.time, q.tokens, params, lambda_weight, k_max
        ),
        "mp": lambda q, profile: mp_global(index, q.time, k_max),
        "mp_u": lambda q, profile: mp_user(index, q.user_id, q.time, k_max),
        "mp_s": lambda q, profile: mp_social(index, graph, q.user_id, q.time, k_max),
        "mr": lambda q, profile: most_recent(index, q.user_id, q.time, k_max),
    }


def run_eval(
    train: Corpus,
    test: Sequence[Tweet],
    scenario: int = 1,
    algorithms: Sequence[str] = ALGORITHMS,
    params: ActivationParams = ActivationParams(),
    lambda_weight: float = 0.5,
    k_max: int = 10,
    threads: int = 1,
) -> dict[str, EvalReport]:
    """Evaluate the named algorithms over the held-out queries.

    Content-capable algorithms get the query tweet's tokens and a
    profile: in scenario 2 that of the training tweets strictly before
    the query, counting only the tokens some query carries; in scenario
    1 an empty one, so they rank by history alone.  Queries run in
    (time, tweet_id) order regardless of input order, and per-query rows
    are reduced in that same order, so results do not depend on the test
    sequence ordering.  ``threads`` is checked and otherwise ignored:
    queries run in the calling thread, because a thread pool made
    evaluation slower, not faster.
    """
    if scenario not in (1, 2):
        raise ValueError("scenario must be 1 or 2")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if not algorithms:
        raise ValueError("no algorithms requested")
    unknown = [name for name in algorithms if name not in ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown algorithm(s): {', '.join(unknown)}")
    queries = sorted(test, key=Tweet.sort_key)
    if not queries:
        raise ValueError("no test queries")
    for query in queries:
        if not query.hashtags:
            raise ValueError(f"test tweet {query.tweet_id!r} has no hashtags")
    leaked = {q.tweet_id for q in queries}.intersection(map(_tweet_id, train.tweets))
    if leaked:
        listed = [q.tweet_id for q in queries if q.tweet_id in leaked]
        raise ValueError(f"test tweet(s) also present in training data: {', '.join(listed[:5])}")

    if scenario == 2 and not any(t.tokens for part in (train.tweets, queries) for t in part):
        raise ValueError("scenario 2 requires text, but neither training nor test tweets have any")
    tokens = {token for q in queries for token in q.tokens or ()}
    profiles = profiles_before(train, [q.time for q in queries], tokens) if scenario == 2 else repeat(_NO_TEXT)

    recommenders = _make_recommenders(train.index, train.graph, params, lambda_weight, k_max)

    all_rows = [
        {name: query_metrics(recommenders[name](query, profile), query.hashtags, k_max) for name in algorithms}
        for query, profile in zip(queries, profiles)
    ]

    n = len(queries)

    def mean(column) -> float:
        # A plain left fold in query order: sum() rounds floats
        # differently from Python 3.12 on, which would change the bytes.
        return reduce(add, column, 0.0) / n

    reports: dict[str, EvalReport] = {}
    for name in algorithms:
        rows = [query_rows[name] for query_rows in all_rows]
        precision = [mean(column) for column in zip(*(row["precision"] for row in rows))]
        recall = [mean(column) for column in zip(*(row["recall"] for row in rows))]
        k5 = min(5, k_max)
        p5, r5 = precision[k5 - 1], recall[k5 - 1]
        f1 = 2 * p5 * r5 / (p5 + r5) if (p5 + r5) > 0 else 0.0
        reports[name] = EvalReport(
            algorithm=name,
            n_test_queries=n,
            k_max=k_max,
            precision=precision,
            recall=recall,
            f1_at_5=f1,
            mrr=mean(row["mrr"] for row in rows),
            map=mean(row["ap"] for row in rows),
            ndcg=mean(row["ndcg"] for row in rows),
        )
        logger.info(
            "%s: n=%d R@%d=%.4f MRR=%.4f MAP=%.4f nDCG=%.4f",
            name,
            n,
            k5,
            recall[k5 - 1],
            reports[name].mrr,
            reports[name].map,
            reports[name].ndcg,
        )
    return reports
