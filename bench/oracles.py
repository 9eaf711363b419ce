"""Reference computations the benchmark checks the package against.

Each oracle is written from the paper's definitions and reads only the
parsed tweets and follow graph, never the package's index, profile or
scorers, so a fault in those shows up as a disagreement here.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np

REL_TOL = 1e-9


def _softmax(scores: Mapping[str, float]) -> dict[str, float]:
    if not scores:
        return {}
    keys = list(scores)
    values = np.fromiter((scores[key] for key in keys), dtype=float, count=len(keys))
    exps = np.exp(values - values.max())
    exps /= exps.sum()
    return dict(zip(keys, exps.tolist()))


def _mix(left: Mapping[str, float], right: Mapping[str, float], weight: float) -> dict[str, float]:
    return {
        tag: weight * left.get(tag, 0.0) + (1.0 - weight) * right.get(tag, 0.0)
        for tag in set(left) | set(right)
    }


class HistoryOracle:
    """BLL scores from per-user (time, hashtag code) arrays.

    Activation of hashtag h for a set of users at time now is
    ln sum over their uses of h strictly before now of
    max(now - t, min_age) ** -d.  Hashtag codes follow sorted hashtag
    order, so ties between equal scores break by name as in the package.
    """

    def __init__(self, tweets: Iterable, graph, users: set[str]) -> None:
        """Index the uses of ``users``, the only ones queries may read."""
        rows: dict[str, list[tuple[int, str]]] = {}
        for tweet in tweets:
            if tweet.user_id in users:
                for tag in tweet.hashtags:
                    rows.setdefault(tweet.user_id, []).append((tweet.time, tag))
        self.tags = sorted({tag for row in rows.values() for _, tag in row})
        code = {tag: i for i, tag in enumerate(self.tags)}
        self.graph = graph
        self.times: dict[str, np.ndarray] = {}
        self.codes: dict[str, np.ndarray] = {}
        for user, row in rows.items():
            self.times[user] = np.array([t for t, _ in row], dtype=np.int64)
            self.codes[user] = np.array([code[tag] for _, tag in row], dtype=np.int64)

    def uses_before(self, users: Iterable[str], now: int) -> tuple[np.ndarray, np.ndarray]:
        """(times, codes) of every use by ``users`` strictly before ``now``."""
        users = [u for u in users if u in self.times]
        if not users:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        times = np.concatenate([self.times[u] for u in users])
        codes = np.concatenate([self.codes[u] for u in users])
        keep = times < now
        return times[keep], codes[keep]

    def activations(self, users: Iterable[str], now: int, d: float, min_age: float) -> dict[str, float]:
        times, codes = self.uses_before(users, now)
        if times.size == 0:
            return {}
        ages = np.maximum((now - times).astype(float), min_age)
        present, inverse = np.unique(codes, return_inverse=True)
        sums = np.bincount(inverse, weights=ages**-d)
        return {self.tags[c]: float(v) for c, v in zip(present.tolist(), np.log(sums).tolist())}

    def bll_scores(self, user: str, now: int, params) -> dict[str, float]:
        """Softmaxed individual and social activations, beta-mixed."""
        own = _softmax(self.activations([user], now, params.d_individual, params.min_age))
        social = _softmax(self.activations(self.graph.followees(user), now, params.d_social, params.min_age))
        return _mix(own, social, params.beta)

    def query_load(self, user: str, now: int) -> tuple[int, int]:
        """(history uses, distinct candidate hashtags) one query reads."""
        _, own = self.uses_before([user], now)
        _, social = self.uses_before(self.graph.followees(user), now)
        return own.size + social.size, np.unique(np.concatenate([own, social])).size


class ContentReplay:
    """Token-hashtag counts over training tweets, advanced in time order.

    Only the tokens in ``vocabulary`` (those the queries carry) get df
    and co-occurrence counts; every tweet with tokens counts as a
    document.  ``advance(now)`` folds in every tweet strictly before
    ``now``; calls must come with non-decreasing ``now``.  Advancing to
    ``math.inf`` gives the profile of the whole training set.
    """

    def __init__(self, tweets: Sequence, vocabulary: set[str]) -> None:
        self.tweets = sorted(tweets, key=lambda t: (t.time, t.tweet_id))
        self.vocabulary = vocabulary
        self.pos = 0
        self.doc_count = 0
        self.df: Counter[str] = Counter()
        self.assoc: dict[str, Counter[str]] = {}

    def advance(self, now: float) -> None:
        while self.pos < len(self.tweets) and self.tweets[self.pos].time < now:
            tweet = self.tweets[self.pos]
            self.pos += 1
            if not tweet.tokens:
                continue
            self.doc_count += 1
            for token in self.vocabulary.intersection(tweet.tokens):
                self.df[token] += 1
                if tweet.hashtags:
                    self.assoc.setdefault(token, Counter()).update(tweet.hashtags)

    def scores(self, tokens: Sequence[str]) -> dict[str, float]:
        """tf * idf of each known token, spread over its hashtags by count."""
        scores: dict[str, float] = {}
        for token, tf in Counter(tokens).items():
            row = self.assoc.get(token)
            if not row:
                continue
            weight = tf * math.log(self.doc_count / self.df[token])
            total = sum(row.values())
            for tag, count in row.items():
                scores[tag] = scores.get(tag, 0.0) + weight * count / total
        return scores


def hybrid_scores(bll: Mapping[str, float], content: Mapping[str, float], lambda_weight: float) -> dict[str, float]:
    return _mix(bll, _softmax(content), lambda_weight)


def same_top_k(ranked: Sequence[tuple[str, float]], scores: Mapping[str, float], k: int, rel_tol: float = REL_TOL) -> bool:
    """Whether ``ranked`` is a top k of ``scores``, up to exact ties.

    Every returned score must match the oracle's within ``rel_tol``,
    the list must be in descending order, and it must hold every
    hashtag that beats the oracle's k-th score and none that falls
    below it.
    """
    if len(ranked) != min(k, len(scores)):
        return False
    for tag, score in ranked:
        if tag not in scores or not math.isclose(score, scores[tag], rel_tol=rel_tol, abs_tol=1e-300):
            return False
    if any(a[1] < b[1] for a, b in zip(ranked, ranked[1:])):
        return False
    if len(ranked) == len(scores):
        return True
    kth = sorted(scores.values(), reverse=True)[k - 1]
    lo, hi = kth * (1 - rel_tol), kth * (1 + rel_tol)
    returned = {tag for tag, _ in ranked}
    if any(scores[tag] < lo for tag in returned):
        return False
    return all(tag in returned for tag, score in scores.items() if score > hi)


def recount_categories(tweets: Sequence, graph) -> Counter[str]:
    """Reuse category of every assignment, from first-use times.

    An assignment (u, h, t) is individual reuse if u used h before t,
    social if a followee did, both if both, network if anyone else did,
    and external otherwise.  "Before" is strict, as in the package.
    ``tweets`` must be in time order, as a corpus holds them.
    """
    first_own: dict[tuple[str, str], int] = {}
    first_any: dict[str, int] = {}
    for tweet in tweets:
        for tag in tweet.hashtags:
            first_own.setdefault((tweet.user_id, tag), tweet.time)
            first_any.setdefault(tag, tweet.time)
    never = math.inf
    labels: Counter[str] = Counter()
    for tweet in tweets:
        followees = graph.followees(tweet.user_id)
        now = tweet.time
        for tag in tweet.hashtags:
            own = first_own[(tweet.user_id, tag)] < now
            social = any(first_own.get((f, tag), never) < now for f in followees)
            if own and social:
                label = "individual_social"
            elif own:
                label = "individual"
            elif social:
                label = "social"
            elif first_any[tag] < now:
                label = "network"
            else:
                label = "external"
            labels[label] += 1
    return labels


def recall_at_k(rankings: Sequence[Sequence[str]], relevant: Sequence[frozenset[str]], k: int) -> float:
    """Macro-averaged Recall@k, summed in query order."""
    total = 0.0
    for ranked, truth in zip(rankings, relevant):
        total += sum(1 for tag in ranked[:k] if tag in truth) / len(truth)
    return total / len(rankings)
