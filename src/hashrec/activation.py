"""Time-decayed activation scoring of hashtags.

A hashtag's base-level activation is ln of the sum of its use ages
raised to a negative decay exponent, so many recent uses score high and
stale ones fade as a power law.  Individual (own history) and social
(followee history) activations are softmax-normalized separately and
mixed by a weight beta to produce the final ranking.

Scoring runs on the usage index's per-user (time, hashtag id) columns:
each query cuts them at its time and sums, softmaxes, mixes and ranks
whole arrays, and sorts only the candidates scoring at least the k-th
largest score.  ``base_level_activation`` is the one-hashtag case of
the same kernel.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from hashrec.corpus import FollowGraph, Timestamp, UsageIndex

ScoredList = list[tuple[str, float]]

_NO_IDS = np.empty(0, dtype=np.int32)
_NO_VALUES = np.empty(0)


class TagScores(Mapping[str, float]):
    """Read-only hashtag -> score view over two parallel arrays.

    ``ids`` ascend and index ``tags``, the sorted hashtags a usage index
    interned; ``scores[i]`` is the score of ``tags[ids[i]]``.  The view
    iterates in hashtag order and compares equal to the matching dict.
    Its methods score on the arrays, so a query builds no dict.
    """

    __slots__ = ("tags", "ids", "scores")

    def __init__(self, tags: Sequence[str], ids: np.ndarray, scores: np.ndarray) -> None:
        self.tags = tags
        self.ids = ids
        self.scores = scores

    def __getitem__(self, hashtag: str) -> float:
        tag_id = bisect_left(self.tags, hashtag)
        pos = int(self.ids.searchsorted(tag_id))
        if pos < self.ids.size and self.ids[pos] == tag_id and self.tags[tag_id] == hashtag:
            return float(self.scores[pos])
        raise KeyError(hashtag)

    def __iter__(self) -> Iterator[str]:
        return map(self.tags.__getitem__, self.ids.tolist())

    def __len__(self) -> int:
        return self.ids.size

    def softmax(self) -> TagScores:
        """``normalize_softmax`` of the view."""
        if not self.scores.size:
            return self
        exps = np.exp(self.scores - self.scores.max())
        return TagScores(self.tags, self.ids, exps / exps.sum())

    def mix(self, other: TagScores, weight: float) -> TagScores:
        """``mix_scores(self, other, weight)``: the blend over the union of
        both id sets, a missing side counting 0."""
        ids, slots = _group(np.concatenate((self.ids, other.ids)))
        mine, theirs = np.zeros(ids.size), np.zeros(ids.size)
        mine[slots[: self.ids.size]] = self.scores
        theirs[slots[self.ids.size :]] = other.scores
        return TagScores(self.tags, ids, _blend(mine, theirs, weight))

    def top_k(self, k: int) -> ScoredList:
        """``rank_top_k`` of the view.  Only the scores at or above the k-th
        largest are sorted, all its ties included, and id order is hashtag
        order, so ties still break by hashtag ascending."""
        if k < 1:
            raise ValueError("k must be >= 1")
        ids, scores = self.ids, self.scores
        if scores.size > k:
            keep = (scores >= np.partition(scores, -k)[-k]).nonzero()[0]
            ids, scores = ids[keep], scores[keep]
        order = np.lexsort((ids, -scores))[:k]
        return list(zip(map(self.tags.__getitem__, ids[order].tolist()), scores[order].tolist()))


def _group(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` from one argsort: the starts
    of the sorted runs, and their running count put back in input order."""
    order = ids.argsort()
    ordered = ids[order]
    starts = np.empty(ids.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    inverse = np.empty(ids.size, dtype=np.intp)
    inverse[order] = starts.cumsum() - 1
    return ordered[starts.nonzero()[0]], inverse


@dataclass(frozen=True)
class ActivationParams:
    """Decay exponents, mixing weight, and the minimum age clamp.

    Ages are clamped below at ``min_age`` seconds so a use in the same
    second as the query never produces a zero or negative power base.
    """

    d_individual: float = 0.5
    d_social: float = 0.5
    beta: float = 0.5
    min_age: float = 1.0

    def __post_init__(self) -> None:
        for name in ("d_individual", "d_social", "min_age"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")


def _log_sums(ages: np.ndarray, groups: np.ndarray, d: float) -> np.ndarray:
    """ln of each group's sum of age**(-d), groups numbered 0, 1, ...

    ``bincount`` adds every group's terms in input order.  A sum whose
    every term underflows to 0 is taken as the log-sum-exp of
    -d * ln(age), so its group ranks last instead of scoring -inf.
    """
    sums = np.bincount(groups, ages**-d)
    if sums.all():
        return np.log(sums)
    logs = -d * np.log(ages)
    peak = np.full(sums.size, -np.inf)
    np.maximum.at(peak, groups, logs)
    log_sum_exp = peak + np.log(np.bincount(groups, np.exp(logs - peak[groups])))
    return np.log(sums, out=log_sum_exp, where=sums > 0)


def base_level_activation(use_ages: Iterable[float], d: float) -> float:
    """ln of the sum of age**(-d) over all past-use ages.

    Ages must be positive and finite, and so must ``d``; an empty
    history is an error because the logarithm of zero is undefined.
    """
    if not (math.isfinite(d) and d > 0):
        raise ValueError("d must be positive and finite")
    ages = np.fromiter(use_ages, dtype=float)
    if not ages.size:
        raise ValueError("cannot compute activation of an empty history")
    if not ((ages > 0) & (ages < math.inf)).all():
        raise ValueError("use ages must be positive and finite")
    return float(_log_sums(ages, np.zeros(ages.size, dtype=np.intp), d)[0])


def _activations(
    index: UsageIndex,
    users: Iterable[str],
    now: Timestamp,
    d: float,
    min_age: float,
) -> TagScores:
    """Base-level activation of every hashtag the users used before now,
    each hashtag's terms summed in the order of ``UsageIndex.uses_before``."""
    times, ids = index.uses_before(users, now)
    if not ids.size:
        return TagScores(index.tags, _NO_IDS, _NO_VALUES)
    present, inverse = _group(ids)
    # float(now) - t is float(now - t) for times below 2**53, and it
    # cannot overflow int64 the way now - t can.
    ages = np.maximum(float(now) - times, min_age)
    return TagScores(index.tags, present, _log_sums(ages, inverse, d))


def individual_activations(
    index: UsageIndex,
    user_id: str,
    now: Timestamp,
    params: ActivationParams = ActivationParams(),
) -> TagScores:
    """Activation of every hashtag the user used strictly before now."""
    return _activations(index, (user_id,), now, params.d_individual, params.min_age)


def social_activations(
    index: UsageIndex,
    graph: FollowGraph,
    user_id: str,
    now: Timestamp,
    params: ActivationParams = ActivationParams(),
) -> TagScores:
    """Activation of every hashtag any followee used strictly before now.

    Uses are pooled across followees into one age list per hashtag, so
    a tag several followees keep using accumulates more activation than
    any single history would give it.
    """
    return _activations(index, sorted(graph.followees(user_id)), now, params.d_social, params.min_age)


def normalize_softmax(scores: Mapping[str, float]) -> dict[str, float]:
    """exp-normalize scores to a distribution; stable under shifts.

    The maximum is subtracted before exponentiation, so adding any
    constant to all scores leaves the output unchanged and large
    activations cannot overflow.  An empty input maps to an empty dict.
    """
    if not scores:
        return {}
    peak = max(scores.values())
    exps = {key: math.exp(value - peak) for key, value in scores.items()}
    total = sum(exps.values())
    return {key: value / total for key, value in exps.items()}


def _blend(left, right, weight: float):
    """The mixing expression, shared by floats and arrays."""
    return weight * left + (1.0 - weight) * right


def mix_scores(
    individual: Mapping[str, float],
    social: Mapping[str, float],
    beta: float,
) -> dict[str, float]:
    """beta-weighted sum over the union of candidates; missing side is 0."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    return {
        hashtag: _blend(individual.get(hashtag, 0.0), social.get(hashtag, 0.0), beta)
        for hashtag in sorted(set(individual) | set(social))
    }


def rank_top_k(scores: Mapping[str, float], k: int) -> ScoredList:
    """Top k by descending score, ties broken by hashtag ascending."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ordered[:k]


def history_scores(
    index: UsageIndex,
    graph: FollowGraph,
    user_id: str,
    now: Timestamp,
    params: ActivationParams = ActivationParams(),
) -> TagScores:
    """Beta-mix of softmaxed individual and social activations.

    Both activation maps are softmax-normalized before mixing, so beta
    trades off two comparable distributions rather than raw log scales.
    """
    individual = individual_activations(index, user_id, now, params).softmax()
    social = social_activations(index, graph, user_id, now, params).softmax()
    return individual.mix(social, params.beta)


def recommend_bll_is(
    index: UsageIndex,
    graph: FollowGraph,
    user_id: str,
    now: Timestamp,
    params: ActivationParams = ActivationParams(),
    k: int = 10,
) -> ScoredList:
    """Top k of ``history_scores``; users with no history on either side
    get an empty list."""
    return history_scores(index, graph, user_id, now, params).top_k(k)
