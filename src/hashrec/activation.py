"""Time-decayed activation scoring of hashtags.

A hashtag's base-level activation is ln of the sum of its use ages
raised to a negative decay exponent, so many recent uses score high and
stale ones fade as a power law.  Individual (own history) and social
(followee history) activations are softmax-normalized separately and
mixed by a weight beta to produce the final ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from hashrec.corpus import FollowGraph, Timestamp, UsageIndex

ScoredList = list[tuple[str, float]]


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


def base_level_activation(use_ages: Iterable[float], d: float) -> float:
    """ln of the sum of age**(-d) over all past-use ages.

    Ages must be positive; an empty history is an error because the
    logarithm of zero is undefined.
    """
    total = 0.0
    n = 0
    for age in use_ages:
        if age <= 0:
            raise ValueError("use ages must be positive")
        total += age ** (-d)
        n += 1
    if n == 0:
        raise ValueError("cannot compute activation of an empty history")
    return math.log(total)


def _history_activations(
    histories: Mapping[str, list[Timestamp]],
    now: Timestamp,
    d: float,
    min_age: float,
) -> dict[str, float]:
    activations: dict[str, float] = {}
    for hashtag in sorted(histories):
        ages = [max(float(now - t), min_age) for t in histories[hashtag] if t < now]
        if ages:
            activations[hashtag] = base_level_activation(ages, d)
    return activations


def individual_activations(
    index: UsageIndex,
    user_id: str,
    now: Timestamp,
    params: ActivationParams = ActivationParams(),
) -> dict[str, float]:
    """Activation of every hashtag the user used strictly before now."""
    return _history_activations(index.user_history(user_id), now, params.d_individual, params.min_age)


def social_activations(
    index: UsageIndex,
    graph: FollowGraph,
    user_id: str,
    now: Timestamp,
    params: ActivationParams = ActivationParams(),
) -> dict[str, float]:
    """Activation of every hashtag any followee used strictly before now.

    Uses are pooled across followees into one age list per hashtag, so
    a tag several followees keep using accumulates more activation than
    any single history would give it.
    """
    pooled: dict[str, list[Timestamp]] = {}
    for followee in sorted(graph.followees(user_id)):
        for hashtag, times in index.user_history(followee).items():
            pooled.setdefault(hashtag, []).extend(times)
    return _history_activations(pooled, now, params.d_social, params.min_age)


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


def mix_scores(
    individual: Mapping[str, float],
    social: Mapping[str, float],
    beta: float,
) -> dict[str, float]:
    """beta-weighted sum over the union of candidates; missing side is 0."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    mixed: dict[str, float] = {}
    for hashtag in sorted(set(individual) | set(social)):
        mixed[hashtag] = beta * individual.get(hashtag, 0.0) + (1.0 - beta) * social.get(hashtag, 0.0)
    return mixed


def rank_top_k(scores: Mapping[str, float], k: int) -> ScoredList:
    """Top k by descending score, ties broken by hashtag ascending."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ordered[:k]


def bll_is_scores(
    index: UsageIndex,
    graph: FollowGraph,
    user_id: str,
    now: Timestamp,
    params: ActivationParams = ActivationParams(),
) -> dict[str, float]:
    """Unranked beta-mix of softmaxed individual and social activations.

    Both activation maps are softmax-normalized before mixing, so beta
    trades off two comparable distributions rather than raw log scales.
    """
    individual = normalize_softmax(individual_activations(index, user_id, now, params))
    social = normalize_softmax(social_activations(index, graph, user_id, now, params))
    return mix_scores(individual, social, params.beta)


def recommend_bll_is(
    index: UsageIndex,
    graph: FollowGraph,
    user_id: str,
    now: Timestamp,
    params: ActivationParams = ActivationParams(),
    k: int = 10,
) -> ScoredList:
    """Top k of ``bll_is_scores``; users with no history on either side
    get an empty list."""
    return rank_top_k(bll_is_scores(index, graph, user_id, now, params), k)
