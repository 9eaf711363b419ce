"""Content-aware scoring from token-to-hashtag co-occurrence.

Training tweets with text strictly before the query time build a
token/hashtag profile: document frequencies for idf and co-occurrence
counts linking tokens to the hashtags they appeared with.  The query
tweet's tokens vote for hashtags with tf-idf weight, spread over each
token's associated tags.  The hybrid recommender blends this content
score into the activation mix so users with thin histories still get
ranked candidates.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from hashrec.activation import (
    ActivationParams,
    ScoredList,
    TagScores,
    history_scores,
    mix_scores,
    normalize_softmax,
    rank_top_k,
)
from hashrec.corpus import Corpus, FollowGraph, Timestamp, UsageIndex


@dataclass(frozen=True)
class TokenHashtagProfile:
    """Token document frequencies and token-hashtag co-occurrence.

    ``doc_count`` counts training tweets that carried tokens.  ``df[w]``
    counts those tweets containing w at least once.  ``assoc[w][h]``
    counts tweets where token w and hashtag h appeared together; the
    row's sum spreads w's vote over its hashtags.
    """

    doc_count: int
    df: Mapping[str, int]
    assoc: Mapping[str, Mapping[str, int]]


def profiles_before(
    train: Corpus, times: Iterable[float], tokens: Iterable[str] | None = None
) -> Iterator[TokenHashtagProfile]:
    """For each of the ascending ``times``, the profile of the training
    tweets strictly before it, all from one forward pass.

    Tweets without tokens are skipped; tweets with tokens but no
    hashtags still raise doc_count and df so idf stays honest.  Tokens
    count once per tweet, and only those in ``tokens`` when it is given:
    such a profile answers only for them.  A yielded profile shares its
    counters with the next one, and is valid until that one is drawn.
    """
    tweets, pos, doc_count, previous = train.tweets, 0, 0, -math.inf
    kept = None if tokens is None else frozenset(tokens)
    df: dict[str, int] = {}
    assoc: dict[str, Counter[str]] = {}
    for now in times:
        if not now >= previous:
            raise ValueError(f"times must be ascending, but {now!r} follows {previous!r}")
        previous = now
        while pos < len(tweets) and tweets[pos].time < now:
            tweet, pos = tweets[pos], pos + 1
            if tweet.tokens:
                doc_count += 1
                for token in set(tweet.tokens) if kept is None else kept.intersection(tweet.tokens):
                    df[token] = df.get(token, 0) + 1
                    if tweet.hashtags:
                        assoc.setdefault(token, Counter()).update(tweet.hashtags)
        yield TokenHashtagProfile(doc_count, df, assoc)


def build_profiles(train: Corpus) -> TokenHashtagProfile:
    """The profile of every training tweet."""
    return next(profiles_before(train, [math.inf]))


def idf(profile: TokenHashtagProfile, token: str) -> float:
    """ln(doc_count / df[token]); KeyError for tokens never seen."""
    return math.log(profile.doc_count / profile.df[token])


def content_scores(profile: TokenHashtagProfile, tokens: Sequence[str]) -> dict[str, float]:
    """tf-idf-weighted hashtag votes from the query tokens.

    Each known token contributes tf * idf, split across its associated
    hashtags in proportion to co-occurrence counts.  Tokens absent from
    the profile, or seen only in hashtag-less tweets, contribute
    nothing; with no usable tokens the result is empty.
    """
    scores: dict[str, float] = {}
    tf = Counter(tokens)
    for token in sorted(tf):
        row = profile.assoc.get(token)
        if not row:
            continue
        weight = tf[token] * idf(profile, token)
        total = sum(row.values())
        for hashtag in sorted(row):
            scores[hashtag] = scores.get(hashtag, 0.0) + weight * row[hashtag] / total
    return scores


def recommend_bll_isc(
    index: UsageIndex,
    graph: FollowGraph,
    profile: TokenHashtagProfile,
    user_id: str,
    now: Timestamp,
    tokens: Sequence[str] | None,
    params: ActivationParams = ActivationParams(),
    lambda_weight: float = 0.5,
    k: int = 10,
) -> ScoredList:
    """Blend activation mixing with content scores.

    final = lambda_weight * (beta-mixed softmaxed activations)
          + (1 - lambda_weight) * softmaxed content scores,
    over the union of both candidate sets.  lambda_weight = 1 reduces to
    the history-only recommender on the shared candidates; 0 ranks by
    content alone.
    """
    if not 0.0 <= lambda_weight <= 1.0:
        raise ValueError("lambda_weight must lie in [0, 1]")
    history = history_scores(index, graph, user_id, now, params)
    content = normalize_softmax(content_scores(profile, tokens or []))
    # The blend is exactly lambda_weight * h off the content hashtags
    # (h >= 0) and no lower on them (content >= 0), so under one tie rule
    # the top k of lambda_weight * h holds the blend's top k of the rest.
    scaled = TagScores(history.tags, history.ids, lambda_weight * history.scores)
    ranked = dict(scaled.top_k(k))
    ranked.update(mix_scores({tag: history.get(tag, 0.0) for tag in content}, content, lambda_weight))
    return rank_top_k(ranked, k)
