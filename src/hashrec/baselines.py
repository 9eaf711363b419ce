"""Frequency and recency baselines for the evaluation harness.

Each baseline ranks hashtags from the same strictly-before-now usage
events the activation recommender sees, so comparisons isolate the
value of power-law decay rather than differences in data access.
Every one reads a prefix of the usage index's time-sorted columns.
"""

from __future__ import annotations

import numpy as np

from hashrec.activation import ScoredList, TagScores
from hashrec.corpus import FollowGraph, Timestamp, UsageIndex


def _top_counts(index: UsageIndex, ids: np.ndarray, k: int) -> ScoredList:
    """Top k hashtags by their number of occurrences in ``ids``."""
    counts = np.bincount(ids)
    present = np.flatnonzero(counts)
    return TagScores(index.tags, present, counts[present].astype(float)).top_k(k)


def mp_global(index: UsageIndex, now: Timestamp, k: int = 10) -> ScoredList:
    """Most popular overall: global use counts strictly before now."""
    return _top_counts(index, index.ids_before(now), k)


def mp_user(index: UsageIndex, user_id: str, now: Timestamp, k: int = 10) -> ScoredList:
    """Most popular in the user's own history strictly before now."""
    return _top_counts(index, index.uses_before((user_id,), now)[1], k)


def mp_social(index: UsageIndex, graph: FollowGraph, user_id: str, now: Timestamp, k: int = 10) -> ScoredList:
    """Most popular across followee histories strictly before now."""
    return _top_counts(index, index.uses_before(graph.followees(user_id), now)[1], k)


def most_recent(index: UsageIndex, user_id: str, now: Timestamp, k: int = 10) -> ScoredList:
    """The user's own hashtags, freshest first.

    Scores are the negated age of the last use before now, so larger is
    more recent and the shared tie rule (score desc, hashtag asc) keeps
    the ordering deterministic.
    """
    times, ids = index.uses_before((user_id,), now)
    # Times ascend, so a hashtag's first use in the reversed columns is
    # its last use before now.  t - float(now) is -float(now - t) for
    # times below 2**53, and it cannot overflow int64 the way now - t can.
    present, last = np.unique(ids[::-1], return_index=True)
    return TagScores(index.tags, present, times[::-1][last] - float(now)).top_k(k)
