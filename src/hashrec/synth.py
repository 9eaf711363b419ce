"""Seeded synthetic corpus generator with planted temporal structure.

The generator emits a tweet stream in which a configurable fraction of
hashtag assignments are reuses of the same user's earlier tag
(individual) or adoptions from a followee's recent tweet (social), and
the delay between a use and its reuse is drawn from a truncated Pareto
law.  Reuses are scheduled forward on an event heap the moment the
source tweet is emitted, so realized reuse ages follow the planted
delay distribution directly and the log-log age histogram comes out
with slope close to -(alpha).  Everything is driven by one seeded
numpy generator, so equal configs give byte-identical output.  Its
draws are taken in blocks (``_Stream``) that reproduce numpy's scalar
stream exactly, so the output is the same as with one scalar call per
draw; the writer escapes U+0085, U+2028 and U+2029 so that
``str.splitlines()`` splits the JSONL only between tweets.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import numbers
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import MISSING, asdict, dataclass
from operator import length_hint
from typing import Callable, Iterator

import numpy as np

from hashrec.corpus import FollowGraph, Tweet, follows_to_tsv, tweets_to_jsonl

logger = logging.getLogger(__name__)

# Reuse delays live on [REUSE_DELAY_MIN_GAPS * mean_gap, span / REUSE_DELAY_SPAN_FRACTION].
# The lower edge sits well above the mean inter-tweet gap so bucket
# counts near the left edge are not distorted by arrival granularity;
# the upper edge stays a fraction of the corpus span so late reuses
# are rarely cut off by the end of the stream.
REUSE_DELAY_MIN_GAPS = 10.0
REUSE_DELAY_SPAN_FRACTION = 8.0

_FRESH_DRAW_ATTEMPTS = 20

# Uniforms _Stream draws at a time.  Each exponential draw gives back the
# rest of a block; generate took about the same time with blocks of 8 to 128.
_UNIFORM_BLOCK = 32
_LOW32 = 0xFFFFFFFF

_KIND_INDIVIDUAL = 0
_KIND_SOCIAL = 1

_INTEGER_FIELDS = ("n_users", "n_tweets", "vocab_size", "seed", "start_time")


@dataclass(frozen=True)
class GenConfig:
    """Generator knobs; invalid values raise listing every bad field.

    Type violations (a non-integer count or seed, a non-finite real)
    are reported before range violations, which need numbers to compare.
    """

    n_users: int
    n_tweets: int
    follow_prob: float
    p_individual: float
    p_social: float
    alpha: float
    zipf_s: float
    vocab_size: int
    seed: int
    start_time: int = 1_500_000_000
    mean_gap: float = 60.0

    def __post_init__(self) -> None:
        violations = [
            f"{name} must be an integer"
            for name in _INTEGER_FIELDS
            # bool is an Integral too, but true in a config is a mistake, not 1.
            if not isinstance(getattr(self, name), numbers.Integral) or isinstance(getattr(self, name), bool)
        ]
        violations += [
            f"{name} must be finite"
            for name in ("p_individual", "p_social", "alpha", "zipf_s", "mean_gap")
            if not math.isfinite(getattr(self, name))
        ]
        if violations:
            raise ValueError("invalid generator config: " + "; ".join(violations))
        if self.n_users < 1:
            violations.append("n_users must be >= 1")
        if self.n_tweets < 1:
            violations.append("n_tweets must be >= 1")
        if not 0.0 <= self.follow_prob <= 1.0:
            violations.append("follow_prob must lie in [0, 1]")
        if self.p_individual < 0.0:
            violations.append("p_individual must be >= 0")
        if self.p_social < 0.0:
            violations.append("p_social must be >= 0")
        if self.p_individual + self.p_social > 1.0:
            violations.append("p_individual + p_social must be <= 1")
        if self.p_social > 0.0 and self.n_users < 2:
            violations.append("n_users must be >= 2 when p_social > 0")
        if self.alpha <= 0.0:
            violations.append("alpha must be > 0")
        if self.zipf_s < 0.0:
            violations.append("zipf_s must be >= 0")
        if self.vocab_size < 1:
            violations.append("vocab_size must be >= 1")
        if self.seed < 0:
            violations.append("seed must be >= 0")
        if self.start_time < 0:
            violations.append("start_time must be >= 0")
        if self.mean_gap <= 0.0:
            violations.append("mean_gap must be > 0")
        if violations:
            raise ValueError("invalid generator config: " + "; ".join(violations))

    @classmethod
    def from_dict(cls, data: dict) -> "GenConfig":
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
        missing = sorted(
            name
            for name, fld in cls.__dataclass_fields__.items()
            if fld.default is MISSING and name not in data
        )
        if missing:
            raise ValueError(f"missing config field(s): {', '.join(missing)}")
        return cls(**data)


@dataclass
class GenStats:
    """Realized event counts; fallbacks are logged, not hidden."""

    n_tweets: int = 0
    n_fresh: int = 0
    n_individual: int = 0
    n_social: int = 0
    n_social_cancelled: int = 0
    n_fresh_collisions: int = 0
    n_unfired_events: int = 0
    n_edges: int = 0

    def individual_share(self) -> float:
        return self.n_individual / self.n_tweets if self.n_tweets else 0.0

    def social_share(self) -> float:
        return self.n_social / self.n_tweets if self.n_tweets else 0.0

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "individual_share": self.individual_share(),
            "social_share": self.social_share(),
        }


@dataclass(frozen=True)
class GenResult:
    """Serialized corpus plus realized generation statistics."""

    tweets_jsonl: str
    follows_tsv: str
    stats: GenStats


class _Stream:
    """The scalar draws of one PCG64 ``Generator``, taken in blocks.

    ``random()``, ``integers(n)`` and ``exponential(scale)`` return
    exactly what the same calls on the generator return, in the same
    order, at a fraction of the per-call cost.  Uniforms come from
    ``rng.random(_UNIFORM_BLOCK)``, which yields the doubles of as many
    scalar calls.  Before any other kind of draw, the words drawn ahead
    are given back with ``advance``.  ``integers`` is numpy's 32-bit Lemire
    draw (arXiv 1805.10941) on PCG64's ``next_uint32``, which returns
    the low half of a fresh word and keeps the high half for the next
    call; ``advance`` resets numpy's copy of that half, so the stream
    keeps its own.  numpy's exponential ziggurat is not reachable from
    Python, so ``exponential`` calls the generator itself.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._bitgen = rng.bit_generator
        self._ahead: Iterator[float] = iter(())
        state = self._bitgen.state
        self._half: int | None = state["uinteger"] if state["has_uint32"] else None
        self.random: Callable[[], float] = self._uniforms().__next__

    def _uniforms(self) -> Iterator[float]:
        while True:
            self._ahead = iter(self._rng.random(_UNIFORM_BLOCK).tolist())
            yield from self._ahead

    def _rewind(self) -> None:
        """Give back the uniforms drawn ahead, so the generator's next word is the stream's."""
        ahead = length_hint(self._ahead)
        if ahead:
            self._bitgen.advance(-ahead)
            deque(self._ahead, maxlen=0)

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        self._rewind()
        word = self._bitgen.random_raw()
        self._half = word >> 32
        return word & _LOW32

    def integers(self, n: int) -> int:
        """``rng.integers(n)`` for 1 <= n <= 2**32; numpy draws larger n on a 64-bit path."""
        if not 1 <= n <= 2**32:
            raise ValueError(f"integers(n) needs 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        product = self._next32() * n
        if product & _LOW32 < n:
            threshold = (2**32 - n) % n
            while product & _LOW32 < threshold:
                product = self._next32() * n
        return product >> 32

    def exponential(self, scale: float) -> float:
        self._rewind()
        return self._rng.exponential(scale)


def _build_follow_graph(rng: np.random.Generator, config: GenConfig) -> tuple[dict[int, list[int]], list[list[int]]]:
    """Random directed graph; returns (followees by user, followers by user)."""
    followees: dict[int, list[int]] = {}
    followers: list[list[int]] = [[] for _ in range(config.n_users)]
    for follower in range(config.n_users):
        mask = rng.random(config.n_users) < config.follow_prob
        mask[follower] = False
        targets = np.flatnonzero(mask)
        if targets.size:
            followees[follower] = [int(t) for t in targets]
            for target in targets:
                followers[int(target)].append(follower)
    return followees, followers


def generate(config: GenConfig) -> GenResult:
    """Generate a synthetic corpus as (tweets JSONL, follows TSV, stats).

    Each emitted tweet schedules, with probability p_individual, a
    future reuse by the same user after a truncated-Pareto delay, and
    for every follower independently a possible adoption of the tag
    (the per-follower probability is p_social divided by the mean
    follower count, so social events arrive at about p_social of the
    stream).  Between scheduled events a baseline stream emits fresh
    Zipf-drawn hashtags at a rate chosen so scheduled plus fresh tweets
    together keep the configured mean gap.  Adoptions of a tag the
    follower already uses are cancelled and counted, keeping the
    individual reuse-age histogram on the planted delay law.
    """
    rng = np.random.default_rng(config.seed)
    user_ids = [f"u{i:06d}" for i in range(config.n_users)]
    followees, followers = _build_follow_graph(rng, config)
    stats = GenStats(n_edges=sum(len(v) for v in followees.values()))
    # The simulation's tables die with its frame, before the writer runs.
    tweets = _simulate(config, _Stream(rng), user_ids, followers, stats)
    logger.info(
        "generated %d tweets: fresh=%d individual=%d (%.3f) social=%d (%.3f) "
        "cancelled=%d collisions=%d unfired=%d",
        stats.n_tweets,
        stats.n_fresh,
        stats.n_individual,
        stats.individual_share(),
        stats.n_social,
        stats.social_share(),
        stats.n_social_cancelled,
        stats.n_fresh_collisions,
        stats.n_unfired_events,
    )

    graph = FollowGraph(
        edges={
            user_ids[u]: frozenset(user_ids[v] for v in targets)
            for u, targets in followees.items()
        }
    )
    header = (
        "synthetic follow graph",
        f"rng: numpy default_rng (PCG64), seed={config.seed}",
    )
    return GenResult(
        tweets_jsonl=tweets_to_jsonl(tweets),
        follows_tsv=follows_to_tsv(graph, header_comments=header),
        stats=stats,
    )


def _simulate(
    config: GenConfig, stream: _Stream, user_ids: list[str], followers: list[list[int]], stats: GenStats
) -> list[Tweet]:
    """Run the event loop of ``generate``; fills ``stats`` and returns the tweets in emission order."""
    uniform = stream.random
    # Tweets with one tag id share its hashtag set and token tuple, made on first use.
    labels: dict[int, tuple[frozenset[str], tuple[str]]] = {}

    mean_followers = stats.n_edges / config.n_users
    q_social = config.p_social / mean_followers if mean_followers > 0 else 0.0
    if q_social > 1.0:
        logger.warning(
            "follow graph too sparse for p_social=%.3f (mean followers %.3f); social share will fall short",
            config.p_social,
            mean_followers,
        )
        q_social = 1.0

    weights = 1.0 / np.arange(1, config.vocab_size + 1, dtype=float) ** config.zipf_s
    # bisect_left on the doubles finds the index np.searchsorted finds,
    # config.vocab_size included.  A list of floats would take four times
    # the memory and raised the benchmark's peak RSS.
    zipf_cdf = array("d", np.cumsum(weights / weights.sum()).tobytes())

    # Delays follow the inverse CDF of a density proportional to a**-(1+alpha) on [lo, hi].
    span = config.n_tweets * config.mean_gap
    delay_lo = REUSE_DELAY_MIN_GAPS * config.mean_gap
    delay_hi = max(span / REUSE_DELAY_SPAN_FRACTION, 1.5 * delay_lo)
    lo_a = delay_lo**-config.alpha
    width_a = lo_a - delay_hi**-config.alpha
    delay_power = -1.0 / config.alpha

    base_keep = 1.0 - config.p_individual - config.p_social
    base_gap = config.mean_gap / base_keep if base_keep > 0 else math.inf

    own_tags: list[set[int]] = [set() for _ in range(config.n_users)]
    heap: list[tuple[float, int, int, int, int]] = []
    seq = itertools.count()
    tweets: list[Tweet] = []
    last_time = float(config.start_time)
    next_base = (
        float(config.start_time) + stream.exponential(base_gap)
        if math.isfinite(base_gap)
        else math.inf
    )

    def fresh_tag(user: int) -> int:
        history = own_tags[user]
        tag = -1
        for _ in range(_FRESH_DRAW_ATTEMPTS):
            tag = bisect_left(zipf_cdf, uniform())
            if tag not in history:
                return tag
        stats.n_fresh_collisions += 1
        return tag

    def emit(user: int, tag: int, time_f: float) -> None:
        nonlocal last_time
        hashtags, tokens = labels.get(tag) or labels.setdefault(tag, (frozenset((f"h{tag:07d}",)), (f"w{tag:07d}",)))
        tweets.append(Tweet(f"t{len(tweets):08d}", user_ids[user], int(round(time_f)), hashtags, tokens))
        last_time = time_f
        own_tags[user].add(tag)
        if uniform() < config.p_individual:
            delay = (lo_a - uniform() * width_a) ** delay_power
            heapq.heappush(heap, (time_f + delay, next(seq), _KIND_INDIVIDUAL, user, tag))
        if q_social > 0.0:
            for follower in followers[user]:
                if uniform() < q_social:
                    delay = (lo_a - uniform() * width_a) ** delay_power
                    heapq.heappush(heap, (time_f + delay, next(seq), _KIND_SOCIAL, follower, tag))

    while len(tweets) < config.n_tweets:
        if heap and heap[0][0] <= next_base:
            time_f, _, kind, user, tag = heapq.heappop(heap)
            if kind == _KIND_SOCIAL and tag in own_tags[user]:
                stats.n_social_cancelled += 1
                continue
            emit(user, tag, time_f)
            if kind == _KIND_INDIVIDUAL:
                stats.n_individual += 1
            else:
                stats.n_social += 1
        else:
            if math.isfinite(next_base):
                time_f = next_base
                next_base += stream.exponential(base_gap)
            else:
                # Entire stream is scheduled reuse; keep time moving
                # when nothing is pending yet (at most the first tweet).
                time_f = last_time + stream.exponential(config.mean_gap)
            user = stream.integers(config.n_users)
            emit(user, fresh_tag(user), time_f)
            stats.n_fresh += 1

    stats.n_tweets = len(tweets)
    stats.n_unfired_events = len(heap)
    return tweets
