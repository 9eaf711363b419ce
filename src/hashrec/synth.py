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
declared stream is: the follow graph first, one ``random(n_users)``
row per user, then three iterators that each take a block of
``_BLOCK`` draws whenever theirs runs out: uniforms, standard
exponentials (the gaps of the baseline stream) and user ids.
``_BLOCK`` is part of that declaration, so changing it changes the
bytes.  The event loop writes each tweet's JSONL line as it emits the
tweet, byte for byte what ``corpus.tweets_to_jsonl`` writes for it;
no ``Tweet`` object is built.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import numbers
import sys
from array import array
from bisect import bisect_left
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np

from hashrec.corpus import _TIMESTAMP_LIMIT, FollowGraph, follows_to_tsv

logger = logging.getLogger(__name__)

# The clock: the first tweet comes at or after START_TIME, and tweets
# arrive MEAN_GAP seconds apart on average.  BLL rankings do not depend
# on either, so they are fixed rather than configured.
START_TIME = 1_500_000_000
MEAN_GAP = 60.0

# n_tweets below this keeps START_TIME + n_tweets * MEAN_GAP below 2**63.
_MAX_TWEETS = (_TIMESTAMP_LIMIT - START_TIME) / MEAN_GAP

# Reuse delays live on [600 s, span / 8], span being n_tweets * MEAN_GAP,
# with the upper edge at least 900 s.  The lower edge, ten mean gaps,
# sits well above the mean inter-tweet gap so bucket counts near the
# left edge are not distorted by arrival granularity; the upper edge
# stays a fraction of the corpus span so late reuses are rarely cut
# off by the end of the stream.
REUSE_DELAY_MIN_GAPS = 10.0
REUSE_DELAY_SPAN_FRACTION = 8.0

_FRESH_DRAW_ATTEMPTS = 20

# Draws each iterator takes from the generator at a time.
_BLOCK = 1024

_KIND_INDIVIDUAL = 0
_KIND_SOCIAL = 1

_INTEGER_FIELDS = ("n_users", "n_tweets", "vocab_size", "seed")
_REAL_FIELDS = ("follow_prob", "p_individual", "p_social", "alpha", "zipf_s")


def _not_a(kind: type, value: object) -> bool:
    # bool is a number too, but true in a config is a mistake, not 1.
    return not isinstance(value, kind) or isinstance(value, bool)


@dataclass(frozen=True)
class GenConfig:
    """Generator knobs; invalid values raise listing every bad field.

    Type violations (a non-integer count or seed, a real field that is
    not a finite number) are reported before range violations, which
    need numbers to compare.
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

    def __post_init__(self) -> None:
        violations = [
            f"{name} must be an integer" for name in _INTEGER_FIELDS if _not_a(numbers.Integral, getattr(self, name))
        ]
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if _not_a(numbers.Real, value):
                violations.append(f"{name} must be a real number")
            elif not abs(value) <= sys.float_info.max:  # also an int too large for a float
                violations.append(f"{name} must be finite")
        if violations:
            raise ValueError("invalid generator config: " + "; ".join(violations))
        if self.n_users < 1:
            violations.append("n_users must be >= 1")
        if self.n_tweets < 1:
            violations.append("n_tweets must be >= 1")
        elif self.n_tweets >= _MAX_TWEETS:  # exact: an int compares with a float without conversion
            violations.append(f"n_tweets must be below {_MAX_TWEETS:.6g}, so tweet times stay below 2**63")
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
        if violations:
            raise ValueError("invalid generator config: " + "; ".join(violations))

    @classmethod
    def from_dict(cls, data: dict) -> "GenConfig":
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
        missing = sorted(known - set(data))
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


def _draws(sample: Callable[[int], np.ndarray]) -> Callable[[], Any]:
    """One value per call, taken from ``sample(_BLOCK)`` blocks as they run out."""
    return itertools.chain.from_iterable(iter(lambda: sample(_BLOCK).tolist(), None)).__next__


def _stream(
    rng: np.random.Generator, n_users: int
) -> tuple[Callable[[], float], Callable[[], float], Callable[[], int]]:
    """The simulation's draws, after the graph: uniforms, standard exponentials and user ids."""
    # By keyword: a positional size would be read as integers' high.
    return _draws(rng.random), _draws(rng.standard_exponential), _draws(lambda size: rng.integers(n_users, size=size))


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
    together keep the mean gap MEAN_GAP.  Adoptions of a tag the
    follower already uses are cancelled and counted, keeping the
    individual reuse-age histogram on the planted delay law.  The event
    loop writes each tweet's JSONL line as it emits the tweet.
    """
    rng = np.random.default_rng(config.seed)
    user_ids = [f"u{i:06d}" for i in range(config.n_users)]
    followees, followers = _build_follow_graph(rng, config)
    stats = GenStats(n_edges=sum(len(v) for v in followees.values()))
    # The simulation's tables die with its frame, before the lines are joined.
    lines = _simulate(config, rng, user_ids, followers, stats)
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
        tweets_jsonl="".join(lines),
        follows_tsv=follows_to_tsv(graph, header_comments=header),
        stats=stats,
    )


def _simulate(
    config: GenConfig, rng: np.random.Generator, user_ids: list[str], followers: list[list[int]], stats: GenStats
) -> list[str]:
    """Run the event loop of ``generate``; fills ``stats`` and returns the JSONL lines in emission order.

    A line is what ``corpus.tweets_to_jsonl`` writes for the tweet: its
    ids and labels are ``[a-z0-9]`` ASCII, so quoting adds only the
    quotes, and with one hashtag the keys are already sorted.  So it is
    a head cached per tag id, the rounded time, ``t%08d`` of the
    emission index and a tail per user.
    """
    uniform, exponential, draw_user = _stream(rng, config.n_users)
    heads: dict[int, str] = {}
    tails = [f', "user_id": "{user_id}"}}\n' for user_id in user_ids]

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
    span = config.n_tweets * MEAN_GAP
    delay_lo = REUSE_DELAY_MIN_GAPS * MEAN_GAP
    delay_hi = max(span / REUSE_DELAY_SPAN_FRACTION, 1.5 * delay_lo)
    lo_a = delay_lo**-config.alpha
    width_a = lo_a - delay_hi**-config.alpha
    delay_power = -1.0 / config.alpha

    # A baseline stream that expects under one tweet in the corpus's span
    # is left out, as where the shares sum to 1.  Its gap would otherwise
    # reach 2e18 s at a rounding residue of 1 - p_individual - p_social
    # (0.85 and 0.15 leave 2.8e-17) and carry tweet times past 2**63.
    base_keep = 1.0 - config.p_individual - config.p_social
    base_gap = MEAN_GAP / base_keep if base_keep * config.n_tweets >= 1.0 else math.inf

    own_tags: list[set[int]] = [set() for _ in range(config.n_users)]
    heap: list[tuple[float, int, int, int, int]] = []
    seq = itertools.count()
    lines: list[str] = []
    last_time = float(START_TIME)
    next_base = START_TIME + exponential() * base_gap if math.isfinite(base_gap) else math.inf

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
        head = heads.get(tag) or heads.setdefault(tag, f'{{"hashtags": ["h{tag:07d}"], "text": "w{tag:07d}", "timestamp": ')
        lines.append(f'{head}{round(time_f)}, "tweet_id": "t{len(lines):08d}"{tails[user]}')
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

    while len(lines) < config.n_tweets:
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
                next_base += exponential() * base_gap
            else:
                # No baseline stream: with nothing pending, a fresh
                # tweet keeps time moving.
                time_f = last_time + exponential() * MEAN_GAP
            user = draw_user()
            emit(user, fresh_tag(user), time_f)
            stats.n_fresh += 1

    stats.n_tweets = len(lines)
    stats.n_unfired_events = len(heap)
    return lines
