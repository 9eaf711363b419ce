"""Corpus parsing, indexing, and chronological splitting.

Input data is a JSONL file of tweets and a TSV file of follow edges.
Everything downstream (categorization, activation scoring, evaluation)
works off the sorted tweet list and the usage index built here.
"""

from __future__ import annotations

import json
import logging
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

Timestamp = int

# The usage index stores times as int64, so parsed timestamps must fit.
_TIMESTAMP_LIMIT = 2**63

_NO_USES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32))

# Tokens are maximal runs of word characters excluding underscore.
# Hashtag mentions inside the text are removed before token extraction
# so the content model never sees the labels it is asked to predict.
_HASHTAG_IN_TEXT_RE = re.compile(r"#[^\W_]*", re.UNICODE)
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

_TWEET_REQUIRED_KEYS = ("tweet_id", "user_id", "timestamp", "hashtags")


class CorpusError(ValueError):
    """Malformed or inconsistent input data."""


def normalize_hashtag(raw: str) -> str:
    """Lowercase a hashtag and strip any leading '#' characters.

    Returns the empty string when nothing is left, e.g. for "#".
    """
    return raw.lower().lstrip("#")


def tokenize(text: str) -> list[str]:
    """Lowercase, drop hashtag mentions, and extract word tokens.

    Tokens are runs of word characters excluding underscore; tokens
    shorter than two characters are dropped.
    """
    cleaned = _HASHTAG_IN_TEXT_RE.sub(" ", text.lower())
    return [tok for tok in _TOKEN_RE.findall(cleaned) if len(tok) >= 2]


@dataclass(frozen=True)
class Tweet:
    """One post: who said it, when, which hashtags, optional tokens.

    ``hashtags`` are normalized (lowercase, no leading '#').  ``tokens``
    is None when the record carried no text field; an empty tuple means
    text was present but produced no tokens.
    """

    tweet_id: str
    user_id: str
    time: Timestamp
    hashtags: frozenset[str]
    tokens: tuple[str, ...] | None = None

    def sort_key(self) -> tuple[Timestamp, str]:
        return (self.time, self.tweet_id)


@dataclass(frozen=True)
class FollowGraph:
    """Directed follow edges, keyed by follower.

    ``edges[u]`` is the frozenset of accounts u follows (u's feed
    sources).  Users without outgoing edges simply have no entry.
    """

    edges: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def followees(self, user_id: str) -> frozenset[str]:
        return self.edges.get(user_id, frozenset())

    def users(self) -> set[str]:
        seen = set(self.edges)
        for targets in self.edges.values():
            seen.update(targets)
        return seen


@dataclass(frozen=True)
class Corpus:
    """Tweets sorted by (time, tweet_id) plus the follow graph."""

    tweets: tuple[Tweet, ...]
    graph: FollowGraph
    users: frozenset[str]

    def span_seconds(self) -> int:
        if len(self.tweets) < 2:
            return 0
        return self.tweets[-1].time - self.tweets[0].time


def _require(condition: bool, line_no: int, message: str) -> None:
    if not condition:
        raise CorpusError(f"line {line_no}: {message}")


def parse_tweets(lines: Iterable[str]) -> list[Tweet]:
    """Parse JSONL tweet records; blank lines are skipped.

    Raises CorpusError naming the offending line for malformed JSON,
    missing fields, bad field types, negative timestamps, and duplicate
    tweet ids.  Hashtags are normalized; empty ones are dropped.
    Records with empty hashtag sets are retained (they still carry
    content history even though they add no usage events).
    """
    tweets: list[Tweet] = []
    seen_ids: dict[str, int] = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
        _require(isinstance(record, dict), line_no, "record is not a JSON object")
        for key in _TWEET_REQUIRED_KEYS:
            _require(key in record, line_no, f"missing field {key!r}")
        tweet_id = record["tweet_id"]
        user_id = record["user_id"]
        timestamp = record["timestamp"]
        raw_tags = record["hashtags"]
        _require(isinstance(tweet_id, str) and tweet_id != "", line_no, "tweet_id must be a non-empty string")
        _require(isinstance(user_id, str) and user_id != "", line_no, "user_id must be a non-empty string")
        _require(
            isinstance(timestamp, int) and not isinstance(timestamp, bool),
            line_no,
            "timestamp must be an integer",
        )
        _require(timestamp >= 0, line_no, "timestamp must be non-negative")
        _require(timestamp < _TIMESTAMP_LIMIT, line_no, "timestamp must be below 2**63")
        _require(isinstance(raw_tags, list), line_no, "hashtags must be an array")
        hashtags = set()
        for raw in raw_tags:
            _require(isinstance(raw, str), line_no, "hashtags must be an array of strings")
            tag = normalize_hashtag(raw)
            if tag:
                hashtags.add(tag)
        if tweet_id in seen_ids:
            raise CorpusError(
                f"line {line_no}: duplicate tweet_id {tweet_id!r} (first seen on line {seen_ids[tweet_id]})"
            )
        seen_ids[tweet_id] = line_no
        tokens: tuple[str, ...] | None = None
        if "text" in record and record["text"] is not None:
            text = record["text"]
            _require(isinstance(text, str), line_no, "text must be a string")
            tokens = tuple(tokenize(text))
        tweets.append(
            Tweet(
                tweet_id=tweet_id,
                user_id=user_id,
                time=timestamp,
                hashtags=frozenset(hashtags),
                tokens=tokens,
            )
        )
    return tweets


def parse_follows(lines: Iterable[str]) -> FollowGraph:
    """Parse TSV follow edges: one ``follower<TAB>followee`` per line.

    Blank lines and lines starting with '#' are skipped.  Self-loops
    are dropped with a logged count; duplicate edges collapse.  Any
    other shape is a CorpusError naming the line.
    """
    edges: dict[str, set[str]] = {}
    self_loops = 0
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split("\t")
        _require(
            len(fields) == 2 and all(fields),
            line_no,
            "expected exactly two tab-separated ids",
        )
        follower, followee = fields
        if follower == followee:
            self_loops += 1
            continue
        edges.setdefault(follower, set()).add(followee)
    if self_loops:
        logger.warning("dropped %d self-loop follow edge(s)", self_loops)
    return FollowGraph(edges={u: frozenset(vs) for u, vs in edges.items()})


def load_tweets(path: str) -> list[Tweet]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_tweets(handle)


def load_follows(path: str) -> FollowGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_follows(handle)


def build_corpus(tweets: Iterable[Tweet], graph: FollowGraph | None = None) -> Corpus:
    """Sort tweets by (time, tweet_id) and attach the follow graph."""
    graph = graph if graph is not None else FollowGraph(edges={})
    ordered = tuple(sorted(tweets, key=Tweet.sort_key))
    seen: set[str] = set()
    for tweet in ordered:
        if tweet.tweet_id in seen:
            raise CorpusError(f"duplicate tweet_id {tweet.tweet_id!r}")
        seen.add(tweet.tweet_id)
    users = {t.user_id for t in ordered} | graph.users()
    return Corpus(tweets=ordered, graph=graph, users=frozenset(users))


def chronological_split(corpus: Corpus, per_user_holdout: int = 1) -> tuple[Corpus, list[Tweet]]:
    """Hold out each user's last hashtag-bearing tweets as test queries.

    For every user with at least ``per_user_holdout + 1`` hashtag-bearing
    tweets, the final ``per_user_holdout`` of them (by (time, tweet_id)
    order) become test queries; everything else, including tweets with
    no hashtags and all tweets of ineligible users, stays in training.
    """
    if per_user_holdout < 1:
        raise ValueError("per_user_holdout must be >= 1")
    tagged_by_user: dict[str, list[Tweet]] = {}
    for tweet in corpus.tweets:
        if tweet.hashtags:
            tagged_by_user.setdefault(tweet.user_id, []).append(tweet)
    test_ids: set[str] = set()
    for tweets in tagged_by_user.values():
        if len(tweets) >= per_user_holdout + 1:
            test_ids.update(t.tweet_id for t in tweets[-per_user_holdout:])
    train = [t for t in corpus.tweets if t.tweet_id not in test_ids]
    test = sorted(
        (t for t in corpus.tweets if t.tweet_id in test_ids),
        key=Tweet.sort_key,
    )
    return build_corpus(train, corpus.graph), test


@dataclass(frozen=True)
class UsageIndex:
    """Hashtag usage events from a fixed tweet set, sorted by time.

    ``by_user[u][h]`` is the ascending list of times u used h;
    ``by_hashtag[h]`` is the ascending list of (time, user) uses.
    ``n_events`` equals the total number of (tweet, hashtag) pairs.
    Queries that take a ``now`` are strict: only events with
    time < now count.

    Hashtags are also interned: ``tags`` holds them in sorted order and
    ``tag_ids[h]`` is h's position there, so comparing ids compares
    hashtags.  ``columns[u]`` is the pair (times, tag ids) of u's uses
    as int64 and int32 arrays sorted by time; a hashtag's own uses keep
    their order from ``by_user``.  The pairs are read-only slices of two
    arrays that hold every user's uses.
    """

    by_user: Mapping[str, Mapping[str, list[Timestamp]]]
    by_hashtag: Mapping[str, list[tuple[Timestamp, str]]]
    n_events: int
    tags: tuple[str, ...]
    tag_ids: Mapping[str, int]
    columns: Mapping[str, tuple[np.ndarray, np.ndarray]] = field(compare=False)

    def user_history(self, user_id: str) -> Mapping[str, list[Timestamp]]:
        return self.by_user.get(user_id, {})

    def user_columns(self, user_id: str) -> tuple[np.ndarray, np.ndarray]:
        """(times, tag ids) of the user's uses; empty arrays if none."""
        return self.columns.get(user_id, _NO_USES)

    def uses(self, user_id: str, hashtag: str) -> list[Timestamp]:
        return self.by_user.get(user_id, {}).get(hashtag, [])

    def hashtags(self) -> Iterator[str]:
        return iter(self.by_hashtag)

    def count_user_before(self, user_id: str, hashtag: str, now: Timestamp) -> int:
        return bisect_left(self.uses(user_id, hashtag), now)

    def used_before(self, user_id: str, hashtag: str, now: Timestamp) -> bool:
        times = self.uses(user_id, hashtag)
        return bool(times) and times[0] < now

    def last_use_before(self, user_id: str, hashtag: str, now: Timestamp) -> Timestamp | None:
        times = self.uses(user_id, hashtag)
        pos = bisect_left(times, now)
        return times[pos - 1] if pos else None

    def count_global_before(self, hashtag: str, now: Timestamp) -> int:
        # "" sorts before every non-empty user id, so this counts
        # exactly the events with time strictly below now.
        return bisect_left(self.by_hashtag.get(hashtag, []), (now, ""))

    def anyone_used_before(self, hashtag: str, now: Timestamp) -> bool:
        uses = self.by_hashtag.get(hashtag, [])
        return bool(uses) and uses[0][0] < now


def build_usage_index(tweets: Iterable[Tweet] | Corpus) -> UsageIndex:
    """Index every (user, hashtag, time) usage event.

    Event lists come out ascending because tweets are processed in
    (time, tweet_id) order.
    """
    if isinstance(tweets, Corpus):
        ordered: Sequence[Tweet] = tweets.tweets
    else:
        ordered = sorted(tweets, key=Tweet.sort_key)
    by_user: dict[str, dict[str, list[Timestamp]]] = {}
    by_hashtag: dict[str, list[tuple[Timestamp, str]]] = {}
    n_events = 0
    for tweet in ordered:
        for tag in sorted(tweet.hashtags):
            by_user.setdefault(tweet.user_id, {}).setdefault(tag, []).append(tweet.time)
            by_hashtag.setdefault(tag, []).append((tweet.time, tweet.user_id))
            n_events += 1
    tags = tuple(sorted(by_hashtag))
    tag_ids = {tag: i for i, tag in enumerate(tags)}
    # One pair of arrays for all users, each user's uses a contiguous
    # slice: (user, hashtag) runs in by_user order, then sorted by user
    # and time.  lexsort is stable, so a hashtag's uses keep their order.
    runs = [uses for history in by_user.values() for uses in history.values()]
    times = np.fromiter(chain.from_iterable(runs), dtype=np.int64, count=n_events)
    run_tags = (tag_ids[tag] for history in by_user.values() for tag in history)
    ids = np.repeat(np.fromiter(run_tags, dtype=np.int32, count=len(runs)), [len(uses) for uses in runs])
    sizes = [sum(map(len, history.values())) for history in by_user.values()]
    order = np.lexsort((times, np.repeat(np.arange(len(sizes)), sizes)))
    times, ids = times[order], ids[order]
    times.setflags(write=False)
    ids.setflags(write=False)
    columns: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    end = 0
    for user, size in zip(by_user, sizes):
        columns[user] = (times[end : end + size], ids[end : end + size])
        end += size
    return UsageIndex(
        by_user=by_user,
        by_hashtag=by_hashtag,
        n_events=n_events,
        tags=tags,
        tag_ids=tag_ids,
        columns=columns,
    )


def tweet_to_record(tweet: Tweet) -> dict:
    """Canonical JSON-ready dict for one tweet; hashtags sorted."""
    record: dict = {
        "tweet_id": tweet.tweet_id,
        "user_id": tweet.user_id,
        "timestamp": tweet.time,
        "hashtags": sorted(tweet.hashtags),
    }
    if tweet.tokens is not None:
        record["text"] = " ".join(tweet.tokens)
    return record


def tweets_to_jsonl(tweets: Iterable[Tweet]) -> str:
    """Serialize tweets, one canonical JSON object per line."""
    lines = [json.dumps(tweet_to_record(t), ensure_ascii=False, sort_keys=True) for t in tweets]
    return "\n".join(lines) + ("\n" if lines else "")


def follows_to_tsv(graph: FollowGraph, header_comments: Sequence[str] = ()) -> str:
    """Serialize follow edges sorted by (follower, followee)."""
    lines = [f"# {comment}" for comment in header_comments]
    for follower in sorted(graph.edges):
        for followee in sorted(graph.edges[follower]):
            lines.append(f"{follower}\t{followee}")
    return "\n".join(lines) + ("\n" if lines else "")
