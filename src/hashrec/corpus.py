"""Corpus parsing, indexing, and chronological splitting.

Input data is a JSONL file of tweets and a TSV file of follow edges.
Everything downstream (categorization, activation scoring, evaluation)
works off the sorted tweet list and the usage index built here.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

Timestamp = int

# The usage index stores times as int64, so parsed timestamps must fit.
_TIMESTAMP_LIMIT = 2**63

_NO_USES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32))

# Tokens are maximal runs of word characters excluding underscore.
# Hashtag mentions inside the text, underscores included, are removed
# first so the content model never sees the labels it is asked to predict.
_HASHTAG_IN_TEXT_RE = re.compile(r"#\w*", re.UNICODE)
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# The record checks as (message, check), in the order parse_tweets reports
# them; each check sees only records that passed the checks before it.
_RECORD_CHECKS = (
    ("record is not a JSON object", lambda r: isinstance(r, dict)),
    *((f"missing field {key!r}", lambda r, key=key: key in r)
      for key in ("tweet_id", "user_id", "timestamp", "hashtags")),
    ("tweet_id must be a non-empty string", lambda r: isinstance(r["tweet_id"], str) and r["tweet_id"] != ""),
    ("user_id must be a non-empty string", lambda r: isinstance(r["user_id"], str) and r["user_id"] != ""),
    ("timestamp must be an integer", lambda r: type(r["timestamp"]) is int),  # not bool
    ("timestamp must be non-negative", lambda r: r["timestamp"] >= 0),
    ("timestamp must be below 2**63", lambda r: r["timestamp"] < _TIMESTAMP_LIMIT),
    ("hashtags must be an array", lambda r: isinstance(r["hashtags"], list)),
)

# The whitespace json.loads skips around a value; str.strip() skips more.
_JSON_WHITESPACE = " \t\n\r"
_decode = json.JSONDecoder().raw_decode
_quote = json.encoder.encode_basestring
# str.splitlines() breaks lines at these too, and json.dumps(ensure_ascii=False) leaves them raw.
_LINE_BREAKS = "\x85\u2028\u2029"


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


@dataclass(frozen=True, slots=True)
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

    @cached_property
    def index(self) -> UsageIndex:
        """The tweets' usage index, built once; not a field, so == and hash ignore it."""
        return build_usage_index(self)


def _require(condition: bool, line_no: int, message: str) -> None:
    if not condition:
        raise CorpusError(f"line {line_no}: {message}")


def parse_tweets(lines: Iterable[str]) -> list[Tweet]:
    """Parse JSONL tweet records; blank lines are skipped.

    Raises CorpusError naming the offending line for malformed JSON,
    missing fields, bad field types, negative timestamps, and duplicate
    tweet ids.  Hashtags are normalized; empty ones are dropped.
    Records with empty hashtag sets are retained (they still carry
    content history even though they add no usage events).  Tweets with
    equal raw hashtag lists share one frozenset, and one user's tweets
    share one ``user_id`` string.
    """
    tweets: list[Tweet] = []
    seen_ids: dict[str, int] = {}
    tag_sets: dict[tuple[str, ...], frozenset[str]] = {}
    user_ids: dict[str, str] = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        body = line.strip(_JSON_WHITESPACE)
        try:
            record, end = _decode(body)
        except json.JSONDecodeError:
            end = -1
        if end != len(body):
            try:  # not one JSON value: json.loads fails too, and names the fault
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
        if not (
            type(record) is dict
            and type(tweet_id := record.get("tweet_id")) is str and tweet_id
            and type(user_id := record.get("user_id")) is str and user_id
            and type(timestamp := record.get("timestamp")) is int and 0 <= timestamp < _TIMESTAMP_LIMIT
            and type(raw_tags := record.get("hashtags")) is list
        ):
            raise CorpusError(f"line {line_no}: " + next(msg for msg, ok in _RECORD_CHECKS if not ok(record)))
        try:  # only lists of strings are cached, and only a list of strings equals one
            hashtags = tag_sets[tuple(raw_tags)]
        except (KeyError, TypeError):  # TypeError: an unhashable element
            _require(all(type(raw) is str for raw in raw_tags), line_no, "hashtags must be an array of strings")
            hashtags = tag_sets[tuple(raw_tags)] = frozenset(t for raw in raw_tags if (t := normalize_hashtag(raw)))
        first_line = seen_ids.setdefault(tweet_id, line_no)
        if first_line != line_no:
            raise CorpusError(f"line {line_no}: duplicate tweet_id {tweet_id!r} (first seen on line {first_line})")
        tokens: tuple[str, ...] | None = None
        if (text := record.get("text")) is not None:
            _require(type(text) is str, line_no, "text must be a string")
            tokens = tuple(tokenize(text))
        tweets.append(Tweet(tweet_id, user_ids.setdefault(user_id, user_id), timestamp, hashtags, tokens))
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
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_tweets(handle)


def load_follows(path: str) -> FollowGraph:
    with open(path, "r", encoding="utf-8-sig") as handle:
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
    held_out = [tweets[-per_user_holdout:] for tweets in tagged_by_user.values() if len(tweets) > per_user_holdout]
    test_ids = {t.tweet_id for tweets in held_out for t in tweets}
    train = tuple(t for t in corpus.tweets if t.tweet_id not in test_ids)
    test = [t for t in corpus.tweets if t.tweet_id in test_ids]
    # Every held-out user keeps at least one training tweet, so the user set is unchanged.
    return Corpus(tweets=train, graph=corpus.graph, users=corpus.users), test


@dataclass(frozen=True, eq=False)
class UsageIndex:
    """Hashtag usage events from a fixed tweet set, as time-sorted columns.

    Hashtags are interned: ``tags`` holds them in sorted order and
    ``tag_ids[h]`` is h's position there, so comparing ids compares
    hashtags.  ``times`` and ``ids`` are the global time column: every
    (tweet, hashtag) use once, as int64 time and int32 tag id, in (time,
    tweet_id) order with a tweet's hashtags sorted.  ``columns[u]`` is
    the pair (times, tag ids) of u's uses in the same order: read-only
    slices of one user-grouped copy of that column.  So the state as of
    ``now`` is a prefix of a time-sorted column, and queries that take a
    ``now`` are strict: only events with time < now count.
    """

    tags: tuple[str, ...]
    tag_ids: Mapping[str, int]
    times: np.ndarray
    ids: np.ndarray
    columns: Mapping[str, tuple[np.ndarray, np.ndarray]]

    @property
    def n_events(self) -> int:
        """The number of (tweet, hashtag) pairs."""
        return self.times.size

    def hashtags(self) -> Iterator[str]:
        return iter(self.tags)

    def ids_before(self, now: Timestamp) -> np.ndarray:
        """Tag ids of every use strictly before now, in time order."""
        return self.ids[: self.times.searchsorted(_checked_now(now))]

    def uses_before(self, users: Iterable[str], now: Timestamp) -> tuple[np.ndarray, np.ndarray]:
        """(times, tag ids) of the users' uses strictly before now, each
        user's time-sorted slice in the order of ``users``."""
        _checked_now(now)
        times: list[np.ndarray] = []
        ids: list[np.ndarray] = []
        for user in users:
            user_times, user_ids = self.columns.get(user, _NO_USES)
            cut = user_times.searchsorted(now)
            if cut:
                times.append(user_times[:cut])
                ids.append(user_ids[:cut])
        if len(times) < 2:
            return (times[0], ids[0]) if times else _NO_USES
        return np.concatenate(times), np.concatenate(ids)

    def used_before(self, user_id: str, hashtag: str, now: Timestamp) -> bool:
        # A hashtag the index never saw gets -1, which matches no id.
        return bool((self.uses_before((user_id,), now)[1] == self.tag_ids.get(hashtag, -1)).any())

    def anyone_used_before(self, hashtag: str, now: Timestamp) -> bool:
        return bool((self.ids_before(now) == self.tag_ids.get(hashtag, -1)).any())


def _checked_now(now: Timestamp) -> Timestamp:
    """``now`` itself, if it is a query time the int64 columns can cut at."""
    if not -math.inf < now < _TIMESTAMP_LIMIT:
        raise ValueError(f"now must lie in (-inf, 2**63), got {now!r}")
    return now


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def build_usage_index(tweets: Iterable[Tweet] | Corpus) -> UsageIndex:
    """Index every (user, hashtag, time) usage event.

    One pass over the tweets in (time, tweet_id) order gives the global
    time column; a stable sort by user cuts it into per-user columns, so
    each user's uses, and each hashtag's among them, keep that order.
    """
    if isinstance(tweets, Corpus):
        ordered: Sequence[Tweet] = tweets.tweets
    else:
        ordered = sorted(tweets, key=Tweet.sort_key)
    user_codes: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    row_users: list[int] = []
    row_times: list[Timestamp] = []
    row_tags: list[int] = []
    for tweet in ordered:
        if tweet.hashtags:
            code = user_codes.setdefault(tweet.user_id, len(user_codes))
            for tag in sorted(tweet.hashtags):
                row_users.append(code)
                row_times.append(tweet.time)
                row_tags.append(first_seen.setdefault(tag, len(first_seen)))
    tags = tuple(sorted(first_seen))
    tag_ids = {tag: i for i, tag in enumerate(tags)}
    # Tag ids were handed out in first-seen order; map them to sorted order.
    interned = np.fromiter(map(tag_ids.__getitem__, first_seen), dtype=np.int32, count=len(tags))
    times = np.array(row_times, dtype=np.int64)
    ids = interned[np.array(row_tags, dtype=np.intp)]
    users = np.array(row_users, dtype=np.intp)
    order = users.argsort(kind="stable")
    user_times, user_ids = _frozen(times[order]), _frozen(ids[order])
    ends = np.cumsum(np.bincount(users, minlength=len(user_codes))).tolist()
    columns = {
        user: (user_times[start:end], user_ids[start:end])
        for user, start, end in zip(user_codes, [0] + ends, ends)
    }
    return UsageIndex(tags=tags, tag_ids=tag_ids, times=_frozen(times), ids=_frozen(ids), columns=columns)


def tweets_to_jsonl(tweets: Iterable[Tweet]) -> str:
    """Serialize tweets, one JSON object per line, keys and hashtags sorted.

    A line is what ``json.dumps(record, ensure_ascii=False, sort_keys=True)``
    writes for the record with ``text`` (the tokens joined by spaces, left
    out when ``tokens`` is None), except that U+0085, U+2028 and U+2029
    are written as JSON escapes, so ``str.splitlines()`` splits the
    document only between records.
    """
    lines = []
    for tweet in tweets:
        tags = ", ".join(map(_quote, sorted(tweet.hashtags)))
        text = "" if tweet.tokens is None else f'"text": {_quote(" ".join(tweet.tokens))}, '
        lines.append(
            f'{{"hashtags": [{tags}], {text}"timestamp": {tweet.time}, '
            f'"tweet_id": {_quote(tweet.tweet_id)}, "user_id": {_quote(tweet.user_id)}}}'
        )
    document = "\n".join(lines) + ("\n" if lines else "")
    if any(char in document for char in _LINE_BREAKS):
        for char in _LINE_BREAKS:
            document = document.replace(char, f"\\u{ord(char):04x}")
    return document


def follows_to_tsv(graph: FollowGraph, header_comments: Sequence[str] = ()) -> str:
    """Serialize follow edges sorted by (follower, followee)."""
    lines = [f"# {comment}" for comment in header_comments]
    for follower in sorted(graph.edges):
        for followee in sorted(graph.edges[follower]):
            lines.append(f"{follower}\t{followee}")
    return "\n".join(lines) + ("\n" if lines else "")
