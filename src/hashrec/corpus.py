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
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

Timestamp = int

# The usage index stores times as int64, so parsed timestamps must fit.
_TIMESTAMP_LIMIT = 2**63

_NO_USES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32))

_hashtags, _user_id, _time = attrgetter("hashtags"), attrgetter("user_id"), attrgetter("time")
# Tweet.sort_key as one C call per tweet.
_sort_key = attrgetter("time", "tweet_id")

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
_scan = json.JSONDecoder().scan_once
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


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(
        self,
        tweet_id: str,
        user_id: str,
        time: Timestamp,
        hashtags: frozenset[str],
        tokens: tuple[str, ...] | None = None,
    ) -> None:
        # The generated frozen __init__ goes through object.__setattr__ per
        # field; the slots' own descriptors set the same five values faster.
        _set_tweet_id(self, tweet_id)
        _set_user_id(self, user_id)
        _set_time(self, time)
        _set_hashtags(self, hashtags)
        _set_tokens(self, tokens)

    def sort_key(self) -> tuple[Timestamp, str]:
        return _sort_key(self)


_set_tweet_id, _set_user_id, _set_time, _set_hashtags, _set_tokens = (
    Tweet.tweet_id.__set__, Tweet.user_id.__set__, Tweet.time.__set__, Tweet.hashtags.__set__, Tweet.tokens.__set__
)


@dataclass(frozen=True)
class FollowGraph:
    """Directed follow edges, keyed by follower.

    ``edges[u]`` is the frozenset of accounts u follows (u's feed
    sources).  Users without outgoing edges simply have no entry.
    """

    edges: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def followees(self, user_id: str) -> frozenset[str]:
        return self.edges.get(user_id, frozenset())


@dataclass(frozen=True)
class Corpus:
    """Tweets sorted by (time, tweet_id) plus the follow graph.

    These two are its only fields; ``users``, ``index`` and
    ``reuse_replay`` are derived from them on first read.
    """

    tweets: tuple[Tweet, ...]
    graph: FollowGraph

    def span_seconds(self) -> int:
        if len(self.tweets) < 2:
            return 0
        return self.tweets[-1].time - self.tweets[0].time

    @cached_property
    def users(self) -> frozenset[str]:
        """The tweets' authors and every account in the follow graph."""
        edges = self.graph.edges
        return frozenset({t.user_id for t in self.tweets}.union(edges, *edges.values()))

    @cached_property
    def index(self) -> UsageIndex:
        """The tweets' usage index, built once; not a field, so == and hash ignore it.

        ``chronological_split`` sets it on the training corpus, cut from
        the split corpus's index, so that corpus never builds one.
        """
        return build_usage_index(self)

    @cached_property
    def reuse_replay(self) -> Mapping[str, np.ndarray]:
        """``hashrec.reuse.replay`` of the corpus, run once; like ``index``, not a field."""
        from hashrec.reuse import replay  # a module-level import would be circular

        return replay(self)


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
    equal raw hashtag lists share one frozenset, tweets with equal text
    share one tokens tuple, and one user's tweets share one ``user_id``
    string.
    """
    tweets: list[Tweet] = []
    seen_ids: dict[str, int] = {}
    tag_sets: dict[tuple[str, ...], frozenset[str]] = {}
    token_tuples: dict[str, tuple[str, ...]] = {}
    user_ids: dict[str, str] = {}
    for line_no, line in enumerate(lines, start=1):
        body = line.strip(_JSON_WHITESPACE)
        if not body or body.isspace():  # the lines where line.strip() is empty
            continue
        try:
            record, end = _scan(body, 0)
        except (StopIteration, json.JSONDecodeError):  # StopIteration: no value at 0
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
            if (tokens := token_tuples.get(text)) is None:  # .get: where texts are distinct, most lines miss
                tokens = token_tuples[text] = tuple(tokenize(text))
        tweets.append(Tweet(tweet_id, user_ids.setdefault(user_id, user_id), timestamp, hashtags, tokens))
    return tweets


def parse_follows(lines: Iterable[str]) -> FollowGraph:
    """Parse TSV follow edges: one ``follower<TAB>followee`` per line.

    Blank lines and lines starting with '#' are skipped.  Self-loops
    are dropped with a logged count; duplicate edges collapse.  Any
    other shape, a tab in the whitespace around the pair included, is a
    CorpusError naming the line.
    """
    edges: dict[str, set[str]] = {}
    self_loops = 0
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split("\t")
        _require(
            len(fields) == 2 and all(fields) and line.count("\t") == 1,  # no tab stripped off
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
    ordered = tuple(sorted(tweets, key=_sort_key))
    seen: set[str] = set()
    for tweet in ordered:
        if tweet.tweet_id in seen:
            raise CorpusError(f"duplicate tweet_id {tweet.tweet_id!r}")
        seen.add(tweet.tweet_id)
    return Corpus(tweets=ordered, graph=graph)


def chronological_split(corpus: Corpus, per_user_holdout: int = 1) -> tuple[Corpus, list[Tweet]]:
    """Hold out each user's last hashtag-bearing tweets as test queries.

    For every user with at least ``per_user_holdout + 1`` hashtag-bearing
    tweets, the final ``per_user_holdout`` of them (by (time, tweet_id)
    order) become test queries; everything else, including tweets with
    no hashtags and all tweets of ineligible users, stays in training.

    The training corpus comes with its ``index`` already set: a cut of
    ``corpus.index`` (built first if need be), equal to what
    ``build_usage_index`` would build from the training tweets.  The
    held-out tweets' uses are their tweets' runs of the global time
    column, and the tail of each held-out user's column.
    """
    if per_user_holdout < 1:
        raise ValueError("per_user_holdout must be >= 1")
    tweets = corpus.tweets
    tagged_by_user: dict[str, list[Tweet]] = defaultdict(list)
    for tweet in tweets:
        if tweet.hashtags:
            tagged_by_user[tweet.user_id].append(tweet)
    held_by_user = {
        user: tagged[-per_user_holdout:] for user, tagged in tagged_by_user.items() if len(tagged) > per_user_holdout
    }
    del tagged_by_user
    tails = {user: sum(map(len, map(_hashtags, held))) for user, held in held_by_user.items()}
    # Sort keys are unique, so a binary search finds each held-out tweet.
    held = sorted(bisect_left(tweets, _sort_key(t), key=_sort_key) for t in chain.from_iterable(held_by_user.values()))
    del held_by_user
    sizes = np.fromiter(map(len, map(_hashtags, tweets)), dtype=np.intp, count=len(tweets))
    kept = np.ones(len(tweets), dtype=bool)
    kept[held] = False
    train = Corpus(tweets=tuple(compress(tweets, kept.tolist())), graph=corpus.graph)
    # A tweet's uses are len(hashtags) consecutive entries of the global
    # column, so repeating each tweet's flag that often flags every use.
    # The cached_property Corpus.index returns this instance-dict entry.
    vars(train)["index"] = _cut_index(corpus.index, kept.repeat(sizes), tails)
    return train, [tweets[position] for position in held]


def _cut_index(index: UsageIndex, kept: np.ndarray, tails: Mapping[str, int]) -> UsageIndex:
    """``index`` with only the uses ``kept`` flags in its global column.

    The others must be the last ``tails[u]`` uses of each user u's
    column and leave u at least one, so the users and their order stay.
    Hashtags left without a use leave ``tags``, and the ids above them
    close up.
    """
    times, ids = index.times[kept], index.ids[kept]
    used = np.bincount(ids, minlength=len(index.tags)).astype(bool)
    renumber = (np.cumsum(used) - 1).astype(np.int32)
    ends = [user_times.size - tails.get(user, 0) for user, (user_times, _) in index.columns.items()]
    cut = [(user_times[:end], user_ids[:end]) for (user_times, user_ids), end in zip(index.columns.values(), ends)]
    user_times, user_ids = (np.concatenate(parts) for parts in zip(*(cut or [_NO_USES])))
    user_times, user_ids = _frozen(user_times), _frozen(renumber[user_ids])
    ends = np.cumsum(ends, dtype=np.intp).tolist()
    return UsageIndex(
        tags=tuple(compress(index.tags, used.tolist())),
        times=_frozen(times),
        ids=_frozen(renumber[ids]),
        columns={
            user: (user_times[start:end], user_ids[start:end])
            for user, start, end in zip(index.columns, [0] + ends, ends)
        },
    )


@dataclass(frozen=True, eq=False)
class UsageIndex:
    """Hashtag usage events from a fixed tweet set, as time-sorted columns.

    Hashtags are interned: ``tags`` holds them in sorted order and a
    hashtag's id is its position there, so comparing ids compares
    hashtags.  ``times`` and ``ids`` are the global time column: every
    (tweet, hashtag) use once, as int64 time and int32 tag id, in (time,
    tweet_id) order with a tweet's hashtags sorted.  ``columns[u]`` is
    the pair (times, tag ids) of u's uses in the same order: read-only
    slices of one user-grouped copy of that column.  So the state as of
    ``now`` is a prefix of a time-sorted column.  ``ids_before`` and
    ``uses_before`` cut it strictly, counting only events with time <
    now; they answer "used before now" for every reader, the reuse
    oracle too.
    """

    tags: tuple[str, ...]
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

    The tagged tweets in (time, tweet_id) order give the global time
    column without a loop per use: each tweet's time and first-seen user
    code repeat once per hashtag.  Hashtags are interned through one sort
    of the distinct ones, once per distinct hashtag set (``parse_tweets``
    shares equal sets), and a set's ids come out sorted; each tweet's
    uses are its set's run of ids.  A stable sort by user cuts the
    column into per-user columns, so each user's uses, and each
    hashtag's among them, keep that order.  Plain tweets go through
    ``build_corpus``, so a repeated tweet id is a CorpusError.
    """
    corpus = tweets if isinstance(tweets, Corpus) else build_corpus(tweets)
    tagged = [tweet for tweet in corpus.tweets if tweet.hashtags]
    set_codes: dict[frozenset[str], int] = defaultdict(count().__next__)
    codes = np.fromiter(map(set_codes.__getitem__, map(_hashtags, tagged)), dtype=np.intp, count=len(tagged))
    user_codes: dict[str, int] = defaultdict(count().__next__)  # codes in first-seen order
    users = np.fromiter(map(user_codes.__getitem__, map(_user_id, tagged)), dtype=np.intp, count=len(tagged))
    times = np.fromiter(map(_time, tagged), dtype=np.int64, count=len(tagged))
    del tagged
    tags = tuple(sorted(set().union(*set_codes)))
    interned = dict(zip(tags, range(len(tags))))
    # Each distinct set's ids in order, one set after another; no list per
    # set outlives its sort, so the cyclic collector is not set off.
    set_ends = np.cumsum(np.fromiter(map(len, set_codes), dtype=np.intp, count=len(set_codes)))
    set_ids = np.fromiter(map(interned.__getitem__, chain.from_iterable(map(sorted, set_codes))), dtype=np.int32)
    del set_codes, interned
    # A tweet's uses are its set's run of set_ids: the use at column
    # position p, in a tweet whose uses start at u and whose set's ids
    # start at s, has the id set_ids[s - u + p].
    sizes = np.diff(set_ends, prepend=0)[codes]
    positions = set_ends[codes]
    del codes
    positions -= np.cumsum(sizes)
    positions = positions.repeat(sizes)
    positions += np.arange(positions.size)
    ids = set_ids[positions]
    del positions
    users, times = users.repeat(sizes), times.repeat(sizes)
    order = users.argsort(kind="stable")
    user_times, user_ids = _frozen(times[order]), _frozen(ids[order])
    ends = np.cumsum(np.bincount(users, minlength=len(user_codes))).tolist()
    columns = {
        user: (user_times[start:end], user_ids[start:end])
        for user, start, end in zip(user_codes, [0] + ends, ends)
    }
    return UsageIndex(tags=tags, times=_frozen(times), ids=_frozen(ids), columns=columns)


def tweets_to_jsonl(tweets: Iterable[Tweet]) -> str:
    """Serialize tweets, one JSON object per line, keys and hashtags sorted.

    A line is ``json.dumps(record, ensure_ascii=False, sort_keys=True)``
    of the record with ``text`` (the tokens joined by spaces, left out
    when ``tokens`` is None), with U+0085, U+2028 and U+2029 written as
    JSON escapes, so ``str.splitlines()`` splits the document only
    between records.
    """
    lines = []
    for t in tweets:
        record = {"hashtags": sorted(t.hashtags), "timestamp": t.time, "tweet_id": t.tweet_id, "user_id": t.user_id}
        if t.tokens is not None:
            record["text"] = " ".join(t.tokens)
        line = json.dumps(record, ensure_ascii=False, sort_keys=True)
        for char in _LINE_BREAKS:
            line = line.replace(char, f"\\u{ord(char):04x}")
        lines.append(line + "\n")
    return "".join(lines)


def follows_to_tsv(graph: FollowGraph, header_comments: Sequence[str] = ()) -> str:
    """Serialize follow edges sorted by (follower, followee)."""
    lines = [f"# {comment}" for comment in header_comments]
    for follower in sorted(graph.edges):
        for followee in sorted(graph.edges[follower]):
            lines.append(f"{follower}\t{followee}")
    return "\n".join(lines) + ("\n" if lines else "")
