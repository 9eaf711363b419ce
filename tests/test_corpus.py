"""Parsing, indexing, splitting, and round-trip serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hashrec.corpus import (
    CorpusError,
    FollowGraph,
    Tweet,
    build_corpus,
    build_usage_index,
    chronological_split,
    follows_to_tsv,
    load_follows,
    load_tweets,
    normalize_hashtag,
    parse_follows,
    parse_tweets,
    tokenize,
    tweets_to_jsonl,
)


def make_tweet(tweet_id, user_id, time, hashtags, tokens=None):
    return Tweet(
        tweet_id=tweet_id,
        user_id=user_id,
        time=time,
        hashtags=frozenset(hashtags),
        tokens=tuple(tokens) if tokens is not None else None,
    )


class TestTokenize:
    def test_lowercases_and_splits_on_non_word_runs(self):
        assert tokenize("Loving IT, tokenizers!!") == ["loving", "it", "tokenizers"]

    def test_hashtag_mentions_removed_entirely(self):
        assert tokenize("great #NLP tips") == ["great", "tips"]
        assert tokenize("#a#b stacked") == ["stacked"]

    def test_short_tokens_dropped(self):
        assert tokenize("I a go r2d2") == ["go", "r2d2"]

    def test_underscore_splits_tokens(self):
        assert tokenize("alice_01 says hi") == ["alice", "01", "says", "hi"]

    def test_underscore_hashtag_mentions_removed_entirely(self):
        # normalize_hashtag keeps underscores, so no part of the label may leak.
        assert tokenize("#deep_learning rocks") == ["rocks"]
        assert tokenize("#ML_ops") == []

    def test_empty_and_symbol_only_text(self):
        assert tokenize("") == []
        assert tokenize("!!! ## --") == []

    def test_rejoining_tokens_is_idempotent(self):
        rng = np.random.default_rng(42)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
        for _ in range(50):
            n = int(rng.integers(0, 8))
            tokens = [
                "".join(rng.choice(list(alphabet), size=int(rng.integers(2, 9))))
                for _ in range(n)
            ]
            assert tokenize(" ".join(tokens)) == tokens


class TestNormalizeHashtag:
    def test_lowercase_and_hash_strip(self):
        assert normalize_hashtag("#NLP") == "nlp"
        assert normalize_hashtag("nlp") == "nlp"
        assert normalize_hashtag("##ML") == "ml"

    def test_bare_hash_becomes_empty(self):
        assert normalize_hashtag("#") == ""


class TestParseTweets:
    def test_normalization_dedupes_variants(self):
        line = '{"tweet_id":"t1","user_id":"u1","timestamp":100,"hashtags":["#NLP","nlp"]}'
        (tweet,) = parse_tweets([line])
        assert tweet.hashtags == frozenset({"nlp"})
        assert tweet.time == 100
        assert tweet.tokens is None

    def test_three_line_fixture_in_input_order(self):
        lines = [
            json.dumps({"tweet_id": f"t{i}", "user_id": "u1", "timestamp": i, "hashtags": []})
            for i in range(3)
        ]
        tweets = parse_tweets(lines)
        assert [t.tweet_id for t in tweets] == ["t0", "t1", "t2"]

    def test_text_tokenized_and_blank_lines_skipped(self):
        line = '{"tweet_id":"t1","user_id":"u1","timestamp":5,"hashtags":["#AI"],"text":"Deep #AI dives"}'
        (tweet,) = parse_tweets(["", line, "   "])
        assert tweet.tokens == ("deep", "dives")

    def test_duplicate_id_error_names_both_lines(self):
        line = '{"tweet_id":"t1","user_id":"u1","timestamp":1,"hashtags":[]}'
        with pytest.raises(CorpusError, match="line 2.*duplicate.*t1.*line 1"):
            parse_tweets([line, line])

    def test_malformed_json_names_line(self):
        with pytest.raises(CorpusError, match="line 2"):
            parse_tweets(['{"tweet_id":"t1","user_id":"u1","timestamp":1,"hashtags":[]}', "{oops"])

    @pytest.mark.parametrize(
        "record",
        [
            {"user_id": "u1", "timestamp": 1, "hashtags": []},
            {"tweet_id": "t1", "timestamp": 1, "hashtags": []},
            {"tweet_id": "t1", "user_id": "u1", "hashtags": []},
            {"tweet_id": "t1", "user_id": "u1", "timestamp": 1},
            {"tweet_id": "t1", "user_id": "u1", "timestamp": -1, "hashtags": []},
            {"tweet_id": "t1", "user_id": "u1", "timestamp": True, "hashtags": []},
            {"tweet_id": "t1", "user_id": "u1", "timestamp": 1.5, "hashtags": []},
            {"tweet_id": "t1", "user_id": "u1", "timestamp": 1, "hashtags": "nlp"},
            {"tweet_id": "t1", "user_id": "u1", "timestamp": 1, "hashtags": [3]},
            {"tweet_id": "", "user_id": "u1", "timestamp": 1, "hashtags": []},
            {"tweet_id": "t1", "user_id": "u1", "timestamp": 2**63, "hashtags": []},
        ],
    )
    def test_invalid_records_rejected(self, record):
        with pytest.raises(CorpusError, match="line 1"):
            parse_tweets([json.dumps(record)])

    def test_byte_order_mark_file_loads(self, tmp_path):
        line = '{"tweet_id":"t1","user_id":"u1","timestamp":5,"hashtags":["a"]}'
        path = tmp_path / "tweets.jsonl"
        path.write_text("\ufeff" + line + "\n", encoding="utf-8")
        assert load_tweets(str(path)) == parse_tweets([line])

    def test_empty_hashtag_set_retained(self):
        line = '{"tweet_id":"t1","user_id":"u1","timestamp":1,"hashtags":["#"],"text":"just words"}'
        (tweet,) = parse_tweets([line])
        assert tweet.hashtags == frozenset()
        assert tweet.tokens == ("just", "words")


def reference_parse_tweets(lines):
    """The json.loads loop that parse_tweets replaced, kept as its oracle."""

    def require(condition, line_no, message):
        if not condition:
            raise CorpusError(f"line {line_no}: {message}")

    tweets = []
    seen_ids = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
        require(isinstance(record, dict), line_no, "record is not a JSON object")
        for key in ("tweet_id", "user_id", "timestamp", "hashtags"):
            require(key in record, line_no, f"missing field {key!r}")
        tweet_id = record["tweet_id"]
        user_id = record["user_id"]
        timestamp = record["timestamp"]
        raw_tags = record["hashtags"]
        require(isinstance(tweet_id, str) and tweet_id != "", line_no, "tweet_id must be a non-empty string")
        require(isinstance(user_id, str) and user_id != "", line_no, "user_id must be a non-empty string")
        require(
            isinstance(timestamp, int) and not isinstance(timestamp, bool), line_no, "timestamp must be an integer"
        )
        require(timestamp >= 0, line_no, "timestamp must be non-negative")
        require(timestamp < 2**63, line_no, "timestamp must be below 2**63")
        require(isinstance(raw_tags, list), line_no, "hashtags must be an array")
        hashtags = set()
        for raw in raw_tags:
            require(isinstance(raw, str), line_no, "hashtags must be an array of strings")
            tag = normalize_hashtag(raw)
            if tag:
                hashtags.add(tag)
        if tweet_id in seen_ids:
            raise CorpusError(
                f"line {line_no}: duplicate tweet_id {tweet_id!r} (first seen on line {seen_ids[tweet_id]})"
            )
        seen_ids[tweet_id] = line_no
        tokens = None
        if "text" in record and record["text"] is not None:
            text = record["text"]
            require(isinstance(text, str), line_no, "text must be a string")
            tokens = tuple(tokenize(text))
        tweets.append(Tweet(tweet_id, user_id, timestamp, frozenset(hashtags), tokens))
    return tweets


def outcome(parse, lines):
    """A parser's tweets, or the type and message of what it raised."""
    try:
        return parse(lines)
    except Exception as exc:  # noqa: BLE001 - any failure must match the oracle's
        return type(exc), str(exc)


# JSON whitespace, whitespace only str.strip() skips, and a byte-order mark.
JSON_SPACES = st.sampled_from(["", " ", "\t", "\r", "\n", " \t\r\n"])
SPACES = JSON_SPACES | st.sampled_from(["\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u3000", "\ufeff"])
# Values that break each field: wrong types, empty strings, bools and floats for the
# timestamp, out-of-range integers, non-string hashtags, and NaN.
BAD_VALUES = {
    "tweet_id": ["", None, 3, True, [], {}],
    "user_id": ["", None, 3, False, ["u1"], {}],
    "timestamp": [True, False, 1.5, 1.0, -1, 2**63, "5", None, float("nan"), float("inf")],
    "hashtags": ["nlp", None, {}, [3], [None], ["a", 3], [["a"]], [{}], [True], [1.5]],
    "text": [3, True, 1.5, [], {}, ["words"]],
}
MISSING = object()
BROKEN_FIELDS = [(field, value) for field, values in BAD_VALUES.items() for value in [MISSING, *values]]
IDS = st.one_of(st.sampled_from(["t1", "t2", "é", "e\u0301", "日本", "t\u0000"]), st.text(min_size=1, max_size=4))


@st.composite
def tweet_lines(draw, broken=True):
    """One line of a JSONL tweet file: a good record, or with ``broken`` maybe a bad line."""
    kinds = ["record", "broken", "broken", "wrapped", "trailing", "spaces", "json", "raw"] if broken else ["record"]
    kind = draw(st.sampled_from(kinds))
    if kind == "spaces":
        return draw(SPACES) + draw(SPACES)
    if kind == "json":
        return json.dumps(draw(st.sampled_from([[1], "s", 3, None, float("nan"), float("-inf"), [], {}])))
    if kind == "raw":
        return draw(st.sampled_from(["{oops", "NaN", "{} {}", "}", "\ufeff{}", '{"a": 1,}', "[1, 2"]))
    record = {
        "tweet_id": draw(IDS),
        "user_id": draw(st.sampled_from(["u1", "U1", "u2", "ü", "Ü", "用户"])),
        "timestamp": draw(st.one_of(st.integers(0, 2**63 - 1), st.sampled_from([0, 2**63 - 1]))),
        "hashtags": draw(st.lists(st.sampled_from(["#NLP", "nlp", "#", "", "Ça", "#日本", "##x"]), max_size=3)),
    }
    if draw(st.booleans()):
        record["text"] = draw(st.none() | st.text(max_size=12))
    # One field broken, or two, where the message must name the first in check order.
    for field, value in draw(st.lists(st.sampled_from(BROKEN_FIELDS), min_size=1, max_size=2)) if kind == "broken" else ():
        if value is MISSING:
            record.pop(field, None)
        else:
            record[field] = value
    line = json.dumps(record, ensure_ascii=draw(st.booleans()))
    if kind == "trailing":
        return line + draw(st.sampled_from(["{}", "x", "1", "]", " {}", ",", " \x1c"]))
    spaces = SPACES if kind == "wrapped" else JSON_SPACES
    return draw(spaces) + line + draw(spaces)


class TestParseTweetsAgainstReference:
    @settings(max_examples=600, deadline=None)
    @given(st.lists(tweet_lines(), max_size=6) | st.lists(tweet_lines(broken=False), max_size=8))
    @example(["\x1c"])
    @example(["\u00a0" + json.dumps({"tweet_id": "t", "user_id": "u", "timestamp": 1, "hashtags": []})])
    @example([json.dumps({"tweet_id": "t", "user_id": "u", "timestamp": 1, "hashtags": []}) + "\u3000"])
    @example(['{"tweet_id": "t", "user_id": "u", "timestamp": 1, "hashtags": []} {}'])
    @example(["\ufeff{}"])
    @example([json.dumps({"tweet_id": "", "user_id": 3, "timestamp": True, "hashtags": [3]})])
    @example(['{"tweet_id": "t", "user_id": "u", "timestamp": 1, "hashtags": []}',
              '{"tweet_id": "t", "user_id": "u", "timestamp": 2, "hashtags": [], "text": 3}'])
    def test_same_tweets_or_same_error(self, lines):
        # Each line alone too: in the whole file, the first bad line hides the rest.
        for case in [lines, *([line] for line in lines)]:
            assert outcome(parse_tweets, case) == outcome(reference_parse_tweets, case)

    def test_equal_hashtag_lists_and_users_share_objects(self):
        lines = [
            json.dumps({"tweet_id": f"t{i}", "user_id": "u1", "timestamp": i, "hashtags": ["#A", "b"]})
            for i in range(2)
        ]
        first, second = parse_tweets(lines)
        assert first.hashtags is second.hashtags
        assert first.user_id is second.user_id


class TestParseFollows:
    def test_single_edge(self):
        graph = parse_follows(["u1\tu2"])
        assert graph.followees("u1") == frozenset({"u2"})
        assert graph.followees("u2") == frozenset()

    def test_self_loop_dropped_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            graph = parse_follows(["u1\tu1"])
        assert graph.edges == {}
        assert "1 self-loop" in caplog.text

    def test_duplicate_edges_collapse(self):
        graph = parse_follows(["u1\tu2", "u1\tu2"])
        assert graph.followees("u1") == frozenset({"u2"})

    def test_comments_and_blanks_skipped(self):
        graph = parse_follows(["# generated", "", "u1\tu2"])
        assert graph.followees("u1") == frozenset({"u2"})

    def test_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path):
        path = tmp_path / "follows.tsv"
        path.write_text("\ufeffu1\tu2\nu2\tu1\n", encoding="utf-8")
        assert load_follows(str(path)) == FollowGraph(edges={"u1": frozenset({"u2"}), "u2": frozenset({"u1"})})

    @pytest.mark.parametrize("line", ["u1", "u1\tu2\tu3", "u1\t", "\tu2"])
    def test_malformed_line_names_line_number(self, line):
        with pytest.raises(CorpusError, match="line 1"):
            parse_follows([line])


class TestBuildCorpus:
    def test_sort_by_time_then_id(self):
        tweets = [
            make_tweet("tC", "u1", 5, ["a"]),
            make_tweet("tB", "u1", 3, ["a"]),
            make_tweet("tA", "u1", 3, ["a"]),
        ]
        corpus = build_corpus(tweets, FollowGraph(edges={}))
        assert [t.tweet_id for t in corpus.tweets] == ["tA", "tB", "tC"]

    def test_users_union_authors_and_graph(self):
        tweets = [make_tweet("t1", "u1", 1, ["a"])]
        graph = FollowGraph(edges={"u2": frozenset({"u3"})})
        corpus = build_corpus(tweets, graph)
        assert corpus.users == frozenset({"u1", "u2", "u3"})

    def test_empty_tweets_non_empty_graph(self):
        graph = FollowGraph(edges={"u2": frozenset({"u3"})})
        corpus = build_corpus([], graph)
        assert corpus.tweets == ()
        assert corpus.users == frozenset({"u2", "u3"})

    def test_duplicate_ids_rejected(self):
        tweets = [make_tweet("t1", "u1", 1, ["a"]), make_tweet("t1", "u2", 2, ["b"])]
        with pytest.raises(CorpusError, match="duplicate"):
            build_corpus(tweets)


class TestChronologicalSplit:
    def test_latest_out_rule(self):
        tweets = [make_tweet(f"t{i}", "u1", i, ["a"]) for i in (1, 2, 3)]
        train, test = chronological_split(build_corpus(tweets), per_user_holdout=1)
        assert [t.time for t in test] == [3]
        assert [t.time for t in train.tweets] == [1, 2]

    def test_single_tweet_user_stays_in_train(self):
        tweets = [make_tweet("t1", "u1", 1, ["a"])]
        train, test = chronological_split(build_corpus(tweets))
        assert test == []
        assert len(train.tweets) == 1

    def test_two_user_fixture_holdout_one(self):
        tweets = [make_tweet(f"a{i}", "u1", i, ["x"]) for i in (1, 2, 3)]
        tweets += [make_tweet(f"b{i}", "u2", i, ["y"]) for i in (4, 5)]
        train, test = chronological_split(build_corpus(tweets))
        assert {t.tweet_id for t in test} == {"a3", "b5"}
        assert len(train.tweets) == 3

    def test_hashtagless_tweets_always_train(self):
        tweets = [
            make_tweet("t1", "u1", 1, ["a"]),
            make_tweet("t2", "u1", 2, []),
            make_tweet("t3", "u1", 3, ["a"]),
            make_tweet("t4", "u1", 4, []),
        ]
        train, test = chronological_split(build_corpus(tweets))
        assert [t.tweet_id for t in test] == ["t3"]
        assert [t.tweet_id for t in train.tweets] == ["t1", "t2", "t4"]

    def test_holdout_validates(self):
        with pytest.raises(ValueError):
            chronological_split(build_corpus([make_tweet("t1", "u1", 1, ["a"])]), 0)

    def test_no_test_tweet_precedes_same_user_train_tweet(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            tweets = [
                make_tweet(f"t{i}", f"u{int(rng.integers(3))}", int(rng.integers(100)), ["a"])
                for i in range(int(rng.integers(2, 30)))
            ]
            corpus = build_corpus(tweets)
            holdout = int(rng.integers(1, 3))
            train, test = chronological_split(corpus, holdout)
            train_keys = {}
            for t in train.tweets:
                if t.hashtags:
                    train_keys.setdefault(t.user_id, []).append(t.sort_key())
            for q in test:
                assert all(k < q.sort_key() for k in train_keys.get(q.user_id, []))
            eligible = {t.tweet_id for t in corpus.tweets if t.hashtags}
            assert eligible == {t.tweet_id for t in train.tweets if t.hashtags} | {
                t.tweet_id for t in test
            }

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["u0", "u1", "u2"]),
                st.integers(0, 6),
                st.frozensets(st.sampled_from(["a", "b"]), max_size=2),
            ),
            max_size=30,
        ),
        edges=st.lists(st.tuples(st.sampled_from(["u0", "u1", "g0"]), st.sampled_from(["u2", "g1"])), max_size=4),
        holdout=st.integers(1, 3),
    )
    def test_split_equals_a_rebuilt_corpus(self, rows, edges, holdout):
        # Ids out of time order, so same-second ties sort by id; "quiet"
        # tweets without hashtags, and "g0" and "g1" appear only in the graph.
        tweets = [make_tweet(f"t{i * 7 % 31:02d}", user, time, tags) for i, (user, time, tags) in enumerate(rows)]
        tweets.append(make_tweet("q0", "quiet", 3, []))
        followees: dict[str, set[str]] = {}
        for follower, followee in edges:
            followees.setdefault(follower, set()).add(followee)
        graph = FollowGraph({user: frozenset(targets) for user, targets in followees.items()})
        train, test = chronological_split(build_corpus(tweets, graph), holdout)
        oracle = build_corpus(train.tweets, graph)
        assert (train.tweets, train.graph, train.users) == (oracle.tweets, oracle.graph, oracle.users)
        assert test == sorted(test, key=Tweet.sort_key)


class TestUsageIndex:
    def test_per_user_times_ascending(self):
        tweets = [
            make_tweet("t1", "u1", 5, ["nlp"]),
            make_tweet("t2", "u1", 1, ["nlp"]),
        ]
        index = build_usage_index(build_corpus(tweets))
        times, ids = index.uses_before(["u1"], 10)
        assert times.tolist() == [1, 5]
        assert [index.tags[i] for i in ids] == ["nlp", "nlp"]

    def test_event_count_matches_assignment_count(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            tweets = [
                make_tweet(
                    f"t{i}",
                    f"u{int(rng.integers(4))}",
                    int(rng.integers(50)),
                    {f"h{int(rng.integers(6))}" for _ in range(int(rng.integers(0, 4)))},
                )
                for i in range(int(rng.integers(1, 25)))
            ]
            corpus = build_corpus(tweets)
            index = build_usage_index(corpus)
            assert index.n_events == sum(len(t.hashtags) for t in corpus.tweets)

    def test_global_list_counts_all_users(self):
        tweets = [
            make_tweet("t1", "u1", 1, ["a", "b"]),
            make_tweet("t2", "u2", 2, ["a"]),
            make_tweet("t3", "u1", 3, ["a"]),
        ]
        index = build_usage_index(build_corpus(tweets))
        assert index.times.tolist() == [1, 1, 2, 3]
        assert [index.tags[i] for i in index.ids] == ["a", "b", "a", "a"]
        assert index.n_events == 4

    def test_empty_corpus_empty_index(self):
        index = build_usage_index(build_corpus([]))
        assert index.n_events == 0
        assert list(index.hashtags()) == []

    def test_strictness_of_before_queries(self):
        tweets = [make_tweet("t1", "u1", 10, ["a"])]
        index = build_usage_index(build_corpus(tweets))
        assert not index.used_before("u1", "a", 10)
        assert index.used_before("u1", "a", 11)
        assert not index.anyone_used_before("a", 10)
        assert index.anyone_used_before("a", 11)
        assert index.uses_before(["u1"], 10)[0].tolist() == []
        assert index.uses_before(["u1"], 11)[0].tolist() == [10]

    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf, 2**63])
    def test_a_query_time_the_columns_cannot_cut_is_rejected(self, now):
        index = build_usage_index(build_corpus([make_tweet("t1", "u1", 10, ["a"])]))
        for call in (
            lambda: index.used_before("u1", "never", now),
            lambda: index.anyone_used_before("never", now),
            lambda: index.ids_before(now),
            lambda: index.uses_before([], now),
        ):
            with pytest.raises(ValueError, match="now"):
                call()


class TestRoundTrip:
    def random_corpus(self, rng):
        tweets = []
        for i in range(int(rng.integers(1, 20))):
            tags = {f"h{int(rng.integers(5))}" for _ in range(int(rng.integers(0, 3)))}
            tokens = None
            if rng.random() < 0.6:
                tokens = [
                    "".join(rng.choice(list("abcdef"), size=int(rng.integers(2, 5))))
                    for _ in range(int(rng.integers(0, 4)))
                ]
            tweets.append(make_tweet(f"t{i:03d}", f"u{int(rng.integers(3))}", int(rng.integers(100)), tags, tokens))
        edges = {}
        for u in range(3):
            targets = {f"u{v}" for v in range(3) if v != u and rng.random() < 0.4}
            if targets:
                edges[f"u{u}"] = frozenset(targets)
        return build_corpus(tweets, FollowGraph(edges=edges))

    def test_serialize_parse_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            corpus = self.random_corpus(rng)
            reparsed = build_corpus(
                parse_tweets(tweets_to_jsonl(corpus.tweets).splitlines()),
                parse_follows(follows_to_tsv(corpus.graph).splitlines()),
            )
            assert reparsed.tweets == corpus.tweets
            assert reparsed.graph == corpus.graph
            assert reparsed.users == corpus.users

    def test_header_comments_survive_round_trip(self):
        graph = FollowGraph(edges={"u1": frozenset({"u2"})})
        text = follows_to_tsv(graph, header_comments=("rng: test", "second line"))
        assert text.startswith("# rng: test\n# second line\n")
        assert parse_follows(text.splitlines()) == graph


# str.splitlines() also breaks lines at these, and json.dumps(ensure_ascii=False) leaves them raw.
LINE_BREAKING = "\x85\u2028\u2029"
FIELD_TEXT = st.text(min_size=1, max_size=8) | st.sampled_from(
    ['"', "\\", '\\"', "\x00\x1f\x7f", "e\u0301é", "日本", "\ud7ff\U0001f600", "\t\n\r", "a\x85b\u2028c\u2029"]
)


def record_line(tweet):
    """The writer's line for one tweet, built independently with json.dumps."""
    record = {
        "tweet_id": tweet.tweet_id,
        "user_id": tweet.user_id,
        "timestamp": tweet.time,
        "hashtags": sorted(tweet.hashtags),
    }
    if tweet.tokens is not None:
        record["text"] = " ".join(tweet.tokens)
    line = json.dumps(record, ensure_ascii=False, sort_keys=True)
    for char in LINE_BREAKING:
        line = line.replace(char, f"\\u{ord(char):04x}")
    return line


@st.composite
def serial_tweets(draw):
    tags = {normalize_hashtag(raw) for raw in draw(st.lists(FIELD_TEXT, max_size=3))} - {""}
    text = draw(st.none() | st.just("") | FIELD_TEXT)
    return Tweet(
        tweet_id=draw(FIELD_TEXT),
        user_id=draw(FIELD_TEXT),
        time=draw(st.integers(0, 2**63 - 1)),
        hashtags=frozenset(tags),
        tokens=None if text is None else tuple(tokenize(text)),
    )


class TestSerializeTweets:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(serial_tweets(), max_size=5, unique_by=lambda t: t.tweet_id))
    def test_matches_json_dumps_and_parses_back(self, tweets):
        lines = [record_line(t) for t in tweets]
        text = tweets_to_jsonl(tweets)
        assert text == "\n".join(lines) + ("\n" if lines else "")
        # Normalizing and tokenizing once more must change nothing for the round trip to hold.
        assume(all(normalize_hashtag(tag) == tag for t in tweets for tag in t.hashtags))
        assume(all(t.tokens is None or tuple(tokenize(" ".join(t.tokens))) == t.tokens for t in tweets))
        assert parse_tweets(text.splitlines()) == tweets

    def test_line_breaking_characters_are_escaped(self):
        tweets = [make_tweet("t\u20291", "u\u20281", 5, ["a\x85"], tokens=["xy"]), make_tweet("t2", "u1", 6, [])]
        text = tweets_to_jsonl(tweets)
        assert text.count("\n") == len(text.splitlines()) == 2
        assert "\\u2028" in text and "\\u0085" in text and "\\u2029" in text
        assert parse_tweets(text.splitlines()) == tweets

    def test_empty_and_missing_tokens_stay_apart(self):
        tweets = [make_tweet("t1", "u1", 1, [], tokens=()), make_tweet("t2", "u1", 1, [], tokens=None)]
        assert parse_tweets(tweets_to_jsonl(tweets).splitlines()) == tweets
