"""Parsing, indexing, splitting, and round-trip serialization."""

import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hashrec.corpus
from hashrec.activation import TagScores
from hashrec.corpus import (
    Corpus,
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
from hashrec.evaluation import run_eval
from hashrec.reuse import ReuseCategory, categorize_assignment


def make_tweet(tweet_id, user_id, time, hashtags, tokens=None):
    return Tweet(
        tweet_id=tweet_id,
        user_id=user_id,
        time=time,
        hashtags=frozenset(hashtags),
        tokens=tuple(tokens) if tokens is not None else None,
    )


class TestTweetContract:
    """Tweet sets its slots in its own __init__; the rest stays generated."""

    FIELDS = ("tweet_id", "user_id", "time", "hashtags", "tokens")

    def tweet(self):
        return Tweet("t1", "u1", 5, frozenset({"a", "b"}), ("x", "yz"))

    def test_fields_cannot_be_assigned_or_deleted(self):
        tweet = self.tweet()
        for name in self.FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(tweet, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(tweet, name)
        assert tweet == self.tweet()

    def test_keyword_positional_and_default_construction(self):
        keyword = Tweet(tokens=("x", "yz"), hashtags=frozenset({"b", "a"}), time=5, user_id="u1", tweet_id="t1")
        assert keyword == self.tweet()
        assert tuple(getattr(keyword, name) for name in self.FIELDS) == (
            "t1", "u1", 5, frozenset({"a", "b"}), ("x", "yz")
        )
        assert Tweet("t1", "u1", 5, frozenset()).tokens is None
        assert Tweet("t1", "u1", 5, frozenset(), ()).tokens == ()
        for args, kwargs in [(("t1", "u1", 5), {}), (("t1", "u1", 5, frozenset(), None, "x"), {}),
                             (("t1", "u1", 5, frozenset()), {"text": "x"}), ((), {"tweet_id": "t1"})]:
            with pytest.raises(TypeError):
                Tweet(*args, **kwargs)

    def test_equal_fields_give_equal_tweets_and_hashes(self):
        # Equal but distinct objects in every field.
        twin = Tweet("".join(["t", "1"]), "".join(["u", "1"]), 5, frozenset(["b", "a"]), tuple(["x", "yz"]))
        assert twin == self.tweet() and hash(twin) == hash(self.tweet())
        assert twin.tweet_id is not self.tweet().tweet_id
        for name, other in zip(self.FIELDS, ("t2", "u2", 6, frozenset({"a"}), None)):
            changed = dataclasses.replace(self.tweet(), **{name: other})
            assert changed != self.tweet()
        assert self.tweet() != ("t1", "u1", 5, frozenset({"a", "b"}), ("x", "yz"))

    def test_repr_fields_and_match_args(self):
        assert repr(Tweet("t1", "u1", 5, frozenset({"a"}), ("x",))) == (
            "Tweet(tweet_id='t1', user_id='u1', time=5, hashtags=frozenset({'a'}), tokens=('x',))"
        )
        assert tuple(field.name for field in dataclasses.fields(Tweet)) == self.FIELDS
        assert dataclasses.fields(Tweet)[-1].default is None
        assert Tweet.__match_args__ == self.FIELDS
        match self.tweet():
            case Tweet(tweet_id, user_id, time, hashtags, tokens):
                assert (tweet_id, user_id, time, hashtags, tokens) == ("t1", "u1", 5, {"a", "b"}, ("x", "yz"))

    def test_slots_only(self):
        assert not hasattr(self.tweet(), "__dict__")
        assert Tweet.__slots__ == self.FIELDS

    def test_copies_and_pickles_are_equal(self):
        tweet = self.tweet()
        assert copy.copy(tweet) == tweet
        assert copy.deepcopy(tweet) == tweet
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(tweet, protocol))
            assert restored == tweet and hash(restored) == hash(tweet)


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
# A few texts that lines repeat, so the parser's token cache gets hits; the
# middle two have equal lengths and different tokens.
TEXTS = st.sampled_from(["", "Deep #AI dives", "deep dives, ok", "Ça #x_y 日本 go"])


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
        record["text"] = draw(st.none() | st.text(max_size=12) | TEXTS)
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

    def test_equal_texts_share_one_tokens_tuple(self):
        def line(i, **text):
            return json.dumps({"tweet_id": f"t{i}", "user_id": "u1", "timestamp": i, "hashtags": [], **text})

        lines = [line(0, text="Deep #AI dives"), line(1, text="Deep #AI dives"), line(2, text=""), line(3, text=""),
                 line(4), line(5, text=None), line(6, text="deep dives")]
        tweets = parse_tweets(lines)
        assert tweets[0].tokens is tweets[1].tokens
        assert tweets[0].tokens == tweets[6].tokens == ("deep", "dives")
        assert tweets[2].tokens == tweets[3].tokens == ()
        # A line without text, or with a null one, after the cache has hits.
        assert tweets[4].tokens is None and tweets[5].tokens is None
        assert tweets == reference_parse_tweets(lines)


# Ids follows_to_tsv writes and parse_follows reads back: no tab, no line
# break, no outer whitespace, and no leading '#' that would make a comment.
FOLLOW_IDS = st.text(
    st.characters(exclude_characters="\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"), min_size=1, max_size=4
).filter(lambda s: s == s.strip() and not s.startswith("#"))


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

    # A tab that str.strip() would remove still makes an empty field.
    @pytest.mark.parametrize("line", ["u1", "u1\tu2\tu3", "u1\t", "\tu2", "u1\tu2\t", "\tu1\tu2"])
    def test_malformed_line_names_line_number(self, line):
        with pytest.raises(CorpusError, match="line 1"):
            parse_follows([line])

    def test_other_outer_whitespace_is_stripped(self):
        graph = parse_follows([" u1\tu2\r\n", "\u3000u1\tu3 \x0b"])
        assert graph == FollowGraph(edges={"u1": frozenset({"u2", "u3"})})

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(FOLLOW_IDS, st.frozensets(FOLLOW_IDS, min_size=1, max_size=3), max_size=4))
    def test_every_written_graph_parses_back(self, edges):
        graph = FollowGraph(edges={u: vs - {u} for u, vs in edges.items() if vs - {u}})
        assert parse_follows(follows_to_tsv(graph).splitlines()) == graph


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

    # Ids that differ only in case, in composition, or by a trailing NUL.
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(["a", "A", "é", "É", "e\u0301", "ß", "ss", "a\u0000", "t10", "t9"]),
                      st.integers(0, 2)),
            unique_by=lambda row: row[0],
        ),
        data=st.data(),
    )
    def test_order_equals_sorting_by_sort_key(self, rows, data):
        tweets = [make_tweet(tweet_id, "u1", time, ["a"]) for tweet_id, time in rows]
        shuffled = data.draw(st.permutations(tweets))
        assert build_corpus(shuffled).tweets == tuple(sorted(tweets, key=Tweet.sort_key))


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
                # "c" is rare, so it often occurs only in held-out tweets.
                st.frozensets(st.sampled_from(["a"] * 4 + ["b"] * 4 + ["c"]), max_size=2),
            ),
            max_size=30,
        ),
        edges=st.lists(st.tuples(st.sampled_from(["u0", "u1", "g0"]), st.sampled_from(["u2", "g1"])), max_size=4),
        holdout=st.integers(1, 3),
    )
    @example(  # "c" is only in u0's held-out tweet
        rows=[("u0", 1, frozenset("a")), ("u0", 2, frozenset("bc")), ("u1", 2, frozenset("a"))], edges=[], holdout=1
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
        corpus = build_corpus(tweets, graph)
        train, test = chronological_split(corpus, holdout)
        oracle = build_corpus(train.tweets, graph)
        assert (train.tweets, train.graph, train.users) == (oracle.tweets, oracle.graph, oracle.users)
        # Every held-out user keeps at least one training tweet.
        assert train.users == corpus.users
        assert test == sorted(test, key=Tweet.sort_key)
        assert_same_index(train.index, build_usage_index(oracle))

    def split_and_rebuild(self, tweets, holdout=1):
        """The split of the tweets' corpus, its training index checked against a rebuild."""
        corpus = build_corpus(tweets)
        train, test = chronological_split(corpus, holdout)
        assert_same_index(train.index, build_usage_index(build_corpus(train.tweets)))
        return corpus, train, test

    def test_a_held_out_tweet_amid_a_same_second_run(self):
        tweets = [
            make_tweet("a1", "u1", 1, ["x"]),
            make_tweet("b1", "u2", 1, ["y"]),
            make_tweet("s1", "u1", 5, ["x", "y"]),
            make_tweet("s2", "u2", 5, ["w", "y", "z"]),
            make_tweet("s3", "u3", 5, ["v", "x"]),
            make_tweet("a9", "u1", 9, ["x"]),
        ]
        _, train, test = self.split_and_rebuild(tweets)
        assert [t.tweet_id for t in test] == ["s2", "a9"]
        assert train.index.tags == ("v", "x", "y")  # "w" and "z" occur only in s2
        assert train.index.times.tolist() == [1, 1, 5, 5, 5, 5]

    def test_every_tweet_in_one_second(self):
        tweets = [
            make_tweet(f"t{i:02d}", f"u{i % 3}", 0, MANY_TAGS[i % 5 : i % 5 + i % 4])
            for i in range(24)
        ]
        for holdout in (1, 2, 5, 6):
            _, _, test = self.split_and_rebuild(tweets, holdout)
            assert len(test) == (3 * holdout if holdout < 6 else 0)  # each user has six tagged tweets

    def test_an_empty_test_set_keeps_the_corpus_index(self):
        tweets = [
            make_tweet("t1", "u1", 1, ["a", "b"]),
            make_tweet("t2", "u2", 1, ["c"]),
            make_tweet("t3", "u1", 2, []),
        ]
        corpus, train, test = self.split_and_rebuild(tweets)
        assert test == []
        assert_same_index(train.index, corpus.index)

    def test_a_corpus_without_hashtags(self):
        _, train, test = self.split_and_rebuild([make_tweet("t1", "u1", 1, []), make_tweet("t2", "u1", 2, [])])
        assert test == []
        assert (train.index.tags, train.index.n_events, dict(train.index.columns)) == ((), 0, {})

    def test_the_split_and_run_eval_build_no_index(self, monkeypatch):
        tweets = [
            make_tweet(f"t{i:02d}", f"u{i % 4}", i // 3, MANY_TAGS[i % 7 : i % 7 + 1 + i % 2], ["w" + str(i % 5)])
            for i in range(40)
        ]
        corpus = build_corpus(tweets, FollowGraph({"u0": frozenset({"u1", "u2"})}))
        corpus.index
        calls = []
        build = hashrec.corpus.build_usage_index
        monkeypatch.setattr(hashrec.corpus, "build_usage_index", lambda source: calls.append(source) or build(source))
        train, test = chronological_split(corpus, 2)
        run_eval(train, test, scenario=1)
        run_eval(train, test, scenario=2)
        assert calls == []
        # The counter sees the builds that Corpus.index makes.
        assert_same_index(Corpus(train.tweets, train.graph).index, train.index)
        assert len(calls) == 1


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
        assert categorize_assignment(index, FollowGraph(), "u1", "a", 10) is ReuseCategory.EXTERNAL
        assert categorize_assignment(index, FollowGraph(), "u1", "a", 11) is ReuseCategory.INDIVIDUAL
        assert index.uses_before(["u1"], 10)[0].tolist() == []
        assert index.uses_before(["u1"], 11)[0].tolist() == [10]

    # NEVER holds hashtags no index here interns: one sorting before every
    # hashtag, ones between two, one after the last, and prefixes of
    # internable ones; an INTERNABLE one goes unseen when no tweet draws it.
    INTERNABLE = ["ab", "b", "bd", "c"]
    NEVER = ["", "a", "aa", "ac", "ba", "bc", "be", "d"]

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["u0", "u1"]),
                st.integers(0, 6),
                st.frozensets(st.sampled_from(INTERNABLE), max_size=3),
            ),
            max_size=20,
        ),
        now=st.integers(-1, 8),
    )
    def test_lookups_equal_a_scan_of_the_tweets(self, rows, now):
        tweets = [make_tweet(f"t{i:02d}", user, time, tags) for i, (user, time, tags) in enumerate(rows)]
        graph = FollowGraph(edges={"u0": frozenset({"u1"})})
        index = build_usage_index(build_corpus(tweets, graph))
        earlier = [t for t in tweets if t.time < now]
        counts = np.bincount(index.ids_before(now), minlength=len(index.tags))
        present = np.flatnonzero(counts)
        view = TagScores(index.tags, present, counts[present].astype(float))
        for hashtag in self.INTERNABLE + self.NEVER:
            anyone = [t for t in earlier if hashtag in t.hashtags]
            for user in ("u0", "u1", "ghost"):
                own = any(t.user_id == user for t in anyone)
                social = any(t.user_id in graph.followees(user) for t in anyone)
                if own:
                    expected = ReuseCategory.INDIVIDUAL_SOCIAL if social else ReuseCategory.INDIVIDUAL
                elif social:
                    expected = ReuseCategory.SOCIAL
                else:
                    expected = ReuseCategory.NETWORK if anyone else ReuseCategory.EXTERNAL
                assert categorize_assignment(index, graph, user, hashtag, now) is expected
            if anyone:
                assert view[hashtag] == len(anyone)
            else:
                with pytest.raises(KeyError):
                    view[hashtag]

    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf, 2**63])
    def test_a_query_time_the_columns_cannot_cut_is_rejected(self, now):
        index = build_usage_index(build_corpus([make_tweet("t1", "u1", 10, ["a"])]))
        for call in (
            lambda: categorize_assignment(index, FollowGraph(), "u1", "never", now),
            lambda: index.ids_before(now),
            lambda: index.uses_before([], now),
        ):
            with pytest.raises(ValueError, match="now"):
                call()

    def test_a_repeated_tweet_id_is_rejected(self):
        tweet = make_tweet("t1", "u1", 10, ["a"])
        with pytest.raises(CorpusError, match="duplicate tweet_id 't1'"):
            build_usage_index([tweet, tweet])


def loop_index(tweets):
    """The index as a Python loop over every use built it, kept as the oracle."""
    ordered = tweets.tweets if isinstance(tweets, Corpus) else sorted(tweets, key=Tweet.sort_key)
    user_codes, first_seen = {}, {}
    row_users, row_times, row_tags = [], [], []
    for tweet in ordered:
        if tweet.hashtags:
            code = user_codes.setdefault(tweet.user_id, len(user_codes))
            for tag in sorted(tweet.hashtags):
                row_users.append(code)
                row_times.append(tweet.time)
                row_tags.append(first_seen.setdefault(tag, len(first_seen)))
    tags = tuple(sorted(first_seen))
    interned = np.empty(len(tags), dtype=np.int32)
    interned[list(map(first_seen.__getitem__, tags))] = np.arange(len(tags), dtype=np.int32)
    times = np.array(row_times, dtype=np.int64)
    ids = interned[np.array(row_tags, dtype=np.intp)]
    users = np.array(row_users, dtype=np.intp)
    order = users.argsort(kind="stable")
    user_times, user_ids = times[order], ids[order]
    ends = np.cumsum(np.bincount(users, minlength=len(user_codes))).tolist()
    columns = {
        user: (user_times[start:end], user_ids[start:end])
        for user, start, end in zip(user_codes, [0] + ends, ends)
    }
    return tags, times, ids, columns


def assert_same_array(actual, expected):
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


def assert_same_index(actual, expected):
    """Equal tags, columns, dtypes, user order and read-only flags."""
    assert actual.tags == expected.tags
    assert list(actual.columns) == list(expected.columns)
    pairs = [(actual.times, expected.times), (actual.ids, expected.ids)]
    pairs += [pair for user in expected.columns for pair in zip(actual.columns[user], expected.columns[user])]
    for actual_array, expected_array in pairs:
        assert_same_array(actual_array, expected_array)
        assert not actual_array.flags.writeable and not expected_array.flags.writeable


# Twelve hashtags: a set of several of them rarely iterates in sorted order.
MANY_TAGS = [f"h{i:02d}" for i in range(12)]


class TestBuildUsageIndexAgainstLoop:
    """Covers multi-hashtag tweets (the only inputs that need the
    within-tweet sort), hashtag-less tweets and users, same-second
    tweets, unsorted plain iterables and the empty corpus."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["u0", "u1", "u2", "mute"]),
                st.integers(0, 5),
                st.frozensets(st.sampled_from(MANY_TAGS), max_size=6),
            ).map(lambda row: row if row[0] != "mute" else (row[0], row[1], frozenset())),
            max_size=25,
        )
    )
    @example(rows=[])
    @example(rows=[("u1", 3, frozenset(MANY_TAGS)), ("u0", 3, frozenset(MANY_TAGS[::-1])), ("mute", 1, frozenset())])
    def test_columns_equal_the_per_use_loop(self, rows):
        tweets = [make_tweet(f"t{i:02d}", user, time, tags) for i, (user, time, tags) in enumerate(rows)]
        for source in (build_corpus(tweets), iter(tweets[::-1])):
            tags, times, ids, columns = loop_index(build_corpus(tweets))
            index = build_usage_index(source)
            assert index.tags == tags
            assert_same_array(index.times, times)
            assert_same_array(index.ids, ids)
            assert list(index.columns) == list(columns)
            for user, (user_times, user_ids) in columns.items():
                assert_same_array(index.columns[user][0], user_times)
                assert_same_array(index.columns[user][1], user_ids)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["u0", "u1", "u2"]),
                st.integers(0, 4),
                st.frozensets(st.sampled_from(MANY_TAGS), max_size=4),
            ),
            max_size=20,
        ),
        data=st.data(),
    )
    def test_a_shuffled_list_indexes_as_its_corpus(self, rows, data):
        tweets = [make_tweet(f"t{i:02d}", user, time, tags) for i, (user, time, tags) in enumerate(rows)]
        index = build_usage_index(data.draw(st.permutations(tweets)))
        assert_same_index(index, build_usage_index(build_corpus(tweets)))


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


def record_of(tweet):
    """The record a tweet's line must hold, its keys written out here."""
    record = {
        "tweet_id": tweet.tweet_id,
        "user_id": tweet.user_id,
        "timestamp": tweet.time,
        "hashtags": sorted(tweet.hashtags),
    }
    if tweet.tokens is not None:
        record["text"] = " ".join(tweet.tokens)
    return record


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
    def test_lines_load_as_records_and_parse_back(self, tweets):
        text = tweets_to_jsonl(tweets)
        lines = text.splitlines()
        assert len(lines) == len(tweets)
        assert text == "".join(line + "\n" for line in lines)
        assert not any(char in text for char in LINE_BREAKING)
        assert [json.loads(line) for line in lines] == [record_of(t) for t in tweets]
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
