"""Synthetic corpus generator: validation, determinism, planted structure."""

import gc
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashrec.corpus import build_corpus, parse_follows, parse_tweets, tweets_to_jsonl
from hashrec.reuse import ReuseCategory, category_distribution
from hashrec.synth import _BLOCK, _MAX_TWEETS, MEAN_GAP, START_TIME, GenConfig, _stream, generate


def small_config(**overrides):
    base = dict(
        n_users=40,
        n_tweets=4000,
        follow_prob=0.05,
        p_individual=0.4,
        p_social=0.2,
        alpha=1.0,
        zipf_s=0.6,
        vocab_size=2000,
        seed=42,
    )
    base.update(overrides)
    return GenConfig(**base)


def parse_result(result):
    return build_corpus(
        parse_tweets(result.tweets_jsonl.splitlines()),
        parse_follows(result.follows_tsv.splitlines()),
    )


REAL_FIELDS = ["follow_prob", "p_individual", "p_social", "alpha", "zipf_s"]


class TestGenConfigValidation:
    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"n_users": 0}, "n_users"),
            ({"n_tweets": 0}, "n_tweets"),
            ({"follow_prob": 1.5}, "follow_prob"),
            ({"p_individual": -0.1}, "p_individual"),
            ({"p_social": -0.1}, "p_social"),
            ({"p_individual": 0.7, "p_social": 0.5}, "p_individual + p_social"),
            ({"alpha": 0.0}, "alpha"),
            ({"zipf_s": -1.0}, "zipf_s"),
            ({"vocab_size": 0}, "vocab_size"),
            ({"seed": -1}, "seed"),
            ({"n_tweets": math.ceil(_MAX_TWEETS)}, "n_tweets"),
            ({"n_tweets": 10**400}, "n_tweets"),
            ({"n_users": 1, "p_social": 0.2}, "n_users must be >= 2"),
        ],
    )
    def test_each_violation_is_named(self, overrides, field):
        with pytest.raises(ValueError, match=field.replace("+", "\\+")):
            small_config(**overrides)

    @pytest.mark.parametrize("field", REAL_FIELDS)
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), pytest.param(10**400, id="int-beyond-float")]
    )
    def test_non_finite_values_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            small_config(**{field: value})

    @pytest.mark.parametrize("field", REAL_FIELDS)
    @pytest.mark.parametrize("value", ["0.1", None, [0.1], True, False])
    def test_non_numeric_reals_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            small_config(**{field: value})

    def test_every_non_numeric_real_is_listed(self):
        with pytest.raises(ValueError) as err:
            small_config(**{field: "1" for field in REAL_FIELDS})
        assert all(f"{field} must be a real number" in str(err.value) for field in REAL_FIELDS)

    @pytest.mark.parametrize("field", ["n_users", "n_tweets", "vocab_size", "seed"])
    @pytest.mark.parametrize("value", [float("nan"), 1.5, True])
    def test_non_integer_values_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            small_config(**{field: value})

    def test_multiple_violations_listed_together(self):
        with pytest.raises(ValueError) as err:
            small_config(n_users=0, alpha=-1.0, zipf_s=-2.0)
        message = str(err.value)
        assert "n_users" in message and "alpha" in message and "zipf_s" in message

    def test_largest_accepted_n_tweets_keeps_the_clock_below_2_63(self):
        # One more is rejected in test_each_violation_is_named.
        largest = math.ceil(_MAX_TWEETS) - 1
        assert small_config(n_tweets=largest).n_tweets == largest
        assert START_TIME + largest * Fraction(MEAN_GAP) < 2**63

    def test_from_dict_rejects_unknown_and_missing(self):
        good = dict(
            n_users=2, n_tweets=10, follow_prob=0.5, p_individual=0.3,
            p_social=0.1, alpha=1.0, zipf_s=0.5, vocab_size=10, seed=1,
        )
        assert GenConfig.from_dict(good).n_tweets == 10
        # The clock is fixed, so its former fields are unknown keys.
        for key in ("bogus", "start_time", "mean_gap"):
            with pytest.raises(ValueError, match=f"unknown config field.*{key}"):
                GenConfig.from_dict({**good, key: 1})
        missing = dict(good)
        del missing["alpha"], missing["seed"]
        with pytest.raises(ValueError, match="missing config field.*alpha.*seed"):
            GenConfig.from_dict(missing)


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = generate(small_config())
        b = generate(small_config())
        assert a.tweets_jsonl == b.tweets_jsonl
        assert a.follows_tsv == b.follows_tsv
        assert a.stats == b.stats

    def test_different_seed_differs(self):
        a = generate(small_config(seed=1))
        b = generate(small_config(seed=2))
        assert a.tweets_jsonl != b.tweets_jsonl

    def test_leaves_no_cyclic_garbage(self):
        """Everything generate makes is freed by reference counting alone."""
        gc.collect()
        gc.disable()
        try:
            generate(small_config())
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_rng_documented_in_follows_header(self):
        result = generate(small_config())
        header = result.follows_tsv.splitlines()[1]
        assert header.startswith("#") and "PCG64" in header and "seed=42" in header


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


PINNED_SMALL = dict(
    n_users=30, n_tweets=2_000, follow_prob=0.1, p_individual=0.45, p_social=0.22,
    alpha=1.0, zipf_s=0.6, vocab_size=500, seed=5,
)


# Degenerate configs, as overrides of PINNED_SMALL, with the sha256 of their tweets and follows.
PINNED_CASES = [
    # One user: every user id drawn is 0.
    pytest.param(
        {"n_users": 1, "p_social": 0.0},
        "364b8fc8237d28f381e9dd861ef86a9cd4584ef41d0752e2eaacf289e297a4c6",
        "530303bdb93b0cb4d78312de433fa256258cdd3161e76eb2408dfb754ce717a9",
        id="one-user",
    ),
    # p_individual + p_social = 1: no baseline stream, infinite base gap.
    pytest.param(
        {"p_individual": 0.6, "p_social": 0.4},
        "24b3deefb09b196ef32840546dcb540792c39a667abc9ab35a60729d090e95ef",
        "f64054c5b484259d6f0c7ddfccf03cf18eca3bee58ccba654e11c529381476df",
        id="no-baseline",
    ),
    # No edges, so no social draws.
    pytest.param(
        {"follow_prob": 0.0, "p_social": 0.0},
        "82e0cac9476e78a8b502ff7edeaaac512ed22a55d8cec24cee1830f947393baf",
        "530303bdb93b0cb4d78312de433fa256258cdd3161e76eb2408dfb754ce717a9",
        id="no-edges",
    ),
    pytest.param(
        {"follow_prob": 1.0},
        "567a8dab59b241e03def7f639037347b0bf87614ab6bd4d838286b37b4302b45",
        "892a35acc48c1d9f1117cc5940c84f8bc84cc65cc5f34f177be5cce0f5fa7769",
        id="complete-graph",
    ),
    # A graph too sparse for p_social: every follower adopts.
    pytest.param(
        {"follow_prob": 0.01, "p_social": 0.5},
        "7d2760524377d374d9b90075e08d3964567f1840d3a72cb9ee942c686e6e79c6",
        "b0955bfa6d85ca8b049223809e0352caee08f47bc13b66989975426a95af9038",
        id="sparse-graph",
    ),
    # One hashtag: every fresh draw collides.
    pytest.param(
        {"vocab_size": 1},
        "12817bc36d42260fe0aedc1bdd616b588e75dc8ba1f3f8ae91d0acdf0fdea3a0",
        "f64054c5b484259d6f0c7ddfccf03cf18eca3bee58ccba654e11c529381476df",
        id="one-hashtag",
    ),
]


class TestPinnedStream:
    """Output bytes recorded from the block-draw stream declared in ``hashrec.synth``; a drift in it moves them."""

    @pytest.mark.parametrize("overrides,tweets_sha,follows_sha", PINNED_CASES)
    def test_degenerate_configs_keep_their_bytes(self, overrides, tweets_sha, follows_sha):
        result = generate(GenConfig(**{**PINNED_SMALL, **overrides}))
        assert sha256(result.tweets_jsonl) == tweets_sha
        assert sha256(result.follows_tsv) == follows_sha


@st.composite
def gen_configs(draw):
    n_users = draw(st.integers(1, 8))
    p_individual = draw(st.floats(0.0, 1.0))
    # p_social needs a second user; the float sum of the two stays <= 1.
    p_social = 0.0 if n_users == 1 else draw(st.floats(0.0, 1.0 - p_individual))
    return GenConfig(
        n_users=n_users,
        n_tweets=draw(st.integers(1, 300)),
        follow_prob=draw(st.floats(0.0, 1.0)),
        p_individual=p_individual,
        p_social=p_social,
        alpha=draw(st.floats(0.1, 3.0)),
        zipf_s=draw(st.floats(0.0, 2.0)),
        vocab_size=draw(st.integers(1, 50)),
        seed=draw(st.integers(0, 2**32)),
    )


class TestWriterAgainstSerialiser:
    """The lines the event loop writes are what ``corpus.tweets_to_jsonl`` writes for the tweets they parse to."""

    @staticmethod
    def check(config):
        document = generate(config).tweets_jsonl
        tweets = parse_tweets(document.splitlines())
        assert document == tweets_to_jsonl(tweets)
        assert [tweet.tweet_id for tweet in tweets] == [f"t{i:08d}" for i in range(config.n_tweets)]
        # A line without its text would pass the round trip: check each tweet's labels as well.
        assert all(len(tweet.hashtags) == 1 for tweet in tweets)
        assert all(tweet.tokens == ("w" + min(tweet.hashtags)[1:],) for tweet in tweets)

    @settings(max_examples=60, deadline=None)
    @given(gen_configs())
    def test_drawn_configs(self, config):
        self.check(config)

    @pytest.mark.parametrize("overrides", [pytest.param(case.values[0], id=case.id) for case in PINNED_CASES])
    def test_degenerate_configs(self, overrides):
        self.check(GenConfig(**{**PINNED_SMALL, **overrides}))


INTEGER_BOUNDS = (1, 2, 3, 280, 2**31 + 1, 2**32)


class TestStream:
    """``_stream`` against a second generator making numpy's block calls in the order the draws run out."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_scalar_calls_in_any_interleaving(self, seed):
        n_users = INTEGER_BOUNDS[seed % len(INTEGER_BOUNDS)]
        plan = np.random.default_rng([seed, 1])
        expected = np.random.default_rng(seed)
        drawn = np.random.default_rng(seed)
        if seed % 3 == 0:
            # The stream goes on from whatever the generator drew before, a buffered half-word included.
            assert drawn.integers(7) == expected.integers(7)
        blocks = (
            lambda: expected.random(_BLOCK).tolist(),
            lambda: expected.standard_exponential(_BLOCK).tolist(),
            lambda: expected.integers(n_users, size=_BLOCK).tolist(),
        )
        pending = ([], [], [])
        draws = _stream(drawn, n_users)
        for _ in range(60):
            kind = int(plan.integers(3))
            # Runs longer than a block run out of it mid-run.
            run = int(plan.integers(1, 2 * _BLOCK))
            values = [draws[kind]() for _ in range(run)]
            while len(pending[kind]) < run:
                pending[kind].extend(blocks[kind]())
            assert values == pending[kind][:run]
            assert all(type(value) is (int if kind == 2 else float) for value in values)
            del pending[kind][:run]
        assert draws[0]() == (pending[0] or blocks[0]())[0]

    def test_freed_by_reference_counting_alone(self):
        """No reference cycle: the stream and its generator die with the last draw."""
        gc.collect()
        gc.disable()
        try:
            draws = _stream(np.random.default_rng(0), 3)
            assert [draw() for draw in draws]
            del draws
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDegenerateConfigs:
    def test_pure_individual_single_user_reuses_sole_hashtag(self):
        config = GenConfig(
            n_users=1, n_tweets=10, follow_prob=0.0, p_individual=1.0,
            p_social=0.0, alpha=1.0, zipf_s=0.6, vocab_size=100, seed=7,
        )
        result = generate(config)
        corpus = parse_result(result)
        tags = [next(iter(t.hashtags)) for t in corpus.tweets]
        assert len(set(tags)) == 1
        assert result.stats.n_fresh == 1
        assert result.stats.n_individual == 9
        times = [t.time for t in corpus.tweets]
        assert all(a < b for a, b in zip(times, times[1:]))

    # 1 - 0.85 - 0.15 leaves 2.8e-17; one ulp less of p_social leaves a share that expects no baseline tweet.
    @pytest.mark.parametrize("p_social", [0.15, math.nextafter(0.15, 0.0)], ids=["sum-1", "sum-below-1"])
    def test_shares_summing_to_about_one_keep_times_on_the_clock(self, p_social):
        config = small_config(n_tweets=300, follow_prob=0.0, p_individual=0.85, p_social=p_social)
        times = [tweet.time for tweet in parse_result(generate(config)).tweets]  # parsing refuses times past 2**63
        assert max(times) - START_TIME < 1000 * config.n_tweets * MEAN_GAP

    def test_no_reuse_at_all(self):
        config = small_config(p_individual=0.0, p_social=0.0, n_tweets=500)
        result = generate(config)
        assert result.stats.n_fresh == 500
        assert result.stats.n_individual == 0
        assert result.stats.n_social == 0

    def test_no_follow_edges_means_no_social(self):
        config = small_config(follow_prob=0.0, n_tweets=500)
        result = generate(config)
        assert result.stats.n_social == 0
        corpus = parse_result(result)
        assert corpus.graph.edges == {}


class TestGeneratedCorpusShape:
    def test_parses_cleanly_with_expected_fields(self):
        result = generate(small_config(n_tweets=300))
        corpus = parse_result(result)
        assert len(corpus.tweets) == 300
        for tweet in corpus.tweets[:20]:
            assert len(tweet.hashtags) == 1
            assert tweet.tokens is not None and len(tweet.tokens) == 1
        times = [t.time for t in corpus.tweets]
        assert all(a <= b for a, b in zip(times, times[1:]))
        assert times[0] >= START_TIME

    def test_mean_gap_roughly_respected(self):
        result = generate(small_config(n_tweets=3000))
        corpus = parse_result(result)
        span = corpus.tweets[-1].time - corpus.tweets[0].time
        mean_gap = span / (len(corpus.tweets) - 1)
        assert 2 / 3 * MEAN_GAP < mean_gap < 1.5 * MEAN_GAP

    def test_zipf_skew_concentrates_on_low_indices(self):
        # Fresh draws avoid a user's own earlier tags, so exact head
        # ranks flatten; the head-vs-tail mass ratio must still be
        # strongly skewed toward low vocabulary indices.
        result = generate(small_config(p_individual=0.0, p_social=0.0, zipf_s=1.2, n_tweets=2000))
        corpus = parse_result(result)
        indices = [int(next(iter(t.hashtags))[1:]) for t in corpus.tweets]
        head = sum(1 for i in indices if i < 50)
        tail = sum(1 for i in indices if i >= 1000)
        assert head > 5 * max(tail, 1)


class TestPlantedStructure:
    def test_branch_shares_near_configured_probabilities(self):
        result = generate(small_config(n_tweets=20_000, seed=3))
        stats = result.stats
        assert abs(stats.individual_share() - 0.4) <= 0.03
        assert abs(stats.social_share() - 0.2) <= 0.05
        # cancelled adoptions explain the social shortfall
        recovered = (stats.n_social + stats.n_social_cancelled) / stats.n_tweets
        assert abs(recovered - 0.2) <= 0.03

    def test_reuse_family_share_matches_generator_probabilities(self):
        result = generate(small_config(n_tweets=20_000, seed=3))
        dist = category_distribution(parse_result(result))
        family = sum(
            dist[c][1]
            for c in (
                ReuseCategory.INDIVIDUAL,
                ReuseCategory.SOCIAL,
                ReuseCategory.INDIVIDUAL_SOCIAL,
            )
        )
        assert abs(family - 0.6) <= 0.05


class TestGenStats:
    def test_to_dict_keys_are_the_counts_and_both_shares(self):
        stats = generate(small_config(n_tweets=200)).stats
        data = stats.to_dict()
        assert set(data) == {
            "n_tweets", "n_fresh", "n_individual", "n_social", "n_social_cancelled",
            "n_fresh_collisions", "n_unfired_events", "n_edges",
            "individual_share", "social_share",
        }
        assert data["n_tweets"] == 200
        assert data["individual_share"] == stats.n_individual / 200
        assert data["social_share"] == stats.n_social / 200
