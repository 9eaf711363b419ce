"""Synthetic corpus generator: validation, determinism, planted structure."""

import gc
import hashlib
import weakref

import numpy as np
import pytest

from hashrec.corpus import build_corpus, parse_follows, parse_tweets
from hashrec.reuse import ReuseCategory, category_distribution
from hashrec.synth import _UNIFORM_BLOCK, GenConfig, _Stream, generate


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
            ({"start_time": -5}, "start_time"),
            ({"mean_gap": 0.0}, "mean_gap"),
            ({"n_users": 1, "p_social": 0.2}, "n_users must be >= 2"),
        ],
    )
    def test_each_violation_is_named(self, overrides, field):
        with pytest.raises(ValueError, match=field.replace("+", "\\+")):
            small_config(**overrides)

    @pytest.mark.parametrize("field", ["p_individual", "p_social", "alpha", "zipf_s", "mean_gap"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            small_config(**{field: value})

    @pytest.mark.parametrize("field", ["n_users", "n_tweets", "vocab_size", "seed", "start_time"])
    @pytest.mark.parametrize("value", [float("nan"), 1.5, True])
    def test_non_integer_values_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            small_config(**{field: value})

    def test_multiple_violations_listed_together(self):
        with pytest.raises(ValueError) as err:
            small_config(n_users=0, alpha=-1.0, mean_gap=-2.0)
        message = str(err.value)
        assert "n_users" in message and "alpha" in message and "mean_gap" in message

    def test_from_dict_rejects_unknown_and_missing(self):
        good = dict(
            n_users=2, n_tweets=10, follow_prob=0.5, p_individual=0.3,
            p_social=0.1, alpha=1.0, zipf_s=0.5, vocab_size=10, seed=1,
        )
        assert GenConfig.from_dict(good).n_tweets == 10
        with pytest.raises(ValueError, match="unknown config field.*bogus"):
            GenConfig.from_dict({**good, "bogus": 1})
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


class TestPinnedStream:
    """Output bytes recorded from the scalar-draw generator; a drift in the random stream moves them."""

    @pytest.mark.parametrize(
        "overrides,tweets_sha,follows_sha",
        [
            # One user: integers(1) draws nothing.
            ({"n_users": 1, "p_social": 0.0},
             "afc4fddc90186121c952c218d46c2c0392a94fb83b95aad4e74c43d9f5536dae",
             "530303bdb93b0cb4d78312de433fa256258cdd3161e76eb2408dfb754ce717a9"),
            # p_individual + p_social = 1: no baseline stream, infinite base gap.
            ({"p_individual": 0.6, "p_social": 0.4},
             "3e5f9ee4f4cfe905c1d7e0e48716f2e9aba764015b95d8bf759187445debbacc",
             "f64054c5b484259d6f0c7ddfccf03cf18eca3bee58ccba654e11c529381476df"),
            # No edges, so no social draws.
            ({"follow_prob": 0.0, "p_social": 0.0},
             "399b51d0791034965402731737ea5101dece5d35df606b7a3afec4dc900b5d3d",
             "530303bdb93b0cb4d78312de433fa256258cdd3161e76eb2408dfb754ce717a9"),
            ({"follow_prob": 1.0},
             "39e4b9cd245ccf397bba06557b6eed8554b225fe235b3cc85d6b2962cd561de1",
             "892a35acc48c1d9f1117cc5940c84f8bc84cc65cc5f34f177be5cce0f5fa7769"),
            # A graph too sparse for p_social: every follower adopts.
            ({"follow_prob": 0.01, "p_social": 0.5},
             "6aabefa6e4af8dafc0fe4e411c4b0df005fc63de7a2fe557c75303092b7bc409",
             "b0955bfa6d85ca8b049223809e0352caee08f47bc13b66989975426a95af9038"),
            # One hashtag: every fresh draw collides.
            ({"vocab_size": 1},
             "5132c92ef9acab8f04ce8c1a3989ffe66e6c662de9378b5ebcec86cf387230e3",
             "f64054c5b484259d6f0c7ddfccf03cf18eca3bee58ccba654e11c529381476df"),
        ],
    )
    def test_degenerate_configs_keep_their_bytes(self, overrides, tweets_sha, follows_sha):
        result = generate(GenConfig(**{**PINNED_SMALL, **overrides}))
        assert sha256(result.tweets_jsonl) == tweets_sha
        assert sha256(result.follows_tsv) == follows_sha


INTEGER_BOUNDS = (1, 2, 3, 280, 2**31 + 1, 2**32)


class TestStream:
    """``_Stream`` against a second generator making the scalar calls."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_scalar_calls_in_any_interleaving(self, seed):
        plan = np.random.default_rng([seed, 1])
        expected = np.random.default_rng(seed)
        drawn = np.random.default_rng(seed)
        if seed % 3 == 0:
            # A half-word buffered before the stream starts is used first.
            assert drawn.integers(7) == expected.integers(7)
        stream = _Stream(drawn)
        for _ in range(120):
            kind = plan.integers(3)
            # Runs longer than a block run out of it mid-run; runs of integers use the buffered half-word.
            run = int(plan.integers(1, 3 * _UNIFORM_BLOCK)) if kind == 0 else int(plan.integers(1, 5))
            for _ in range(run):
                if kind == 0:
                    assert stream.random() == expected.random()
                elif kind == 1:
                    n = INTEGER_BOUNDS[plan.integers(len(INTEGER_BOUNDS))]
                    value = stream.integers(n)
                    assert type(value) is int and value == expected.integers(n)
                else:
                    scale = float(plan.choice([1e-3, 1.0, 60.0, 1e6]))
                    assert stream.exponential(scale) == expected.exponential(scale)
        assert stream.random() == expected.random()

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1, 2**40])
    def test_integers_outside_the_32_bit_draw_rejected(self, n):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            _Stream(np.random.default_rng(0)).integers(n)

    def test_freed_by_reference_counting_alone(self):
        """No reference cycle: the stream dies with its last reference."""
        stream = _Stream(np.random.default_rng(0))
        stream.random()
        stream.integers(3)
        ref = weakref.ref(stream)
        gc.disable()
        try:
            del stream
            assert ref() is None
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
        assert times[0] >= 1_500_000_000

    def test_mean_gap_roughly_respected(self):
        result = generate(small_config(n_tweets=3000, mean_gap=60.0))
        corpus = parse_result(result)
        span = corpus.tweets[-1].time - corpus.tweets[0].time
        mean_gap = span / (len(corpus.tweets) - 1)
        assert 40.0 < mean_gap < 90.0

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
