"""Hashtag recommendation from time-decayed usage histories.

The package models how people re-apply hashtags they have seen before:
recently and frequently used tags are scored higher via a power-law
decay over each tag's usage ages, separately for a user's own history
and for the history visible through the users they follow.  Around that
scorer sit corpus parsing, reuse categorization and decay analysis,
frequency/recency baselines, a seeded synthetic corpus generator, and
an offline top-k evaluation harness.
"""

from hashrec.corpus import (
    Corpus,
    CorpusError,
    FollowGraph,
    Tweet,
    UsageIndex,
    build_corpus,
    build_usage_index,
    chronological_split,
    load_follows,
    load_tweets,
    normalize_hashtag,
    parse_follows,
    parse_tweets,
    tokenize,
)
from hashrec.reuse import (
    AgeHistogram,
    PowerLawFit,
    ReuseCategory,
    categorize_assignment,
    category_distribution,
    fit_power_law,
    reuse_age_histogram,
)
from hashrec.activation import (
    ActivationParams,
    base_level_activation,
    history_scores,
    individual_activations,
    mix_scores,
    normalize_softmax,
    rank_top_k,
    recommend_bll_is,
    social_activations,
)
from hashrec.content import (
    TokenHashtagProfile,
    build_profiles,
    content_scores,
    profiles_before,
    recommend_bll_isc,
)
from hashrec.baselines import (
    most_recent,
    mp_global,
    mp_social,
    mp_user,
)
from hashrec.evaluation import (
    EvalReport,
    average_precision,
    mrr,
    ndcg_at_k,
    pr_curve,
    precision_at_k,
    query_metrics,
    recall_at_k,
    run_eval,
)
from hashrec.synth import GenConfig, GenResult, GenStats, generate

__all__ = [
    "ActivationParams",
    "AgeHistogram",
    "Corpus",
    "CorpusError",
    "EvalReport",
    "FollowGraph",
    "GenConfig",
    "GenResult",
    "GenStats",
    "PowerLawFit",
    "ReuseCategory",
    "TokenHashtagProfile",
    "Tweet",
    "UsageIndex",
    "average_precision",
    "base_level_activation",
    "build_corpus",
    "build_profiles",
    "build_usage_index",
    "categorize_assignment",
    "category_distribution",
    "chronological_split",
    "content_scores",
    "fit_power_law",
    "generate",
    "history_scores",
    "individual_activations",
    "load_follows",
    "load_tweets",
    "mix_scores",
    "most_recent",
    "mp_global",
    "mp_social",
    "mp_user",
    "mrr",
    "ndcg_at_k",
    "normalize_hashtag",
    "normalize_softmax",
    "parse_follows",
    "parse_tweets",
    "pr_curve",
    "precision_at_k",
    "profiles_before",
    "query_metrics",
    "rank_top_k",
    "recall_at_k",
    "recommend_bll_is",
    "recommend_bll_isc",
    "reuse_age_histogram",
    "run_eval",
    "social_activations",
    "tokenize",
]

__version__ = "0.1.0"
