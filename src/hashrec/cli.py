"""Command line interface: generate, analyze, recommend, evaluate.

Exit codes: 0 on success, 1 on usage errors (bad flags or values), 2 on
data errors (missing files, malformed input, violated invariants).
Output files are written atomically (temp file then rename) and floats
are formatted as shortest round-trip decimals, so identical invocations
on identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile

from hashrec.activation import ActivationParams, recommend_bll_is
from hashrec.content import profiles_before, recommend_bll_isc
from hashrec.corpus import (
    Corpus,
    CorpusError,
    build_corpus,
    chronological_split,
    load_follows,
    load_tweets,
    tokenize,
)
from hashrec.evaluation import ALGORITHMS, pr_curve, run_eval
from hashrec.reuse import (
    TIME_UNIT_SECONDS,
    category_distribution,
    fit_power_law,
    reuse_age_histogram,
)
from hashrec.synth import GenConfig, generate

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    """Invalid flag values caught after argparse."""


def _write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _load_corpus(tweets_path: str, follows_path: str | None) -> Corpus:
    tweets = load_tweets(tweets_path)
    graph = load_follows(follows_path) if follows_path else None
    return build_corpus(tweets, graph)


def _activation_params(args: argparse.Namespace) -> ActivationParams:
    """Validate the scoring flags shared by recommend and evaluate."""
    if not 0.0 <= args.lambda_weight <= 1.0:
        raise UsageError("--lambda must lie in [0, 1]")
    try:
        return ActivationParams(
            d_individual=args.d_ind,
            d_social=args.d_soc,
            beta=args.beta,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _add_params_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d-ind", type=float, default=0.5, help="decay exponent for own history")
    parser.add_argument("--d-soc", type=float, default=0.5, help="decay exponent for followee history")
    parser.add_argument("--beta", type=float, default=0.5, help="weight of individual vs social signal")
    parser.add_argument(
        "--lambda",
        dest="lambda_weight",
        type=float,
        default=0.5,
        help="weight of history vs content in the blended recommender",
    )


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tweets", required=True, help="tweets JSONL file")
    parser.add_argument("--follows", default=None, help="follow edges TSV file (optional)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hashrec",
        description="Hashtag recommendation from time-decayed usage histories.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--quiet", action="store_true", help="suppress informational logging")
    parser.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; evaluation runs in one thread"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser(
        "generate",
        help="write a seeded synthetic corpus",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_gen.add_argument("--config", required=True, help="generator config JSON file")
    p_gen.add_argument("--out", required=True, help="output directory (tweets.jsonl, follows.tsv, stats.json)")

    p_ana = sub.add_parser(
        "analyze",
        help="categorize reuse and fit the temporal decay",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_corpus_flags(p_ana)
    p_ana.add_argument("--out", required=True, help="output directory for CSV reports")
    p_ana.add_argument(
        "--time-unit",
        choices=sorted(TIME_UNIT_SECONDS),
        default="seconds",
        help="unit for reuse ages",
    )

    p_rec = sub.add_parser(
        "recommend",
        help="rank hashtags for one user at a point in time",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_corpus_flags(p_rec)
    p_rec.add_argument("--user", required=True, help="user id to recommend for")
    p_rec.add_argument("--now", required=True, type=int, help="query time (epoch seconds)")
    p_rec.add_argument("--k", type=int, default=10, help="number of hashtags to return")
    _add_params_flags(p_rec)
    p_rec.add_argument("--text", default=None, help="query text; enables content blending")

    p_eval = sub.add_parser(
        "evaluate",
        help="offline top-k evaluation on a chronological split",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_corpus_flags(p_eval)
    p_eval.add_argument("--out", required=True, help="output directory (metrics.json, pr_curve.csv)")
    p_eval.add_argument("--scenario", type=int, choices=(1, 2), default=1, help="1: history only; 2: with query text")
    p_eval.add_argument(
        "--algorithms",
        default=",".join(ALGORITHMS),
        help="comma-separated algorithm names",
    )
    p_eval.add_argument("--holdout", type=int, default=1, help="hashtag tweets held out per user")
    p_eval.add_argument("--k-max", type=int, default=10, help="largest list length to score")
    _add_params_flags(p_eval)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"config is not valid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise CorpusError("config must be a JSON object")
    config = GenConfig.from_dict(data)
    result = generate(config)
    _write_text_atomic(os.path.join(args.out, "tweets.jsonl"), result.tweets_jsonl)
    _write_text_atomic(os.path.join(args.out, "follows.tsv"), result.follows_tsv)
    stats_json = json.dumps(result.stats.to_dict(), indent=2, sort_keys=True) + "\n"
    _write_text_atomic(os.path.join(args.out, "stats.json"), stats_json)
    logger.info("wrote tweets.jsonl, follows.tsv, stats.json to %s", args.out)
    return EXIT_OK


def _decay_csv(corpus: Corpus, kind: str, time_unit: str) -> str:
    hist = reuse_age_histogram(corpus, kind=kind, time_unit=time_unit)
    try:
        fit = fit_power_law(hist)
        slope, intercept, r2 = repr(fit.slope), repr(fit.intercept), repr(fit.r_squared)
    except ValueError:
        slope = intercept = r2 = "nan"
    lines = [
        f"# fit_slope={slope} fit_intercept={intercept} r_squared={r2}",
        "age_midpoint,count",
    ]
    for mid, count in zip(hist.midpoints(), hist.counts):
        lines.append(f"{float(mid)!r},{int(count)}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args.tweets, args.follows)
    distribution = category_distribution(corpus)
    lines = ["category,count,share"]
    for category in sorted(distribution, key=lambda c: c.value):
        count, share = distribution[category]
        lines.append(f"{category.value},{count},{share!r}")
    _write_text_atomic(os.path.join(args.out, "categories.csv"), "\n".join(lines) + "\n")
    for kind in ("individual", "social"):
        csv_text = _decay_csv(corpus, kind, args.time_unit)
        _write_text_atomic(os.path.join(args.out, f"decay_{kind}.csv"), csv_text)
    logger.info("wrote categories.csv, decay_individual.csv, decay_social.csv to %s", args.out)
    return EXIT_OK


def _cmd_recommend(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    if not 0 <= args.now < 2**63:
        raise UsageError("--now must lie in [0, 2**63), as tweet timestamps do")
    params = _activation_params(args)
    corpus = _load_corpus(args.tweets, args.follows)
    if args.text is not None:
        tokens = tokenize(args.text)
        profile = next(profiles_before(corpus, [args.now], tokens))
        ranked = recommend_bll_isc(
            corpus.index, corpus.graph, profile, args.user, args.now, tokens,
            params, args.lambda_weight, args.k,
        )
    else:
        ranked = recommend_bll_is(corpus.index, corpus.graph, args.user, args.now, params, args.k)
    payload = [{"hashtag": tag, "score": score} for tag, score in ranked]
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    algorithms = [name.strip() for name in args.algorithms.split(",") if name.strip()]
    unknown = [name for name in algorithms if name not in ALGORITHMS]
    if not algorithms:
        raise UsageError("--algorithms must name at least one algorithm")
    if unknown:
        raise UsageError(
            f"unknown algorithm(s): {', '.join(unknown)} (choose from {', '.join(ALGORITHMS)})"
        )
    if args.holdout < 1:
        raise UsageError("--holdout must be >= 1")
    if args.k_max < 1:
        raise UsageError("--k-max must be >= 1")
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    params = _activation_params(args)
    corpus = _load_corpus(args.tweets, args.follows)
    train, test = chronological_split(corpus, per_user_holdout=args.holdout)
    reports = run_eval(
        train,
        test,
        scenario=args.scenario,
        algorithms=algorithms,
        params=params,
        lambda_weight=args.lambda_weight,
        k_max=args.k_max,
        threads=args.threads,
    )
    payload = {
        "scenario": args.scenario,
        "holdout": args.holdout,
        "k_max": args.k_max,
        "n_test_queries": reports[algorithms[0]].n_test_queries,
        "algorithms": {name: reports[name].to_dict() for name in algorithms},
    }
    _write_text_atomic(
        os.path.join(args.out, "metrics.json"),
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )
    lines = ["algorithm,k,precision,recall"]
    for name in algorithms:
        for k, precision, recall in pr_curve(reports[name]):
            lines.append(f"{name},{k},{precision!r},{recall!r}")
    _write_text_atomic(os.path.join(args.out, "pr_curve.csv"), "\n".join(lines) + "\n")
    logger.info("wrote metrics.json and pr_curve.csv to %s", args.out)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "recommend": _cmd_recommend,
    "evaluate": _cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems; fold the
        # latter into this tool's usage-error code.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
