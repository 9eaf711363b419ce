#!/usr/bin/env python3
"""End-to-end benchmark of hashrec: generate, load, analyze, evaluate, recommend.

One process runs one workload, single-threaded, and calls the package's
public functions in the order the CLI does.  Every phase is timed, the
outputs are checked against the oracles in ``oracles.py``, and the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the package's public functions are wrapped in spans (``tracing.py``) and
the metrics are per layer.  Usage::

    python3 bench/run.py --workload accept --seed 1 --seconds 55 --trace 0
"""

from __future__ import annotations

import os

# One process, one thread: numpy's BLAS (used by the power-law fit) must
# not start a pool of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from oracles import ContentReplay, HistoryOracle, hybrid_scores, recall_at_k, recount_categories, same_top_k
from tracing import Tracer, install, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

K = 10
LAMBDA = 0.5
# Scenario-1 algorithms of every workload; mp runs separately on fewer queries.
ALGORITHMS = ("bll_is", "bll_isc", "mp_u", "mp_s", "mr")
# Fewest pipeline passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3
TAIL_SAMPLES = 10

# ACCEPT_CONFIG of tests/test_acceptance.py, minus its seed.
ACCEPT = dict(
    n_users=550,
    n_tweets=120_000,
    follow_prob=0.01,
    p_individual=0.45,
    p_social=0.22,
    alpha=1.0,
    zipf_s=0.6,
    vocab_size=50_000,
)


@dataclass(frozen=True)
class Workload:
    """One corpus shape and the work run on it.

    ``queries`` held-out tweets are sampled (seeded) for the recommend
    loop; ``eval_queries`` of them are scored by ``run_eval`` with
    ``ALGORITHMS`` in scenario 1, and ``mp_queries`` of those also by
    ``mp`` (0 leaves ``mp`` out).  ``text_eval`` adds ``bll_isc`` in
    scenario 2.
    """

    config: dict
    holdout: int
    queries: int
    eval_queries: int
    mp_queries: int
    text_eval: bool


WORKLOADS = {
    "accept": Workload(
        config=dict(ACCEPT, n_users=280, n_tweets=60_000, follow_prob=0.02, vocab_size=25_000),
        holdout=1,
        queries=200,
        eval_queries=60,
        mp_queries=20,
        text_eval=True,
    ),
    "dense": Workload(
        config=dict(ACCEPT, n_users=60, n_tweets=60_000, follow_prob=0.05, vocab_size=2_000),
        holdout=4,
        queries=200,
        eval_queries=60,
        mp_queries=60,
        text_eval=False,
    ),
}


def percentile(samples: list[float], q: float) -> float:
    """Linearly interpolated q-th percentile (0 <= q <= 100)."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples: list[float], q: float) -> float:
    """The q-th percentile, refused unless ten samples lie beyond it."""
    value = percentile(samples, q)
    beyond = sum(1 for s in samples if s > value)
    if beyond < TAIL_SAMPLES:
        raise ValueError(f"p{q:g} of {len(samples)} samples has {beyond} beyond it (need {TAIL_SAMPLES})")
    return value


def leak_probe(hashrec):
    """A fixed three-tweet corpus on which the content model can leak.

    User "a" asks at time 250.  Query 0's token is known before 250.
    Query 1's token "gamma" occurs only in a tweet at 300, after the
    query time, so a profile that sees it ranks #late first although no
    strictly earlier evidence points to it.
    """
    tweets = [
        hashrec.Tweet("p1", "a", 100, frozenset({"x"}), ("alpha",)),
        hashrec.Tweet("p2", "a", 200, frozenset({"y"}), ("beta",)),
        hashrec.Tweet("p3", "b", 300, frozenset({"late"}), ("gamma",)),
    ]
    corpus = hashrec.build_corpus(tweets, hashrec.FollowGraph(edges={"a": frozenset({"b"})}))
    queries = [("a", 250, ("beta",)), ("a", 250, ("gamma",))]
    return corpus, queries


@dataclass
class Run:
    """Phase times, per-round latency samples and operation counts."""

    phases: dict[str, list[float]] = field(default_factory=dict)
    is_ms: list[list[float]] = field(default_factory=list)
    isc_ms: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    unstable: int = 0
    probe_failed: int = 0
    passes: int = 0


def load_package():
    """Import hashrec from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hashrec

    if not Path(hashrec.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hashrec imported from {hashrec.__file__}, not from {src}")
    return hashrec


def run_workload(hashrec, name: str, seed: int, seconds: float, tracer: Tracer | None, threads: int):
    """Run the whole pipeline again and again for about ``seconds``.

    Every pass repeats generate, set-up, analyze, evaluate and one
    recommend round from scratch on the same seed, so each phase is
    timed once per pass and its samples are spread over the whole run,
    not bunched in one stretch of a shared machine.  A new pass starts
    only if a pass of average length still ends within ``seconds``; at
    least ``MIN_PASSES`` passes run.  The recommend rounds use the
    first pass's training index.  Every pass must reproduce the first
    pass's outputs.
    """
    work = WORKLOADS[name]
    params = hashrec.ActivationParams()
    run = Run()
    facts: dict = {}

    @contextmanager
    def phase(label: str):
        with tracer.span(f"phase.{label}") if tracer else nullcontext():
            start = time.perf_counter()
            yield
            run.phases.setdefault(label, []).append(time.perf_counter() - start)

    probe_corpus, probe_queries = leak_probe(hashrec)
    probe_index = hashrec.build_usage_index(probe_corpus)
    probe_profile = hashrec.build_profiles(probe_corpus)
    probe_recommend = hashrec.recommend_bll_isc

    def probe() -> list:
        return [
            probe_recommend(probe_index, probe_corpus.graph, probe_profile, user, now, tokens, params, LAMBDA, K)
            for user, now, tokens in probe_queries
        ]

    restore = install(tracer) if tracer else (lambda: None)
    workdir = OUT_DIR / f"{name}-s{seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tweets_path, follows_path = workdir / "tweets.jsonl", workdir / "follows.tsv"
    config = hashrec.GenConfig(**work.config, seed=seed)
    index = profile = graph = queries = None
    first: list = []
    first_outputs = None
    repeatable = True
    started = time.perf_counter()
    try:
        while run.passes < MIN_PASSES or time.perf_counter() - started < seconds * run.passes / (run.passes + 1):
            corpus = train = None
            with phase("generate"):
                result = hashrec.generate(config)
                tweets_path.write_text(result.tweets_jsonl, encoding="utf-8")
                follows_path.write_text(result.follows_tsv, encoding="utf-8")
            facts["tweets"] = result.stats.n_tweets
            del result

            with phase("setup"):
                corpus = hashrec.build_corpus(
                    hashrec.load_tweets(str(tweets_path)), hashrec.load_follows(str(follows_path))
                )

            with phase("analyze"):
                distribution = hashrec.category_distribution(corpus)
                hists = {kind: hashrec.reuse_age_histogram(corpus, kind=kind) for kind in ("individual", "social")}
                fits = {kind: hashrec.fit_power_law(hist) for kind, hist in hists.items()}

            with phase("evaluate"):
                train, test = hashrec.chronological_split(corpus, per_user_holdout=work.holdout)
                if len(test) < work.queries:
                    raise RuntimeError(f"{len(test)} held-out queries, workload needs {work.queries}")
                rng = random.Random(f"{name}:{seed}")
                sampled = sorted(rng.sample(test, work.queries), key=hashrec.Tweet.sort_key)
                evaluated = sorted(rng.sample(range(work.queries), work.eval_queries))
                mp_sample = sorted(rng.sample(evaluated, work.mp_queries))
                eval_set = [sampled[i] for i in evaluated]
                reports = hashrec.run_eval(train, eval_set, 1, ALGORITHMS, params, LAMBDA, K, threads)
                if mp_sample:
                    mp_set = [sampled[i] for i in mp_sample]
                    reports["mp"] = hashrec.run_eval(train, mp_set, 1, ["mp"], params, LAMBDA, K, threads)["mp"]
                if work.text_eval:
                    text = hashrec.run_eval(train, eval_set, 2, ["bll_isc"], params, LAMBDA, K, threads)["bll_isc"]
            del test

            outputs = (distribution, fits, reports, text if work.text_eval else None)
            if first_outputs is None:
                first_outputs = outputs
            else:
                repeatable = repeatable and outputs == first_outputs

            if index is None:
                with phase("recommend_setup"):
                    index = hashrec.build_usage_index(train)
                    profile = hashrec.build_profiles(train)
                graph, queries = train.graph, sampled
            with phase("recommend"):
                recommend_round(hashrec, run, first, queries, index, graph, profile, params, probe)
            run.passes += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        restore()
        shutil.rmtree(workdir, ignore_errors=True)

    facts.update(
        users=len(corpus.users),
        events=index.n_events,
        hashtags=len({tag for tweet in train.tweets for tag in tweet.hashtags}),
        profile_pairs=sum(len(row) for row in profile.assoc.values()),
        assignments=sum(count for count, _ in distribution.values()),
        eval_queries=len(eval_set) * (1 + work.text_eval) + len(mp_sample),
    )

    # The checks are not timed; keep the collector from rescanning the
    # corpus on every allocation burst they make.
    gc.freeze()
    check_start = time.perf_counter()
    first_is, first_isc, probe_first = first
    checks, loads, leaky = check_outputs(
        hashrec, work, corpus, train, queries, evaluated, mp_sample, reports, distribution, fits,
        first_is, first_isc, probe_corpus, probe_queries, probe_first, params,
    )
    checks["every pass reproduces the first pass's analysis and evaluation"] = repeatable
    run.phases["checks"] = [time.perf_counter() - check_start]
    run.probe_failed = sum(1 for ok in checks.pop("probe") if not ok)
    facts["uses_per_query"] = statistics.fmean(u for u, _ in loads)
    facts["candidates_per_query"] = statistics.fmean(c for _, c in loads)
    facts["leaky_queries"] = leaky
    if work.text_eval:
        facts["text_recall_at_5"] = text.recall[4]
    facts["fits"] = {kind: (fit.slope, fit.r_squared) for kind, fit in fits.items()}
    facts["recall_at_5"] = {algo: report.recall[4] for algo, report in reports.items()}
    return run, checks, facts, peak_rss_mb


def recommend_round(hashrec, run, first, queries, index, graph, profile, params, probe) -> None:
    """Every query through both recommenders, then the leak probe.

    The first round's rankings go to ``first`` for the checks; a later
    round that returns anything else counts as a failed operation.
    """
    clock = time.perf_counter
    is_ms, isc_ms, ranked_is, ranked_isc = [], [], [], []
    for query in queries:
        t0 = clock()
        ranked_is.append(hashrec.recommend_bll_is(index, graph, query.user_id, query.time, params, K))
        t1 = clock()
        ranked_isc.append(hashrec.recommend_bll_isc(
            index, graph, profile, query.user_id, query.time, query.tokens, params, LAMBDA, K
        ))
        t2 = clock()
        is_ms.append((t1 - t0) * 1000.0)
        isc_ms.append((t2 - t1) * 1000.0)
    probed = probe()
    run.is_ms.append(is_ms)
    run.isc_ms.append(isc_ms)
    run.attempted += 2 * len(queries) + len(probed)
    if not first:
        first.extend((ranked_is, ranked_isc, probed))
    else:
        for new, old in zip((ranked_is, ranked_isc, probed), first):
            run.unstable += sum(a != b for a, b in zip(new, old))


def check_outputs(hashrec, work, corpus, train, queries, evaluated, mp_sample, reports, distribution, fits,
                  first_is, first_isc, probe_corpus, probe_queries, probe_first, params):
    """Every correctness check; returns (named results, query loads, leaky count)."""
    checks: dict = {}
    readers = {query.user_id for query in queries}
    readers.update(*(train.graph.followees(user) for user in list(readers)))
    history = HistoryOracle(train.tweets, train.graph, readers)
    replay = ContentReplay(train.tweets, {token for query in queries for token in query.tokens or ()})
    loads = []
    disagreements = []
    is_bad = 0
    for query, ranked_is, ranked_isc in zip(queries, first_is, first_isc):
        bll = history.bll_scores(query.user_id, query.time, params)
        is_bad += not same_top_k(ranked_is, bll, K)
        replay.advance(query.time)
        if not same_top_k(ranked_isc, hybrid_scores(bll, replay.scores(query.tokens or ()), LAMBDA), K):
            disagreements.append((ranked_isc, bll, query.tokens or ()))
        loads.append(history.query_load(query.user_id, query.time))
    # The known fault: the profile counts every training tweet, also
    # those at or after the query time.  A disagreement that the whole
    # training set explains is that leak; anything else is new.
    replay.advance(math.inf)
    leaky = sum(same_top_k(ranked, hybrid_scores(bll, replay.scores(tokens), LAMBDA), K)
                for ranked, bll, tokens in disagreements)
    isc_bad = len(disagreements) - leaky
    checks["bll_is matches numpy oracle"] = is_bad == 0
    checks["bll_isc matches leak-free oracle or the known leak"] = isc_bad == 0

    probe_history = HistoryOracle(probe_corpus.tweets, probe_corpus.graph, probe_corpus.users)
    probe_clean = ContentReplay(probe_corpus.tweets, {token for _, _, tokens in probe_queries for token in tokens})
    probe_ok = []
    for (user, now, tokens), ranked in zip(probe_queries, probe_first):
        probe_clean.advance(now)
        oracle = hybrid_scores(probe_history.bll_scores(user, now, params), probe_clean.scores(tokens), LAMBDA)
        probe_ok.append(same_top_k(ranked, oracle, K))
    checks["probe"] = probe_ok

    recount = recount_categories(corpus.tweets, corpus.graph)
    checks["reuse categories match direct recount"] = all(
        recount.get(category.value, 0) == count for category, (count, _) in distribution.items()
    )
    fit = fits["individual"]
    checks["planted individual decay recovered"] = (
        abs(fit.slope + work.config["alpha"]) <= 0.1 and fit.r_squared >= 0.95
    )

    rankings = [[tag for tag, _ in ranked] for ranked in first_is]
    relevant = [query.hashtags for query in queries]

    def recount(positions: list[int], k: int) -> float:
        return recall_at_k([rankings[i] for i in positions], [relevant[i] for i in positions], k)

    bll_recall = reports["bll_is"].recall
    checks["run_eval bll_is recall equals recount"] = all(
        abs(recount(evaluated, k) - bll_recall[k - 1]) <= 1e-12 for k in range(1, K + 1)
    )
    checks["per-query recall non-decreasing in k"] = all(
        all(a <= b for a, b in zip(row, row[1:]))
        for row in (hashrec.query_metrics(r, q.hashtags, K)["recall"] for r, q in zip(first_is, queries))
    )
    checks["bll_is beats mp_u by 0.02 at Recall@5"] = bll_recall[4] >= reports["mp_u"].recall[4] + 0.02
    if mp_sample:
        checks["bll_is beats mp by 0.02 at Recall@5"] = recount(mp_sample, 5) >= reports["mp"].recall[4] + 0.02
    return checks, loads, leaky


def end_to_end_metrics(run: Run, peak_rss_mb: float) -> dict:
    """Median pass of each phase; a query's latency is its median over
    the rounds, and the percentiles run over queries."""
    typical_is = [statistics.median(calls) for calls in zip(*run.is_ms)]
    typical_isc = [statistics.median(calls) for calls in zip(*run.isc_ms)]
    return {
        "generate_s": (statistics.median(run.phases["generate"]), "s"),
        "setup_s": (statistics.median(run.phases["setup"]), "s"),
        "analyze_s": (statistics.median(run.phases["analyze"]), "s"),
        "evaluate_s": (statistics.median(run.phases["evaluate"]), "s"),
        "recommend_p50_ms": (percentile(typical_is, 50), "ms"),
        "recommend_p95_ms": (tail_percentile(typical_is, 95), "ms"),
        "recommend_text_p50_ms": (percentile(typical_isc, 50), "ms"),
        "recommend_text_p95_ms": (tail_percentile(typical_isc, 95), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer_metrics(tracer: Tracer, facts: dict, passes: int) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)
    phase_of = []
    for name, _, _, parent in spans:
        phase_of.append(name if parent < 0 else phase_of[parent])

    def durations(name: str, phase: str | None = None, own: bool = False) -> list[float]:
        return [
            selfs[i] if own else span[2] - span[1]
            for i, span in enumerate(spans)
            if span[0] == name and (phase is None or phase_of[i] == f"phase.{phase}")
        ]

    def median_s(name: str, phase: str | None = None, own: bool = False) -> float:
        return statistics.median(durations(name, phase, own))

    def pct_ms(name: str, q: float) -> float:
        return percentile(durations(name), q) * 1000.0

    mp_calls = len(durations("baselines.mp_global"))
    return {
        "synth.generate_s": (median_s("synth.generate"), "s"),
        "synth.tweets": (facts["tweets"], "count"),
        "corpus.load_tweets_s": (median_s("corpus.load_tweets", "setup"), "s"),
        "corpus.load_follows_s": (median_s("corpus.load_follows", "setup"), "s"),
        "corpus.build_corpus_s": (median_s("corpus.build_corpus", "setup"), "s"),
        "corpus.chronological_split_s": (median_s("corpus.chronological_split"), "s"),
        "corpus.build_usage_index_s": (median_s("corpus.build_usage_index"), "s"),
        "corpus.events": (facts["events"], "count"),
        "corpus.hashtags": (facts["hashtags"], "count"),
        "corpus.users": (facts["users"], "count"),
        "reuse.category_distribution_s": (median_s("reuse.category_distribution"), "s"),
        "reuse.histogram_individual_s": (median_s("reuse.histogram_individual"), "s"),
        "reuse.histogram_social_s": (median_s("reuse.histogram_social"), "s"),
        "reuse.fit_power_law_s": (median_s("reuse.fit_power_law"), "s"),
        "reuse.assignments": (facts["assignments"], "count"),
        "activation.recommend_bll_is_p50_ms": (pct_ms("activation.recommend_bll_is", 50), "ms"),
        "activation.recommend_bll_is_p95_ms": (pct_ms("activation.recommend_bll_is", 95), "ms"),
        "activation.individual_activations_s": (median_s("activation.individual_activations", own=True), "s"),
        "activation.social_activations_s": (median_s("activation.social_activations", own=True), "s"),
        "activation.uses_per_query": (facts["uses_per_query"], "count"),
        "activation.candidates_per_query": (facts["candidates_per_query"], "count"),
        "content.build_profiles_s": (median_s("content.build_profiles"), "s"),
        "content.content_scores_s": (median_s("content.content_scores"), "s"),
        "content.recommend_bll_isc_p50_ms": (pct_ms("content.recommend_bll_isc", 50), "ms"),
        "content.recommend_bll_isc_p95_ms": (pct_ms("content.recommend_bll_isc", 95), "ms"),
        "content.profile_pairs": (facts["profile_pairs"], "count"),
        "content.leaky_queries": (facts["leaky_queries"], "count"),
        "baselines.mp_global_p50_ms": (pct_ms("baselines.mp_global", 50), "ms"),
        "baselines.mp_global_p95_ms": (pct_ms("baselines.mp_global", 95), "ms"),
        "baselines.mp_hashtags_scanned": (tracer.calls.get("index.hashtags_yielded", 0) / mp_calls, "count"),
        "baselines.mp_user_p50_ms": (pct_ms("baselines.mp_user", 50), "ms"),
        "baselines.mp_social_p50_ms": (pct_ms("baselines.mp_social", 50), "ms"),
        "baselines.most_recent_p50_ms": (pct_ms("baselines.most_recent", 50), "ms"),
        "evaluation.run_eval_s": (sum(durations("evaluation.run_eval")) / passes, "s"),
        "evaluation.self_s": (sum(durations("evaluation.run_eval", own=True)) / passes, "s"),
        "evaluation.query_metrics_s": (sum(durations("evaluation.query_metrics")) / passes, "s"),
        "evaluation.queries": (facts["eval_queries"], "count"),
    }


def phase_self_shares(tracer: Tracer) -> dict[str, float]:
    """Per phase: the share of its time that no child span covers."""
    selfs = self_times(tracer.spans)
    totals: dict[str, list[float]] = {}
    for (name, start, end, parent), own in zip(tracer.spans, selfs):
        if parent < 0:
            entry = totals.setdefault(name, [0.0, 0.0])
            entry[0] += own
            entry[1] += end - start
    return {name: own / total for name, (own, total) in totals.items() if total > 0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="least time the pipeline passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1, help="run_eval threads (reference figures only)")
    args = parser.parse_args(argv)
    try:
        hashrec = load_package()
    except ImportError as exc:
        print(f"error: cannot import hashrec from this checkout: {exc}", file=sys.stderr)
        return 2

    seed = args.seed % 2**32
    tracer = Tracer() if args.trace else None
    run, checks, facts, peak_rss_mb = run_workload(hashrec, args.workload, seed, args.seconds, tracer, args.threads)

    attempted = run.attempted
    failed = len(run.is_ms) * run.probe_failed + run.unstable
    e2e = end_to_end_metrics(run, peak_rss_mb)
    metrics = per_layer_metrics(tracer, facts, run.passes) if tracer else e2e
    correct = all(checks.values())

    log = sys.stderr
    print(f"workload={args.workload} seed={seed} trace={args.trace} rounds={len(run.is_ms)} "
          f"queries={len(run.is_ms[0])} attempted={attempted} failed={failed}", file=log)
    print("phases: " + " ".join(f"{k}=" + ",".join(f"{t:.3f}" for t in v) for k, v in run.phases.items()), file=log)
    print(f"facts: {json.dumps(facts, sort_keys=True)}", file=log)
    for name, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}", file=log)
    if tracer:
        print("phase self share: " + " ".join(f"{k}={v:.4f}" for k, v in phase_self_shares(tracer).items()), file=log)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{seed}-t{args.trace}"
    saved = dict(result, end_to_end={k: v for k, (v, _) in e2e.items()}, checks=checks, facts=facts,
                 phases=run.phases, is_ms=run.is_ms, isc_ms=run.isc_ms)
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(saved, indent=1, sort_keys=True), encoding="utf-8")
    if tracer:
        tracer.write(str(OUT_DIR / f"spans-{stem}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
