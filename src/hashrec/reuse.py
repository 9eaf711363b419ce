"""Reuse categorization and temporal decay analysis.

Every hashtag assignment is classified by where the tag could have been
picked up: the user's own earlier tweets, the earlier tweets of accounts
they follow, both, anywhere else in the corpus, or nowhere (first ever
use).  Reuse ages are then histogrammed on a log-spaced grid and fit
with a straight line in log-log space to estimate the decay exponent.
Both read one replay of the usage columns of ``Corpus.index`` with
numpy (``replay``), run once per corpus and cached as
``Corpus.reuse_replay``; ``categorize_assignment`` is the per-assignment
definition the tests check them against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from hashrec.corpus import Corpus, FollowGraph, Timestamp, UsageIndex, _frozen

BUCKETS_PER_DECADE = 20

TIME_UNIT_SECONDS = {"seconds": 1, "hours": 3600, "days": 86400}

_NO_KEYS = np.empty(0, dtype=np.int64)


class ReuseCategory(enum.Enum):
    """Origin of a hashtag assignment relative to strictly earlier uses."""

    INDIVIDUAL = "individual"
    SOCIAL = "social"
    INDIVIDUAL_SOCIAL = "individual_social"
    NETWORK = "network"
    EXTERNAL = "external"


def categorize_assignment(
    index: UsageIndex,
    graph: FollowGraph,
    user_id: str,
    hashtag: str,
    now: Timestamp,
) -> ReuseCategory:
    """Classify one assignment against strictly earlier usage events.

    Own earlier use and followee earlier use combine into
    INDIVIDUAL_SOCIAL; either alone gives INDIVIDUAL or SOCIAL; an
    earlier use by anyone else gives NETWORK; no earlier use at all is
    EXTERNAL.  Events at exactly ``now`` never count.  Each question
    looks for the hashtag among the tags of one cut of the index.
    """
    cuts = (index.uses_before((user_id,), now)[1], index.uses_before(graph.followees(user_id), now)[1])
    return _category(*(hashtag in map(index.tags.__getitem__, ids.tolist()) for ids in (*cuts, index.ids_before(now))))


def _category(own: bool, social: bool, anywhere: bool) -> ReuseCategory:
    """The five-way rule shared by the oracle and ``category_distribution``."""
    if own:
        return ReuseCategory.INDIVIDUAL_SOCIAL if social else ReuseCategory.INDIVIDUAL
    if social:
        return ReuseCategory.SOCIAL
    return ReuseCategory.NETWORK if anywhere else ReuseCategory.EXTERNAL


def replay(corpus: Corpus) -> dict[str, np.ndarray]:
    """Pair every use with the latest strictly earlier use of its tag, in
    the user's column ("individual") and in the followees' columns
    ("social"), and keep only "codes", the count of uses per 3-bit
    category code, and per kind the age in seconds of every reuse.
    ``corpus.reuse_replay`` runs it once per corpus.

    Uses pack into int64 keys ``tag * len(distinct) + rank`` (rank among
    the distinct times), so a sorted history groups by tag, then time,
    and a "left" search for a use's key lands just past that earlier
    use; a use in the same second has the same key and does not count.
    """
    index = corpus.index
    times = index.times
    # The column is sorted, so each distinct time starts a run; np.unique would hash it.
    distinct = times[np.concatenate(([True], times[1:] != times[:-1]))[: times.size]]
    stride = max(distinct.size, 1)
    keys = {
        user: np.sort(ids.astype(np.int64) * stride + distinct.searchsorted(user_times))
        for user, (user_times, ids) in index.columns.items()
    }
    latest: dict[str, list[np.ndarray]] = {"individual": [], "social": []}
    for user, own in keys.items():
        followed = [keys[f] for f in corpus.graph.followees(user) if f in keys]
        for kind, sources in (("individual", [own]), ("social", followed)):
            # -1 is below every key: a use with no earlier one finds it.
            history = np.concatenate([[-1], *sources])
            if len(sources) > 1:
                history.sort()
            latest[kind].append(history[history.searchsorted(own) - 1])
    uses = np.concatenate([_NO_KEYS, *keys.values()])
    del keys
    tag, rank = np.divmod(uses, stride)
    uses -= rank
    # The time rank of each use's latest earlier use of the kind, negative if none.
    own, social = (np.concatenate([_NO_KEYS, *latest[kind]]) - uses for kind in latest)
    del latest, uses
    _, first = np.unique(index.ids, return_index=True)
    codes = 4 * (own >= 0) + 2 * (social >= 0) + (distinct.searchsorted(times[first])[tag] < rank)
    ages = {
        kind: _frozen((distinct[rank[found >= 0]] - distinct[found[found >= 0]]).astype(float))
        for kind, found in (("individual", own), ("social", social))
    }
    return {"codes": _frozen(np.bincount(codes, minlength=8)), **ages}


def category_distribution(corpus: Corpus) -> dict[ReuseCategory, tuple[int, float]]:
    """Count and share of every category over all hashtag assignments.

    Each assignment is judged only against strictly earlier events, so
    same-timestamp tweets cannot see each other.  It gets a 3-bit code
    (own earlier use, followee earlier use, first global use earlier);
    the corpus's replay counts the codes and ``_category`` maps all
    eight.  All five categories appear; shares are zero for an empty
    corpus.
    """
    counts = {category: 0 for category in ReuseCategory}
    for code, count in enumerate(corpus.reuse_replay["codes"].tolist()):
        counts[_category(bool(code & 4), bool(code & 2), bool(code & 1))] += count
    total = sum(counts.values())
    return {
        category: (count, count / total if total else 0.0)
        for category, count in counts.items()
    }


@dataclass(frozen=True)
class AgeHistogram:
    """Counts of reuse ages over strictly increasing bucket edges.

    Edges and counts satisfy ``len(edges) == len(counts) + 1``; ages at
    the right edge of the last bucket are included in it.
    """

    edges: np.ndarray
    counts: np.ndarray
    time_unit: str

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.counts) + 1:
            raise ValueError("edges must have exactly one more entry than counts")
        if not np.all(np.diff(self.edges) > 0):
            raise ValueError("edges must be strictly increasing")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    def midpoints(self) -> np.ndarray:
        """Geometric midpoint of every bucket."""
        return np.sqrt(self.edges[:-1] * self.edges[1:])


def log_bucket_edges(min_age: float, max_age: float) -> np.ndarray:
    """Log-spaced edges 10**(i/BUCKETS_PER_DECADE) covering [min_age, max_age]."""
    if min_age <= 0 or max_age < min_age:
        raise ValueError("ages must be positive with max_age >= min_age")
    lo = math.floor(BUCKETS_PER_DECADE * math.log10(min_age))
    hi = math.ceil(BUCKETS_PER_DECADE * math.log10(max_age))
    # Float rounding in log10 can push the computed edge past the
    # extreme age; widen by one step so every age lands in a bucket.
    while 10.0 ** (lo / BUCKETS_PER_DECADE) > min_age:
        lo -= 1
    while 10.0 ** (hi / BUCKETS_PER_DECADE) < max_age:
        hi += 1
    if hi == lo:
        hi += 1
    exponents = np.arange(lo, hi + 1, dtype=float) / BUCKETS_PER_DECADE
    return np.power(10.0, exponents)


def reuse_age_histogram(corpus: Corpus, kind: str = "individual", time_unit: str = "seconds") -> AgeHistogram:
    """Histogram reuse ages on a log-spaced grid.

    ``kind`` selects which history defines a reuse: "individual" pairs
    each assignment with the user's own most recent earlier use of the
    tag, "social" with the most recent earlier use among followees.
    Ages are converted to ``time_unit`` and clamped below at one unit so
    the log grid is always applicable.  A corpus with no reuses of the
    requested kind yields a single all-zero bucket.  A unit longer than
    a second is refused when the corpus spans less than one unit.
    """
    if kind not in ("individual", "social"):
        raise ValueError(f"unknown reuse kind {kind!r}")
    if time_unit not in TIME_UNIT_SECONDS:
        raise ValueError(f"unknown time unit {time_unit!r}")
    unit = TIME_UNIT_SECONDS[time_unit]
    if unit > 1 and len(corpus.tweets) >= 2 and corpus.span_seconds() < unit:
        raise ValueError(
            f"time unit {time_unit!r} is coarser than the corpus span "
            f"({corpus.span_seconds()} s)"
        )
    ages = np.maximum(corpus.reuse_replay[kind] / unit, 1.0)
    lo, hi = (float(ages.min()), float(ages.max())) if ages.size else (1.0, 10.0 ** (1.0 / BUCKETS_PER_DECADE))
    edges = log_bucket_edges(lo, hi)
    counts, _ = np.histogram(ages, bins=edges)
    return AgeHistogram(edges=edges, counts=counts.astype(int), time_unit=time_unit)


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares line through (ln age, ln count) bucket points."""

    slope: float
    intercept: float
    r_squared: float


def fit_power_law(hist: AgeHistogram) -> PowerLawFit:
    """Fit ln(count) = slope * ln(age midpoint) + intercept by least squares.

    Only buckets with positive counts participate; fewer than two such
    buckets is an error.  r_squared is 1 - SS_res/SS_tot, defined as 1.0
    when the log-counts are constant (SS_tot = 0), and clamped to [0, 1].
    """
    mask = hist.counts > 0
    if int(mask.sum()) < 2:
        raise ValueError("need at least two positive buckets to fit")
    x = np.log(hist.midpoints()[mask])
    y = np.log(hist.counts[mask].astype(float))
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.dot(residuals, residuals))
    centered = y - y.mean()
    ss_tot = float(np.dot(centered, centered))
    if ss_tot == 0.0:
        r_squared = 1.0 if math.isclose(ss_res, 0.0, abs_tol=1e-12) else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    r_squared = min(1.0, max(0.0, r_squared))
    return PowerLawFit(slope=float(slope), intercept=float(intercept), r_squared=r_squared)
