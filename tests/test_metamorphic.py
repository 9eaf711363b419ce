"""Metamorphic properties of the recommenders, checked with hypothesis.

Every recommender may read only uses strictly before the query time,
and only time differences matter to it.  So:

- shifting every timestamp and ``now`` by one constant leaves its
  output unchanged, bit for bit;
- appending tweets at or after ``now`` leaves its output unchanged;
- relabelling users and hashtags with an order-preserving map maps its
  output to match, because ties break by hashtag and followees are
  pooled in user order.

The reuse analysis (categories and both age histograms) also depends
on time differences only, so the shift leaves it unchanged too.

``bll_isc`` scores a fixed query text on the content profile of the
tweets strictly before ``now`` (``profiles_before``), so it takes part
in all three properties; tweets carry optional text for it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from hashrec.activation import ActivationParams, recommend_bll_is
from hashrec.baselines import most_recent, mp_global, mp_social, mp_user
from hashrec.content import profiles_before, recommend_bll_isc
from hashrec.corpus import FollowGraph, Tweet, build_corpus
from hashrec.reuse import category_distribution, reuse_age_histogram

K = 5
PARAMS = ActivationParams(d_individual=0.6, d_social=0.4, beta=0.3)
USERS = ["u0", "u1", "u2", "u3"]
TAGS = ["a", "b", "c", "é", "日本"]
WORDS = ["red", "blue", "green"]
QUERY = ("red", "blue", "red")

RECOMMENDERS = {
    "bll_is": lambda index, graph, profile, user, now: recommend_bll_is(index, graph, user, now, PARAMS, K),
    "bll_isc": lambda index, graph, profile, user, now: recommend_bll_isc(
        index, graph, profile, user, now, QUERY, PARAMS, 0.5, K
    ),
    "mp": lambda index, graph, profile, user, now: mp_global(index, now, K),
    "mp_u": lambda index, graph, profile, user, now: mp_user(index, user, now, K),
    "mp_s": lambda index, graph, profile, user, now: mp_social(index, graph, user, now, K),
    "mr": lambda index, graph, profile, user, now: most_recent(index, user, now, K),
}

texts = st.none() | st.lists(st.sampled_from(WORDS), max_size=3).map(tuple)
rows = st.lists(
    st.tuples(
        st.sampled_from(USERS),
        st.integers(0, 1_000),
        st.frozensets(st.sampled_from(TAGS), min_size=1, max_size=3),
        texts,
    ),
    max_size=30,
)
graphs = st.dictionaries(st.sampled_from(USERS), st.frozensets(st.sampled_from(USERS), max_size=3)).map(
    lambda edges: FollowGraph(edges={u: vs - {u} for u, vs in edges.items()})
)


def corpus_of(rows, graph):
    tweets = [Tweet(f"t{i:03d}", user, time, tags, text) for i, (user, time, tags, text) in enumerate(rows)]
    return build_corpus(tweets, graph)


def outputs(rows, graph, now, users=USERS):
    corpus = corpus_of(rows, graph)
    profile = next(profiles_before(corpus, [now]))
    return {
        name: [recommend(corpus.index, graph, profile, user, now) for user in users]
        for name, recommend in RECOMMENDERS.items()
    }


def sorted_labels(n):
    return st.lists(st.text(min_size=1, max_size=4), min_size=n, max_size=n, unique=True).map(sorted)


@settings(max_examples=150, deadline=None)
@given(rows=rows, graph=graphs, now=st.integers(0, 1_100), shift=st.integers(1, 2**40))
def test_shifting_every_time_changes_nothing(rows, graph, now, shift):
    shifted = [(user, time + shift, tags, text) for user, time, tags, text in rows]
    assert outputs(shifted, graph, now + shift) == outputs(rows, graph, now)


def analysis(rows, graph):
    corpus = corpus_of(rows, graph)
    hists = [reuse_age_histogram(corpus, kind) for kind in ("individual", "social")]
    return category_distribution(corpus), [(hist.edges.tolist(), hist.counts.tolist()) for hist in hists]


@settings(max_examples=150, deadline=None)
@given(rows=rows, graph=graphs, shift=st.integers(1, 2**40))
def test_shifting_every_time_leaves_the_reuse_analysis_unchanged(rows, graph, shift):
    # Shifts past 2**32 would break a key that packs the time into the
    # low 32 bits.
    shifted = [(user, time + shift, tags, text) for user, time, tags, text in rows]
    assert analysis(shifted, graph) == analysis(rows, graph)


@settings(max_examples=150, deadline=None)
@given(
    rows=rows,
    graph=graphs,
    now=st.integers(0, 1_100),
    late=st.lists(
        st.tuples(
            st.sampled_from(USERS),
            st.integers(0, 500),
            st.frozensets(st.sampled_from(TAGS + ["late"]), min_size=1, max_size=3),
            texts,
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_tweets_at_or_after_now_change_nothing(rows, graph, now, late):
    appended = rows + [(user, now + offset, tags, text) for user, offset, tags, text in late]
    assert outputs(appended, graph, now) == outputs(rows, graph, now)


@settings(max_examples=150, deadline=None)
@given(
    rows=rows,
    graph=graphs,
    now=st.integers(0, 1_100),
    user_labels=sorted_labels(len(USERS)),
    tag_labels=sorted_labels(len(TAGS)),
)
def test_order_preserving_relabelling_maps_the_outputs(rows, graph, now, user_labels, tag_labels):
    user_map = dict(zip(sorted(USERS), user_labels))
    tag_map = dict(zip(sorted(TAGS), tag_labels))
    relabelled_rows = [
        (user_map[user], time, frozenset(map(tag_map.get, tags)), text) for user, time, tags, text in rows
    ]
    relabelled_graph = FollowGraph(
        edges={user_map[u]: frozenset(map(user_map.get, vs)) for u, vs in graph.edges.items()}
    )
    expected = {
        name: [[(tag_map[tag], score) for tag, score in ranked] for ranked in per_user]
        for name, per_user in outputs(rows, graph, now).items()
    }
    assert outputs(relabelled_rows, relabelled_graph, now, [user_map[u] for u in USERS]) == expected
