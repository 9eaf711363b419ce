"""Recommend hashtags for one user from activation of past usage.

Each candidate hashtag gets a base-level activation ln(sum age^-d) over
its usage history; recent and frequent tags score high, stale ones
decay away.  The user's own history and their followees' histories are
softmax-normalized separately and mixed with weight beta, and a hybrid
variant blends in tf-idf evidence from the words of the tweet being
written.  Run:

    python3 demos/03_recommendation.py
"""

from hashrec import (
    ActivationParams,
    FollowGraph,
    Tweet,
    build_corpus,
    build_profiles,
    recommend_bll_is,
    recommend_bll_isc,
)

HOUR = 3600
tweets = [
    # alice used #python often but long ago, #rust rarely but recently
    Tweet("t01", "alice", 0 * HOUR, frozenset({"python"}), ("typing", "generics")),
    Tweet("t02", "alice", 1 * HOUR, frozenset({"python"}), ("asyncio", "await")),
    Tweet("t03", "alice", 2 * HOUR, frozenset({"python"}), ("decorators",)),
    Tweet("t04", "alice", 47 * HOUR, frozenset({"rust"}), ("borrow", "checker")),
    # bob, whom alice follows, is all about #gamedev
    Tweet("t05", "bob", 40 * HOUR, frozenset({"gamedev"}), ("shader", "pipeline")),
    Tweet("t06", "bob", 46 * HOUR, frozenset({"gamedev"}), ("physics", "engine")),
    # carol is not followed by alice: her tags shouldn't reach alice
    Tweet("t07", "carol", 45 * HOUR, frozenset({"knitting"}), ("wool",)),
]
graph = FollowGraph(edges={"alice": frozenset({"bob"})})
corpus = build_corpus(tweets, graph)
index = corpus.index
now = 48 * HOUR

print("alice's history: #python x3 (two days old), #rust x1 (an hour old)")
print("bob (followed):  #gamedev x2 (recent);  carol (not followed): #knitting\n")

for beta in (1.0, 0.5, 0.0):
    ranked = recommend_bll_is(index, graph, "alice", now, ActivationParams(beta=beta), k=5)
    pretty = ", ".join(f"#{tag} {score:.3f}" for tag, score in ranked)
    print(f"beta={beta:3.1f} (own history weight): {pretty}")

print("\nwith decay d=0.1 (slow forgetting) frequency dominates; "
      "d=1.5 (fast) recency dominates:")
for d in (0.1, 1.5):
    params = ActivationParams(d_individual=d, d_social=d, beta=1.0)
    ranked = recommend_bll_is(index, graph, "alice", now, params, k=2)
    print(f"  d={d:3.1f}: " + ", ".join(f"#{tag} {score:.3f}" for tag, score in ranked))

profile = build_profiles(corpus)
drafts = [("typing", "stubs"), ("shader", "tricks")]
print("\nhybrid ranking while alice drafts a tweet (lambda=0.5):")
for tokens in drafts:
    ranked = recommend_bll_isc(
        index, graph, profile, "alice", now, tokens, lambda_weight=0.5, k=3
    )
    pretty = ", ".join(f"#{tag} {score:.3f}" for tag, score in ranked)
    print(f"  draft {' '.join(tokens)!r:<20} -> {pretty}")
