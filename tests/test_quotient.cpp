// Differential tests for the incremental block quotient
// (src/partition/quotient.h). Seeded random DAGs are driven through long
// sequences of contractions, moves, rollbacks and renumberings; every
// would_cycle() answer is compared with a Kahn pass over the whole group
// quotient, written here independently of the engine, and the maintained
// state (assignment, group sizes, byte sums, topological order, and after
// a renumbering the arcs in order) is re-derived from scratch after every
// applied change.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <random>
#include <set>
#include <span>

#include "partition/quotient.h"

namespace rannc {
namespace {

struct Dag {
  int n = 0;
  std::vector<std::pair<int, int>> edges;  // comp level, may repeat
  std::vector<std::int64_t> params, act;
  std::vector<int> topo;                   // comps in a topological order
};

/// Random DAG on n comps: a hidden random topological order, each forward
/// pair joined with probability `density`, some edges doubled.
Dag random_dag(std::mt19937& rng, int n, double density) {
  Dag d;
  d.n = n;
  d.topo.resize(static_cast<std::size_t>(n));
  std::iota(d.topo.begin(), d.topo.end(), 0);
  std::shuffle(d.topo.begin(), d.topo.end(), rng);
  std::bernoulli_distribution edge(density), twice(0.15);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (edge(rng)) {
        const std::pair<int, int> e{d.topo[static_cast<std::size_t>(i)],
                                    d.topo[static_cast<std::size_t>(j)]};
        d.edges.push_back(e);
        if (twice(rng)) d.edges.push_back(e);
      }
  std::shuffle(d.edges.begin(), d.edges.end(), rng);
  std::uniform_int_distribution<std::int64_t> bytes(0, 1000);
  for (int i = 0; i < n; ++i) {
    d.params.push_back(bytes(rng));
    d.act.push_back(bytes(rng));
  }
  return d;
}

/// Oracle: does the quotient of `group_of_comp` have a cycle?
bool cyclic(const Dag& d, const std::vector<int>& group_of_comp) {
  const auto n = static_cast<std::size_t>(d.n);
  std::vector<std::set<int>> succ(n);
  std::vector<int> indeg(n, 0);
  for (auto [a, b] : d.edges) {
    const int ga = group_of_comp[static_cast<std::size_t>(a)];
    const int gb = group_of_comp[static_cast<std::size_t>(b)];
    if (ga != gb && succ[static_cast<std::size_t>(ga)].insert(gb).second)
      ++indeg[static_cast<std::size_t>(gb)];
  }
  std::set<int> live(group_of_comp.begin(), group_of_comp.end());
  std::deque<int> q;
  for (int g : live)
    if (indeg[static_cast<std::size_t>(g)] == 0) q.push_back(g);
  std::size_t popped = 0;
  while (!q.empty()) {
    const int u = q.front();
    q.pop_front();
    ++popped;
    for (int v : succ[static_cast<std::size_t>(u)])
      if (--indeg[static_cast<std::size_t>(v)] == 0) q.push_back(v);
  }
  return popped != live.size();
}

/// Re-derives everything the quotient maintains and compares.
void expect_consistent(const Dag& d, const QuotientGraph& q,
                       const std::vector<int>& group_of_comp) {
  ASSERT_EQ(q.group_of_comp(), group_of_comp);
  std::set<int> live(group_of_comp.begin(), group_of_comp.end());
  std::set<int> ranks;
  for (int g : live) {
    std::vector<int> expect;
    std::int64_t params = 0, act = 0;
    for (int c = 0; c < d.n; ++c)
      if (group_of_comp[static_cast<std::size_t>(c)] == g) {
        expect.push_back(c);
        params += d.params[static_cast<std::size_t>(c)];
        act += d.act[static_cast<std::size_t>(c)];
      }
    EXPECT_EQ(q.size(g), expect.size()) << "group " << g;
    EXPECT_EQ(q.params(g), params);
    EXPECT_EQ(q.act(g), act);
    EXPECT_TRUE(ranks.insert(q.rank(g)).second) << "duplicate rank";
  }
  for (auto [a, b] : d.edges) {
    const int ga = group_of_comp[static_cast<std::size_t>(a)];
    const int gb = group_of_comp[static_cast<std::size_t>(b)];
    if (ga != gb) {
      EXPECT_LT(q.rank(ga), q.rank(gb)) << ga << " -> " << gb;
    }
  }
}

/// Starting assignment: consecutive runs of the topological order (always
/// acyclic), with shuffled dense ids. Returns the ranks through `rank`.
std::vector<int> interval_groups(std::mt19937& rng, const Dag& d,
                                 std::vector<int>& rank) {
  std::vector<int> run_of(static_cast<std::size_t>(d.n));
  int runs = 0;
  std::bernoulli_distribution cut(0.6);
  for (int i = 0; i < d.n; ++i) {
    if (i > 0 && cut(rng)) ++runs;
    const int c = d.topo[static_cast<std::size_t>(i)];
    run_of[static_cast<std::size_t>(c)] = runs;
  }
  ++runs;
  std::vector<int> id(static_cast<std::size_t>(runs));
  std::iota(id.begin(), id.end(), 0);
  std::shuffle(id.begin(), id.end(), rng);
  rank.assign(static_cast<std::size_t>(runs), 0);
  for (int r = 0; r < runs; ++r)
    rank[static_cast<std::size_t>(id[static_cast<std::size_t>(r)])] = r;
  std::vector<int> group_of_comp(static_cast<std::size_t>(d.n));
  for (int c = 0; c < d.n; ++c)
    group_of_comp[static_cast<std::size_t>(c)] =
        id[static_cast<std::size_t>(run_of[static_cast<std::size_t>(c)])];
  return group_of_comp;
}

/// Renames the groups densely in order of their smallest comp, keeping
/// their order, and compares the result with the state reset() builds:
/// sums and ranks, and each group's arcs with multiplicities, in the order
/// of the first comp edge behind each.
void renumber_and_check(const Dag& d, QuotientGraph& q,
                        std::vector<int>& group_of_comp) {
  std::vector<int> new_id(static_cast<std::size_t>(d.n), -1);
  std::vector<int> rank;
  for (int g : group_of_comp)
    if (new_id[static_cast<std::size_t>(g)] < 0) {
      new_id[static_cast<std::size_t>(g)] = static_cast<int>(rank.size());
      rank.push_back(q.rank(g));
    }
  for (int& g : group_of_comp) g = new_id[static_cast<std::size_t>(g)];
  q.renumber(new_id, rank);
  expect_consistent(d, q, group_of_comp);

  using Arcs = std::vector<std::pair<int, int>>;  // (to, mult)
  std::vector<Arcs> succ(rank.size()), pred(rank.size());
  auto bump = [](Arcs& arcs, int to) {
    for (auto& [t, mult] : arcs)
      if (t == to) {
        ++mult;
        return;
      }
    arcs.emplace_back(to, 1);
  };
  for (auto [a, b] : d.edges) {
    const int ga = group_of_comp[static_cast<std::size_t>(a)];
    const int gb = group_of_comp[static_cast<std::size_t>(b)];
    if (ga == gb) continue;
    bump(succ[static_cast<std::size_t>(ga)], gb);
    bump(pred[static_cast<std::size_t>(gb)], ga);
  }
  auto arcs = [](std::span<const QuotientGraph::Arc> span) {
    Arcs out;
    for (const QuotientGraph::Arc& a : span) out.emplace_back(a.to, a.mult);
    return out;
  };
  for (std::size_t g = 0; g < rank.size(); ++g) {
    EXPECT_EQ(arcs(q.succ(static_cast<int>(g))), succ[g]) << "group " << g;
    EXPECT_EQ(arcs(q.pred(static_cast<int>(g))), pred[g]) << "group " << g;
  }
}

struct Tally {
  int accepted = 0;
  int rejected = 0;
};

/// One seeded episode. `local` picks the target among the groups ranked
/// next to the source, as compaction and balance refinement do (mostly
/// acyclic); otherwise targets are arbitrary groups of a denser DAG
/// (mostly cyclic).
Tally episode(std::uint32_t seed, bool local) {
  std::mt19937 rng(seed);
  const int n = std::uniform_int_distribution<int>(4, 40)(rng);
  const Dag d = random_dag(rng, n, local ? 0.12 : 0.35);
  std::vector<int> rank;
  std::vector<int> goc = interval_groups(rng, d, rank);
  QuotientGraph q(d.n, d.edges, d.params, d.act);
  q.reset(goc, rank);
  expect_consistent(d, q, goc);

  Tally tally;
  std::int64_t calls = 0;
  auto pick = [&rng](std::size_t k) {
    return std::uniform_int_distribution<std::size_t>(0, k - 1)(rng);
  };
  for (int step = 0; step < 60; ++step) {
    std::vector<int> live;
    for (int g = 0; g < d.n; ++g)
      if (q.size(g) > 0) live.push_back(g);
    if (live.size() < 2) break;
    const int h = live[pick(live.size())];
    // Contraction (all of h) or a move of a random non-empty subset.
    std::vector<int> sub;
    for (int c = 0; c < d.n; ++c)
      if (goc[static_cast<std::size_t>(c)] == h) sub.push_back(c);
    std::shuffle(sub.begin(), sub.end(), rng);
    if (std::bernoulli_distribution(0.5)(rng))
      sub.resize(1 + pick(sub.size()));
    std::vector<int> targets;
    if (local) {
      // The live groups ranked right before and right after h.
      int below = -1, above = -1;
      for (int g : live) {
        if (q.rank(g) < q.rank(h) && (below < 0 || q.rank(g) > q.rank(below)))
          below = g;
        if (q.rank(g) > q.rank(h) && (above < 0 || q.rank(g) < q.rank(above)))
          above = g;
      }
      for (int g : {below, above})
        if (g >= 0) targets.push_back(g);
    }
    if (targets.empty())
      for (int g : live)
        if (g != h) targets.push_back(g);
    const int t = targets[pick(targets.size())];

    std::vector<int> after = goc;
    for (int c : sub) after[static_cast<std::size_t>(c)] = t;
    const bool expect = cyclic(d, after);
    ++calls;
    EXPECT_EQ(q.would_cycle(sub, t), expect)
        << "seed " << seed << " step " << step << " move " << sub.size()
        << " comps " << h << " -> " << t;
    if (expect) {
      ++tally.rejected;
      continue;
    }
    ++tally.accepted;
    q.move(sub, t);
    goc = after;
    expect_consistent(d, q, goc);
    // Roll back now and then: moving the comps home restores an acyclic
    // state, so the check must pass, and the order must be repaired again.
    if (q.size(h) > 0 && std::bernoulli_distribution(0.3)(rng)) {
      ++calls;
      EXPECT_FALSE(q.would_cycle(sub, h)) << "seed " << seed << " rollback";
      q.move(sub, h);
      for (int c : sub) goc[static_cast<std::size_t>(c)] = h;
      expect_consistent(d, q, goc);
    }
    if (std::bernoulli_distribution(0.2)(rng)) renumber_and_check(d, q, goc);
  }
  EXPECT_EQ(q.cycle_checks(), calls);
  return tally;
}

TEST(QuotientGraph, MatchesKahnOracleMostlyAccepting) {
  Tally total;
  for (std::uint32_t seed = 1; seed <= 1000; ++seed) {
    const Tally t = episode(seed, /*local=*/true);
    total.accepted += t.accepted;
    total.rejected += t.rejected;
  }
  EXPECT_GT(total.accepted, 2 * total.rejected);
  EXPECT_GT(total.rejected, 0);
}

TEST(QuotientGraph, MatchesKahnOracleMostlyRejecting) {
  Tally total;
  for (std::uint32_t seed = 1001; seed <= 2000; ++seed) {
    const Tally t = episode(seed, /*local=*/false);
    total.accepted += t.accepted;
    total.rejected += t.rejected;
  }
  EXPECT_GT(total.rejected, 2 * total.accepted);
  EXPECT_GT(total.accepted, 0);
}

/// A chain a -> b -> c: contracting the ends must be refused (b would sit
/// inside a cycle), contracting neighbours is fine and searches nothing.
TEST(QuotientGraph, ChainEndsCannotContract) {
  const std::vector<std::pair<int, int>> edges{{0, 1}, {1, 2}};
  QuotientGraph q(3, edges, {1, 2, 3}, {4, 5, 6});
  q.reset({0, 1, 2}, {0, 1, 2});
  ASSERT_EQ(q.out_edges(1).size(), 1u);
  EXPECT_EQ(q.out_edges(1)[0], 1);  // edge ids index edges()
  ASSERT_EQ(q.in_edges(1).size(), 1u);
  EXPECT_EQ(q.in_edges(1)[0], 0);
  EXPECT_TRUE(q.in_edges(0).empty());
  const int c2[] = {2};
  EXPECT_TRUE(q.would_cycle(c2, 0));
  const int c1[] = {1};
  EXPECT_FALSE(q.would_cycle(c1, 0));
  const std::int64_t visits = q.cycle_check_visits();
  q.move(c1, 0);
  EXPECT_FALSE(q.would_cycle(c2, 0));
  EXPECT_EQ(q.cycle_check_visits(), visits);  // empty rank window
  q.move(c2, 0);
  EXPECT_EQ(q.size(0), 3u);
  EXPECT_EQ(q.params(0), 6);
  EXPECT_EQ(q.act(0), 15);
  EXPECT_EQ(q.cycle_checks(), 3);
}

/// A move that adds an arc against the current ranks must repair them.
TEST(QuotientGraph, MoveRepairsTheOrder) {
  // Comps 0 -> 1 -> 3 and an isolated comp 2, one group each, ranked
  // 0, 1, 3, 2 (group ids equal comp ids).
  const std::vector<std::pair<int, int>> edges{{0, 1}, {1, 3}};
  QuotientGraph q(4, edges, {0, 0, 0, 0}, {0, 0, 0, 0});
  q.reset({0, 1, 2, 3}, {0, 1, 3, 2});
  const int c0[] = {0};
  EXPECT_FALSE(q.would_cycle(c0, 2));
  q.move(c0, 2);  // arc 2 -> 1 against ranks 3 > 1
  EXPECT_LT(q.rank(2), q.rank(1));
  EXPECT_LT(q.rank(1), q.rank(3));
  const int c3[] = {3};
  EXPECT_TRUE(q.would_cycle(c3, 2));  // 2 -> 1 -> {3 in 2}: a cycle
}

}  // namespace
}  // namespace rannc
