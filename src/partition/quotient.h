// Incremental block-quotient graph for Phase 2 (block.cpp).
//
// Atomic components ("comps") are assigned to groups; the quotient has one
// node per non-empty group and an arc g -> h whenever some comp edge runs
// from a comp of g to a comp of h. Phase 2 must keep the quotient acyclic
// (a cycle among blocks is a non-convex block, paper Section III-B), and it
// asks "would this change close a cycle?" thousands of times per search.
//
// The structure owns the comp-level edges (in both directions, by edge
// id) and keeps, per group: comp count, parameter and activation byte
// sums, and successor / predecessor arcs annotated with the number of comp
// edges behind each arc. A topological order of the groups is kept valid
// across every applied change (Pearce-Kelly dynamic topological order), so
// a cycle check only explores the rank window between the groups the
// change touches instead of the whole graph.
//
// A change moves a set of comps S, all from one group h, into another
// group t (a contraction when S is all of h). The quotient is acyclic
// before every change, and every arc the change creates touches t, so any
// new cycle passes through t: would_cycle() searches from t's new
// successors for t's new predecessors, over ranks no higher than the
// highest-ranked predecessor.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/stamp_set.h"

namespace rannc {

class QuotientGraph {
 public:
  QuotientGraph() = default;
  /// `edges` are comp-level (from, to) pairs; parallel edges are allowed
  /// and counted. `params` / `act` give each comp's byte counts.
  QuotientGraph(int num_comps, std::vector<std::pair<int, int>> edges,
                std::vector<std::int64_t> params,
                std::vector<std::int64_t> act);

  struct Arc {
    int to;    ///< the other group
    int mult;  ///< comp edges behind the arc (> 0)
  };

  /// Replaces the assignment. `group_of_comp` holds dense ids
  /// 0..num_groups-1; `rank[g]` must be a topological order of the
  /// resulting quotient (distinct values). O(comps + edges). The
  /// constructor starts with every comp in its own group, ranked by comp
  /// index: call reset() before the first query unless comp indices are
  /// already a topological order.
  void reset(const std::vector<int>& group_of_comp,
             const std::vector<int>& rank);

  /// Renames every non-empty group g to `new_id[g]` (`new_id` is indexed
  /// by group id; the new ids are 0..rank.size()-1, one per non-empty
  /// group, and -1 marks empty groups) and installs `rank`, indexed by new
  /// id, as the topological order. Counts, byte sums and arcs follow their
  /// groups. Leaves the same state as reset() with the renamed assignment,
  /// arc order included, for O(comps + edges / 64 + cut edges) instead of
  /// O(comps + edges).
  void renumber(std::span<const int> new_id, std::span<const int> rank);

  [[nodiscard]] int group_of(int comp) const {
    return group_of_comp_[static_cast<std::size_t>(comp)];
  }
  [[nodiscard]] const std::vector<int>& group_of_comp() const {
    return group_of_comp_;
  }
  /// Comps in group g.
  [[nodiscard]] std::size_t size(int g) const {
    return static_cast<std::size_t>(count_[static_cast<std::size_t>(g)]);
  }
  [[nodiscard]] std::int64_t params(int g) const {
    return params_sum_[static_cast<std::size_t>(g)];
  }
  [[nodiscard]] std::int64_t act(int g) const {
    return act_sum_[static_cast<std::size_t>(g)];
  }
  /// The comp edges as given; an edge id indexes this vector.
  [[nodiscard]] const std::vector<std::pair<int, int>>& edges() const {
    return edges_;
  }
  /// Ids of the comp edges leaving / entering comp c.
  [[nodiscard]] std::span<const int> out_edges(int c) const {
    return csr(out_begin_, out_edge_, c);
  }
  [[nodiscard]] std::span<const int> in_edges(int c) const {
    return csr(in_begin_, in_edge_, c);
  }
  /// Arcs out of / into group g. reset() and renumber() order them by
  /// their first comp edge; moves append new arcs and fill a dropped arc's
  /// slot with the last one. would_cycle() searches successors in this
  /// order.
  [[nodiscard]] std::span<const Arc> succ(int g) const {
    return succ_[static_cast<std::size_t>(g)];
  }
  [[nodiscard]] std::span<const Arc> pred(int g) const {
    return pred_[static_cast<std::size_t>(g)];
  }
  /// Position of group g in the maintained topological order.
  [[nodiscard]] int rank(int g) const {
    return rank_[static_cast<std::size_t>(g)];
  }

  /// True iff moving `comps` (non-empty, distinct, all in one group other
  /// than `target`) into the non-empty group `target` would close a cycle
  /// in the quotient. Exact; does not change the assignment.
  [[nodiscard]] bool would_cycle(std::span<const int> comps, int target);

  /// Moves `comps` into `target` and restores the topological order.
  /// Precondition: !would_cycle(comps, target).
  void move(std::span<const int> comps, int target);

  /// Calls to would_cycle() and groups its searches popped, since
  /// construction. Deterministic for a given sequence of calls.
  [[nodiscard]] std::int64_t cycle_checks() const { return checks_; }
  [[nodiscard]] std::int64_t cycle_check_visits() const { return visits_; }

 private:
  static std::span<const int> csr(const std::vector<int>& begin,
                                  const std::vector<int>& ids, int c) {
    const auto b = static_cast<std::size_t>(begin[static_cast<std::size_t>(c)]);
    const auto e =
        static_cast<std::size_t>(begin[static_cast<std::size_t>(c) + 1]);
    return {ids.data() + b, e - b};
  }
  void set_cut(std::size_t e, bool cut) {
    const std::uint64_t bit = std::uint64_t{1} << (e % 64);
    if (cut) cut_[e / 64] |= bit;
    else cut_[e / 64] &= ~bit;
  }
  void add_cut_arcs();
  void add_arc(int from, int to);
  void remove_arc(int from, int to);
  void restore_order(int x);

  // Comp level (immutable): edges, CSR of edge ids, byte counts.
  std::vector<std::pair<int, int>> edges_;
  std::vector<int> out_begin_, out_edge_, in_begin_, in_edge_;
  std::vector<std::int64_t> comp_params_, comp_act_;
  /// Bit e set iff comp edge e joins two groups; kept by move(), so
  /// renumber() can re-add the arcs without visiting internal edges.
  std::vector<std::uint64_t> cut_;

  // Group level.
  std::vector<int> group_of_comp_;
  std::vector<int> count_;
  std::vector<std::int64_t> params_sum_, act_sum_;
  std::vector<std::vector<Arc>> succ_, pred_;
  std::vector<int> rank_;

  // Scratch, reused across calls.
  StampSet in_change_;   ///< comps of the moving set
  StampSet has_delta_;   ///< groups whose out_delta_ / in_delta_ are valid
  StampSet target_;      ///< would_cycle's targets (t's new predecessors)
  StampSet seen_, back_seen_;  ///< searched groups, forward / backward
  std::vector<int> out_delta_;  ///< group -> comp edges moving set -> group
  std::vector<int> in_delta_;   ///< group -> comp edges group -> moving set
  std::vector<int> touched_;    ///< groups in has_delta_
  std::vector<int> stack_, fwd_, back_, pool_;
  struct GroupSums {
    int count;
    std::int64_t params, act;
  };
  std::vector<GroupSums> renamed_;  ///< renumber()'s sums, by new id

  std::int64_t checks_ = 0;
  std::int64_t visits_ = 0;
};

}  // namespace rannc
