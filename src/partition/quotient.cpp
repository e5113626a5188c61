#include "partition/quotient.h"

#include <algorithm>
#include <bit>
#include <climits>
#include <numeric>

namespace rannc {

QuotientGraph::QuotientGraph(int num_comps,
                             std::vector<std::pair<int, int>> edges,
                             std::vector<std::int64_t> params,
                             std::vector<std::int64_t> act)
    : edges_(std::move(edges)),
      comp_params_(std::move(params)),
      comp_act_(std::move(act)) {
  const auto n = static_cast<std::size_t>(num_comps);
  // Comp-level CSR of edge ids, both directions, in edge-id order.
  out_begin_.assign(n + 1, 0);
  in_begin_.assign(n + 1, 0);
  for (auto [a, b] : edges_) {
    ++out_begin_[static_cast<std::size_t>(a) + 1];
    ++in_begin_[static_cast<std::size_t>(b) + 1];
  }
  std::partial_sum(out_begin_.begin(), out_begin_.end(), out_begin_.begin());
  std::partial_sum(in_begin_.begin(), in_begin_.end(), in_begin_.begin());
  out_edge_.resize(edges_.size());
  in_edge_.resize(edges_.size());
  std::vector<int> out_fill(out_begin_.begin(), out_begin_.end() - 1);
  std::vector<int> in_fill(in_begin_.begin(), in_begin_.end() - 1);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const auto [a, b] = edges_[e];
    int& out_at = out_fill[static_cast<std::size_t>(a)];
    int& in_at = in_fill[static_cast<std::size_t>(b)];
    out_edge_[static_cast<std::size_t>(out_at++)] = static_cast<int>(e);
    in_edge_[static_cast<std::size_t>(in_at++)] = static_cast<int>(e);
  }

  cut_.resize((edges_.size() + 63) / 64);
  group_of_comp_.resize(n);
  count_.resize(n);
  params_sum_.resize(n);
  act_sum_.resize(n);
  succ_.resize(n);
  pred_.resize(n);
  rank_.resize(n);
  in_change_ = StampSet(n);
  has_delta_ = StampSet(n);
  target_ = StampSet(n);
  seen_ = StampSet(n);
  back_seen_ = StampSet(n);
  out_delta_.resize(n);
  in_delta_.resize(n);

  std::vector<int> identity(n);
  std::iota(identity.begin(), identity.end(), 0);
  reset(identity, identity);
}

void QuotientGraph::reset(const std::vector<int>& group_of_comp,
                          const std::vector<int>& rank) {
  const std::size_t n = group_of_comp_.size();
  for (std::size_t g = 0; g < n; ++g) {
    count_[g] = 0;
    succ_[g].clear();
    pred_[g].clear();
    params_sum_[g] = 0;
    act_sum_[g] = 0;
  }
  group_of_comp_ = group_of_comp;
  std::copy(rank.begin(), rank.end(), rank_.begin());
  for (std::size_t c = 0; c < n; ++c) {
    const auto g = static_cast<std::size_t>(group_of_comp_[c]);
    ++count_[g];
    params_sum_[g] += comp_params_[c];
    act_sum_[g] += comp_act_[c];
  }
  for (std::size_t e = 0; e < edges_.size(); ++e)
    set_cut(e, group_of(edges_[e].first) != group_of(edges_[e].second));
  add_cut_arcs();
}

void QuotientGraph::renumber(std::span<const int> new_id,
                             std::span<const int> rank) {
  renamed_.resize(rank.size());
  for (std::size_t g = 0; g < new_id.size(); ++g) {
    if (new_id[g] < 0) continue;
    renamed_[static_cast<std::size_t>(new_id[g])] = {count_[g], params_sum_[g],
                                                     act_sum_[g]};
    count_[g] = 0;
    params_sum_[g] = 0;
    act_sum_[g] = 0;
    succ_[g].clear();
    pred_[g].clear();
  }
  for (std::size_t i = 0; i < rank.size(); ++i) {
    count_[i] = renamed_[i].count;
    params_sum_[i] = renamed_[i].params;
    act_sum_[i] = renamed_[i].act;
    rank_[i] = rank[i];
  }
  for (int& g : group_of_comp_) g = new_id[static_cast<std::size_t>(g)];
  add_cut_arcs();
}

/// Adds an arc per cut edge in edge-id order, so each group's arcs are
/// ordered by their first comp edge; would_cycle() visits successors in
/// that order, so its visit count depends on it.
void QuotientGraph::add_cut_arcs() {
  for (std::size_t w = 0; w < cut_.size(); ++w)
    for (std::uint64_t bits = cut_[w]; bits != 0; bits &= bits - 1) {
      const auto [a, b] =
          edges_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
      add_arc(group_of(a), group_of(b));
    }
}

void QuotientGraph::add_arc(int from, int to) {
  auto bump = [](std::vector<Arc>& arcs, int other) {
    for (Arc& a : arcs)
      if (a.to == other) {
        ++a.mult;
        return;
      }
    arcs.push_back({other, 1});
  };
  bump(succ_[static_cast<std::size_t>(from)], to);
  bump(pred_[static_cast<std::size_t>(to)], from);
}

void QuotientGraph::remove_arc(int from, int to) {
  auto drop = [](std::vector<Arc>& arcs, int other) {
    for (Arc& a : arcs)
      if (a.to == other) {
        if (--a.mult == 0) {
          a = arcs.back();
          arcs.pop_back();
        }
        return;
      }
  };
  drop(succ_[static_cast<std::size_t>(from)], to);
  drop(pred_[static_cast<std::size_t>(to)], from);
}

bool QuotientGraph::would_cycle(std::span<const int> comps, int target) {
  ++checks_;
  const int t = target;
  const int h = group_of(comps.front());
  in_change_.clear();
  for (int c : comps) in_change_.insert(c);

  // Comp edges between the moving set S and everything outside it, per
  // group on the other end. Edges to the rest of h become arcs of t.
  has_delta_.clear();
  touched_.clear();
  int s_to_rest = 0, rest_to_s = 0;
  auto bump = [&](std::vector<int>& delta, int g) {
    if (!has_delta_.contains(g)) {
      has_delta_.insert(g);
      out_delta_[static_cast<std::size_t>(g)] = 0;
      in_delta_[static_cast<std::size_t>(g)] = 0;
      touched_.push_back(g);
    }
    ++delta[static_cast<std::size_t>(g)];
  };
  for (int c : comps) {
    for (int e : out_edges(c)) {
      const int o = edges_[static_cast<std::size_t>(e)].second;
      if (in_change_.contains(o)) continue;
      if (group_of(o) == h) ++s_to_rest;
      else bump(out_delta_, group_of(o));
    }
    for (int e : in_edges(c)) {
      const int o = edges_[static_cast<std::size_t>(e)].first;
      if (in_change_.contains(o)) continue;
      if (group_of(o) == h) ++rest_to_s;
      else bump(in_delta_, group_of(o));
    }
  }
  auto dout = [&](int g) {
    return has_delta_.contains(g) ? out_delta_[static_cast<std::size_t>(g)] : 0;
  };
  auto din = [&](int g) {
    return has_delta_.contains(g) ? in_delta_[static_cast<std::size_t>(g)] : 0;
  };

  // t's predecessors after the change are the search targets; the
  // highest-ranked one closes the rank window.
  int max_pred = -1;
  target_.clear();
  auto add_pred = [&](int p) {
    if (target_.contains(p)) return;
    target_.insert(p);
    max_pred = std::max(max_pred, rank_[static_cast<std::size_t>(p)]);
  };
  for (const Arc& a : pred_[static_cast<std::size_t>(t)])
    if (a.mult + (a.to == h ? rest_to_s - dout(t) : din(a.to)) > 0)
      add_pred(a.to);
  for (int g : touched_)
    if (g != t && din(g) > 0) add_pred(g);
  if (rest_to_s > 0) add_pred(h);
  if (max_pred < 0) return false;

  // Search from t's successors after the change, over the arcs as they
  // are now, skipping t. The current ranks order those arcs, so nothing
  // ranked above max_pred can reach a target. An arc of h that exists only
  // through S is no false lead: h -> z through S makes z a successor of t
  // (a source already), and u -> h through S makes u a target, so any
  // path using one shortens to a path of the changed quotient.
  stack_.clear();
  seen_.clear();
  auto push = [&](int z) {
    if (seen_.contains(z)) return;
    seen_.insert(z);
    if (rank_[static_cast<std::size_t>(z)] <= max_pred) stack_.push_back(z);
  };
  for (const Arc& a : succ_[static_cast<std::size_t>(t)])
    if (a.mult + (a.to == h ? s_to_rest - din(t) : dout(a.to)) > 0)
      push(a.to);
  for (int g : touched_)
    if (g != t && dout(g) > 0) push(g);
  if (s_to_rest > 0) push(h);
  while (!stack_.empty()) {
    const int u = stack_.back();
    stack_.pop_back();
    ++visits_;
    if (target_.contains(u)) return true;
    for (const Arc& a : succ_[static_cast<std::size_t>(u)])
      if (a.to != t) push(a.to);
  }
  return false;
}

void QuotientGraph::move(std::span<const int> comps, int target) {
  const int t = target;
  for (int c : comps) {
    const auto cu = static_cast<std::size_t>(c);
    const int h = group_of_comp_[cu];
    // An edge to a comp of S not yet moved is cut for now; moving that
    // comp later revisits the edge.
    for (int e : out_edges(c)) {
      const int g = group_of(edges_[static_cast<std::size_t>(e)].second);
      if (g != h) remove_arc(h, g);
      if (g != t) add_arc(t, g);
      set_cut(static_cast<std::size_t>(e), g != t);
    }
    for (int e : in_edges(c)) {
      const int g = group_of(edges_[static_cast<std::size_t>(e)].first);
      if (g != h) remove_arc(g, h);
      if (g != t) add_arc(g, t);
      set_cut(static_cast<std::size_t>(e), g != t);
    }
    --count_[static_cast<std::size_t>(h)];
    ++count_[static_cast<std::size_t>(t)];
    params_sum_[static_cast<std::size_t>(h)] -= comp_params_[cu];
    act_sum_[static_cast<std::size_t>(h)] -= comp_act_[cu];
    params_sum_[static_cast<std::size_t>(t)] += comp_params_[cu];
    act_sum_[static_cast<std::size_t>(t)] += comp_act_[cu];
    group_of_comp_[cu] = t;
  }
  restore_order(t);
}

/// Pearce-Kelly repair after the arcs of x changed. Only arcs touching x
/// can be out of order. F = groups reachable from x's successors without
/// rising above hi, B = groups reaching x's predecessors without dropping
/// below lo; they are disjoint (the quotient is acyclic), and giving B,
/// then x, then F the sorted pool of their old ranks orders every arc.
void QuotientGraph::restore_order(int x) {
  const auto rank = [&](int g) -> int& {
    return rank_[static_cast<std::size_t>(g)];
  };
  int max_pred = -1, min_succ = INT_MAX;
  for (const Arc& a : pred_[static_cast<std::size_t>(x)])
    max_pred = std::max(max_pred, rank(a.to));
  for (const Arc& a : succ_[static_cast<std::size_t>(x)])
    min_succ = std::min(min_succ, rank(a.to));
  if (max_pred < rank(x) && rank(x) < min_succ) return;
  const int lo = std::min(rank(x), min_succ);
  const int hi = std::max(rank(x), max_pred);

  auto collect = [&](const std::vector<std::vector<Arc>>& adj,
                     StampSet& seen, std::vector<int>& out, auto in_window) {
    out.clear();
    seen.clear();
    seen.insert(x);
    stack_.assign(1, x);
    while (!stack_.empty()) {
      const int u = stack_.back();
      stack_.pop_back();
      if (u != x) out.push_back(u);
      for (const Arc& a : adj[static_cast<std::size_t>(u)])
        if (in_window(a.to) && !seen.contains(a.to)) {
          seen.insert(a.to);
          stack_.push_back(a.to);
        }
    }
  };
  collect(succ_, seen_, fwd_, [&](int g) { return rank(g) <= hi; });
  collect(pred_, back_seen_, back_, [&](int g) { return rank(g) >= lo; });

  pool_.clear();
  for (int g : back_) pool_.push_back(rank(g));
  pool_.push_back(rank(x));
  for (int g : fwd_) pool_.push_back(rank(g));
  std::sort(pool_.begin(), pool_.end());
  const auto by_rank = [&](int a, int b) { return rank(a) < rank(b); };
  std::sort(back_.begin(), back_.end(), by_rank);
  std::sort(fwd_.begin(), fwd_.end(), by_rank);
  std::size_t i = 0;
  for (int g : back_) rank(g) = pool_[i++];
  rank(x) = pool_[i++];
  for (int g : fwd_) rank(g) = pool_[i++];
}

}  // namespace rannc
