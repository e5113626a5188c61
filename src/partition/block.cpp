#include "partition/block.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <span>
#include <stdexcept>

#include "obs/trace.h"
#include "partition/quotient.h"
#include "util/stamp_set.h"

namespace rannc {

namespace {

/// Working state shared by the three steps. Groups live in a QuotientGraph
/// (assignment comp -> group id, arcs, topological order); every
/// build_view() compacts the group ids in place.
class Partitioner {
 public:
  Partitioner(const AtomicPartition& ap, const GraphProfiler& prof,
              const BlockPartitionConfig& cfg)
      : ap_(ap), cfg_(cfg) {
    const TaskGraph& g = ap.graph;
    const int n = static_cast<int>(ap.comps.size());
    comp_time_f_.resize(static_cast<std::size_t>(n));
    comp_time_b_.resize(static_cast<std::size_t>(n));
    comp_params_.resize(static_cast<std::size_t>(n));
    comp_act_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      double tf = 0, tb = 0;
      std::int64_t pb = 0, ab = 0;
      for (TaskId t : ap.comps[static_cast<std::size_t>(i)].tasks) {
        tf += prof.task_time_f(t, cfg.profile_batch, /*standalone=*/false);
        tb += prof.task_time_b(t, cfg.profile_batch, /*standalone=*/false);
        for (ValueId in : g.task(t).inputs)
          if (g.value(in).kind == ValueKind::Param) pb += g.value(in).bytes();
        ab += static_cast<std::int64_t>(
            static_cast<double>(g.value(g.task(t).output).bytes()) *
            static_cast<double>(cfg.profile_batch) * prof.act_factor());
      }
      comp_time_f_[static_cast<std::size_t>(i)] = tf;
      comp_time_b_[static_cast<std::size_t>(i)] = tb;
      comp_params_[static_cast<std::size_t>(i)] = pb;
      comp_act_[static_cast<std::size_t>(i)] = ab;
    }
    // Inter-component edges: every non-constant output consumed by another
    // component. One edge per (producer comp, consumer comp, value), bytes
    // scaled to the profiling batch. The quotient owns the edges and their
    // adjacency; edge_bytes_ shares its edge ids.
    std::vector<std::pair<int, int>> edges;
    for (const Value& v : g.values()) {
      if (v.producer == kNoTask || v.kind == ValueKind::Param) continue;
      const int pc = ap.comp_of_task[static_cast<std::size_t>(v.producer)];
      std::vector<int> seen;
      for (TaskId c : v.consumers) {
        const int cc = ap.comp_of_task[static_cast<std::size_t>(c)];
        if (cc == pc ||
            std::find(seen.begin(), seen.end(), cc) != seen.end())
          continue;
        seen.push_back(cc);
        const auto bytes = static_cast<std::int64_t>(
            static_cast<double>(v.bytes()) *
            static_cast<double>(cfg.profile_batch) * prof.act_factor());
        edges.emplace_back(pc, cc);
        edge_bytes_.push_back(bytes);
      }
    }
    q_ = QuotientGraph(n, std::move(edges), comp_params_, comp_act_);
    in_sub_ = StampSet(static_cast<std::size_t>(n));
    visited_ = StampSet(static_cast<std::size_t>(n));
  }

  BlockPartition run() {
    {
      obs::Scope span("phase2:coarsen");
      coarsen();
    }
    if (cfg_.uncoarsening) {
      obs::Scope span("phase2:uncoarsen");
      uncoarsen();
    }
    {
      obs::Scope span("phase2:compact");
      compact();
    }
    if (cfg_.balance_refinement) {
      obs::Scope span("phase2:balance");
      balance_refine();
    }
    return finalize();
  }

 private:
  /// A snapshot of the groups under dense ids. Each group's comps and its
  /// quotient successors and predecessors, all ascending, sit in flat
  /// arrays reused by every view.
  struct GroupView {
    std::vector<int> comp_begin, comp_list;
    std::vector<int> succ_begin, succ_list;
    std::vector<int> pred_begin, pred_list;
    std::vector<double> time;  // fwd+bwd
    std::vector<std::int64_t> mem;
    std::vector<int> rank;     // topological rank

    [[nodiscard]] int size() const { return static_cast<int>(time.size()); }
    [[nodiscard]] std::span<const int> comps(int g) const {
      return csr(comp_begin, comp_list, g);
    }
    [[nodiscard]] std::span<const int> succ(int g) const {
      return csr(succ_begin, succ_list, g);
    }
    [[nodiscard]] std::span<const int> pred(int g) const {
      return csr(pred_begin, pred_list, g);
    }
    static std::span<const int> csr(const std::vector<int>& begin,
                                    const std::vector<int>& list, int g) {
      const auto b = static_cast<std::size_t>(begin[static_cast<std::size_t>(g)]);
      const auto e =
          static_cast<std::size_t>(begin[static_cast<std::size_t>(g) + 1]);
      return {list.data() + b, e - b};
    }
  };

  /// Memory footprint estimate of a group: fp32 Adam training state
  /// (weights + grads + two moments = 16 bytes/param) plus activations at
  /// the profiling batch size.
  [[nodiscard]] std::int64_t group_mem(std::int64_t params_bytes,
                                       std::int64_t act_bytes) const {
    return 4 * params_bytes + act_bytes;
  }

  /// Rebuilds the view of the current partition and renumbers the quotient
  /// to match: dense ids in order of each group's smallest comp, the
  /// view's Kahn ranks as the topological order. Group sizes, memory and
  /// neighbours come from the quotient. Times are summed over each group's
  /// comps in ascending comp order: their rounding orders the coarsening
  /// and compaction visits and breaks ties there, so the order of the
  /// additions is part of the result.
  GroupView& build_view() {
    GroupView& gv = view_;
    const std::vector<int>& group_of_comp = q_.group_of_comp();
    new_id_.assign(group_of_comp.size(), -1);
    old_id_.clear();
    for (int g : group_of_comp)
      if (new_id_[static_cast<std::size_t>(g)] < 0) {
        new_id_[static_cast<std::size_t>(g)] = static_cast<int>(old_id_.size());
        old_id_.push_back(g);
      }
    const std::size_t n = old_id_.size();
    gv.comp_begin.assign(n + 1, 0);
    gv.succ_begin.assign(n + 1, 0);
    gv.pred_begin.assign(n + 1, 0);
    gv.mem.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const int g = old_id_[i];
      gv.comp_begin[i + 1] = gv.comp_begin[i] + static_cast<int>(q_.size(g));
      gv.succ_begin[i + 1] =
          gv.succ_begin[i] + static_cast<int>(q_.succ(g).size());
      gv.pred_begin[i + 1] =
          gv.pred_begin[i] + static_cast<int>(q_.pred(g).size());
      gv.mem[i] = group_mem(q_.params(g), q_.act(g));
    }
    gv.comp_list.resize(group_of_comp.size());
    gv.time.assign(n, 0);
    fill_.assign(gv.comp_begin.begin(), gv.comp_begin.end() - 1);
    for (std::size_t c = 0; c < group_of_comp.size(); ++c) {
      const auto i = static_cast<std::size_t>(
          new_id_[static_cast<std::size_t>(group_of_comp[c])]);
      gv.comp_list[static_cast<std::size_t>(fill_[i]++)] = static_cast<int>(c);
      gv.time[i] += comp_time_f_[c] + comp_time_b_[c];
    }
    auto neighbours = [&](std::span<const QuotientGraph::Arc> arcs,
                          std::vector<int>& list, int at) {
      const auto first = list.begin() + at;
      auto out = first;
      for (const QuotientGraph::Arc& a : arcs)
        *out++ = new_id_[static_cast<std::size_t>(a.to)];
      std::sort(first, out);
    };
    gv.succ_list.resize(static_cast<std::size_t>(gv.succ_begin[n]));
    gv.pred_list.resize(static_cast<std::size_t>(gv.pred_begin[n]));
    for (std::size_t i = 0; i < n; ++i) {
      neighbours(q_.succ(old_id_[i]), gv.succ_list, gv.succ_begin[i]);
      neighbours(q_.pred(old_id_[i]), gv.pred_list, gv.pred_begin[i]);
    }
    topo_rank(gv);
    q_.renumber(new_id_, gv.rank);
    return gv;
  }

  /// Kahn topological ranks into gv.rank; throws if the quotient has a
  /// cycle (would mean a convexity invariant was violated).
  static void topo_rank(GroupView& gv) {
    const int n = gv.size();
    std::vector<int> indeg(static_cast<std::size_t>(n), 0);
    for (int v : gv.succ_list) ++indeg[static_cast<std::size_t>(v)];
    std::deque<int> q;
    for (int u = 0; u < n; ++u)
      if (indeg[static_cast<std::size_t>(u)] == 0) q.push_back(u);
    gv.rank.assign(static_cast<std::size_t>(n), -1);
    int next = 0;
    while (!q.empty()) {
      const int u = q.front();
      q.pop_front();
      gv.rank[static_cast<std::size_t>(u)] = next++;
      for (int v : gv.succ(u))
        if (--indeg[static_cast<std::size_t>(v)] == 0) q.push_back(v);
    }
    if (next != n) throw std::logic_error("block quotient graph has a cycle");
  }

  /// True iff a path u ->+ x exists in the quotient that passes through at
  /// least one intermediate group. Pruned DFS using topological ranks.
  bool indirect_path(const GroupView& gv, int u, int x) {
    const int limit = gv.rank[static_cast<std::size_t>(x)];
    visited_.clear();
    std::vector<int> stack;
    for (int s : gv.succ(u)) {
      if (s == x) continue;  // direct edge: allowed
      if (gv.rank[static_cast<std::size_t>(s)] < limit &&
          !visited_.contains(s)) {
        visited_.insert(s);
        stack.push_back(s);
      }
    }
    while (!stack.empty()) {
      const int cur = stack.back();
      stack.pop_back();
      for (int s : gv.succ(cur)) {
        if (s == x) return true;
        if (gv.rank[static_cast<std::size_t>(s)] < limit &&
            !visited_.contains(s)) {
          visited_.insert(s);
          stack.push_back(s);
        }
      }
    }
    return false;
  }

  /// Merge feasibility: adjacent + convex + within device memory.
  [[nodiscard]] bool can_merge(const GroupView& gv, int a, int b) {
    if (cfg_.device_memory > 0 &&
        gv.mem[static_cast<std::size_t>(a)] +
                gv.mem[static_cast<std::size_t>(b)] >
            cfg_.device_memory)
      return false;
    // Orient by topological rank; DAG guarantees one direction only.
    const int u = gv.rank[static_cast<std::size_t>(a)] <
                          gv.rank[static_cast<std::size_t>(b)]
                      ? a
                      : b;
    const int x = u == a ? b : a;
    return !indirect_path(gv, u, x);
  }

  // ---- coarsening ---------------------------------------------------------
  void coarsen() {
    // Target block time (criterion 1 of Section III-B: balance of the
    // blocks' computation times). Merges that would exceed the ideal
    // per-block share are deferred; the compaction step performs the few
    // remaining over-target merges in best-balance order. Without the cap,
    // halting a pairwise-matching level midway leaves blocks of ~2x
    // different sizes, which quantizes the stage-level balance.
    double total_time = 0;
    for (std::size_t c = 0; c < comp_time_f_.size(); ++c)
      total_time += comp_time_f_[c] + comp_time_b_[c];
    const double time_cap = total_time / std::max(1, cfg_.k);
    while (true) {
      const GroupView& gv = build_view();
      const int n = gv.size();
      if (n <= cfg_.k) break;

      // Visit groups in ascending computation time (paper Section III-B).
      std::vector<int> order(static_cast<std::size_t>(n));
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return gv.time[static_cast<std::size_t>(a)] <
               gv.time[static_cast<std::size_t>(b)];
      });

      std::vector<char> consumed(static_cast<std::size_t>(n), 0);
      std::vector<std::pair<int, int>> merges;
      int remaining = n;
      for (int v : order) {
        if (consumed[static_cast<std::size_t>(v)]) continue;
        if (remaining <= cfg_.k) break;
        int best = -1;
        double best_time = 0;
        auto consider = [&](int w) {
          if (w == v || consumed[static_cast<std::size_t>(w)]) return;
          const double t = gv.time[static_cast<std::size_t>(v)] +
                           gv.time[static_cast<std::size_t>(w)];
          if (t > time_cap) return;  // defer over-target merges to compaction
          if (!can_merge(gv, v, w)) return;
          if (best < 0 || t < best_time) {
            best = w;
            best_time = t;
          }
        };
        for (int w : gv.succ(v)) consider(w);
        for (int w : gv.pred(v)) consider(w);
        consumed[static_cast<std::size_t>(v)] = 1;
        if (best >= 0) {
          consumed[static_cast<std::size_t>(best)] = 1;
          merges.emplace_back(v, best);
          --remaining;
        }
      }
      if (merges.empty()) break;  // |G_L| == |G_{L+1}|: no progress

      // Record history for uncoarsening, then apply the merges one at a
      // time, checking quotient acyclicity before each: merges checked
      // pairwise against the same snapshot can jointly create a cycle, so
      // offenders are skipped (they may merge at a later level). Every
      // group is in at most one pair, so b is still whole and a still has
      // its view id.
      LevelHistory hist;
      bool applied_any = false;
      for (auto [a, b] : merges) {
        const std::span<const int> sub = gv.comps(b);
        if (q_.would_cycle(sub, a)) continue;
        q_.move(sub, a);
        applied_any = true;
        hist.add(gv.comps(a));
        hist.add(sub);
      }
      if (!applied_any) break;  // every candidate merge would create a cycle
      history_.push_back(std::move(hist));
      ++result_levels_;
    }
  }

  // ---- uncoarsening -------------------------------------------------------
  /// Bytes of comp edges between the comp set `sub` (held in in_sub_)
  /// and the group `gid`, excluding comps of `sub` itself.
  [[nodiscard]] std::int64_t bytes_between(std::span<const int> sub,
                                           int gid) const {
    std::int64_t total = 0;
    for (int c : sub) {
      for (int e : q_.out_edges(c)) {
        const int o = q_.edges()[static_cast<std::size_t>(e)].second;
        if (!in_sub_.contains(o) && q_.group_of(o) == gid)
          total += edge_bytes_[static_cast<std::size_t>(e)];
      }
      for (int e : q_.in_edges(c)) {
        const int o = q_.edges()[static_cast<std::size_t>(e)].first;
        if (!in_sub_.contains(o) && q_.group_of(o) == gid)
          total += edge_bytes_[static_cast<std::size_t>(e)];
      }
    }
    return total;
  }

  void uncoarsen() {
    // Walk the merge history from the coarsest level back to level 0,
    // trying to move each recorded sub-group into an adjacent block when
    // that strictly reduces inter-block communication (paper Fig. 3(b)).
    // Moves are applied to the *current* top-level partition and thereby
    // propagate to all coarser levels, as the paper requires.
    for (auto it = history_.rbegin(); it != history_.rend(); ++it)
      for (std::size_t i = 0; i < it->size(); ++i) try_move(it->sub(i));
  }

  void try_move(std::span<const int> sub) {
    if (sub.empty()) return;
    // The sub-group must currently live entirely inside one block, and must
    // not be the whole block (a whole-block move is a merge, not a
    // boundary adjustment).
    const int home = q_.group_of(sub.front());
    for (int c : sub)
      if (q_.group_of(c) != home) return;
    if (q_.size(home) == sub.size()) return;

    // Candidate targets: blocks adjacent to any comp of `sub`.
    std::vector<int> cands;
    in_sub_.clear();
    for (int c : sub) in_sub_.insert(c);
    for (int c : sub) {
      for (int e : q_.out_edges(c)) {
        const int o = q_.edges()[static_cast<std::size_t>(e)].second;
        const int og = q_.group_of(o);
        if (!in_sub_.contains(o) && og != home) cands.push_back(og);
      }
      for (int e : q_.in_edges(c)) {
        const int o = q_.edges()[static_cast<std::size_t>(e)].first;
        const int og = q_.group_of(o);
        if (!in_sub_.contains(o) && og != home) cands.push_back(og);
      }
    }
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
    if (cands.empty()) return;

    const std::int64_t stay_bytes = bytes_between(sub, home);
    int best = -1;
    std::int64_t best_gain = 0;
    for (int t : cands) {
      const std::int64_t gain = bytes_between(sub, t) - stay_bytes;
      if (gain > best_gain) {
        best = t;
        best_gain = gain;
      }
    }
    if (best < 0) return;

    // The move must fit the target's memory and keep the quotient
    // acyclic (convex blocks).
    if (cfg_.device_memory > 0) {
      std::int64_t params = q_.params(best), act = q_.act(best);
      for (int c : sub) {
        params += comp_params_[static_cast<std::size_t>(c)];
        act += comp_act_[static_cast<std::size_t>(c)];
      }
      if (group_mem(params, act) > cfg_.device_memory) return;
    }
    if (q_.would_cycle(sub, best)) return;
    q_.move(sub, best);
    ++result_moves_;
  }

  // ---- compaction ---------------------------------------------------------
  void compact() {
    while (true) {
      const GroupView& gv = build_view();
      const int n = gv.size();
      if (n <= cfg_.k) break;

      // Topologically sorted positions: pos[i] = group at rank i.
      std::vector<int> pos(static_cast<std::size_t>(n));
      for (int gid = 0; gid < n; ++gid)
        pos[static_cast<std::size_t>(gv.rank[static_cast<std::size_t>(gid)])] =
            gid;
      std::vector<int> order(static_cast<std::size_t>(n));
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return gv.time[static_cast<std::size_t>(a)] <
               gv.time[static_cast<std::size_t>(b)];
      });

      bool merged = false;
      for (int v : order) {
        const int r = gv.rank[static_cast<std::size_t>(v)];
        int cand[2] = {-1, -1};
        if (r > 0) cand[0] = pos[static_cast<std::size_t>(r - 1)];
        if (r + 1 < n) cand[1] = pos[static_cast<std::size_t>(r + 1)];
        // Prefer the smaller-time neighbor (paper Section III-B).
        if (cand[0] >= 0 && cand[1] >= 0 &&
            gv.time[static_cast<std::size_t>(cand[1])] <
                gv.time[static_cast<std::size_t>(cand[0])])
          std::swap(cand[0], cand[1]);
        for (int w : cand) {
          if (w < 0) continue;
          if (cfg_.device_memory > 0 &&
              gv.mem[static_cast<std::size_t>(v)] +
                      gv.mem[static_cast<std::size_t>(w)] >
                  cfg_.device_memory)
            continue;
          // Rank-adjacent groups: the check never fires, and costs nothing
          // (the rank window between v and w is empty).
          if (q_.would_cycle(gv.comps(w), v)) continue;
          q_.move(gv.comps(w), v);
          merged = true;
          ++result_compaction_;
          break;
        }
        if (merged) break;  // rebuild the view after every merge
      }
      if (!merged) break;  // memory-bound: cannot reach k blocks
    }
  }

  // ---- balance refinement -------------------------------------------------
  // Extension beyond the paper's three steps: after compaction, atomic
  // components are shifted across adjacent block boundaries so that the
  // cumulative block time tracks the ideal prefix (i+1) * total/k. The
  // paper's coarsening targets balance but is quantized by its pairwise
  // merges; when the stage DP later packs only a few blocks per stage
  // (very large models), residual block skew becomes stage skew directly.
  // Moves preserve convexity by construction: a component with no successor
  // inside its block may always move to the next block of the topological
  // chain (and symmetrically backwards); each move is additionally
  // validated against the quotient and the memory budget.
  void balance_refine() {
    // Comp edges inside each comp's group; a view renames groups but
    // moves none, so only move_across changes these.
    same_out_.assign(comp_time_f_.size(), 0);
    same_in_.assign(comp_time_f_.size(), 0);
    for (auto [from, to] : q_.edges())
      if (q_.group_of(from) == q_.group_of(to)) {
        ++same_out_[static_cast<std::size_t>(from)];
        ++same_in_[static_cast<std::size_t>(to)];
      }
    stamp_.resize(comp_time_f_.size());
    for (int iter = 0; iter < 64; ++iter) {
      GroupView& gv = build_view();
      const int n = gv.size();
      if (n < 2) return;
      build_frontiers(gv);
      double total = 0;
      for (double t : gv.time) total += t;
      const double target = total / n;
      const double tol = 0.01 * target;
      std::vector<int> pos(static_cast<std::size_t>(n));
      for (int gid = 0; gid < n; ++gid)
        pos[static_cast<std::size_t>(gv.rank[static_cast<std::size_t>(gid)])] = gid;

      bool changed = false;
      double cum = 0;
      for (int r = 0; r + 1 < n; ++r) {
        const int here = pos[static_cast<std::size_t>(r)];
        const int next = pos[static_cast<std::size_t>(r + 1)];
        cum += gv.time[static_cast<std::size_t>(here)];
        // Push overshoot right / pull undershoot left. The moved component
        // must not exceed twice the deviation, so the deviation strictly
        // shrinks and the loops terminate.
        for (int guard = 0; guard < 256; ++guard) {
          const double over = cum - (r + 1) * target;
          if (over > tol) {
            const double tc = move_across(gv, here, next, true, 2 * over);
            if (tc <= 0) break;
            cum -= tc;
            changed = true;
          } else if (over < -tol) {
            const double tc = move_across(gv, next, here, false, -2 * over);
            if (tc <= 0) break;
            cum += tc;
            changed = true;
          } else {
            break;
          }
        }
      }
      if (!changed) return;
    }
  }

  // A block's forward frontier holds its comps with no successor inside
  // the block (the comps that may move to the next block), its backward
  // frontier those with no predecessor inside it. Each frontier is sorted
  // by time, equal times by descending stamp. Stamps order a block's comps
  // as its list in the view does, kept up across moves: the comp index
  // after a view (the view's lists ascend), and a rising counter for a
  // comp that moves in (it joins the end). So the last entry at or below
  // a bound has the largest time and, among equal times, comes first in
  // the block's list.
  struct FrontierEntry {
    double time;
    int stamp;
    int comp;
  };
  static bool frontier_before(const FrontierEntry& a, const FrontierEntry& b) {
    return a.time < b.time || (a.time == b.time && a.stamp > b.stamp);
  }

  void build_frontiers(const GroupView& gv) {
    for (auto& side : frontier_) {
      side.resize(static_cast<std::size_t>(gv.size()));
      for (auto& f : side) f.clear();
    }
    for (int g = 0; g < gv.size(); ++g) {
      for (int c : gv.comps(g)) {
        const auto cu = static_cast<std::size_t>(c);
        stamp_[cu] = c;
        const FrontierEntry e = entry(c);
        if (same_out_[cu] == 0)
          frontier_[kForward][static_cast<std::size_t>(g)].push_back(e);
        if (same_in_[cu] == 0)
          frontier_[kBackward][static_cast<std::size_t>(g)].push_back(e);
      }
      for (auto& side : frontier_) {
        auto& f = side[static_cast<std::size_t>(g)];
        std::sort(f.begin(), f.end(), frontier_before);
      }
    }
    next_stamp_ = static_cast<int>(comp_time_f_.size());
  }

  [[nodiscard]] FrontierEntry entry(int c) const {
    const auto cu = static_cast<std::size_t>(c);
    return {comp_time_f_[cu] + comp_time_b_[cu], stamp_[cu], c};
  }
  void frontier_insert(int dir, int g, int c) {
    auto& f = frontier_[dir][static_cast<std::size_t>(g)];
    const FrontierEntry e = entry(c);
    f.insert(std::lower_bound(f.begin(), f.end(), e, frontier_before), e);
  }
  void frontier_erase(int dir, int g, int c) {
    auto& f = frontier_[dir][static_cast<std::size_t>(g)];
    f.erase(std::lower_bound(f.begin(), f.end(), entry(c), frontier_before));
  }

  /// Moves the largest movable component with time in (0, max_tc] from
  /// `src` across the boundary to the adjacent block `dst`, the first in
  /// the block's list among equal times. `forward` means dst follows src in
  /// the topological chain. Returns the moved time, or 0 if no component
  /// qualifies. Updates the view's times and memory (not its comp lists:
  /// the stamps carry their order) and the frontiers.
  double move_across(GroupView& gv, int src, int dst, bool forward,
                     double max_tc) {
    if (q_.size(src) <= 1) return 0;
    const auto& f = frontier_[forward ? kForward : kBackward]
                             [static_cast<std::size_t>(src)];
    const auto it = std::upper_bound(
        f.begin(), f.end(), max_tc,
        [](double t, const FrontierEntry& e) { return t < e.time; });
    if (it == f.begin() || std::prev(it)->time <= 0) return 0;
    const int best_comp = std::prev(it)->comp;
    const double best_tc = std::prev(it)->time;
    const std::int64_t cm =
        group_mem(comp_params_[static_cast<std::size_t>(best_comp)],
                  comp_act_[static_cast<std::size_t>(best_comp)]);
    if (cfg_.device_memory > 0 &&
        gv.mem[static_cast<std::size_t>(dst)] + cm > cfg_.device_memory)
      return 0;
    // gv ids are group ids: balance_refine moves comps but never renumbers.
    const int moved[1] = {best_comp};
    if (q_.would_cycle(moved, dst)) return 0;
    q_.move(moved, dst);
    gv.time[static_cast<std::size_t>(src)] -= best_tc;
    gv.time[static_cast<std::size_t>(dst)] += best_tc;
    gv.mem[static_cast<std::size_t>(src)] -= cm;
    gv.mem[static_cast<std::size_t>(dst)] += cm;
    update_frontiers(best_comp, src, dst);
    ++result_moves_;
    ++result_balance_moves_;
    return best_tc;
  }

  /// Comp c has moved from src to dst: re-counts the same-group edges of c
  /// and of its neighbours in src and dst, and moves every comp whose
  /// count reaches or leaves zero into or out of its frontier.
  void update_frontiers(int c, int src, int dst) {
    const auto cu = static_cast<std::size_t>(c);
    if (same_out_[cu] == 0) frontier_erase(kForward, src, c);
    if (same_in_[cu] == 0) frontier_erase(kBackward, src, c);
    same_out_[cu] = 0;
    same_in_[cu] = 0;
    for (int e : q_.out_edges(c)) {
      const int o = q_.edges()[static_cast<std::size_t>(e)].second;
      int& in = same_in_[static_cast<std::size_t>(o)];
      if (q_.group_of(o) == src) {
        if (--in == 0) frontier_insert(kBackward, src, o);
      } else if (q_.group_of(o) == dst) {
        if (in++ == 0) frontier_erase(kBackward, dst, o);
        ++same_out_[cu];
      }
    }
    for (int e : q_.in_edges(c)) {
      const int o = q_.edges()[static_cast<std::size_t>(e)].first;
      int& out = same_out_[static_cast<std::size_t>(o)];
      if (q_.group_of(o) == src) {
        if (--out == 0) frontier_insert(kForward, src, o);
      } else if (q_.group_of(o) == dst) {
        if (out++ == 0) frontier_erase(kForward, dst, o);
        ++same_in_[cu];
      }
    }
    stamp_[cu] = next_stamp_++;
    if (same_out_[cu] == 0) frontier_insert(kForward, dst, c);
    if (same_in_[cu] == 0) frontier_insert(kBackward, dst, c);
  }

  // ---- finalize -----------------------------------------------------------
  BlockPartition finalize() {
    const GroupView& gv = build_view();
    const int n = gv.size();
    BlockPartition bp;
    bp.blocks.resize(static_cast<std::size_t>(n));
    bp.block_of_comp.resize(comp_time_f_.size());
    // Order blocks by topological rank so stage-level DP can treat them as
    // a consecutive sequence (paper Section III-C).
    for (int gid = 0; gid < n; ++gid) {
      Block& blk =
          bp.blocks[static_cast<std::size_t>(gv.rank[static_cast<std::size_t>(gid)])];
      blk.comps.assign(gv.comps(gid).begin(), gv.comps(gid).end());
      for (int c : blk.comps) {
        bp.block_of_comp[static_cast<std::size_t>(c)] =
            gv.rank[static_cast<std::size_t>(gid)];
        const AtomicComponent& ac = ap_.comps[static_cast<std::size_t>(c)];
        blk.tasks.insert(blk.tasks.end(), ac.tasks.begin(), ac.tasks.end());
        blk.time_f += comp_time_f_[static_cast<std::size_t>(c)];
        blk.time_b += comp_time_b_[static_cast<std::size_t>(c)];
        blk.param_bytes += comp_params_[static_cast<std::size_t>(c)];
        blk.act_bytes += comp_act_[static_cast<std::size_t>(c)];
      }
      std::sort(blk.tasks.begin(), blk.tasks.end());
    }
    for (std::size_t e = 0; e < q_.edges().size(); ++e) {
      const auto [from, to] = q_.edges()[e];
      if (bp.block_of_comp[static_cast<std::size_t>(from)] !=
          bp.block_of_comp[static_cast<std::size_t>(to)])
        bp.cut_bytes += edge_bytes_[e];
    }
    bp.coarsen_levels = result_levels_;
    bp.uncoarsen_moves = result_moves_;
    bp.balance_moves = result_balance_moves_;
    bp.compaction_merges = result_compaction_;
    bp.cycle_checks = q_.cycle_checks();
    bp.cycle_check_visits = q_.cycle_check_visits();
    return bp;
  }

  /// One coarsening level's applied merges, as sub-groups in one flat
  /// array: the merged pairs in order, each as (kept group, absorbed one).
  struct LevelHistory {
    std::vector<int> begin{0};
    std::vector<int> comps;

    void add(std::span<const int> sub) {
      comps.insert(comps.end(), sub.begin(), sub.end());
      begin.push_back(static_cast<int>(comps.size()));
    }
    [[nodiscard]] std::size_t size() const { return begin.size() - 1; }
    [[nodiscard]] std::span<const int> sub(std::size_t i) const {
      return {comps.data() + begin[i],
              static_cast<std::size_t>(begin[i + 1] - begin[i])};
    }
  };

  const AtomicPartition& ap_;
  BlockPartitionConfig cfg_;
  std::vector<double> comp_time_f_, comp_time_b_;
  std::vector<std::int64_t> comp_params_, comp_act_;
  std::vector<std::int64_t> edge_bytes_;  ///< by the quotient's edge id
  QuotientGraph q_;
  StampSet in_sub_;   ///< try_move's sub-group (comps)
  StampSet visited_;  ///< indirect_path's search (groups)
  std::vector<LevelHistory> history_;
  GroupView view_;                     ///< build_view()'s result
  std::vector<int> new_id_, old_id_, fill_;  ///< build_view()'s scratch
  int result_levels_ = 0;
  // Balance refinement's frontiers (see FrontierEntry), by direction and
  // group, and the per-comp state behind them.
  static constexpr int kForward = 0, kBackward = 1;
  std::vector<std::vector<FrontierEntry>> frontier_[2];
  std::vector<int> same_out_, same_in_;  ///< comp edges within the group
  std::vector<int> stamp_;
  int next_stamp_ = 0;
  int result_moves_ = 0;
  int result_balance_moves_ = 0;
  int result_compaction_ = 0;
};

}  // namespace

BlockPartition block_partition(const AtomicPartition& ap,
                               const GraphProfiler& prof,
                               const BlockPartitionConfig& cfg) {
  if (ap.comps.empty()) throw std::invalid_argument("empty atomic partition");
  return Partitioner(ap, prof, cfg).run();
}

}  // namespace rannc
