// Tests for the parallel, memoized partition-search engine: bit-identical
// plans at any thread count, ProfileMemo keying correctness, the shared
// stage-DP cell budget under concurrency, and the equal-stage_devs profile
// reuse inside form_stage_dp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "models/bert.h"
#include "models/mlp.h"
#include "partition/auto_partitioner.h"
#include "partition/plan_io.h"
#include "partition/profile_memo.h"
#include "partition/search.h"
#include "partition/stage_dp.h"

namespace rannc {
namespace {

BertConfig tiny_bert() {
  BertConfig c;
  c.hidden = 128;
  c.layers = 4;
  c.seq_len = 32;
  c.vocab = 256;
  return c;
}

// ---- Plan determinism across thread counts and memoization ---------------

void expect_plan_invariant(const TaskGraph& g, std::int64_t batch_size) {
  SearchRequest cfg;
  cfg.batch_size = batch_size;
  cfg.budget.threads = 1;
  cfg.profile_memo = false;
  // The dp_cells / candidate-count equalities below assume the exhaustive
  // sweep; the pruned engine's invariance is covered by test_search_prune.
  cfg.prune.enabled = false;
  const PartitionResult base = auto_partition(g, cfg).plan;
  ASSERT_TRUE(base.feasible) << base.infeasible_reason;
  const std::string base_json = plan_to_json(base);

  cfg.profile_memo = true;
  for (int t : {1, 2, 8}) {
    cfg.budget.threads = t;
    const PartitionResult r = auto_partition(g, cfg).plan;
    ASSERT_TRUE(r.feasible) << r.infeasible_reason;
    EXPECT_EQ(r.stats.threads_used, t);
    // Byte-identical plan JSON: same stages, devices, microbatches,
    // replicas and profiled times regardless of thread count, and with
    // the profile memo on or off.
    EXPECT_EQ(plan_to_json(r), base_json) << "threads=" << t;
    // The search totals are also invariant when no budget abort occurs.
    EXPECT_EQ(r.stats.dp_cells_visited, base.stats.dp_cells_visited);
    EXPECT_EQ(r.stats.candidates.size(), base.stats.candidates.size());
  }
}

TEST(SearchParallel, PlanBitIdenticalAcrossThreadsBert) {
  BuiltModel m = build_bert(tiny_bert());
  expect_plan_invariant(m.graph, 64);
}

TEST(SearchParallel, PlanBitIdenticalAcrossThreadsMlp) {
  MlpConfig c;
  c.input_dim = 64;
  c.hidden_dims = {128, 128, 128, 128};
  c.num_classes = 16;
  BuiltModel m = build_mlp(c);
  expect_plan_invariant(m.graph, 64);
}

TEST(SearchParallel, CandidatesSortedDeterministically) {
  BuiltModel m = build_bert(tiny_bert());
  SearchRequest cfg;
  cfg.batch_size = 64;
  cfg.budget.threads = 8;
  const PartitionResult r = auto_partition(m.graph, cfg).plan;
  ASSERT_TRUE(r.feasible);
  const auto& cs = r.stats.candidates;
  ASSERT_FALSE(cs.empty());
  for (std::size_t i = 1; i < cs.size(); ++i) {
    const auto key = [](const CandidateTrace& c) {
      return std::make_tuple(c.nodes, c.stages, c.microbatches);
    };
    EXPECT_LT(key(cs[i - 1]), key(cs[i])) << "at index " << i;
  }
}

TEST(SearchParallel, ResolveThreadsPrecedence) {
  EXPECT_EQ(resolve_search_threads(3), 3);
  ASSERT_EQ(setenv("RANNC_THREADS", "5", 1), 0);
  EXPECT_EQ(resolve_search_threads(0), 5);
  EXPECT_EQ(resolve_search_threads(2), 2);  // explicit knob wins
  ASSERT_EQ(setenv("RANNC_THREADS", "garbage", 1), 0);
  EXPECT_EQ(resolve_search_threads(0), 1);
  ASSERT_EQ(unsetenv("RANNC_THREADS"), 0);
  EXPECT_EQ(resolve_search_threads(0), 1);
}

// ---- ProfileMemo keying --------------------------------------------------

/// Base fn that records how often it runs and whose result encodes every
/// component of the memo key, so a wrong cache hit is observable.
struct CountingBase {
  std::atomic<int> calls{0};

  RangeProfileFn fn() {
    return [this](int lo, int hi, std::int64_t bsize, int microbatches,
                  int num_stages) {
      calls.fetch_add(1);
      const std::int64_t inflight = num_stages == 1 ? 1 : microbatches;
      StageProfile p;
      p.t_f = lo + 100.0 * hi + 0.5 * static_cast<double>(bsize);
      p.t_b = static_cast<double>(inflight);
      p.mem = (num_stages > 1 ? 1000000 : 0) + bsize;
      return p;
    };
  }
};

TEST(ProfileMemo, HitsOnEquivalentStageCounts) {
  CountingBase base;
  ProfileMemo memo(base.fn());
  RangeProfileFn f = memo.fn();

  // (MB=2, S=3) and (MB=2, S=5) share (inflight=2, checkpointing=true).
  const StageProfile a = f(0, 4, 8, /*MB=*/2, /*S=*/3);
  const StageProfile b = f(0, 4, 8, /*MB=*/2, /*S=*/5);
  EXPECT_EQ(base.calls.load(), 1);
  EXPECT_EQ(memo.hits(), 1);
  EXPECT_EQ(memo.misses(), 1);
  EXPECT_DOUBLE_EQ(a.t_f, b.t_f);
  EXPECT_DOUBLE_EQ(a.t_b, b.t_b);
  EXPECT_EQ(a.mem, b.mem);

  // S=1 forces inflight=1 whatever MB is.
  f(0, 4, 8, /*MB=*/4, /*S=*/1);
  f(0, 4, 8, /*MB=*/8, /*S=*/1);
  EXPECT_EQ(base.calls.load(), 2);
  EXPECT_EQ(memo.hits(), 2);
}

TEST(ProfileMemo, MissesOnDistinctKeys) {
  CountingBase base;
  ProfileMemo memo(base.fn());
  RangeProfileFn f = memo.fn();

  f(0, 4, 8, 2, 3);
  f(0, 4, 8, 4, 3);  // different inflight
  f(0, 4, 8, 2, 1);  // different checkpointing AND inflight
  f(0, 4, 4, 2, 3);  // different bsize
  f(0, 5, 8, 2, 3);  // different hi
  f(1, 4, 8, 2, 3);  // different lo
  EXPECT_EQ(base.calls.load(), 6);
  EXPECT_EQ(memo.hits(), 0);
  EXPECT_EQ(memo.misses(), 6);
}

TEST(ProfileMemo, ReturnsBitIdenticalProfiles) {
  CountingBase base;
  ProfileMemo memo(base.fn());
  RangeProfileFn f = memo.fn();
  RangeProfileFn raw = base.fn();
  for (int lo = 0; lo < 4; ++lo)
    for (int hi = lo + 1; hi <= 5; ++hi)
      for (int mb : {1, 2, 4})
        for (int s : {1, 2, 3}) {
          const StageProfile got = f(lo, hi, 16, mb, s);
          const StageProfile want = raw(lo, hi, 16, mb, s);
          EXPECT_DOUBLE_EQ(got.t_f, want.t_f);
          EXPECT_DOUBLE_EQ(got.t_b, want.t_b);
          EXPECT_EQ(got.mem, want.mem);
        }
}

// Two threads miss one key at once and both compute it: the first insert
// counts the miss and the second a hit, so the counters are the same
// whatever the scheduling (misses are the distinct keys).
TEST(ProfileMemo, ConcurrentMissesOnOneKeyCountOneMiss) {
  std::atomic<int> entered{0};
  ProfileMemo memo([&](int lo, int hi, std::int64_t bsize, int, int) {
    entered.fetch_add(1);
    while (entered.load() < 2) std::this_thread::yield();  // both missed
    StageProfile p;
    p.t_f = lo + 100.0 * hi + static_cast<double>(bsize);
    return p;
  });
  RangeProfileFn f = memo.fn();
  StageProfile theirs;
  std::thread other([&] { theirs = f(0, 4, 8, 2, 3); });
  const StageProfile mine = f(0, 4, 8, 2, 3);
  other.join();
  EXPECT_EQ(entered.load(), 2);
  EXPECT_EQ(memo.misses(), 1);
  EXPECT_EQ(memo.hits(), 1);
  EXPECT_DOUBLE_EQ(mine.t_f, theirs.t_f);
}

// ---- Budget abort under concurrency --------------------------------------

TEST(SearchParallel, BudgetAbortIsDeterministicUnderThreads) {
  BuiltModel m = build_bert(tiny_bert());
  SearchRequest cfg;
  cfg.batch_size = 64;
  cfg.use_coarsening = false;  // the expensive ablation path
  cfg.budget.max_dp_cells = 100;
  cfg.prune.enabled = false;  // pruning could finish inside the tiny budget
  for (int t : {1, 8}) {
    cfg.budget.threads = t;
    const PartitionResult r = auto_partition(m.graph, cfg).plan;
    EXPECT_FALSE(r.feasible) << "threads=" << t;
    EXPECT_EQ(r.infeasible_reason, "search budget exceeded")
        << "threads=" << t;
  }
}

// ---- Stage-DP: shared budget and equal-stage_devs reuse ------------------

struct SyntheticUnits {
  std::vector<double> w;
  std::vector<double> mem;

  [[nodiscard]] RangeProfileFn fn() const {
    return [this](int lo, int hi, std::int64_t bsize, int, int) {
      StageProfile p;
      double tw = 0, tm = 0;
      for (int i = lo; i < hi; ++i) {
        tw += w[static_cast<std::size_t>(i)];
        tm += mem[static_cast<std::size_t>(i)];
      }
      p.t_f = tw * static_cast<double>(bsize);
      p.t_b = 2 * p.t_f;
      p.mem = static_cast<std::int64_t>(tm * static_cast<double>(bsize));
      return p;
    };
  }
};

SyntheticUnits ramp_units(int n) {
  SyntheticUnits u;
  for (int i = 0; i < n; ++i) {
    u.w.push_back(1.0 + 0.1 * i);
    u.mem.push_back(8.0);
  }
  return u;
}

StageDpInput dp_input(const SyntheticUnits& u, int S, int D) {
  StageDpInput in;
  in.num_units = static_cast<int>(u.w.size());
  in.num_stages = S;
  in.num_devices = D;
  in.batch_size = 256;
  in.replica_factor = 1;
  in.microbatches = 4;
  in.device_memory = 1 << 30;
  in.profile = u.fn();
  return in;
}

TEST(StageDp, SharedBudgetSpansInvocations) {
  const SyntheticUnits u = ramp_units(24);
  StageDpInput in = dp_input(u, 3, 10);

  // Measure the unconstrained demand of one invocation. It must exceed the
  // internal flush batch (4096 cells) or the shared check never fires.
  const StageDpSolution free_run = form_stage_dp(in);
  ASSERT_TRUE(free_run.feasible);
  const std::int64_t total = free_run.dp_cells_visited;
  ASSERT_GT(total, 4200);

  // Budget covers one invocation plus a sliver: the first DP completes,
  // the second aborts once the shared counter crosses the cap.
  std::atomic<std::int64_t> shared{0};
  in.shared_cells = &shared;
  in.max_cells = total + 100;

  const StageDpSolution first = form_stage_dp(in);
  EXPECT_TRUE(first.feasible);
  EXPECT_FALSE(first.aborted);
  EXPECT_EQ(shared.load(), total);

  const StageDpSolution second = form_stage_dp(in);
  EXPECT_TRUE(second.aborted);
  EXPECT_FALSE(second.feasible);
  // The aborting run flushed everything it visited.
  EXPECT_EQ(shared.load(), total + second.dp_cells_visited);
}

TEST(StageDp, EqualStageDevsReuseMatchesLegacy) {
  const SyntheticUnits u = ramp_units(20);
  StageDpInput in = dp_input(u, 4, 12);

  in.reuse_equal_stage_devs = false;
  const StageDpSolution legacy = form_stage_dp(in);
  ASSERT_TRUE(legacy.feasible);
  EXPECT_EQ(legacy.profile_queries_saved, 0);

  in.reuse_equal_stage_devs = true;
  const StageDpSolution hoisted = form_stage_dp(in);
  ASSERT_TRUE(hoisted.feasible);

  EXPECT_EQ(hoisted.stage_end, legacy.stage_end);
  EXPECT_EQ(hoisted.stage_devices, legacy.stage_devices);
  EXPECT_DOUBLE_EQ(hoisted.max_tf, legacy.max_tf);
  EXPECT_DOUBLE_EQ(hoisted.max_tb, legacy.max_tb);
  // Every skipped query is accounted for, and some actually were skipped.
  EXPECT_GT(hoisted.profile_queries_saved, 0);
  EXPECT_EQ(hoisted.profile_queries + hoisted.profile_queries_saved,
            legacy.profile_queries);
  EXPECT_EQ(hoisted.dp_cells_visited, legacy.dp_cells_visited);
}

}  // namespace
}  // namespace rannc
