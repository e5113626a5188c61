// Tests for block-level partitioning (paper Section III-B): block count,
// convexity (acyclic block quotient), coverage, memory bounds, balance and
// the communication-reducing refinement.
#include <gtest/gtest.h>

#include <numeric>

#include "graph/subgraph.h"
#include "models/bert.h"
#include "models/mlp.h"
#include "models/moe.h"
#include "models/resnet.h"
#include "partition/atomic.h"
#include "partition/block.h"
#include "partition/search.h"

namespace rannc {
namespace {

struct Built {
  AtomicPartition ap;
  std::unique_ptr<GraphProfiler> prof;
};

Built prepare(int which) {
  TaskGraph g = [&] {
    switch (which) {
      case 0: {
        BertConfig c;
        c.hidden = 128;
        c.layers = 4;
        c.seq_len = 16;
        c.vocab = 64;
        return build_bert(c).graph;
      }
      case 1: {
        ResNetConfig c;
        c.depth = 50;
        c.image_size = 32;
        return build_resnet(c).graph;
      }
      default: {
        MlpConfig c;
        c.hidden_dims = {64, 64, 64, 64, 64, 64};
        return build_mlp(c).graph;
      }
    }
  }();
  Built b{atomic_partition(g), nullptr};
  b.prof = std::make_unique<GraphProfiler>(b.ap.graph, DeviceSpec{});
  return b;
}

class BlockInvariants
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BlockInvariants, ProducesKConvexCoveringBlocks) {
  const auto [model, k] = GetParam();
  Built b = prepare(model);
  if (static_cast<int>(b.ap.comps.size()) < k) GTEST_SKIP();
  BlockPartitionConfig cfg;
  cfg.k = k;
  BlockPartition bp = block_partition(b.ap, *b.prof, cfg);

  EXPECT_EQ(static_cast<int>(bp.blocks.size()), k);

  // Coverage: every component in exactly one block.
  std::vector<int> seen(b.ap.comps.size(), 0);
  for (std::size_t i = 0; i < bp.blocks.size(); ++i)
    for (int c : bp.blocks[i].comps) {
      ++seen[static_cast<std::size_t>(c)];
      EXPECT_EQ(bp.block_of_comp[static_cast<std::size_t>(c)],
                static_cast<int>(i));
    }
  for (int s : seen) EXPECT_EQ(s, 1);

  // Convexity of every block at the task level.
  TaskAdjacency adj(b.ap.graph);
  for (const Block& blk : bp.blocks) {
    std::vector<char> member(b.ap.graph.num_tasks(), 0);
    for (TaskId t : blk.tasks) member[static_cast<std::size_t>(t)] = 1;
    EXPECT_TRUE(is_convex(adj, member));
  }

  // Topological chain: all value edges between blocks point forward.
  std::vector<int> block_of_task(b.ap.graph.num_tasks(), -1);
  for (std::size_t i = 0; i < bp.blocks.size(); ++i)
    for (TaskId t : bp.blocks[i].tasks)
      block_of_task[static_cast<std::size_t>(t)] = static_cast<int>(i);
  for (const Value& v : b.ap.graph.values()) {
    if (v.producer == kNoTask) continue;
    for (TaskId c : v.consumers)
      EXPECT_LE(block_of_task[static_cast<std::size_t>(v.producer)],
                block_of_task[static_cast<std::size_t>(c)]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndK, BlockInvariants,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Values(2, 4, 8, 16)));

TEST(BlockBalance, RefinementImprovesOrMatchesBalance) {
  Built b = prepare(0);
  BlockPartitionConfig cfg;
  cfg.k = 8;
  auto imbalance = [](const BlockPartition& bp) {
    double mx = 0, sum = 0;
    for (const Block& blk : bp.blocks) {
      mx = std::max(mx, blk.time());
      sum += blk.time();
    }
    return mx / (sum / static_cast<double>(bp.blocks.size()));
  };
  cfg.balance_refinement = false;
  const double rough = imbalance(block_partition(b.ap, *b.prof, cfg));
  cfg.balance_refinement = true;
  const double refined = imbalance(block_partition(b.ap, *b.prof, cfg));
  EXPECT_LE(refined, rough + 1e-9);
}

TEST(BlockBalance, BlocksAreReasonablyBalanced) {
  Built b = prepare(0);
  BlockPartitionConfig cfg;
  cfg.k = 8;
  BlockPartition bp = block_partition(b.ap, *b.prof, cfg);
  double mx = 0, mn = 1e30;
  for (const Block& blk : bp.blocks) {
    mx = std::max(mx, blk.time());
    mn = std::min(mn, blk.time());
  }
  EXPECT_LT(mx / mn, 2.5) << "blocks are badly imbalanced";
}

TEST(BlockMemory, RespectsDeviceMemoryWhenFeasible) {
  Built b = prepare(2);  // MLP: small
  // Generous per-block budget: full graph / 2.
  const ProfileResult& whole = b.prof->profile(b.ap.graph.topo_order(), 1);
  BlockPartitionConfig cfg;
  cfg.k = 4;
  cfg.device_memory = 4 * whole.param_bytes + whole.act_bytes;
  BlockPartition bp = block_partition(b.ap, *b.prof, cfg);
  for (const Block& blk : bp.blocks)
    EXPECT_LE(4 * blk.param_bytes + blk.act_bytes, cfg.device_memory);
}

TEST(BlockPartition, TimesSumToComponentTimes) {
  Built b = prepare(2);
  BlockPartitionConfig cfg;
  cfg.k = 3;
  BlockPartition bp = block_partition(b.ap, *b.prof, cfg);
  double total_blocks = 0;
  for (const Block& blk : bp.blocks) total_blocks += blk.time();
  double total_tasks = 0;
  for (const Task& t : b.ap.graph.tasks())
    total_tasks += b.prof->task_time_f(t.id, cfg.profile_batch, false) +
                   b.prof->task_time_b(t.id, cfg.profile_batch, false);
  EXPECT_NEAR(total_blocks, total_tasks, 1e-9);
}

TEST(BlockPartition, KEqualsOneMergesEverything) {
  Built b = prepare(2);
  BlockPartitionConfig cfg;
  cfg.k = 1;
  BlockPartition bp = block_partition(b.ap, *b.prof, cfg);
  ASSERT_EQ(bp.blocks.size(), 1u);
  EXPECT_EQ(bp.blocks[0].tasks.size(), b.ap.graph.num_tasks());
  EXPECT_EQ(bp.cut_bytes, 0);
}

TEST(BlockPartition, RejectsEmptyPartition) {
  AtomicPartition empty;
  GraphProfiler prof(empty.graph, DeviceSpec{});
  EXPECT_THROW(block_partition(empty, prof, BlockPartitionConfig{}),
               std::invalid_argument);
}

TEST(BlockPartition, CutBytesAreNonNegativeAndBounded) {
  Built b = prepare(0);
  BlockPartitionConfig cfg;
  cfg.k = 8;
  BlockPartition bp = block_partition(b.ap, *b.prof, cfg);
  std::int64_t total_act = 0;
  for (const Block& blk : bp.blocks) total_act += blk.act_bytes;
  EXPECT_GE(bp.cut_bytes, 0);
  EXPECT_LT(bp.cut_bytes, total_act);
}

// ---- golden digests -------------------------------------------------------
// FNV-1a over the blocks, block_of_comp, the search counters and the cut
// (block times follow from the comps). The expected values were
// recorded with the whole-graph Kahn acyclicity check that preceded the
// incremental quotient (src/partition/quotient.h); any drift in blocks,
// their order, the search counters or the cut is a behaviour change.
std::uint64_t digest(const BlockPartition& bp) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(bp.blocks.size());
  for (const Block& blk : bp.blocks) {
    mix(blk.comps.size());
    for (int c : blk.comps) mix(static_cast<std::uint64_t>(c));
    mix(blk.tasks.size());
    for (TaskId t : blk.tasks) mix(static_cast<std::uint64_t>(t));
    mix(static_cast<std::uint64_t>(blk.param_bytes));
    mix(static_cast<std::uint64_t>(blk.act_bytes));
  }
  for (int b : bp.block_of_comp) mix(static_cast<std::uint64_t>(b));
  mix(static_cast<std::uint64_t>(bp.coarsen_levels));
  mix(static_cast<std::uint64_t>(bp.uncoarsen_moves));
  mix(static_cast<std::uint64_t>(bp.compaction_merges));
  mix(static_cast<std::uint64_t>(bp.cut_bytes));
  return h;
}

struct Golden {
  int model;
  int k;
  std::uint64_t digest;
};

class BlockGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(BlockGolden, MatchesRecordedDigest) {
  const Golden g = GetParam();
  Built b = prepare(g.model);
  BlockPartitionConfig cfg;
  cfg.k = g.k;
  EXPECT_EQ(digest(block_partition(b.ap, *b.prof, cfg)), g.digest);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndK, BlockGolden,
    ::testing::Values(Golden{0, 4, 0x0ab8b2ac3a78be60ull},
                      Golden{0, 8, 0x3b6ade465d02bb45ull},
                      Golden{0, 32, 0x09b5f4913dac55faull},
                      Golden{1, 4, 0xc5ef648fefd17cd9ull},
                      Golden{1, 8, 0xb9f2fa580160fdfdull},
                      Golden{1, 32, 0x766c21d04b9cc3e3ull},
                      Golden{2, 4, 0x4f24c855fc69c785ull},
                      Golden{2, 8, 0xd1f18cdc9ea9782eull},
                      Golden{2, 32, 0x823855aa36cc63bfull}));

/// The perfbench search_moe graph (h512/E64/L8) with the Phase-2 settings
/// auto_partition uses on a V100 cluster: k = 32, the usable device memory,
/// balance at microbatch 1.
BlockPartition moe_partition(std::int64_t layers) {
  MoeConfig mc;
  mc.hidden = 512;
  mc.experts = 64;
  mc.layers = layers;
  mc.seq_len = 256;
  mc.vocab = 4096;
  const AtomicPartition ap = atomic_partition(build_moe(mc).graph);
  const SearchRequest req;
  const GraphProfiler prof(ap.graph, req.cluster.device, req.precision);
  BlockPartitionConfig cfg;
  cfg.k = req.num_blocks;
  cfg.device_memory = req.usable_memory();
  cfg.profile_batch = 1;
  return block_partition(ap, prof, cfg);
}

TEST(BlockGolden, MoeMatchesRecordedDigest) {
  EXPECT_EQ(digest(moe_partition(8)), 0x01bed174bcc7677aull);
}

// Complexity guard: doubling the MoE depth doubles the components, and
// the cycle checks' work must grow about as much. The whole-graph check
// this replaced grew quadratically; a rank window that stops bounding the
// searches would too.
TEST(BlockComplexity, CycleCheckVisitsGrowLinearlyWithDepth) {
  const BlockPartition l8 = moe_partition(8);
  const BlockPartition l16 = moe_partition(16);
  EXPECT_GT(l8.cycle_check_visits, 0);
  EXPECT_LE(l16.cycle_check_visits, 3 * l8.cycle_check_visits);
}

}  // namespace
}  // namespace rannc
