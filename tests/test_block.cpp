// Tests for block-level partitioning (paper Section III-B): block count,
// convexity (acyclic block quotient), coverage, memory bounds, balance and
// the communication-reducing refinement.
#include <gtest/gtest.h>

#include <numeric>
#include <random>

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
/// balance at microbatch 1. `device_memory` > 0 replaces the usable memory.
BlockPartition moe_partition(std::int64_t layers,
                             std::int64_t device_memory = 0) {
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
  cfg.device_memory = device_memory > 0 ? device_memory : req.usable_memory();
  cfg.profile_batch = 1;
  return block_partition(ap, prof, cfg);
}

TEST(BlockGolden, MoeMatchesRecordedDigest) {
  EXPECT_EQ(digest(moe_partition(8)), 0x01bed174bcc7677aull);
}

// The goldens below were recorded before Phase 2 derived its group views
// from the quotient and indexed balance-move candidates by block frontier.
// Their digests also cover the cycle-check counters.
std::uint64_t digest_with_checks(const BlockPartition& bp) {
  std::uint64_t h = digest(bp);
  for (std::int64_t v : {bp.cycle_checks, bp.cycle_check_visits})
    h = (h ^ static_cast<std::uint64_t>(v)) * 1099511628211ull;
  return h;
}

// 16 layers: balance refinement makes ~12k moves, and the 64 equal-time
// experts per layer tie at every time comparison.
TEST(BlockGolden, Moe16MatchesRecordedDigest) {
  EXPECT_EQ(digest_with_checks(moe_partition(16)), 0xba06b776aa7f901eull);
}

// Memory-bound: the budget is the even 1/32 share of the graph's training
// state (~671 MiB), so coarsening's, uncoarsening's, compaction's and
// balance refinement's memory checks all reject moves, and compaction
// stops above k blocks.
TEST(BlockGolden, MoeMemoryBoundMatchesRecordedDigest) {
  const BlockPartition bp = moe_partition(8, 703300352);
  EXPECT_GT(bp.blocks.size(), 32u);
  EXPECT_EQ(digest_with_checks(bp), 0xefc1a47708010f3bull);
}

/// Seeded random layered DAG in which every task has one shape and one of
/// three op kinds, so component times take a handful of distinct values and
/// Phase 2's time comparisons meet ties everywhere.
Built random_ties(std::uint32_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        std::uniform_int_distribution<int>(0, static_cast<int>(n) - 1)(rng));
  };
  TaskGraph g("ties_" + std::to_string(seed));
  const Shape s{16, 16};
  std::vector<ValueId> live{g.add_input("x", s)};
  const std::size_t depth = 12 + pick(20);
  for (std::size_t d = 0; d < depth; ++d) {
    std::vector<ValueId> next;
    for (std::size_t i = 0, w = 1 + pick(4); i < w; ++i) {
      const std::string name = "t" + std::to_string(d) + "_" + std::to_string(i);
      const ValueId a = live[pick(live.size())];
      switch (pick(3)) {
        case 0:
          next.push_back(g.add_task(name, OpKind::Gelu, {a}, s));
          break;
        case 1:
          next.push_back(
              g.add_task(name, OpKind::Add, {a, live[pick(live.size())]}, s));
          break;
        default:
          next.push_back(g.add_task(name, OpKind::MatMul,
                                    {a, g.add_param(name + ".w", s)}, s));
      }
    }
    live.insert(live.end(), next.begin(), next.end());
    if (live.size() > 6) live.erase(live.begin(), live.end() - 6);
  }
  ValueId acc = live.front();
  for (std::size_t i = 1; i < live.size(); ++i)
    acc = g.add_task("join" + std::to_string(i), OpKind::Add, {acc, live[i]}, s);
  g.mark_output(acc);
  g.validate();
  Built b{atomic_partition(g), nullptr};
  b.prof = std::make_unique<GraphProfiler>(b.ap.graph, DeviceSpec{});
  return b;
}

// Digests per seed, {uncoarsening on, off}; k = 2 + seed % 7.
constexpr std::uint64_t kTieDigests[][2] = {
    {0x101db8c36a42f2feull, 0xe33c76472db4de42ull},
    {0xcc49afbb0f3ec209ull, 0x157eede32f985517ull},
    {0x198053144000bdd4ull, 0x304cab2bf3910a44ull},
    {0x5b4492b743eb0a73ull, 0x66c4cc2d5bb6f0b1ull},
    {0x1e61aeb8d28da962ull, 0x94c2231e988a158bull},
    {0xc118bdaf6ab3f83full, 0x32f4ecf141911ea9ull},
    {0x25ea85b14c3f4e7aull, 0x116adae4cd7eb501ull},
    {0x3251550e500d7cb7ull, 0xb0a37e835169545bull},
    {0x04d1f23984491b94ull, 0x7455a629c756ec50ull},
    {0xfe8d63aee560aff0ull, 0xe0d103dc1fb84250ull},
    {0xc8ae627d9175ccfaull, 0x1c8e775ebb65451aull},
    {0xe4bf069e8932546cull, 0xdbfe767731e0222eull},
    {0xb79fcec90badce4aull, 0x92459fab3f754740ull},
    {0xaa5ba609045a2d0aull, 0xf0745ae41f3c46e8ull},
    {0x785b384c3b7983f3ull, 0xeeb8b02b32c59a53ull},
    {0x8f243bfbe2feb749ull, 0x984bf88afe931c25ull},
    {0x02b9459a8c5c5ceaull, 0xe2f23bbba078c8cfull},
    {0x40ece2b872cd5bbbull, 0x0fe1d384b1d1e953ull},
    {0x6c95713b3ae36cecull, 0xc2c9c1425d11ddd0ull},
    {0xfe8eb16906d30f96ull, 0xa731bb38aa51fdc2ull},
    {0xe3b477e300ef797dull, 0xbd28ae0e9cb91219ull},
    {0x8ffde466f65cc4e9ull, 0xac366e1e3be9edc5ull},
    {0x99560864f67c93b6ull, 0xf6a8dd589d84647cull},
    {0xed8a517472a0883dull, 0xe91a90e334d42044ull},
    {0x95bafdb02a1f0671ull, 0x9bdef2ae30422209ull},
    {0xb803f2612af3a20eull, 0x3e0bd0c0e191a5d0ull},
    {0x3307eb8773242f14ull, 0x2115fd3c5f167a10ull},
    {0x1c24785bd756e3efull, 0xb2817448f5793cb8ull},
    {0xcc6d9a69e3823036ull, 0x3cd510d55b4c5fdaull},
    {0xa3ab2605a0358d7cull, 0xe94f16d71f25d458ull},
    {0x991d22648594a325ull, 0xefc6ae7ed783bbceull},
    {0xc5f098b2eff0dcbdull, 0xf62464a132796233ull},
    {0x84bc0e4d6259094eull, 0xa73691a8810d379eull},
    {0xe4bf9aa173e90796ull, 0x53b9195310a03eb4ull},
    {0x9f34b41a74b80bc5ull, 0xafbea04f7b73dffbull},
    {0xc8aa590efee65bb5ull, 0xf22ebcda498ac9ecull},
    {0xe908ce00ffc532ceull, 0xb80f5892206a2f92ull},
    {0x21a0ca1c88ac172bull, 0x0fab5dcf42b5c849ull},
    {0xf9d564aeac1a6d08ull, 0xf17bc46a070dc886ull},
    {0xe4911ff2ce72459full, 0xb6f7a188f38b07ceull},
    {0x6e355f813b65f1aaull, 0xb3af0ef8f2efae4dull},
    {0x33b988cf18dd84afull, 0xab676be49b2a27c0ull},
    {0x719ab54e1cecfe12ull, 0x013f46ef3a46024aull},
    {0x24da80faa605b9f7ull, 0xda4b16ed8d6009bbull},
    {0xf53c1094fdf9c81full, 0x02c71c0e61647c53ull},
    {0x8e4171c910aad4f5ull, 0x5eb9556f54ce4495ull},
    {0xc3d2f5ee782cfcc8ull, 0xd41ebfbef2b47de3ull},
    {0x094261ff597ed3e1ull, 0x5eac395ab687ec05ull},
    {0x19b851f188b4c9fdull, 0x55710f57991f69a9ull},
    {0x970e076199690324ull, 0xd24d37c068647414ull},
};

TEST(BlockGolden, TieHeavyRandomDagsMatchRecordedDigests) {
  for (std::uint32_t seed = 0; seed < std::size(kTieDigests); ++seed) {
    SCOPED_TRACE(seed);
    Built b = random_ties(seed);
    BlockPartitionConfig cfg;
    cfg.k = 2 + static_cast<int>(seed % 7);
    for (int off = 0; off < 2; ++off) {
      cfg.uncoarsening = off == 0;
      EXPECT_EQ(digest_with_checks(block_partition(b.ap, *b.prof, cfg)),
                kTieDigests[seed][off]);
    }
  }
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
