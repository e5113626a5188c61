// Training goldens: the exact bits of three Adam steps on small models,
// single-device and as a 2-stage pipeline. Each case pins the float bits of
// every step's loss and an FNV-1a digest of every parameter's bytes after
// the last step, so a kernel or interpreter change that moves any bit of
// training shows here, with the model and the step that moved.
//
// The values hold for builds whose blocked kernels use the AVX2+FMA paths
// (the forward GEMM is a float FMA chain there); portable builds round the
// forward GEMM differently and skip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "models/bert.h"
#include "models/gpt2.h"
#include "models/mlp.h"
#include "models/t5.h"
#include "partition/auto_partitioner.h"
#include "partition/search.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/trainer.h"
#include "tensor/kernels_blocked.h"

namespace rannc {
namespace {

constexpr int kSteps = 3;

struct Golden {
  std::vector<std::uint32_t> losses;  ///< float bits, one per step
  std::uint64_t params;               ///< digest of all parameter bytes
};

std::uint32_t bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

/// FNV-1a over every parameter's bytes, in ValueId order.
std::uint64_t digest(const std::map<ValueId, Tensor>& params) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& [v, t] : params) {
    const auto* p = reinterpret_cast<const unsigned char*>(t.data());
    for (std::size_t i = 0; i < static_cast<std::size_t>(t.numel()) * 4; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// Microbatches by input name: token ids and labels in [0, vocab), zero
/// (additive) masks, and uniform features for the mlp's `x`.
std::vector<TensorMap> batches(const TaskGraph& g, int count,
                               std::int64_t vocab, int step) {
  std::uint64_t s =
      0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(step + 1);
  const auto next = [&] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  };
  std::vector<TensorMap> mbs(static_cast<std::size_t>(count));
  for (TensorMap& mb : mbs)
    for (ValueId v : g.input_values()) {
      const Value& val = g.value(v);
      Tensor t(val.shape, 0.0f);
      if (val.name == "x") {
        t = Tensor::uniform(val.shape, 1.0f, next());
      } else if (val.name.find("mask") == std::string::npos) {
        for (std::int64_t i = 0; i < t.numel(); ++i)
          t.at(i) = static_cast<float>(next() %
                                       static_cast<std::uint64_t>(vocab));
      }
      mb.emplace(v, std::move(t));
    }
  return mbs;
}

OptimizerConfig adam() {
  OptimizerConfig oc;
  oc.kind = OptimizerConfig::Kind::Adam;
  oc.lr = 0.01f;
  return oc;
}

Golden run_single(const TaskGraph& g, std::int64_t vocab, int mbs) {
  Trainer tr(g, adam(), 42);
  Golden out;
  for (int step = 0; step < kSteps; ++step)
    out.losses.push_back(bits(tr.step(batches(g, mbs, vocab, step))));
  out.params = digest({tr.params().begin(), tr.params().end()});
  return out;
}

/// Partitions `g` onto two devices as train_bert does and trains the plan.
Golden run_pipeline(const TaskGraph& g, std::int64_t vocab, int batch) {
  SearchRequest req;
  req.cluster.num_nodes = 1;
  req.cluster.devices_per_node = 2;
  req.cluster.device.memory_bytes = 5 * g.num_params() * 4;
  req.batch_size = batch;
  req.num_blocks = 6;
  req.budget.threads = 1;
  const PartitionResult plan = auto_partition(g, req).plan;
  EXPECT_TRUE(plan.feasible) << plan.infeasible_reason;
  EXPECT_EQ(plan.stages.size(), 2u);
  std::vector<std::vector<TaskId>> stages;
  for (const StagePlan& sp : plan.stages) stages.push_back(sp.tasks);
  PipelineOptions popt;
  popt.opt = adam();
  popt.seed = 42;
  PipelineTrainer pipe(*plan.graph, stages, popt);
  const int mbs = std::max(1, plan.microbatches);
  Golden out;
  for (int step = 0; step < kSteps; ++step)
    out.losses.push_back(
        bits(pipe.step(batches(*plan.graph, mbs, vocab, step))));
  std::map<ValueId, Tensor> params;
  for (std::size_t s = 0; s < pipe.num_stages(); ++s)
    for (const auto& [v, t] : pipe.stage_params(s)) params.emplace(v, t);
  out.params = digest(params);
  return out;
}

void expect_golden(const Golden& got, const Golden& want) {
  std::string actual = "{{";
  char buf[32];
  for (std::size_t i = 0; i < got.losses.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s0x%08x", i ? ", " : "", got.losses[i]);
    actual += buf;
  }
  std::snprintf(buf, sizeof buf, "}, 0x%016llx}",
                static_cast<unsigned long long>(got.params));
  actual += buf;
  EXPECT_EQ(got.losses, want.losses) << "actual: " << actual;
  EXPECT_EQ(got.params, want.params) << "actual: " << actual;
}

class TrainingGoldens : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!detail::blocked_kernels_simd() || naive_kernels())
      GTEST_SKIP() << "goldens are recorded for the AVX2+FMA blocked kernels";
  }
};

BertConfig bert_tiny() {
  BertConfig c;
  c.hidden = 384;
  c.heads = 6;
  c.layers = 2;
  c.seq_len = 64;
  c.vocab = 512;
  return c;
}

MlpConfig mlp_small() {
  MlpConfig c;
  c.input_dim = 24;
  c.hidden_dims = {48, 48, 48, 48};
  c.num_classes = 8;
  c.batch = 8;
  return c;
}

Gpt2Config gpt2_small() {
  Gpt2Config c;
  c.hidden = 64;
  c.layers = 2;
  c.seq_len = 16;
  c.vocab = 100;
  c.heads = 4;
  return c;
}

T5Config t5_small() {
  T5Config c;
  c.hidden = 64;
  c.layers = 1;
  c.seq_len = 16;
  c.target_len = 12;
  c.vocab = 100;
  c.heads = 4;
  return c;
}

TEST_F(TrainingGoldens, BertTinySingleDevice) {
  const BuiltModel m = build_bert(bert_tiny());
  expect_golden(run_single(m.graph, 512, 2),
                {{0x40e00dde, 0x40e1de48, 0x40e80df2}, 0xa85c58b892d1e780});
}

TEST_F(TrainingGoldens, BertTinyTwoStages) {
  const BuiltModel m = build_bert(bert_tiny());
  expect_golden(run_pipeline(m.graph, 512, 4),
                {{0x40e00dde, 0x40e1de48, 0x40e80df2}, 0xa85c58b892d1e780});
}

TEST_F(TrainingGoldens, MlpSingleDevice) {
  const BuiltModel m = build_mlp(mlp_small());
  expect_golden(run_single(m.graph, 8, 2),
                {{0x400515ec, 0x40057ab5, 0x4004b7ec}, 0x9d11289d9509866b});
}

TEST_F(TrainingGoldens, MlpTwoStages) {
  const BuiltModel m = build_mlp(mlp_small());
  expect_golden(run_pipeline(m.graph, 8, 32),
                {{0x4005150a, 0x40051cec, 0x4004e021}, 0x6b5340df6cb054eb});
}

// gpt2 and t5 tie the token table into the LM head, so an embedding in the
// first stage and the head in the last share a parameter, which the
// pipeline runtime does not support; they are pinned single-device.
TEST_F(TrainingGoldens, Gpt2TiedSingleDevice) {
  const BuiltModel m = build_gpt2(gpt2_small());
  expect_golden(run_single(m.graph, 100, 2),
                {{0x4092031c, 0x40987ddc, 0x409f4b26}, 0xd256493e676fa810});
}

TEST_F(TrainingGoldens, T5SingleDevice) {
  const BuiltModel m = build_t5(t5_small());
  expect_golden(run_single(m.graph, 100, 2),
                {{0x40984756, 0x409c4102, 0x409662c4}, 0xc7653d9ef7429082});
}

}  // namespace
}  // namespace rannc
