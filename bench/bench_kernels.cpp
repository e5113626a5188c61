// Micro-benchmarks (google-benchmark) for the hot paths: CPU tensor
// kernels used by the execution runtime and the three partitioning phases.
#include <benchmark/benchmark.h>

#include <array>

#include "rannc.h"

namespace {

using namespace rannc;

/// Pins the kernel path (naive reference vs blocked) for one benchmark run.
struct KernelPath {
  explicit KernelPath(bool naive) { set_naive_kernels(naive); }
  ~KernelPath() { set_naive_kernels(false); }
};

void BM_MatMul(benchmark::State& state) {
  const auto n = state.range(0);
  KernelPath path(state.range(1) != 0);
  Tensor a = Tensor::uniform(Shape{n, n}, 1.0f, 1);
  Tensor b = Tensor::uniform(Shape{n, n}, 1.0f, 2);
  for (auto _ : state) benchmark::DoNotOptimize(matmul(a, b));
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
// Second arg: 0 = blocked (production), 1 = naive reference loops.
BENCHMARK(BM_MatMul)
    ->Args({64, 0})->Args({128, 0})->Args({256, 0})->Args({512, 0})
    ->Args({256, 1})->Args({512, 1});

// Forward GEMM on a model's own shapes: A[m,k] x B[k,n]. Args: m, k, n,
// B stored transposed as [n,k] (0/1): how a linear layer reads its [out,in]
// weight. RANNC_THREADS=1 or 4 pins the kernel pool's size.
void BM_MatMulShape(benchmark::State& state) {
  const auto m = state.range(0), k = state.range(1), n = state.range(2);
  const bool trans_b = state.range(3) != 0;
  Tensor a = Tensor::uniform(Shape{m, k}, 1.0f, 1);
  Tensor b = Tensor::uniform(trans_b ? Shape{n, k} : Shape{k, n}, 1.0f, 2);
  for (auto _ : state) benchmark::DoNotOptimize(matmul(a, b, trans_b));
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
// bert_tiny's projections, FFN up/down and MLM head; the mlp's 8-row
// microbatch.
BENCHMARK(BM_MatMulShape)
    ->Args({64, 384, 384, 1})->Args({64, 384, 1536, 0})
    ->Args({64, 384, 1536, 1})->Args({64, 1536, 384, 1})
    ->Args({64, 384, 512, 1})->Args({8, 1024, 1024, 1});

/// Uniform [m, n] values with every 331st element (~0.3 %) set to the
/// subnormal 1e-40f when `subnormal` is set: the share a bert_tiny training
/// run reaches in its backward GEMM inputs.
Tensor grad_operand(std::int64_t m, std::int64_t n, std::uint64_t seed,
                    bool subnormal) {
  Tensor t = Tensor::uniform(Shape{m, n}, 1.0f, seed);
  if (subnormal)
    for (std::int64_t i = 0; i < t.numel(); i += 331) t.at(i) = 1e-40f;
  return t;
}

// Backward GEMMs of C[m,n] = A[m,k] x B[k,n]. Args: m, k, n, naive (0 =
// blocked, 1 = reference loops), subnormal inputs (0/1).
void BM_MatMulGradA(benchmark::State& state) {
  const auto m = state.range(0), k = state.range(1), n = state.range(2);
  KernelPath path(state.range(3) != 0);
  const bool sub = state.range(4) != 0;
  Tensor g = grad_operand(m, n, 1, sub);
  Tensor b = grad_operand(k, n, 2, sub);
  for (auto _ : state) benchmark::DoNotOptimize(matmul_grad_a(g, b));
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}

void BM_MatMulGradB(benchmark::State& state) {
  const auto m = state.range(0), k = state.range(1), n = state.range(2);
  KernelPath path(state.range(3) != 0);
  const bool sub = state.range(4) != 0;
  Tensor a = grad_operand(m, k, 1, sub);
  Tensor g = grad_operand(m, n, 2, sub);
  for (auto _ : state)
    benchmark::DoNotOptimize(matmul_grad_b(a, g, Shape{k, n}));
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}

// 256^3, bert_tiny's FFN (64x384x1536) and the mlp's 8-row microbatch
// (8x1024x1024), the last two also with subnormal inputs.
void grad_gemm_args(benchmark::internal::Benchmark* b) {
  b->Args({256, 256, 256, 0, 0})->Args({256, 256, 256, 1, 0});
  for (const auto& [m, k, n] : {std::array<std::int64_t, 3>{64, 384, 1536},
                                std::array<std::int64_t, 3>{8, 1024, 1024}})
    b->Args({m, k, n, 0, 0})->Args({m, k, n, 0, 1});
}
BENCHMARK(BM_MatMulGradA)->Apply(grad_gemm_args);
BENCHMARK(BM_MatMulGradB)->Apply(grad_gemm_args);

void BM_Transpose(benchmark::State& state) {
  const auto n = state.range(0);
  KernelPath path(state.range(1) != 0);
  Tensor x = Tensor::uniform(Shape{n, n}, 1.0f, 1);
  for (auto _ : state) benchmark::DoNotOptimize(transpose(x, {1, 0}));
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Transpose)->Args({1024, 0})->Args({1024, 1});

void BM_Softmax(benchmark::State& state) {
  Tensor a = Tensor::uniform(Shape{state.range(0), 512}, 1.0f, 3);
  for (auto _ : state) benchmark::DoNotOptimize(softmax_lastdim(a));
}
BENCHMARK(BM_Softmax)->Arg(64)->Arg(512);

void BM_LayerNorm(benchmark::State& state) {
  Tensor x = Tensor::uniform(Shape{state.range(0), 768}, 1.0f, 4);
  Tensor g(Shape{768}, 1.0f);
  Tensor b(Shape{768}, 0.0f);
  for (auto _ : state) benchmark::DoNotOptimize(layernorm(x, g, b));
}
BENCHMARK(BM_LayerNorm)->Arg(64)->Arg(512);

void BM_Conv2d(benchmark::State& state) {
  KernelPath path(state.range(0) != 0);
  Tensor x = Tensor::uniform(Shape{1, 16, 32, 32}, 1.0f, 5);
  Tensor w = Tensor::uniform(Shape{16, 16, 3, 3}, 1.0f, 6);
  for (auto _ : state) benchmark::DoNotOptimize(conv2d(x, w, 1, 1));
}
BENCHMARK(BM_Conv2d)->Arg(0)->Arg(1);

BuiltModel bench_bert(std::int64_t layers) {
  BertConfig c;
  c.hidden = 1024;
  c.layers = layers;
  return build_bert(c);
}

void BM_AtomicPartition(benchmark::State& state) {
  BuiltModel m = bench_bert(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(atomic_partition(m.graph));
}
BENCHMARK(BM_AtomicPartition)->Arg(24)->Arg(96);

void BM_BlockPartition(benchmark::State& state) {
  BuiltModel m = bench_bert(state.range(0));
  AtomicPartition ap = atomic_partition(m.graph);
  GraphProfiler prof(ap.graph, DeviceSpec{});
  BlockPartitionConfig cfg;
  cfg.k = 32;
  cfg.profile_batch = 8;
  for (auto _ : state) benchmark::DoNotOptimize(block_partition(ap, prof, cfg));
}
BENCHMARK(BM_BlockPartition)->Arg(24)->Arg(96);

void BM_StageDp(benchmark::State& state) {
  // Synthetic 32-unit DP at the paper's scale: S stages over 8 devices.
  const int N = 32;
  std::vector<double> w(N, 1.0);
  for (int i = 0; i < N; ++i) w[static_cast<std::size_t>(i)] += 0.1 * (i % 5);
  StageDpInput in;
  in.num_units = N;
  in.num_stages = static_cast<int>(state.range(0));
  in.num_devices = 8;
  in.batch_size = 256;
  in.replica_factor = 4;
  in.microbatches = 8;
  in.device_memory = 1LL << 40;
  in.profile = [&w](int lo, int hi, std::int64_t bsize, int, int) {
    StageProfile p;
    double t = 0;
    for (int i = lo; i < hi; ++i) t += w[static_cast<std::size_t>(i)];
    p.t_f = t * static_cast<double>(bsize) * 1e-3;
    p.t_b = 2 * p.t_f;
    p.mem = 1;
    return p;
  };
  for (auto _ : state) benchmark::DoNotOptimize(form_stage_dp(in));
}
BENCHMARK(BM_StageDp)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
