// Tests for the dense tensor, the thread pool, and every forward kernel
// against small hand-computed references — plus the blocked-kernel parity
// suite (blocked vs naive over a ragged shape catalog, bit-identity across
// thread counts) and the slab arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/kernels_blocked.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace rannc {
namespace {

TEST(Tensor, ConstructionAndFill) {
  Tensor t(Shape{2, 3}, 1.5f);
  EXPECT_EQ(t.numel(), 6);
  EXPECT_FLOAT_EQ(t.sum(), 9.0f);
  t.fill(0);
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
}

TEST(Tensor, CopiesAreShallowCloneIsDeep) {
  Tensor a(Shape{4}, 1.0f);
  Tensor b = a;          // shallow
  Tensor c = a.clone();  // deep
  a.at(0) = 5.0f;
  EXPECT_FLOAT_EQ(b.at(0), 5.0f);
  EXPECT_FLOAT_EQ(c.at(0), 1.0f);
}

TEST(Tensor, ReshapeSharesData) {
  Tensor a(Shape{2, 3}, 2.0f);
  Tensor r = a.reshaped(Shape{6});
  r.at(0) = 7.0f;
  EXPECT_FLOAT_EQ(a.at(0), 7.0f);
  EXPECT_THROW(a.reshaped(Shape{5}), std::invalid_argument);
}

TEST(Tensor, UniformIsDeterministicPerSeed) {
  Tensor a = Tensor::uniform(Shape{100}, 1.0f, 42);
  Tensor b = Tensor::uniform(Shape{100}, 1.0f, 42);
  Tensor c = Tensor::uniform(Shape{100}, 1.0f, 43);
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.0f);
  EXPECT_GT(max_abs_diff(a, c), 0.0f);
  EXPECT_LE(a.max_abs(), 1.0f);
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  ThreadPool::global().parallel_for(0, 10000, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  int count = 0;
  ThreadPool::global().parallel_for(5, 5, [&](std::int64_t, std::int64_t) { ++count; });
  EXPECT_EQ(count, 0);
  std::atomic<int> total{0};
  ThreadPool::global().parallel_for(0, 3, [&](std::int64_t b, std::int64_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, ParallelEachRunsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(257);
  ThreadPool::global().parallel_each(257, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);

  int count = 0;
  ThreadPool::global().parallel_each(0, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 0);

  // Unlike parallel_for, small counts are still dispatched per-index
  // (each item may be arbitrarily expensive), including n == 1.
  std::atomic<int> one{0};
  ThreadPool::global().parallel_each(1, [&](std::int64_t i) {
    one += static_cast<int>(i) + 1;
  });
  EXPECT_EQ(one.load(), 1);
}

TEST(ThreadPool, ParallelEachWorksWithoutWorkers) {
  ThreadPool solo(0);
  std::vector<int> hits(17, 0);
  solo.parallel_each(17, [&](std::int64_t i) {
    ++hits[static_cast<std::size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(MatMul, SmallReference) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0), 58);
  EXPECT_FLOAT_EQ(c.at(1), 64);
  EXPECT_FLOAT_EQ(c.at(2), 139);
  EXPECT_FLOAT_EQ(c.at(3), 154);
}

TEST(MatMul, BatchedBothSides) {
  // Two batches of 1x2 @ 2x1.
  Tensor a(Shape{2, 1, 2}, {1, 2, 3, 4});
  Tensor b(Shape{2, 2, 1}, {5, 6, 7, 8});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0), 17);  // 1*5+2*6
  EXPECT_FLOAT_EQ(c.at(1), 53);  // 3*7+4*8
}

TEST(MatMul, BatchedLhsSharedRhs) {
  Tensor a(Shape{2, 1, 2}, {1, 2, 3, 4});
  Tensor b(Shape{2, 1}, {5, 6});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0), 17);
  EXPECT_FLOAT_EQ(c.at(1), 39);
}

TEST(MatMul, RejectsMismatchedInner) {
  Tensor a(Shape{2, 3}, 1.0f);
  Tensor b(Shape{4, 2}, 1.0f);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Transpose, Permutes2D) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = transpose(a, {1, 0});
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(t.at(0), 1);
  EXPECT_FLOAT_EQ(t.at(1), 4);
  EXPECT_FLOAT_EQ(t.at(2), 2);
}

TEST(Transpose, Permutes3D) {
  Tensor a(Shape{2, 1, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = transpose(a, {1, 0, 2});  // -> [1, 2, 3]
  EXPECT_EQ(t.shape(), (Shape{1, 2, 3}));
  EXPECT_FLOAT_EQ(max_abs_diff(t.reshaped(Shape{6}), a.reshaped(Shape{6})), 0);
}

TEST(Add, BroadcastBias) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3}, {10, 20, 30});
  Tensor c = add(a, b);
  EXPECT_FLOAT_EQ(c.at(0), 11);
  EXPECT_FLOAT_EQ(c.at(5), 36);
}

TEST(Add, ReduceGradSumsOverBroadcast) {
  Tensor g(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor db = add_reduce_grad(g, Shape{3});
  EXPECT_FLOAT_EQ(db.at(0), 5);
  EXPECT_FLOAT_EQ(db.at(1), 7);
  EXPECT_FLOAT_EQ(db.at(2), 9);
  // Equal shapes: identity.
  Tensor same = add_reduce_grad(g, Shape{2, 3});
  EXPECT_FLOAT_EQ(max_abs_diff(same, g), 0);
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  Tensor a(Shape{2, 4}, {1, 2, 3, 4, -1, 0, 1, 2});
  Tensor s = softmax_lastdim(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0;
    for (int j = 0; j < 4; ++j) sum += s.at(r * 4 + j);
    EXPECT_NEAR(sum, 1.0f, 1e-6);
    EXPECT_LT(s.at(r * 4), s.at(r * 4 + 3));
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  Tensor a(Shape{1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor s = softmax_lastdim(a);
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(s.at(j), 1.0f / 3.0f, 1e-6);
}

TEST(LayerNorm, NormalizesRows) {
  Tensor x(Shape{2, 4}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor gamma(Shape{4}, 1.0f);
  Tensor beta(Shape{4}, 0.0f);
  LayerNormResult r = layernorm(x, gamma, beta);
  for (int row = 0; row < 2; ++row) {
    float mean = 0, var = 0;
    for (int j = 0; j < 4; ++j) mean += r.y.at(row * 4 + j);
    EXPECT_NEAR(mean / 4, 0.0f, 1e-5);
    for (int j = 0; j < 4; ++j) var += r.y.at(row * 4 + j) * r.y.at(row * 4 + j);
    EXPECT_NEAR(var / 4, 1.0f, 1e-3);
  }
}

TEST(Gelu, KnownValues) {
  Tensor x(Shape{3}, {0.0f, 1.0f, -1.0f});
  Tensor y = gelu(x);
  EXPECT_NEAR(y.at(0), 0.0f, 1e-6);
  EXPECT_NEAR(y.at(1), 0.841345f, 1e-5);
  EXPECT_NEAR(y.at(2), -0.158655f, 1e-5);
}

TEST(Embedding, GathersRows) {
  Tensor ids(Shape{3}, {2, 0, 1});
  Tensor table(Shape{3, 2}, {10, 11, 20, 21, 30, 31});
  Tensor out = embedding(ids, table);
  EXPECT_FLOAT_EQ(out.at(0), 30);
  EXPECT_FLOAT_EQ(out.at(2), 10);
  EXPECT_FLOAT_EQ(out.at(4), 20);
}

TEST(Embedding, GradScattersRows) {
  Tensor ids(Shape{2}, {1, 1});  // same row twice: grads accumulate
  Tensor g(Shape{2, 2}, {1, 2, 3, 4});
  Tensor dt = embedding_grad(g, ids, Shape{3, 2});
  EXPECT_FLOAT_EQ(dt.at(2), 4);  // 1 + 3
  EXPECT_FLOAT_EQ(dt.at(3), 6);  // 2 + 4
  EXPECT_FLOAT_EQ(dt.at(0), 0);
}

TEST(CrossEntropy, UniformLogitsGiveLogC) {
  Tensor logits(Shape{2, 4}, 0.0f);
  Tensor targets(Shape{2}, {0, 3});
  CrossEntropyResult r = cross_entropy(logits, targets);
  EXPECT_NEAR(r.loss.at(0), std::log(4.0f), 1e-5);
}

TEST(Conv2d, IdentityKernel) {
  Tensor x(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w(Shape{1, 1, 1, 1}, {2.0f});
  Tensor y = conv2d(x, w, 1, 0);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
  EXPECT_FLOAT_EQ(y.at(4), 10.0f);
}

TEST(Conv2d, StrideAndPadding) {
  Tensor x(Shape{1, 1, 4, 4}, 1.0f);
  Tensor w(Shape{1, 1, 3, 3}, 1.0f);
  Tensor y = conv2d(x, w, 2, 1);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.at(0), 4.0f);  // corner: 2x2 valid window
}

TEST(MaxPool, TracksArgmax) {
  Tensor x(Shape{1, 1, 2, 2}, {1, 5, 3, 2});
  MaxPoolResult r = maxpool2d(x, 2, 2, 0);
  EXPECT_EQ(r.y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(r.y.at(0), 5.0f);
  EXPECT_EQ(r.argmax[0], 1);
  Tensor g(Shape{1, 1, 1, 1}, {2.0f});
  Tensor dx = maxpool2d_grad(g, r, x.shape());
  EXPECT_FLOAT_EQ(dx.at(1), 2.0f);
  EXPECT_FLOAT_EQ(dx.at(0), 0.0f);
}

TEST(GlobalAvgPool, AveragesPlane) {
  Tensor x(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor y = global_avgpool2d(x);
  EXPECT_FLOAT_EQ(y.at(0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(1), 25.0f);
}

// ---- blocked-kernel parity --------------------------------------------------

/// Pins the kernel path for one scope and restores the blocked default.
struct NaiveScope {
  explicit NaiveScope(bool naive) { set_naive_kernels(naive); }
  ~NaiveScope() { set_naive_kernels(false); }
};

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

struct MmCase {
  std::int64_t ba, m, k, n;
  bool shared_b;
  bool subnormal = false;  // ~0.3 % of A and G set to 1e-40f
};

// Ragged sizes on purpose: every tile/vector tail path gets exercised. Then
// bert_tiny's GEMMs (projections, FFN up/down, MLM head, 6-head attention
// per batch and with a shared rhs), the mlp's skinny 8-row microbatch, and
// one case with subnormal inputs.
const std::vector<MmCase> kMmCatalog = {
    {1, 1, 1, 1, true},       {1, 4, 16, 16, true},    {1, 33, 385, 130, true},
    {2, 7, 19, 23, true},     {3, 64, 64, 64, false},  {1, 128, 384, 384, true},
    {4, 5, 3, 2, false},      {1, 1, 512, 1, true},    {2, 31, 17, 257, true},
    {1, 63, 300, 15, true},   {2, 8, 1, 8, false},     {1, 64, 384, 384, true},
    {1, 64, 384, 1536, true}, {1, 64, 384, 512, true}, {1, 64, 1536, 384, true},
    {6, 64, 64, 64, false},   {6, 64, 64, 64, true},   {1, 8, 1024, 1024, true},
    {1, 64, 384, 1536, true, true},
};

/// Sets every 331st element to a subnormal float.
void sprinkle_subnormals(Tensor& t) {
  for (std::int64_t i = 0; i < t.numel(); i += 331) t.at(i) = 1e-40f;
}

// Test-local oracles for the GEMM gradients: every element is one
// sequential double sum over ascending terms, rounded to float once.

/// DA[b,i,q] = sum_j G[b,i,j] * B[b or 0, q, j].
Tensor oracle_grad_a(const Tensor& g, const Tensor& b, const MmCase& c) {
  Tensor da(Shape{c.ba, c.m, c.k});
  for (std::int64_t bi = 0; bi < c.ba; ++bi)
    for (std::int64_t i = 0; i < c.m; ++i)
      for (std::int64_t q = 0; q < c.k; ++q) {
        const float* grow = g.data() + (bi * c.m + i) * c.n;
        const float* brow = b.data() + ((c.shared_b ? 0 : bi) * c.k + q) * c.n;
        double acc = 0;
        for (std::int64_t j = 0; j < c.n; ++j)
          acc += static_cast<double>(grow[j]) * static_cast<double>(brow[j]);
        da.at((bi * c.m + i) * c.k + q) = static_cast<float>(acc);
      }
  return da;
}

/// DB[b,q,j] = sum_r A[b,r,q] * G[b,r,j]; a shared rhs sums the rows of
/// every batch, batch-major.
Tensor oracle_grad_b(const Tensor& a, const Tensor& g, const MmCase& c) {
  const std::int64_t outs = c.shared_b ? 1 : c.ba;
  const std::int64_t rows = c.shared_b ? c.ba * c.m : c.m;
  Tensor db(c.shared_b ? Shape{c.k, c.n} : Shape{c.ba, c.k, c.n});
  for (std::int64_t bi = 0; bi < outs; ++bi)
    for (std::int64_t q = 0; q < c.k; ++q)
      for (std::int64_t j = 0; j < c.n; ++j) {
        double acc = 0;
        for (std::int64_t r = 0; r < rows; ++r)
          acc += static_cast<double>(a.at((bi * c.m + r) * c.k + q)) *
                 static_cast<double>(g.at((bi * c.m + r) * c.n + j));
        db.at((bi * c.k + q) * c.n + j) = static_cast<float>(acc);
      }
  return db;
}

/// A catalog case's operands: a, b as matmul reads it, and an upstream
/// gradient g shaped like the product.
struct MmOperands {
  Tensor a, b, g;
};

MmOperands operands(const MmCase& c) {
  MmOperands o;
  o.a = Tensor::uniform(Shape{c.ba, c.m, c.k}, 1.0f,
                        17 * static_cast<std::uint64_t>(c.m) + c.k);
  o.b = c.shared_b
            ? Tensor::uniform(Shape{c.k, c.n}, 1.0f, 7 * c.n + 1)
            : Tensor::uniform(Shape{c.ba, c.k, c.n}, 1.0f, 7 * c.n + 1);
  o.g = Tensor::uniform(Shape{c.ba, c.m, c.n}, 1.0f, 99);
  if (c.subnormal) {
    sprinkle_subnormals(o.a);
    sprinkle_subnormals(o.g);
  }
  return o;
}

std::string describe(const MmCase& c) {
  return "case ba=" + std::to_string(c.ba) + " m=" + std::to_string(c.m) +
         " k=" + std::to_string(c.k) + " n=" + std::to_string(c.n) +
         (c.shared_b ? " shared" : " batched") +
         (c.subnormal ? " subnormal" : "");
}

/// The last-two-axes swap that stores a case's B transposed.
std::vector<int> swap_last2(const MmCase& c) {
  return c.shared_b ? std::vector<int>{1, 0} : std::vector<int>{0, 2, 1};
}

TEST(KernelParity, MatmulFamilyMatchesNaiveOverCatalog) {
  for (const MmCase& c : kMmCatalog) {
    const auto [a, b, g] = operands(c);
    Tensor cn, dan, dbn;
    {
      NaiveScope naive(true);
      cn = matmul(a, b);
      dan = matmul_grad_a(g, b);
      dbn = matmul_grad_b(a, g, b.shape());
    }
    Tensor cb = matmul(a, b);
    Tensor dab = matmul_grad_a(g, b);
    Tensor dbb = matmul_grad_b(a, g, b.shape());
    const std::string at = describe(c);
    // The forward GEMM accumulates in float in a different order than the
    // reference, so its rounding error grows with the reduction length.
    EXPECT_LE(max_abs_diff(cn, cb),
              1e-5f * std::max(1.0f, static_cast<float>(c.k) / 512.0f))
        << at;
    // Both gradients double-accumulate in one sequential order on both
    // paths: exactly equal to each other and to the oracle, not just close.
    const Tensor dao = oracle_grad_a(g, b, c);
    const Tensor dbo = oracle_grad_b(a, g, c);
    EXPECT_TRUE(bit_equal(dan, dao)) << at;
    EXPECT_TRUE(bit_equal(dab, dao)) << at;
    EXPECT_TRUE(bit_equal(dbn, dbo)) << at;
    EXPECT_TRUE(bit_equal(dbb, dbo)) << at;
  }
}

// A B stored transposed is read through strides: every op of the family is
// bit-equal to materialising the transpose first, on both kernel paths, and
// grad_b comes back in the stored layout.
TEST(KernelParity, TransposedOperandBitEqualToTransposeThenOp) {
  for (const bool naive : {true, false}) {
    NaiveScope scope(naive);
    for (const MmCase& c : kMmCatalog) {
      const auto [a, b, g] = operands(c);
      const Tensor bt = transpose(b, swap_last2(c));
      const std::string at = describe(c) + (naive ? " naive" : " blocked");
      EXPECT_TRUE(bit_equal(matmul(a, bt, true), matmul(a, b))) << at;
      EXPECT_TRUE(bit_equal(matmul_grad_a(g, bt, true), matmul_grad_a(g, b)))
          << at;
      const Tensor dbt = matmul_grad_b(a, g, bt.shape(), true);
      EXPECT_EQ(dbt.shape().dims, bt.shape().dims) << at;
      EXPECT_TRUE(bit_equal(
          dbt, transpose(matmul_grad_b(a, g, b.shape()), swap_last2(c))))
          << at;
    }
  }
}

// Every element of the forward GEMM is one float FMA chain over ascending
// k, starting from 0, ragged tile edges included, whether B is plain or
// stored transposed.
TEST(KernelParity, ForwardGemmIsOneFmaChainPerElement) {
  if (!detail::blocked_kernels_simd())
    GTEST_SKIP() << "the plain-C fallback tile rounds each product";
  for (const MmCase& c : kMmCatalog) {
    const auto [a, b, g] = operands(c);
    Tensor oracle(Shape{c.ba, c.m, c.n});
    for (std::int64_t bi = 0; bi < c.ba; ++bi)
      for (std::int64_t i = 0; i < c.m; ++i)
        for (std::int64_t j = 0; j < c.n; ++j) {
          const float* arow = a.data() + (bi * c.m + i) * c.k;
          const float* bmat = b.data() + (c.shared_b ? 0 : bi) * c.k * c.n;
          float acc = 0.0f;
          for (std::int64_t q = 0; q < c.k; ++q)
            acc = std::fma(arow[q], bmat[q * c.n + j], acc);
          oracle.at((bi * c.m + i) * c.n + j) = acc;
        }
    const std::string at = describe(c);
    EXPECT_TRUE(bit_equal(matmul(a, b), oracle)) << at;
    EXPECT_TRUE(
        bit_equal(matmul(a, transpose(b, swap_last2(c)), true), oracle))
        << at;
  }
}

struct ConvCase {
  std::int64_t N, C, H, W, K, kh, kw, stride, pad;
};

const std::vector<ConvCase> kConvCatalog = {
    {2, 3, 13, 17, 4, 3, 3, 1, 1}, {1, 2, 8, 8, 3, 5, 5, 2, 2},
    {2, 4, 7, 9, 2, 3, 3, 2, 0},   {1, 1, 5, 5, 1, 1, 1, 1, 0},
    {2, 3, 16, 16, 8, 3, 3, 1, 0}, {1, 2, 9, 9, 2, 7, 7, 3, 3},
};

TEST(KernelParity, ConvFamilyBitIdenticalToNaive) {
  for (const ConvCase& c : kConvCatalog) {
    Tensor x = Tensor::uniform(Shape{c.N, c.C, c.H, c.W}, 1.0f, 5);
    Tensor w = Tensor::uniform(Shape{c.K, c.C, c.kh, c.kw}, 1.0f, 6);
    Tensor yn, dxn, dwn, g;
    {
      NaiveScope naive(true);
      yn = conv2d(x, w, c.stride, c.pad);
      g = Tensor::uniform(yn.shape(), 1.0f, 8);
      dxn = conv2d_grad_x(g, w, x.shape(), c.stride, c.pad);
      dwn = conv2d_grad_w(g, x, w.shape(), c.stride, c.pad);
    }
    Tensor yb = conv2d(x, w, c.stride, c.pad);
    Tensor dxb = conv2d_grad_x(g, w, x.shape(), c.stride, c.pad);
    Tensor dwb = conv2d_grad_w(g, x, w.shape(), c.stride, c.pad);
    const std::string at = "case kh=" + std::to_string(c.kh) +
                           " stride=" + std::to_string(c.stride) +
                           " pad=" + std::to_string(c.pad);
    // Both paths accumulate each output element in double over the same
    // per-element term order, so blocked == naive to the bit.
    EXPECT_TRUE(bit_equal(yn, yb)) << at;
    EXPECT_TRUE(bit_equal(dxn, dxb)) << at;
    EXPECT_LE(max_abs_diff(dwn, dwb), 1e-5f) << at;
  }
}

struct TrCase {
  std::vector<std::int64_t> dims;
  std::vector<int> perm;
};

// Mixes the trailing-swap fast path (last two axes), the row-granular
// general path, power-of-two sizes (the staging-buffer case), and ragged
// tails.
const std::vector<TrCase> kTrCatalog = {
    {{5, 7}, {1, 0}},           {{64, 64}, {1, 0}},
    {{128, 96}, {1, 0}},        {{129, 65}, {1, 0}},
    {{1, 300}, {1, 0}},         {{2, 3, 5}, {0, 2, 1}},
    {{2, 4, 16, 16}, {0, 1, 3, 2}}, {{2, 3, 4, 5}, {0, 2, 1, 3}},
    {{3, 4, 5}, {2, 0, 1}},     {{2, 3, 4, 5}, {3, 2, 1, 0}},
    {{6, 1, 9}, {1, 0, 2}},
};

TEST(KernelParity, TransposeBitIdenticalToNaiveOverCatalog) {
  for (const TrCase& c : kTrCatalog) {
    Shape s;
    s.dims = c.dims;
    Tensor x = Tensor::uniform(s, 1.0f, 11 * c.dims[0] + c.dims.back());
    Tensor yn;
    {
      NaiveScope naive(true);
      yn = transpose(x, c.perm);
    }
    Tensor yb = transpose(x, c.perm);
    // A transpose is a pure permutation: any evaluation order moves the
    // same bits, so blocked == naive exactly.
    EXPECT_TRUE(bit_equal(yn, yb))
        << "rank=" << c.dims.size() << " d0=" << c.dims[0];
  }
}

TEST(KernelParity, BlockedResultsBitIdenticalAcrossThreadCounts) {
  ThreadPool solo(0), wide(3);
  Tensor a = Tensor::uniform(Shape{2, 77, 151}, 1.0f, 1);
  Tensor b = Tensor::uniform(Shape{151, 203}, 1.0f, 2);
  set_kernel_pool(&solo);
  Tensor c1 = matmul(a, b);
  Tensor g = Tensor::uniform(c1.shape(), 1.0f, 3);
  Tensor da1 = matmul_grad_a(g, b);
  Tensor db1 = matmul_grad_b(a, g, b.shape());
  Tensor x = Tensor::uniform(Shape{2, 3, 11, 13}, 1.0f, 4);
  Tensor w = Tensor::uniform(Shape{4, 3, 3, 3}, 1.0f, 5);
  Tensor y1 = conv2d(x, w, 1, 1);
  Tensor t1 = transpose(a, {0, 2, 1});
  // Skinny: one row of units in grad_a, 8-term sums in grad_b.
  Tensor sa = Tensor::uniform(Shape{8, 600}, 1.0f, 6);
  Tensor sb = Tensor::uniform(Shape{600, 520}, 1.0f, 7);
  Tensor sg = Tensor::uniform(Shape{8, 520}, 1.0f, 8);
  Tensor sda1 = matmul_grad_a(sg, sb);
  Tensor sdb1 = matmul_grad_b(sa, sg, sb.shape());
  // The forward GEMM's 2-D units on a weight stored [out, in]: bert_tiny's
  // FFN-up projection and the mlp's 8-row microbatch.
  Tensor fx = Tensor::uniform(Shape{64, 384}, 1.0f, 9);
  Tensor fw = Tensor::uniform(Shape{1536, 384}, 1.0f, 10);
  Tensor fg = Tensor::uniform(Shape{64, 1536}, 1.0f, 11);
  Tensor mx = Tensor::uniform(Shape{8, 1024}, 1.0f, 12);
  Tensor mw = Tensor::uniform(Shape{1000, 1024}, 1.0f, 13);
  Tensor fc1 = matmul(fx, fw, true);
  Tensor fda1 = matmul_grad_a(fg, fw, true);
  Tensor fdw1 = matmul_grad_b(fx, fg, fw.shape(), true);
  Tensor mc1 = matmul(mx, mw, true);
  set_kernel_pool(&wide);
  Tensor c2 = matmul(a, b);
  Tensor da2 = matmul_grad_a(g, b);
  Tensor db2 = matmul_grad_b(a, g, b.shape());
  Tensor y2 = conv2d(x, w, 1, 1);
  Tensor t2 = transpose(a, {0, 2, 1});
  Tensor sda2 = matmul_grad_a(sg, sb);
  Tensor sdb2 = matmul_grad_b(sa, sg, sb.shape());
  Tensor fc2 = matmul(fx, fw, true);
  Tensor fda2 = matmul_grad_a(fg, fw, true);
  Tensor fdw2 = matmul_grad_b(fx, fg, fw.shape(), true);
  Tensor mc2 = matmul(mx, mw, true);
  set_kernel_pool(nullptr);
  EXPECT_TRUE(bit_equal(c1, c2));
  EXPECT_TRUE(bit_equal(da1, da2));
  EXPECT_TRUE(bit_equal(db1, db2));
  EXPECT_TRUE(bit_equal(y1, y2));
  EXPECT_TRUE(bit_equal(t1, t2));
  EXPECT_TRUE(bit_equal(sda1, sda2));
  EXPECT_TRUE(bit_equal(sdb1, sdb2));
  EXPECT_TRUE(bit_equal(fc1, fc2));
  EXPECT_TRUE(bit_equal(fda1, fda2));
  EXPECT_TRUE(bit_equal(fdw1, fdw2));
  EXPECT_TRUE(bit_equal(mc1, mc2));
}

// ---- arena ------------------------------------------------------------------

TEST(Arena, BuffersAre64ByteAlignedWithSufficientCapacity) {
  for (std::int64_t n : {1, 7, 63, 64, 65, 1000, 4096, 300000}) {
    Tensor t(Shape{n});
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % 64, 0u) << n;
    EXPECT_GE(Arena::capacity_floats(t.data()), n) << n;
  }
}

TEST(Arena, ReusesReleasedSlabs) {
  Arena& arena = Arena::global();
  if (!arena.enabled()) GTEST_SKIP() << "arena disabled via RANNC_ARENA=0";
  const float* p1;
  {
    Tensor t(Shape{512});
    p1 = t.data();
  }
  const auto before = arena.stats();
  Tensor t2(Shape{512});  // same size class: must come off the free list
  const auto after = arena.stats();
  EXPECT_EQ(t2.data(), p1);
  EXPECT_EQ(after.pool_hits, before.pool_hits + 1);
  EXPECT_EQ(after.fresh_bytes, before.fresh_bytes);
}

TEST(Arena, EndEpochCountsAndTrimDropsIdleSlabs) {
  Arena& arena = Arena::global();
  if (!arena.enabled()) GTEST_SKIP() << "arena disabled via RANNC_ARENA=0";
  { Tensor t(Shape{2048}); }  // leaves one idle slab pooled
  EXPECT_GT(arena.stats().pooled_bytes, 0);
  const auto e0 = arena.stats().epochs;
  arena.end_epoch();
  EXPECT_EQ(arena.stats().epochs, e0 + 1);
  arena.trim();
  EXPECT_EQ(arena.stats().pooled_bytes, 0);
}

TEST(Arena, DisabledAllocationsStillAlignedAndSafe) {
  Arena& arena = Arena::global();
  const bool was = arena.enabled();
  arena.set_enabled(false);
  {
    Tensor t(Shape{333}, 1.0f);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % 64, 0u);
    EXPECT_FLOAT_EQ(t.sum(), 333.0f);
  }  // released while disabled: freed eagerly, not pooled
  arena.set_enabled(was);
}

TEST(Tensor, IsSharedTracksAliases) {
  Tensor a(Shape{8}, 1.0f);
  EXPECT_FALSE(a.is_shared());
  {
    Tensor alias = a;
    EXPECT_TRUE(a.is_shared());
  }
  EXPECT_FALSE(a.is_shared());
}

TEST(BatchNorm, NormalizesChannels) {
  Tensor x(Shape{2, 1, 1, 2}, {1, 2, 3, 4});
  Tensor gamma(Shape{1}, 1.0f);
  Tensor beta(Shape{1}, 0.0f);
  BatchNormResult r = batchnorm2d(x, gamma, beta);
  float mean = 0;
  for (int i = 0; i < 4; ++i) mean += r.y.at(i);
  EXPECT_NEAR(mean, 0.0f, 1e-5);
  EXPECT_NEAR(r.mean.at(0), 2.5f, 1e-6);
}

}  // namespace
}  // namespace rannc
