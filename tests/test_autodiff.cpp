// Finite-difference gradient checks for the autodiff interpreter, one per
// operator family, plus interpreter-level behaviour tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "autodiff/interpreter.h"

namespace rannc {
namespace {

/// A gradient-check fixture: a graph whose single marked output is scalar
/// (we reduce with a fixed weighted sum so every element contributes a
/// distinct gradient), plus concrete input/param tensors.
struct Check {
  TaskGraph g{"check"};
  TensorMap tensors;           // inputs + params
  std::vector<ValueId> wrt;    // values to check gradients for
  ValueId loss = -1;

  /// Appends reduce(v) = v_flat . w_fixed as the scalar loss.
  void finish(ValueId v) {
    const std::int64_t n = g.value(v).shape.numel();
    ValueId flat = g.add_task("flat", OpKind::Reshape, {v}, Shape{1, n});
    ValueId w = g.add_param("reduce_w", Shape{n, 1});
    ValueId out = g.add_task("reduce", OpKind::MatMul, {flat, w}, Shape{1, 1});
    g.mark_output(out);
    loss = out;
    // Fixed, non-uniform reduction weights.
    Tensor rw(Shape{n, 1});
    for (std::int64_t i = 0; i < n; ++i)
      rw.at(i) = 0.3f + 0.1f * static_cast<float>(i % 7);
    tensors.emplace(w, std::move(rw));
  }

  double eval() const {
    Interpreter interp(g);
    TensorMap values = tensors;
    ForwardCache cache;
    interp.forward(g.topo_order(), values, cache);
    return values.at(loss).at(0);
  }

  void run(double tol = 2e-2) {
    Interpreter interp(g);
    TensorMap values = tensors;
    ForwardCache cache;
    interp.forward(g.topo_order(), values, cache);
    TensorMap grads;
    grads.emplace(loss, Tensor::full(Shape{1, 1}, 1.0f));
    interp.backward(g.topo_order(), values, cache, grads);

    const float eps = 1e-2f;
    for (ValueId v : wrt) {
      ASSERT_TRUE(grads.count(v)) << "no gradient for " << g.value(v).name;
      Tensor& theta = tensors.at(v);
      const std::int64_t n = theta.numel();
      // Probe a handful of indices spread over the tensor.
      for (std::int64_t i : {std::int64_t{0}, n / 3, n / 2, n - 1}) {
        const float saved = theta.at(i);
        theta.at(i) = saved + eps;
        const double up = eval();
        theta.at(i) = saved - eps;
        const double down = eval();
        theta.at(i) = saved;
        const double numeric = (up - down) / (2.0 * eps);
        const double analytic = grads.at(v).at(i);
        EXPECT_NEAR(analytic, numeric,
                    tol * std::max(1.0, std::abs(numeric)))
            << g.value(v).name << "[" << i << "]";
      }
    }
  }
};

Tensor randn(Shape s, std::uint64_t seed, float scale = 1.0f) {
  return Tensor::uniform(std::move(s), scale, seed);
}

TEST(GradCheck, MatMulBothOperands) {
  Check c;
  ValueId x = c.g.add_input("x", Shape{3, 4});
  ValueId w = c.g.add_param("w", Shape{4, 5});
  ValueId y = c.g.add_task("mm", OpKind::MatMul, {x, w}, Shape{3, 5});
  c.tensors.emplace(x, randn(Shape{3, 4}, 1));
  c.tensors.emplace(w, randn(Shape{4, 5}, 2));
  c.wrt = {x, w};
  c.finish(y);
  c.run();
}

TEST(GradCheck, BatchedMatMul) {
  Check c;
  ValueId a = c.g.add_input("a", Shape{2, 3, 4});
  ValueId b = c.g.add_input("b", Shape{2, 4, 3});
  ValueId y = c.g.add_task("bmm", OpKind::MatMul, {a, b}, Shape{2, 3, 3});
  c.tensors.emplace(a, randn(Shape{2, 3, 4}, 3));
  c.tensors.emplace(b, randn(Shape{2, 4, 3}, 4));
  c.wrt = {a, b};
  c.finish(y);
  c.run();
}

TEST(GradCheck, AddWithBroadcastBias) {
  Check c;
  ValueId x = c.g.add_input("x", Shape{3, 4});
  ValueId b = c.g.add_param("b", Shape{4});
  ValueId y = c.g.add_task("add", OpKind::Add, {x, b}, Shape{3, 4});
  c.tensors.emplace(x, randn(Shape{3, 4}, 5));
  c.tensors.emplace(b, randn(Shape{4}, 6));
  c.wrt = {x, b};
  c.finish(y);
  c.run();
}

TEST(GradCheck, MulElementwise) {
  Check c;
  ValueId x = c.g.add_input("x", Shape{2, 3});
  ValueId m = c.g.add_input("m", Shape{2, 3});
  ValueId y = c.g.add_task("mul", OpKind::Mul, {x, m}, Shape{2, 3});
  c.tensors.emplace(x, randn(Shape{2, 3}, 7));
  c.tensors.emplace(m, randn(Shape{2, 3}, 8));
  c.wrt = {x, m};
  c.finish(y);
  c.run();
}

TEST(GradCheck, ScaleGeluTanh) {
  Check c;
  ValueId x = c.g.add_input("x", Shape{8});
  ValueId s = c.g.add_task("sc", OpKind::Scale, {x}, Shape{8}, DType::F32,
                           OpAttrs{}.set("scale", 1.7));
  ValueId ge = c.g.add_task("gelu", OpKind::Gelu, {s}, Shape{8});
  ValueId th = c.g.add_task("tanh", OpKind::Tanh, {ge}, Shape{8});
  c.tensors.emplace(x, randn(Shape{8}, 9));
  c.wrt = {x};
  c.finish(th);
  c.run();
}

TEST(GradCheck, ReluAwayFromKink) {
  Check c;
  ValueId x = c.g.add_input("x", Shape{6});
  ValueId y = c.g.add_task("relu", OpKind::Relu, {x}, Shape{6});
  Tensor t(Shape{6}, {0.5f, -0.7f, 1.2f, -1.4f, 2.0f, 0.9f});
  c.tensors.emplace(x, std::move(t));
  c.wrt = {x};
  c.finish(y);
  c.run();
}

TEST(GradCheck, SoftmaxLastDim) {
  Check c;
  ValueId x = c.g.add_input("x", Shape{2, 5});
  ValueId y = c.g.add_task("sm", OpKind::Softmax, {x}, Shape{2, 5});
  c.tensors.emplace(x, randn(Shape{2, 5}, 10));
  c.wrt = {x};
  c.finish(y);
  c.run();
}

TEST(GradCheck, LayerNormAllInputs) {
  Check c;
  ValueId x = c.g.add_input("x", Shape{3, 6});
  ValueId gm = c.g.add_param("ln.gamma", Shape{6});
  ValueId bt = c.g.add_param("ln.beta", Shape{6});
  ValueId y = c.g.add_task("ln", OpKind::LayerNorm, {x, gm, bt}, Shape{3, 6});
  c.tensors.emplace(x, randn(Shape{3, 6}, 11));
  c.tensors.emplace(gm, randn(Shape{6}, 12, 0.5f));
  c.tensors.emplace(bt, randn(Shape{6}, 13, 0.5f));
  c.wrt = {x, gm, bt};
  c.finish(y);
  c.run(5e-2);
}

TEST(GradCheck, EmbeddingTable) {
  Check c;
  ValueId ids = c.g.add_input("ids", Shape{4});
  ValueId tbl = c.g.add_param("tbl", Shape{5, 3});
  ValueId y = c.g.add_task("emb", OpKind::Embedding, {ids, tbl}, Shape{4, 3});
  c.tensors.emplace(ids, Tensor(Shape{4}, {0, 2, 4, 2}));
  c.tensors.emplace(tbl, randn(Shape{5, 3}, 14));
  c.wrt = {tbl};
  c.finish(y);
  c.run();
}

TEST(GradCheck, CrossEntropyLogits) {
  Check c;
  ValueId lg = c.g.add_input("logits", Shape{3, 4});
  ValueId tg = c.g.add_input("targets", Shape{3});
  ValueId y = c.g.add_task("ce", OpKind::CrossEntropy, {lg, tg}, Shape{});
  c.tensors.emplace(lg, randn(Shape{3, 4}, 15));
  c.tensors.emplace(tg, Tensor(Shape{3}, {1, 0, 3}));
  c.wrt = {lg};
  // CrossEntropy output is already scalar: mark directly.
  c.g.mark_output(y);
  c.loss = y;
  // run() seeds Shape{1,1}; reshape scalar seed manually instead.
  Interpreter interp(c.g);
  TensorMap values = c.tensors;
  ForwardCache cache;
  interp.forward(c.g.topo_order(), values, cache);
  TensorMap grads;
  grads.emplace(y, Tensor::full(Shape{}, 1.0f));
  interp.backward(c.g.topo_order(), values, cache, grads);
  const float eps = 1e-2f;
  Tensor& theta = c.tensors.at(lg);
  for (std::int64_t i : {0L, 5L, 11L}) {
    const float saved = theta.at(i);
    theta.at(i) = saved + eps;
    const double up = c.eval();
    theta.at(i) = saved - eps;
    const double down = c.eval();
    theta.at(i) = saved;
    EXPECT_NEAR(grads.at(lg).at(i), (up - down) / (2 * eps), 2e-3);
  }
}

TEST(GradCheck, Conv2dBothOperands) {
  Check c;
  ValueId x = c.g.add_input("x", Shape{2, 2, 5, 5});
  ValueId w = c.g.add_param("w", Shape{3, 2, 3, 3});
  ValueId y = c.g.add_task("conv", OpKind::Conv2d, {x, w}, Shape{2, 3, 3, 3},
                           DType::F32,
                           OpAttrs{}.set("stride", std::int64_t{2})
                                    .set("pad", std::int64_t{1}));
  c.tensors.emplace(x, randn(Shape{2, 2, 5, 5}, 16));
  c.tensors.emplace(w, randn(Shape{3, 2, 3, 3}, 17));
  c.wrt = {x, w};
  c.finish(y);
  c.run();
}

TEST(GradCheck, BatchNormAllInputs) {
  Check c;
  ValueId x = c.g.add_input("x", Shape{2, 3, 2, 2});
  ValueId gm = c.g.add_param("bn.gamma", Shape{3});
  ValueId bt = c.g.add_param("bn.beta", Shape{3});
  ValueId y = c.g.add_task("bn", OpKind::BatchNorm2d, {x, gm, bt},
                           Shape{2, 3, 2, 2});
  c.tensors.emplace(x, randn(Shape{2, 3, 2, 2}, 18));
  c.tensors.emplace(gm, randn(Shape{3}, 19, 0.5f));
  c.tensors.emplace(bt, randn(Shape{3}, 20, 0.5f));
  c.wrt = {x, gm, bt};
  c.finish(y);
  c.run(5e-2);
}

TEST(GradCheck, PoolingAndTransposeChain) {
  Check c;
  ValueId x = c.g.add_input("x", Shape{1, 2, 4, 4});
  ValueId mp = c.g.add_task("mp", OpKind::MaxPool2d, {x}, Shape{1, 2, 2, 2},
                            DType::F32,
                            OpAttrs{}.set("kernel", std::int64_t{2})
                                     .set("stride", std::int64_t{2})
                                     .set("pad", std::int64_t{0}));
  ValueId ap = c.g.add_task("ap", OpKind::GlobalAvgPool2d, {mp},
                            Shape{1, 2, 1, 1});
  ValueId fl = c.g.add_task("fl", OpKind::Flatten, {ap}, Shape{1, 2});
  ValueId tr = c.g.add_task("tr", OpKind::Transpose, {fl}, Shape{2, 1},
                            DType::F32,
                            OpAttrs{}.set("perm0", std::int64_t{1})
                                     .set("perm1", std::int64_t{0}));
  c.tensors.emplace(x, randn(Shape{1, 2, 4, 4}, 21));
  c.wrt = {x};
  c.finish(tr);
  c.run();
}

TEST(Interpreter, MissingInputThrows) {
  TaskGraph g("bad");
  ValueId x = g.add_input("x", Shape{2});
  ValueId y = g.add_task("r", OpKind::Relu, {x}, Shape{2});
  g.mark_output(y);
  Interpreter interp(g);
  TensorMap values;  // x not provided
  ForwardCache cache;
  EXPECT_THROW(interp.forward(g.topo_order(), values, cache), std::logic_error);
}

TEST(Interpreter, FanOutAccumulatesGradients) {
  // y = x + x (via two consumers of x): dy/dx = 2.
  TaskGraph g("fan");
  ValueId x = g.add_input("x", Shape{2});
  ValueId a = g.add_task("a", OpKind::Scale, {x}, Shape{2}, DType::F32,
                         OpAttrs{}.set("scale", 1.0));
  ValueId b = g.add_task("b", OpKind::Scale, {x}, Shape{2}, DType::F32,
                         OpAttrs{}.set("scale", 1.0));
  ValueId y = g.add_task("sum", OpKind::Add, {a, b}, Shape{2});
  g.mark_output(y);
  Interpreter interp(g);
  TensorMap values;
  values.emplace(x, Tensor(Shape{2}, {1.0f, 2.0f}));
  ForwardCache cache;
  interp.forward(g.topo_order(), values, cache);
  TensorMap grads;
  grads.emplace(y, Tensor(Shape{2}, 1.0f));
  interp.backward(g.topo_order(), values, cache, grads);
  EXPECT_FLOAT_EQ(grads.at(x).at(0), 2.0f);
  EXPECT_FLOAT_EQ(grads.at(x).at(1), 2.0f);
}

// ---- transpose folding -----------------------------------------------------

/// W read as W^T by two MatMuls and directly by a third, reduced to one
/// scalar: the graph the folding tests run. W is a [6,7] parameter, or a
/// batched [2,6,7] activation transposed on its last two axes (the
/// attention case). Each flag adds one thing that defeats the fold.
struct FoldGraph {
  TaskGraph g{"fold"};
  ValueId w = -1, wt = -1, loss = -1;
  std::vector<ValueId> leaves;  // inputs and params, gradients checked
  TensorMap tensors;

  FoldGraph(bool batched, bool wt_is_output, bool wt_feeds_relu) {
    const std::vector<std::int64_t> lead =
        batched ? std::vector<std::int64_t>{2} : std::vector<std::int64_t>{};
    const auto shape = [&](std::int64_t r, std::int64_t c) {
      Shape sh{lead};
      sh.dims.push_back(r);
      sh.dims.push_back(c);
      return sh;
    };
    const auto leaf = [&](ValueId v) {
      tensors.emplace(v, Tensor::uniform(g.value(v).shape, 1.0f,
                                         leaves.size() + 5));
      leaves.push_back(v);
      return v;
    };
    const ValueId x = leaf(g.add_input("x", shape(5, 7)));
    const ValueId x2 = leaf(g.add_input("x2", shape(3, 6)));
    const ValueId x3 = leaf(g.add_input("x3", shape(4, 7)));
    w = leaf(batched ? g.add_input("w", shape(6, 7))
                     : g.add_param("w", shape(6, 7)));
    OpAttrs perm;
    for (std::size_t i = 0; i < lead.size() + 2; ++i)
      perm.set("perm" + std::to_string(i), static_cast<std::int64_t>(i));
    perm.set("perm" + std::to_string(lead.size()),
             static_cast<std::int64_t>(lead.size() + 1));
    perm.set("perm" + std::to_string(lead.size() + 1),
             static_cast<std::int64_t>(lead.size()));
    wt = g.add_task("wt", OpKind::Transpose, {w}, shape(7, 6), DType::F32,
                    perm);
    const ValueId y1 = g.add_task("y1", OpKind::MatMul, {x, wt}, shape(5, 6));
    // A direct use of W between the two folded reads: its gradient lands
    // in W's slot before the held W^T gradient does.
    const ValueId z = g.add_task("z", OpKind::MatMul, {x2, w}, shape(3, 7));
    const ValueId y2 = g.add_task("y2", OpKind::MatMul, {x3, wt}, shape(4, 6));
    if (wt_feeds_relu)
      g.add_task("wt_relu", OpKind::Relu, {wt}, shape(7, 6));
    ValueId sum = -1;
    for (ValueId v : {y1, z, y2}) {
      const std::int64_t n = g.value(v).shape.numel();
      const std::string name = g.value(v).name;
      const ValueId flat =
          g.add_task(name + "_flat", OpKind::Reshape, {v}, Shape{1, n});
      const ValueId r = leaf(g.add_param(name + "_rw", Shape{n, 1}));
      const ValueId red =
          g.add_task(name + "_red", OpKind::MatMul, {flat, r}, Shape{1, 1});
      sum = sum < 0 ? red
                    : g.add_task(name + "_sum", OpKind::Add, {sum, red},
                                 Shape{1, 1});
    }
    loss = sum;
    g.mark_output(loss);
    if (wt_is_output) g.mark_output(wt);
  }

  /// Forward and backward over `lists` in order (reverse for backward);
  /// returns the values and the gradients.
  std::pair<TensorMap, TensorMap> run(
      const std::vector<std::vector<TaskId>>& lists) const {
    Interpreter interp(g);
    TensorMap values = tensors;
    ForwardCache cache;
    for (const auto& l : lists) interp.forward(l, values, cache);
    TensorMap grads;
    grads.emplace(loss, Tensor::full(Shape{1, 1}, 1.0f));
    for (auto it = lists.rbegin(); it != lists.rend(); ++it)
      interp.backward(*it, values, cache, grads);
    return {std::move(values), std::move(grads)};
  }
};

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape().dims == b.shape().dims &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// The folded run skips W^T entirely; `fallback` materialises it and must
/// give the same loss and leaf gradients, bit for bit.
void expect_fold_matches(const FoldGraph& folded_graph,
                         const FoldGraph& fallback_graph,
                         const std::vector<std::vector<TaskId>>& fallback_lists,
                         const std::string& what) {
  const auto [fv, fg] = folded_graph.run({folded_graph.g.topo_order()});
  const auto [mv, mg] = fallback_graph.run(fallback_lists);
  EXPECT_EQ(fv.count(folded_graph.wt), 0u) << what << ": W^T was built";
  EXPECT_EQ(fg.count(folded_graph.wt), 0u) << what;
  EXPECT_EQ(mv.count(fallback_graph.wt), 1u) << what << ": W^T was folded";
  EXPECT_TRUE(bit_equal(fv.at(folded_graph.loss), mv.at(fallback_graph.loss)))
      << what;
  for (std::size_t i = 0; i < folded_graph.leaves.size(); ++i)
    EXPECT_TRUE(bit_equal(fg.at(folded_graph.leaves[i]),
                          mg.at(fallback_graph.leaves[i])))
        << what << ": gradient of "
        << folded_graph.g.value(folded_graph.leaves[i]).name;
}

TEST(Interpreter, TransposeReadAsGraphOutputIsMaterialised) {
  for (const bool batched : {false, true})
    expect_fold_matches(FoldGraph(batched, false, false),
                        FoldGraph(batched, true, false),
                        {FoldGraph(batched, true, false).g.topo_order()},
                        batched ? "batched" : "param");
}

TEST(Interpreter, TransposeFeedingNonMatMulIsMaterialised) {
  for (const bool batched : {false, true})
    expect_fold_matches(FoldGraph(batched, false, false),
                        FoldGraph(batched, false, true),
                        {FoldGraph(batched, false, true).g.topo_order()},
                        batched ? "batched" : "param");
}

TEST(Interpreter, TransposeFeedingMatMulInAnotherTaskListIsMaterialised) {
  for (const bool batched : {false, true}) {
    const FoldGraph fg(batched, false, false);
    // The transpose alone in one list, its consumers in the next: a stage
    // boundary between them.
    const TaskId tr = fg.g.value(fg.wt).producer;
    std::vector<TaskId> before, rest;
    for (TaskId t : fg.g.topo_order()) (t <= tr ? before : rest).push_back(t);
    expect_fold_matches(fg, fg, {before, rest}, batched ? "batched" : "param");
  }
}

}  // namespace
}  // namespace rannc
