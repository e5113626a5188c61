// Forward/backward interpreter for TaskGraphs over the CPU tensor library.
//
// This is the execution engine beneath the runtime: given concrete input
// and parameter tensors, it runs any (sub)graph forward, and propagates
// gradients backward through it. Subgraph execution is first-class — a
// pipeline stage is simply a task subset whose cut values are fed/emitted —
// which is what lets partitioned execution be compared bit-for-bit against
// whole-graph execution.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/task_graph.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace rannc {

/// Values (activations, params, gradients) keyed by ValueId.
using TensorMap = std::unordered_map<ValueId, Tensor>;

/// Per-execution cache of auxiliary forward state needed by backward
/// (softmax outputs, layernorm statistics, pooling argmax, ...).
struct ForwardCache {
  std::unordered_map<TaskId, LayerNormResult> layernorm;
  std::unordered_map<TaskId, BatchNormResult> batchnorm;
  std::unordered_map<TaskId, MaxPoolResult> maxpool;
  std::unordered_map<TaskId, Tensor> ce_probs;
};

// Transpose folding. A Transpose that swaps the last two axes is skipped
// when its output is not a graph output and every consumer of it is a
// MatMul that takes it as the right operand and runs in the same task list.
// Those MatMuls read the source through matmul's transposed operand, which
// is bit-identical to reading the copy. Their backward yields the gradient
// in the source's layout, held under the transpose's output until the
// Transpose's own turn in reverse order and then accumulated into the
// source's gradient: the order the materialised path accumulates in, so no
// bit moves. Any other transpose is materialised. A weight transpose always
// folds in the runtime, because atomic partitioning places each constant
// task with its consumer (paper Fig. 2(b)).
class Interpreter {
 public:
  explicit Interpreter(const TaskGraph& g) : graph_(&g) {}

  /// Executes the tasks in `tasks` (must be topologically consistent, i.e.
  /// sorted by id) forward. `values` must already contain every external
  /// input of the subset (graph inputs, params, cut inputs); outputs and
  /// intermediates are inserted into `values`.
  void forward(const std::vector<TaskId>& tasks, TensorMap& values,
               ForwardCache& cache) const;

  /// Propagates gradients backward through `tasks` (iterated in reverse).
  /// `grads` must contain gradients for every value of the subset that is
  /// consumed outside it (for the loss output, seed with a scalar 1).
  /// Gradients for cut inputs and parameters are accumulated into `grads`.
  void backward(const std::vector<TaskId>& tasks, const TensorMap& values,
                const ForwardCache& cache, TensorMap& grads) const;

  [[nodiscard]] const TaskGraph& graph() const { return *graph_; }

 private:
  /// Folded transposes of one task list: output value -> source value.
  using Folds = std::unordered_map<ValueId, ValueId>;
  [[nodiscard]] Folds folds(const std::vector<TaskId>& tasks) const;

  void run_task(const Task& t, const Folds& folds, TensorMap& values,
                ForwardCache& cache) const;
  void grad_task(const Task& t, const Folds& folds, const TensorMap& values,
                 const ForwardCache& cache, TensorMap& grads) const;

  const TaskGraph* graph_;
};

/// Accumulates `delta` into `grads[v]` (insert if absent).
void accumulate_grad(TensorMap& grads, ValueId v, Tensor delta);

}  // namespace rannc
