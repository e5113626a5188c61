#include "autodiff/interpreter.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace rannc {

namespace {

std::vector<int> perm_of(const Task& t, std::size_t rank) {
  std::vector<int> perm(rank);
  for (std::size_t i = 0; i < rank; ++i)
    perm[i] = static_cast<int>(
        t.attrs.geti("perm" + std::to_string(i), static_cast<std::int64_t>(i)));
  return perm;
}

/// The permutation that swaps the last two of `rank` axes.
std::vector<int> last2_swap(std::size_t rank) {
  std::vector<int> perm(rank);
  for (std::size_t i = 0; i < rank; ++i) perm[i] = static_cast<int>(i);
  std::swap(perm[rank - 2], perm[rank - 1]);
  return perm;
}

std::vector<int> inverse_perm(const std::vector<int>& perm) {
  std::vector<int> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    inv[static_cast<std::size_t>(perm[i])] = static_cast<int>(i);
  return inv;
}

}  // namespace

void accumulate_grad(TensorMap& grads, ValueId v, Tensor delta) {
  auto it = grads.find(v);
  if (it == grads.end())
    grads.emplace(v, std::move(delta));
  else
    it->second.add_(delta);
}

Interpreter::Folds Interpreter::folds(
    const std::vector<TaskId>& tasks) const {
  Folds out;
  std::vector<bool> listed;
  for (TaskId tid : tasks) {
    const Task& t = graph_->task(tid);
    if (t.kind != OpKind::Transpose) continue;
    const Value& v = graph_->value(t.output);
    const std::size_t rank = v.shape.rank();
    if (v.is_output || v.consumers.empty() || rank < 2 ||
        perm_of(t, rank) != last2_swap(rank))
      continue;
    if (listed.empty()) {
      listed.assign(graph_->num_tasks(), false);
      for (TaskId id : tasks) listed[static_cast<std::size_t>(id)] = true;
    }
    bool fold = true;
    for (TaskId c : v.consumers) {
      const Task& ct = graph_->task(c);
      fold = fold && listed[static_cast<std::size_t>(c)] &&
             ct.kind == OpKind::MatMul && ct.inputs.at(0) != t.output &&
             ct.inputs.at(1) == t.output;
    }
    if (fold) out.emplace(t.output, t.inputs.at(0));
  }
  return out;
}

void Interpreter::forward(const std::vector<TaskId>& tasks, TensorMap& values,
                          ForwardCache& cache) const {
  const Folds f = folds(tasks);
  for (TaskId tid : tasks) run_task(graph_->task(tid), f, values, cache);
}

void Interpreter::backward(const std::vector<TaskId>& tasks,
                           const TensorMap& values, const ForwardCache& cache,
                           TensorMap& grads) const {
  const Folds f = folds(tasks);
  for (auto it = tasks.rbegin(); it != tasks.rend(); ++it)
    grad_task(graph_->task(*it), f, values, cache, grads);
}

void Interpreter::run_task(const Task& t, const Folds& folds,
                           TensorMap& values, ForwardCache& cache) const {
  auto value = [&](ValueId v) -> const Tensor& {
    auto it = values.find(v);
    if (it == values.end())
      throw std::logic_error("forward: missing input value " +
                             graph_->value(v).name);
    return it->second;
  };
  auto in = [&](std::size_t i) -> const Tensor& {
    return value(t.inputs.at(i));
  };
  const Shape& out_shape = graph_->value(t.output).shape;
  Tensor out;
  switch (t.kind) {
    case OpKind::MatMul: {
      auto f = folds.find(t.inputs.at(1));
      out = f == folds.end() ? matmul(in(0), in(1))
                             : matmul(in(0), value(f->second), true);
      break;
    }
    case OpKind::Transpose:
      if (folds.count(t.output)) return;  // its MatMuls read the source
      out = transpose(in(0), perm_of(t, in(0).shape().rank()));
      break;
    case OpKind::Reshape:
    case OpKind::Flatten: out = in(0).reshaped(out_shape); break;
    case OpKind::Identity:
    case OpKind::Dropout: out = in(0); break;
    case OpKind::Add: out = add(in(0), in(1)); break;
    case OpKind::Mul: out = mul(in(0), in(1)); break;
    case OpKind::Scale:
      out = scale(in(0), static_cast<float>(t.attrs.getf("scale", 1.0)));
      break;
    case OpKind::Gelu: out = gelu(in(0)); break;
    case OpKind::Relu: out = relu(in(0)); break;
    case OpKind::Tanh: out = tanh_op(in(0)); break;
    case OpKind::Softmax: out = softmax_lastdim(in(0)); break;
    case OpKind::LayerNorm: {
      LayerNormResult r = layernorm(in(0), in(1), in(2));
      out = r.y;
      cache.layernorm.emplace(t.id, std::move(r));
      break;
    }
    case OpKind::Embedding: out = embedding(in(0), in(1)); break;
    case OpKind::CrossEntropy: {
      CrossEntropyResult r = cross_entropy(in(0), in(1));
      out = r.loss;
      cache.ce_probs.emplace(t.id, std::move(r.probs));
      break;
    }
    case OpKind::Conv2d:
      out = conv2d(in(0), in(1), t.attrs.geti("stride", 1),
                   t.attrs.geti("pad", 0));
      break;
    case OpKind::BatchNorm2d: {
      BatchNormResult r = batchnorm2d(in(0), in(1), in(2));
      out = r.y;
      cache.batchnorm.emplace(t.id, std::move(r));
      break;
    }
    case OpKind::MaxPool2d: {
      MaxPoolResult r = maxpool2d(in(0), t.attrs.geti("kernel", 2),
                                  t.attrs.geti("stride", 2),
                                  t.attrs.geti("pad", 0));
      out = r.y;
      cache.maxpool.emplace(t.id, std::move(r));
      break;
    }
    case OpKind::GlobalAvgPool2d: out = global_avgpool2d(in(0)); break;
    case OpKind::Concat: {
      std::vector<Tensor> parts;
      parts.reserve(t.inputs.size());
      for (std::size_t i = 0; i < t.inputs.size(); ++i) parts.push_back(in(i));
      out = concat(parts, static_cast<int>(t.attrs.geti("axis", 0)));
      break;
    }
  }
  if (out.numel() != out_shape.numel())
    throw std::logic_error("forward: shape mismatch at task " + t.name);
  values[t.output] = std::move(out);
}

void Interpreter::grad_task(const Task& t, const Folds& folds,
                            const TensorMap& values, const ForwardCache& cache,
                            TensorMap& grads) const {
  auto git = grads.find(t.output);
  if (git == grads.end()) return;  // nothing flows back through this task
  const Tensor g = git->second;
  auto in = [&](std::size_t i) -> const Tensor& {
    return values.at(t.inputs.at(i));
  };
  auto in_shape = [&](std::size_t i) -> const Shape& {
    return graph_->value(t.inputs.at(i)).shape;
  };
  auto acc = [&](std::size_t i, Tensor delta) {
    accumulate_grad(grads, t.inputs.at(i), std::move(delta));
  };

  switch (t.kind) {
    case OpKind::MatMul: {
      auto f = folds.find(t.inputs.at(1));
      if (f == folds.end()) {
        acc(0, matmul_grad_a(g, in(1)));
        acc(1, matmul_grad_b(in(0), g, in(1).shape()));
      } else {  // dW in W's layout, held under the transpose's output
        const Tensor& w = values.at(f->second);
        acc(0, matmul_grad_a(g, w, true));
        acc(1, matmul_grad_b(in(0), g, w.shape(), true));
      }
      break;
    }
    case OpKind::Transpose:
      if (folds.count(t.output)) {  // g is already in the source's layout
        grads.erase(git);
        acc(0, g);
      } else {
        acc(0, transpose(g, inverse_perm(perm_of(t, in(0).shape().rank()))));
      }
      break;
    case OpKind::Reshape:
    case OpKind::Flatten: acc(0, g.reshaped(in_shape(0)).clone()); break;
    case OpKind::Identity:
    case OpKind::Dropout: acc(0, g.clone()); break;
    case OpKind::Add:
      acc(0, g.clone());
      acc(1, add_reduce_grad(g, in(1).shape()));
      break;
    case OpKind::Mul: {
      acc(0, mul(g, in(1)));
      // db = reduce(g * a) to b's shape.
      Tensor ga = mul(g, in(0));
      acc(1, add_reduce_grad(ga, in(1).shape()));
      break;
    }
    case OpKind::Scale:
      acc(0, scale(g, static_cast<float>(t.attrs.getf("scale", 1.0))));
      break;
    case OpKind::Gelu: acc(0, gelu_grad(g, in(0))); break;
    case OpKind::Relu: acc(0, relu_grad(g, in(0))); break;
    case OpKind::Tanh: acc(0, tanh_grad(g, values.at(t.output))); break;
    case OpKind::Softmax: acc(0, softmax_grad(g, values.at(t.output))); break;
    case OpKind::LayerNorm: {
      LayerNormGrads lg =
          layernorm_grad(g, in(0), in(1), cache.layernorm.at(t.id));
      acc(0, std::move(lg.dx));
      acc(1, std::move(lg.dgamma));
      acc(2, std::move(lg.dbeta));
      break;
    }
    case OpKind::Embedding:
      acc(1, embedding_grad(g, in(0), in(1).shape()));
      break;
    case OpKind::CrossEntropy:
      acc(0, cross_entropy_grad(cache.ce_probs.at(t.id), in(1), g.at(0)));
      break;
    case OpKind::Conv2d: {
      const std::int64_t stride = t.attrs.geti("stride", 1);
      const std::int64_t pad = t.attrs.geti("pad", 0);
      acc(0, conv2d_grad_x(g, in(1), in_shape(0), stride, pad));
      acc(1, conv2d_grad_w(g, in(0), in(1).shape(), stride, pad));
      break;
    }
    case OpKind::BatchNorm2d: {
      BatchNormGrads bg =
          batchnorm2d_grad(g, in(0), in(1), cache.batchnorm.at(t.id));
      acc(0, std::move(bg.dx));
      acc(1, std::move(bg.dgamma));
      acc(2, std::move(bg.dbeta));
      break;
    }
    case OpKind::MaxPool2d:
      acc(0, maxpool2d_grad(g, cache.maxpool.at(t.id), in_shape(0)));
      break;
    case OpKind::GlobalAvgPool2d:
      acc(0, global_avgpool2d_grad(g, in_shape(0)));
      break;
    case OpKind::Concat: {
      std::vector<Shape> shapes;
      shapes.reserve(t.inputs.size());
      for (ValueId v : t.inputs) shapes.push_back(graph_->value(v).shape);
      std::vector<Tensor> parts =
          concat_grad(g, shapes, static_cast<int>(t.attrs.geti("axis", 0)));
      for (std::size_t i = 0; i < parts.size(); ++i)
        acc(i, std::move(parts[i]));
      break;
    }
  }
}

}  // namespace rannc
