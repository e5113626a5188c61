#include "runtime/pipeline_runtime.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/trainer.h"
#include "util/arena.h"

namespace rannc {

namespace {

/// Internal control-flow signal: a peer stage failed and closed the
/// fabric endpoints; unwind this stage quietly.
struct PipelineAborted {};

std::int64_t tensor_map_bytes(const TensorMap& m) {
  std::int64_t bytes = 0;
  for (const auto& [v, t] : m)
    bytes += t.numel() * static_cast<std::int64_t>(sizeof(float));
  return bytes;
}

}  // namespace

PipelineTrainer::PipelineTrainer(const TaskGraph& g,
                                 std::vector<std::vector<TaskId>> stage_tasks,
                                 PipelineOptions options)
    : interp_(g), options_(options) {
  const auto outs = g.output_values();
  if (outs.size() != 1 || g.value(outs.front()).shape.numel() != 1)
    throw std::invalid_argument("PipelineTrainer requires one scalar loss");
  loss_value_ = outs.front();

  const int S = static_cast<int>(stage_tasks.size());
  std::vector<int> stage_of_task(g.num_tasks(), -1);
  for (int s = 0; s < S; ++s) {
    for (TaskId t : stage_tasks[static_cast<std::size_t>(s)]) {
      if (stage_of_task[static_cast<std::size_t>(t)] != -1)
        throw std::invalid_argument("stages overlap");
      stage_of_task[static_cast<std::size_t>(t)] = s;
    }
  }
  for (int v : stage_of_task)
    if (v < 0) throw std::invalid_argument("stages do not cover the graph");

  TensorMap all_params = init_params(g, options_.seed);
  if (options_.initial_params) {
    // Elastic resume: adopt surviving weights over the seeded init.
    for (const auto& [v, t] : *options_.initial_params) {
      auto it = all_params.find(v);
      if (it != all_params.end()) it->second = t.clone();
    }
  }
  stages_.reserve(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    stages_.emplace_back(options_.opt);
    stages_.back().index = s;
    stages_.back().tasks = std::move(stage_tasks[static_cast<std::size_t>(s)]);
    std::sort(stages_.back().tasks.begin(), stages_.back().tasks.end());
  }

  // Assign parameters (exclusively) and graph inputs to stages; route every
  // crossing value onto a stage-pair edge.
  std::vector<int> param_owner(g.num_values(), -1);
  std::map<std::pair<int, int>, std::vector<ValueId>> edge_values;
  for (const Value& v : g.values()) {
    if (v.kind == ValueKind::Param) {
      for (TaskId c : v.consumers) {
        const int s = stage_of_task[static_cast<std::size_t>(c)];
        if (param_owner[static_cast<std::size_t>(v.id)] == -1) {
          param_owner[static_cast<std::size_t>(v.id)] = s;
          stages_[static_cast<std::size_t>(s)].params.emplace(
              v.id, all_params.at(v.id));
        } else if (param_owner[static_cast<std::size_t>(v.id)] != s) {
          throw std::invalid_argument(
              "parameter shared across stages (tied weights) is not "
              "supported by the pipeline runtime: " + v.name);
        }
      }
    } else if (v.kind == ValueKind::Input) {
      std::vector<int> seen;
      for (TaskId c : v.consumers) {
        const int s = stage_of_task[static_cast<std::size_t>(c)];
        if (std::find(seen.begin(), seen.end(), s) == seen.end()) {
          seen.push_back(s);
          stages_[static_cast<std::size_t>(s)].input_values.push_back(v.id);
        }
      }
    } else if (v.producer != kNoTask) {
      const int ps = stage_of_task[static_cast<std::size_t>(v.producer)];
      std::vector<int> seen;
      for (TaskId c : v.consumers) {
        const int cs = stage_of_task[static_cast<std::size_t>(c)];
        if (cs == ps) continue;
        if (cs < ps)
          throw std::invalid_argument("stages are not topologically ordered");
        if (std::find(seen.begin(), seen.end(), cs) == seen.end()) {
          seen.push_back(cs);
          edge_values[{ps, cs}].push_back(v.id);
        }
      }
    }
  }
  // Boundary traffic runs through fabric endpoints; stage s is pinned to
  // device s, so the link class of an edge follows the node boundary of
  // the cluster (when one is configured).
  std::shared_ptr<const FabricCostOracle> oracle;
  int dpn = 0;
  if (options_.cluster) {
    oracle = make_comm_oracle(*options_.cluster);
    dpn = options_.cluster->devices_per_node;
  }
  for (auto& [key, vals] : edge_values) {
    auto e = std::make_unique<Edge>();
    e->from = key.first;
    e->to = key.second;
    std::sort(vals.begin(), vals.end());
    e->values = std::move(vals);
    const bool same_node = dpn <= 0 || (e->from / dpn == e->to / dpn);
    e->fwd = std::make_unique<Endpoint>(256, oracle, same_node,
                                        tensor_map_bytes);
    e->bwd = std::make_unique<Endpoint>(256, oracle, same_node,
                                        tensor_map_bytes);
    e->fwd_name = "fwd " + std::to_string(e->from) + "->" +
                  std::to_string(e->to);
    e->bwd_name = "bwd " + std::to_string(e->to) + "->" +
                  std::to_string(e->from);
    if (options_.fault_injector) {
      e->fwd->set_fault_injector(options_.fault_injector, e->fwd_name);
      e->bwd->set_fault_injector(options_.fault_injector, e->bwd_name);
    }
    stages_[static_cast<std::size_t>(e->from)].out_edges.push_back(e.get());
    stages_[static_cast<std::size_t>(e->to)].in_edges.push_back(e.get());
    edges_.push_back(std::move(e));
  }
  stages_[static_cast<std::size_t>(
              stage_of_task[static_cast<std::size_t>(
                  g.value(loss_value_).producer)])]
      .owns_loss = true;

  if (options_.initial_opt_state) {
    for (Stage& st : stages_) {
      OptStateMap shard;
      for (const auto& [v, s] : *options_.initial_opt_state)
        if (st.params.count(v)) shard.emplace(v, s);
      st.opt.import_state(shard, options_.initial_opt_step);
    }
  }
}

TensorMap PipelineTrainer::gather_params() const {
  TensorMap all;
  for (const Stage& st : stages_)
    for (const auto& [v, t] : st.params) all.emplace(v, t);
  return all;
}

OptStateMap PipelineTrainer::gather_opt_state() const {
  OptStateMap all;
  for (const Stage& st : stages_)
    for (auto& [v, s] : st.opt.export_state()) all.emplace(v, std::move(s));
  return all;
}

std::int64_t PipelineTrainer::opt_step_count() const {
  std::int64_t t = 0;
  for (const Stage& st : stages_)
    t = std::max(t, st.opt.step_count());
  return t;
}

void PipelineTrainer::abort_pipeline() {
  aborted_.store(true);
  for (auto& e : edges_) {
    e->fwd->close();
    e->bwd->close();
  }
}

void PipelineTrainer::collect_comm_reports() {
  for (Stage& st : stages_) {
    st.report.comm_seconds = 0;
    st.report.bytes_in = 0;
    st.report.bytes_out = 0;
  }
  for (const auto& e : edges_) {
    Stage& from = stages_[static_cast<std::size_t>(e->from)];
    Stage& to = stages_[static_cast<std::size_t>(e->to)];
    // fwd flows from->to (activations), bwd flows to->from (gradients).
    from.report.comm_seconds += e->fwd->send_seconds() + e->bwd->recv_seconds();
    from.report.bytes_out += e->fwd->sent_bytes();
    from.report.bytes_in += e->bwd->recv_bytes();
    to.report.comm_seconds += e->fwd->recv_seconds() + e->bwd->send_seconds();
    to.report.bytes_in += e->fwd->recv_bytes();
    to.report.bytes_out += e->bwd->sent_bytes();
  }
}

void PipelineTrainer::run_stage(Stage& stage,
                                const std::vector<TensorMap>& microbatches,
                                double* loss_out) {
  const int MB = static_cast<int>(microbatches.size());
  const float seed_grad = 1.0f / static_cast<float>(MB);
  using Clock = std::chrono::steady_clock;
  const auto timed = [&stage](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    stage.report.compute_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
  };

  struct Ctx {
    TensorMap values;
    ForwardCache cache;
    TensorMap boundary;  ///< recompute mode: inputs needed to re-run forward
  };
  std::vector<Ctx> ctxs(static_cast<std::size_t>(MB));

  // Receive with the configured retry discipline. Timeouts (bounded waits
  // expiring or injected message faults) are retried with exponential
  // backoff — accounted into the report, not slept — until the attempt
  // budget runs out; a closed channel means a peer aborted.
  const RetryPolicy& rp = options_.retry;
  const int max_attempts = std::max(1, rp.max_attempts);
  const auto recv_retry =
      [&](Endpoint& ep, const std::string& name) -> std::optional<TensorMap> {
    double backoff = rp.backoff_base_s;
    for (int a = 0; a < max_attempts; ++a) {
      RecvStatus st = RecvStatus::Closed;
      std::optional<TensorMap> m = ep.recv(&st, rp.recv_timeout_s);
      if (st == RecvStatus::Ok) return m;
      if (st == RecvStatus::Closed) return std::nullopt;
      stage.report.retries += 1;
      stage.report.backoff_seconds += backoff;
      backoff *= rp.backoff_factor;
    }
    throw StageTimeoutError(stage.index, name, max_attempts);
  };

  // ---- forward flush -------------------------------------------------------
  for (int j = 0; j < MB; ++j) {
    if (options_.stage_hook) options_.stage_hook(stage.index, j);
    Ctx& ctx = ctxs[static_cast<std::size_t>(j)];
    TensorMap values = stage.params;
    for (ValueId v : stage.input_values)
      values[v] = microbatches[static_cast<std::size_t>(j)].at(v);
    for (Edge* e : stage.in_edges) {
      std::optional<TensorMap> m = recv_retry(*e->fwd, e->fwd_name);
      if (!m) throw PipelineAborted{};
      for (auto& [v, t] : *m) values[v] = std::move(t);
    }
    if (options_.recompute) {
      // Keep only what is needed to re-run the forward pass.
      ctx.boundary = values;
    }
    ForwardCache cache;
    timed([&] { interp_.forward(stage.tasks, values, cache); });
    for (Edge* e : stage.out_edges) {
      TensorMap m;
      for (ValueId v : e->values) m.emplace(v, values.at(v));
      if (!e->fwd->send(std::move(m))) throw PipelineAborted{};
    }
    if (stage.owns_loss && loss_out)
      *loss_out += values.at(loss_value_).at(0);
    if (options_.recompute) {
      ctx.values.clear();  // discard intermediates; recompute in backward
    } else {
      ctx.values = std::move(values);
      ctx.cache = std::move(cache);
    }
  }

  // ---- backward flush ------------------------------------------------------
  std::vector<TensorMap> mb_grads(static_cast<std::size_t>(MB));
  for (int j = MB - 1; j >= 0; --j) {
    Ctx& ctx = ctxs[static_cast<std::size_t>(j)];
    TensorMap grads;
    if (stage.owns_loss)
      grads.emplace(loss_value_, Tensor::full(Shape{}, seed_grad));
    for (Edge* e : stage.out_edges) {
      std::optional<TensorMap> gm = recv_retry(*e->bwd, e->bwd_name);
      if (!gm) throw PipelineAborted{};
      for (auto& [v, t] : *gm) accumulate_grad(grads, v, std::move(t));
    }
    if (options_.recompute) {
      ctx.values = std::move(ctx.boundary);
      ForwardCache cache;
      timed([&] { interp_.forward(stage.tasks, ctx.values, cache); });
      ctx.cache = std::move(cache);
    }
    timed([&] { interp_.backward(stage.tasks, ctx.values, ctx.cache, grads); });
    for (Edge* e : stage.in_edges) {
      TensorMap gm;
      for (ValueId v : e->values) {
        auto it = grads.find(v);
        if (it != grads.end())
          gm.emplace(v, it->second);
        else  // value off the loss path: send explicit zeros for lockstep
          gm.emplace(v, Tensor::zeros(interp_.graph().value(v).shape));
      }
      if (!e->bwd->send(std::move(gm))) throw PipelineAborted{};
    }
    TensorMap& pg = mb_grads[static_cast<std::size_t>(j)];
    for (auto& [v, t] : grads)
      if (stage.params.count(v)) pg.emplace(v, std::move(t));
    ctx.values.clear();
    ctx.cache = ForwardCache{};
  }

  // Accumulate ascending over microbatches to match the single-device
  // Trainer's summation order exactly.
  TensorMap grad_acc;
  for (int j = 0; j < MB; ++j)
    for (auto& [v, t] : mb_grads[static_cast<std::size_t>(j)])
      accumulate_grad(grad_acc, v, std::move(t));
  stage.opt.step(stage.params, grad_acc);
}

float PipelineTrainer::step(const std::vector<TensorMap>& microbatches) {
  if (microbatches.empty()) return 0;
  if (aborted_.exchange(false)) {
    // The previous step was aborted; reopen the endpoints so this one can
    // run (stale in-flight messages are discarded, counters preserved).
    for (auto& e : edges_) {
      e->fwd->reopen();
      e->bwd->reopen();
    }
  }

  // Transactional snapshot. Copy-on-write (the default) just aliases every
  // buffer: the optimizer's CoW step leaves shared buffers untouched, so the
  // snapshot stays bit-exact without a single copy — rollback moves the
  // original buffers back. Eager mode keeps the deep-clone discipline.
  struct StageSnapshot {
    TensorMap params;
    OptStateMap opt_state;
    std::int64_t opt_step = 0;
  };
  std::vector<StageSnapshot> snapshot;
  if (options_.transactional) {
    snapshot.reserve(stages_.size());
    for (const Stage& st : stages_) {
      StageSnapshot s;
      if (options_.eager_snapshots) {
        for (const auto& [v, t] : st.params) s.params.emplace(v, t.clone());
        s.opt_state = st.opt.export_state();
      } else {
        s.params = st.params;                   // shallow
        s.opt_state = st.opt.snapshot_state();  // shallow
      }
      s.opt_step = st.opt.step_count();
      snapshot.push_back(std::move(s));
    }
  }

  double loss_sum = 0;
  std::exception_ptr error;
  std::mutex error_mu;
  std::size_t done = 0;
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::vector<std::thread> threads;
  threads.reserve(stages_.size());
  for (std::size_t si = 0; si < stages_.size(); ++si) {
    Stage& st = stages_[si];
    threads.emplace_back([this, si, &st, &microbatches, &loss_sum, &error,
                          &error_mu, &done, &done_mu, &done_cv] {
      obs::set_thread_name("stage-" + std::to_string(si));
      try {
        obs::Scope sc(
            [si] { return "run_stage " + std::to_string(si); }, "runtime");
        run_stage(st, microbatches, st.owns_loss ? &loss_sum : nullptr);
      } catch (const PipelineAborted&) {
        // A peer already failed and closed the endpoints; nothing to record.
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(error_mu);
          if (!error) error = std::current_exception();
        }
        RANNC_LOG_ERROR("pipeline stage " << si
                                          << " failed; aborting pipeline");
        abort_pipeline();
      }
      {
        std::lock_guard<std::mutex> lk(done_mu);
        ++done;
      }
      done_cv.notify_one();
    });
  }
  bool deadline_hit = false;
  if (options_.step_deadline_s > 0) {
    std::unique_lock<std::mutex> lk(done_mu);
    if (!done_cv.wait_for(
            lk, std::chrono::duration<double>(options_.step_deadline_s),
            [&] { return done == stages_.size(); })) {
      deadline_hit = true;
      lk.unlock();
      RANNC_LOG_ERROR("pipeline step exceeded deadline of "
                      << options_.step_deadline_s << "s; aborting pipeline");
      abort_pipeline();
    }
  }
  for (std::thread& t : threads) t.join();
  collect_comm_reports();
  if (deadline_hit && !error)
    error = std::make_exception_ptr(StepDeadlineError(
        "pipeline step exceeded deadline of " +
        std::to_string(options_.step_deadline_s) + "s"));
  Arena::global().end_epoch();
  if (error) {
    if (options_.transactional) {
      for (std::size_t s = 0; s < stages_.size(); ++s) {
        stages_[s].params = std::move(snapshot[s].params);
        if (options_.eager_snapshots)
          stages_[s].opt.import_state(snapshot[s].opt_state,
                                      snapshot[s].opt_step);
        else
          stages_[s].opt.adopt_state(std::move(snapshot[s].opt_state),
                                     snapshot[s].opt_step);
      }
      RANNC_LOG_WARN(
          "pipeline step failed; rolled parameters and optimizer state back "
          "to the last completed step");
    }
    std::rethrow_exception(error);
  }
  // Publish per-stage causal attribution inputs: cumulative compute/comm
  // seconds and boundary bytes, keyed by stage index so rannc-explain and
  // the bench sentinel can correlate measured runtime against the
  // simulated schedule without parsing logs.
  obs::metrics().counter("runtime.steps").add(1);
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const StageReport& rep = stages_[s].report;
    const std::string prefix = "runtime.stage." + std::to_string(s);
    obs::metrics().gauge(prefix + ".compute_s").set(rep.compute_seconds);
    obs::metrics().gauge(prefix + ".comm_s").set(rep.comm_seconds);
    obs::metrics().gauge(prefix + ".bytes_in")
        .set(static_cast<double>(rep.bytes_in));
    obs::metrics().gauge(prefix + ".bytes_out")
        .set(static_cast<double>(rep.bytes_out));
  }
  return static_cast<float>(loss_sum / static_cast<double>(microbatches.size()));
}

}  // namespace rannc
