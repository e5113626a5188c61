// train_bert: PipelineTrainer on bert_tiny (hidden 384, 6 heads, 2 layers,
// seq 64, vocab 512), partitioned by auto_partition during set-up into two
// stages that run on two threads (kernels run on the calling stage thread).
// Adam at lr 0.01 and parameter seed 42, as the repository's runtime bench
// trains it.
//
// The run trains a fixed window (three warm-up steps, then kWindow timed
// steps) on fresh trainers, again and again until its time is up, and pools
// the timed steps of all windows. The step time climbs inside a window
// (denormals build up in the optimizer state), so every window, and every
// commit, times the same steps of the same training run; and repeating the
// window, rather than training on, lets one run sample more of the host's
// fast and slow phases. For the same reason the token batches come from a
// fixed seed: how fast the denormals build up depends on the data (on a
// 4-vCPU Xeon VM the median step spread 22 % across five data seeds,
// against 4 % over five runs of one). The run's seed draws only the values
// the tensor probe multiplies.
//
// The first window also steps a single-device Trainer through the same
// batches, as the loss oracle and the baseline; every later window must
// reproduce the first one's pipeline losses bit for bit.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "rannc.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace rannc;

namespace {

constexpr std::int64_t kSeq = 64, kHidden = 384, kHeads = 6, kVocab = 512;
constexpr int kWarmup = 3;
constexpr int kWindow = 20;  // timed steps per window
constexpr int kSetups = 4;   // set-ups before each window
constexpr std::uint64_t kDataSeed = 42;

BertConfig bert_tiny() {
  BertConfig bc;
  bc.hidden = kHidden;
  bc.heads = kHeads;
  bc.layers = 2;
  bc.seq_len = kSeq;
  bc.vocab = kVocab;
  return bc;
}

struct Model {
  BuiltModel bm;
  double build_s = 0;
  SearchRequest req;
  SearchResult search;
  std::unique_ptr<PipelineTrainer> pipe;
  std::unique_ptr<Trainer> single;
};

/// The benchmark's set-up: build, partition, construct both trainers. The
/// trainers refer to the graph, so the Model stays where it is built.
std::unique_ptr<Model> set_up(Tracer& tr) {
  auto mp = std::make_unique<Model>();
  Model& m = *mp;
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Span s(tr, "models.build");
    m.bm = build_bert(bert_tiny());
  }
  m.build_s = seconds_since(t0);
  SearchRequest& req = m.req;
  req.cluster.num_nodes = 1;
  req.cluster.devices_per_node = 2;
  req.cluster.device.memory_bytes = 5 * m.bm.graph.num_params() * 4;
  req.batch_size = 4;
  req.num_blocks = 6;
  req.budget.threads = 1;
  {
    Tracer::Span s(tr, "partition.auto_partition");
    m.search = auto_partition(m.bm.graph, req);
  }
  std::vector<std::vector<TaskId>> stages;
  for (const StagePlan& sp : m.search.plan.stages) stages.push_back(sp.tasks);
  OptimizerConfig oc;
  oc.kind = OptimizerConfig::Kind::Adam;
  oc.lr = 0.01f;
  PipelineOptions popt;
  popt.opt = oc;
  popt.seed = 42;
  popt.cluster = req.cluster;  // boundary traffic is accounted per stage
  Tracer::Span s(tr, "runtime.construct");
  m.pipe = std::make_unique<PipelineTrainer>(m.bm.graph, stages, popt);
  m.single = std::make_unique<Trainer>(m.bm.graph, oc, 42);
  return mp;
}

std::vector<TensorMap> make_batch(const TaskGraph& g, int microbatches,
                                  std::uint64_t seed, int step) {
  ValueId ids = -1, mask = -1, labels = -1;
  for (ValueId v : g.input_values()) {
    const std::string& n = g.value(v).name;
    if (n == "input_ids") ids = v;
    if (n == "attention_mask") mask = v;
    if (n == "mlm_labels") labels = v;
  }
  Rng rng(seed * 1000003 + static_cast<std::uint64_t>(step));
  std::vector<TensorMap> mbs;
  for (int j = 0; j < microbatches; ++j) {
    Tensor tok(Shape{kSeq}), lab(Shape{kSeq});
    for (std::int64_t i = 0; i < kSeq; ++i) {
      tok.at(i) = static_cast<float>(rng.next() % kVocab);
      lab.at(i) = static_cast<float>(rng.next() % kVocab);
    }
    TensorMap mb;
    mb.emplace(ids, std::move(tok));
    mb.emplace(mask, Tensor::zeros(Shape{1, kSeq, kSeq}));
    mb.emplace(labels, std::move(lab));
    mbs.push_back(std::move(mb));
  }
  return mbs;
}

/// Times `fn` until at least `min_s` has passed (and 3 calls); returns
/// seconds per call.
template <class Fn>
double per_call(Fn&& fn, double min_s = 0.05) {
  const Clock::time_point t0 = Clock::now();
  int n = 0;
  do {
    fn();
    ++n;
  } while (n < 3 || seconds_since(t0) < min_s);
  return seconds_since(t0) / n;
}

/// GEMM forward, both GEMM gradients and softmax on the model's own
/// shapes (one microbatch of kSeq tokens).
void tensor_probe(Tracer& tr, std::uint64_t seed, Result& r) {
  struct Gemm {
    Shape a, b;
  };
  const std::int64_t ffn = 4 * kHidden, dh = kHidden / kHeads;
  const Gemm gemms[] = {
      {Shape{kSeq, kHidden}, Shape{kHidden, kHidden}},  // q/k/v/out proj
      {Shape{kSeq, kHidden}, Shape{kHidden, ffn}},      // FFN up
      {Shape{kSeq, ffn}, Shape{ffn, kHidden}},          // FFN down
      {Shape{kSeq, kHidden}, Shape{kHidden, kVocab}},   // MLM head
      {Shape{kHeads, kSeq, dh}, Shape{kHeads, dh, kSeq}},  // scores
      {Shape{kHeads, kSeq, kSeq}, Shape{kHeads, kSeq, dh}},  // context
  };
  double flops = 0, fwd_s = 0, ga_s = 0, gb_s = 0;
  for (const Gemm& gm : gemms) {
    const Tensor a = Tensor::uniform(gm.a, 1.0f, seed++);
    const Tensor b = Tensor::uniform(gm.b, 1.0f, seed++);
    const Tensor c = matmul(a, b);
    const Tensor g = Tensor::uniform(c.shape(), 1.0f, seed++);
    const std::size_t rank = gm.a.dims.size();
    const double batch = rank == 3 ? static_cast<double>(gm.a.dims[0]) : 1;
    flops += 2 * batch * static_cast<double>(gm.a.dims[rank - 2]) *
             static_cast<double>(gm.a.dims[rank - 1]) *
             static_cast<double>(gm.b.dims[rank - 1]);
    {
      Tracer::Span s(tr, "tensor.matmul");
      fwd_s += per_call([&] { (void)matmul(a, b); });
    }
    {
      Tracer::Span s(tr, "tensor.matmul_grad_a");
      ga_s += per_call([&] { (void)matmul_grad_a(g, b); });
    }
    {
      Tracer::Span s(tr, "tensor.matmul_grad_b");
      gb_s += per_call([&] { (void)matmul_grad_b(a, g, b.shape()); });
    }
  }
  double bytes = 0, sm_s = 0;
  for (const Shape& sh : {Shape{kHeads, kSeq, kSeq}, Shape{kSeq, kVocab}}) {
    const Tensor x = Tensor::uniform(sh, 4.0f, seed++);
    bytes += 2.0 * static_cast<double>(x.numel()) * sizeof(float);
    Tracer::Span s(tr, "tensor.softmax");
    sm_s += per_call([&] { (void)softmax_lastdim(x); });
  }
  r.metric("tensor.matmul_gflops", flops / fwd_s * 1e-9, "GFLOP/s");
  r.metric("tensor.matmul_grad_a_gflops", flops / ga_s * 1e-9, "GFLOP/s");
  r.metric("tensor.matmul_grad_b_gflops", flops / gb_s * 1e-9, "GFLOP/s");
  r.metric("tensor.softmax_gbps", bytes / sm_s * 1e-9, "GB/s");
}

}  // namespace

void run_train_bert(const Options& opt, Tracer& tr, Digests& digests,
                    Result& r) {
  // Kernels run on the calling thread: two stages, two threads.
  ThreadPool solo(0);
  set_kernel_pool(&solo);

  // Every window starts with kSetups set-ups and trains the last one's
  // fresh trainers, so the set-up samples spread over the whole run, as
  // the steps do.
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Model> mp;
  const auto set_up_window = [&] {
    Tracer::Span s(tr, "setup");
    for (int i = 0; i < kSetups; ++i) {
      mp.reset();
      const Clock::time_point t0 = Clock::now();
      mp = set_up(tr);
      setup_s.push_back(seconds_since(t0));
      build_s.push_back(mp->build_s);

      Tracer::Span c(tr, "bench.check");
      const PartitionResult& plan = mp->search.plan;
      r.check(plan.feasible && plan.stages.size() == 2 &&
                  validate_plan(plan, mp->req).empty() &&
                  digests.matches("train_bert/plan", plan_to_json(plan)) &&
                  r.repeats(search_counts(mp->search)),
              "set-up " + std::to_string(setup_s.size()) +
                  ": bert partition infeasible, invalid, not two stages, "
                  "or digest or counts mismatch");
    }
  };
  set_up_window();
  const std::size_t stages = mp->search.plan.stages.size();
  const int mbs = std::max(1, mp->search.plan.microbatches);
  report_search_counts(r, search_counts(mp->search));

  std::vector<std::vector<TensorMap>> batches;
  for (int step = 0; step < kWarmup + kWindow; ++step)
    batches.push_back(make_batch(mp->bm.graph, mbs, kDataSeed, step));

  Reservoir step_s(opt.seed);
  std::vector<double> single_s;
  std::vector<float> first_losses;
  std::vector<std::vector<double>> compute_s(stages);
  double compute_total = 0, boundary_bytes = 0;
  Arena::Stats arena{};

  const Clock::time_point start = Clock::now();
  double window_s = 0;
  for (int w = 0; w < 2 || seconds_since(start) + window_s <= opt.seconds;
       ++w) {
    const Clock::time_point w0 = Clock::now();
    if (w > 0) set_up_window();
    Model& m = *mp;
    // The first window also steps the single-device trainer, as the oracle.
    const bool first = w == 0;
    bool ok = true;
    std::int64_t allocs = 0, out = 0;
    std::vector<double> prev_compute(stages);
    for (std::size_t s = 0; s < stages; ++s)
      prev_compute[s] = m.pipe->stage_report(s).compute_seconds;
    std::int64_t prev_out = 0;
    for (std::size_t s = 0; s < stages; ++s)
      prev_out += m.pipe->stage_report(s).bytes_out;

    for (int step = 0; step < kWarmup + kWindow; ++step) {
      const bool timed = step >= kWarmup;
      // Traced runs alternate traced steps with Pause-block reference steps.
      const bool traced = tr.on() && step % 2 == 0;
      std::optional<Tracer::Pause> pause;
      if (tr.on() && !traced) pause.emplace(tr);

      const Arena::Stats a0 = Arena::global().stats();
      Clock::time_point t0 = Clock::now();
      float lp = 0;
      {
        Tracer::Span s(tr, timed ? "runtime.pipeline_step" : "runtime.warmup",
                       step);
        lp = m.pipe->step(batches[static_cast<std::size_t>(step)]);
      }
      const double wall = seconds_since(t0);
      const Arena::Stats a1 = Arena::global().stats();
      float ls = 0;
      if (first) {
        t0 = Clock::now();
        {
          Tracer::Span s(tr, "runtime.single_step", step);
          ls = m.single->step(batches[static_cast<std::size_t>(step)]);
        }
        if (timed) single_s.push_back(seconds_since(t0));
      }

      Tracer::Span c(tr, "bench.check", step);
      if (first) {
        first_losses.push_back(lp);
        ok = ok && std::isfinite(lp) && std::fabs(lp - ls) <= 1e-3f;
      } else {
        ok = ok && lp == first_losses[static_cast<std::size_t>(step)];
      }
      if (!timed) continue;
      step_s.add(wall);
      if (tr.on()) (traced ? r.op_traced_s : r.op_untraced_s).add(wall);
      allocs += a1.allocs - a0.allocs;
      arena.allocs += a1.allocs - a0.allocs;
      arena.pool_hits += a1.pool_hits - a0.pool_hits;
      arena.fresh_bytes += a1.fresh_bytes - a0.fresh_bytes;
      out = 0;
      for (std::size_t s = 0; s < stages; ++s) {
        const StageReport& rep = m.pipe->stage_report(s);
        compute_s[s].push_back(rep.compute_seconds - prev_compute[s]);
        compute_total += rep.compute_seconds - prev_compute[s];
        prev_compute[s] = rep.compute_seconds;
        out += rep.bytes_out;
      }
      boundary_bytes += static_cast<double>(out - prev_out);
      prev_out = out;
    }
    r.check(ok && r.repeats({{"util.arena_allocs_per_window", allocs},
                             {"runtime.boundary_bytes_per_window", out}}),
            "window " + std::to_string(w) +
                (first ? ": pipeline loss differs from the single-device "
                         "loss by more than 1e-3, or counts differ"
                       : ": pipeline losses differ from the first window's, "
                         "or counts differ"));
    window_s = seconds_since(w0);
  }
  if (tr.on()) {
    std::vector<SearchProbe> probes;
    for (int i = 0; i < 3; ++i) {
      probes.push_back(probe_search(tr, mp->bm.graph, mp->req, true));
      probes.back().result = {};
    }
    report_phases(r, probes);
    tensor_probe(tr, opt.seed, r);
  }
  set_kernel_pool(nullptr);

  r.report_ops(setup_s, step_s);
  const double busy = step_s.sum();
  const double n = static_cast<double>(step_s.count());
  for (std::size_t s = 0; s < stages; ++s)
    r.metric("runtime.stage" + std::to_string(s) + ".compute_ms",
             1e3 * median(compute_s[s]), "ms");
  r.metric("runtime.idle_share",
           1 - compute_total / (static_cast<double>(stages) * busy), "ratio");
  r.metric("runtime.boundary_kb_per_step", boundary_bytes / 1024 / n, "KiB");
  r.metric("runtime.single_step_ms", 1e3 * median(single_s), "ms");
  r.metric("runtime.train_samples_per_s", mbs * n / busy, "1/s");
  r.metric("util.arena_hit_ratio",
           static_cast<double>(arena.pool_hits) /
               static_cast<double>(std::max<std::int64_t>(1, arena.allocs)),
           "ratio");
  r.metric("util.arena_fresh_kb_per_step",
           static_cast<double>(arena.fresh_bytes) / 1024 / n, "KiB");
  r.metric("models.build_ms", 1e3 * median(build_s), "ms");
}

}  // namespace perfbench
