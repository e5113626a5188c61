// search_moe: repeated cold auto_partition of the synthetic MoE decoder
// (hidden 512, 64 experts, 8 layers, ~5.4k tasks) on 8 nodes x 4 V100s at
// batch size 512. Every search starts from a fresh profile memo and one
// search thread, so each one repeats the same work. Phase 2 (block
// partitioning) is nearly all of it.
//
// The seed picks one of four vocabulary sizes, 64 apart: the plans differ
// (each has its own recorded digest), the work per search does not.
#include <optional>

#include "common.h"

namespace perfbench {

using namespace rannc;

namespace {
// The heap creeps up by a few hundred KiB now and then as searches repeat,
// so the process peak would grow with the number of searches that fit in
// the run, that is with search speed. peak_rss_mb is therefore read after
// this many searches, which every run makes.
constexpr int kRssSearches = 12;
}  // namespace

void run_search_moe(const Options& opt, Tracer& tr, Digests& digests,
                    Result& r) {
  MoeConfig mc;
  mc.hidden = 512;
  mc.experts = 64;
  mc.layers = 8;
  mc.seq_len = 256;
  mc.vocab = 4096 + 64 * static_cast<std::int64_t>(opt.seed % 4);
  const std::string plan_name = "search_moe/vocab" + std::to_string(mc.vocab);

  // Set-up is building the graph. Every search gets a fresh graph, built
  // three times, so the set-up samples spread over the whole run, as the
  // searches do, rather than over one instant of the host's state.
  std::vector<double> setup_s;
  BuiltModel bm;
  const auto set_up = [&] {
    Tracer::Span s(tr, "setup");
    for (int i = 0; i < 3; ++i) {
      bm = BuiltModel();  // free the old graph first: the heap stays flat
      const Clock::time_point t0 = Clock::now();
      Tracer::Span b(tr, "models.build");
      bm = build_moe(mc);
      setup_s.push_back(seconds_since(t0));
    }
  };

  SearchRequest req;
  req.cluster.num_nodes = 8;
  req.cluster.devices_per_node = 4;
  req.batch_size = 512;
  req.budget.threads = 1;

  Reservoir op_s(opt.seed);
  std::vector<SearchProbe> probes;
  std::map<std::string, std::int64_t> counts;
  double plan_samples_per_s = 0;
  const Clock::time_point start = Clock::now();
  for (int i = 0;
       op_s.count() < kRssSearches || seconds_since(start) < opt.seconds;
       ++i) {
    set_up();
    // Traced runs alternate: even searches traced and split into phases,
    // odd ones inside a Pause block as the untraced reference.
    const bool traced = tr.on() && i % 2 == 0;
    std::optional<Tracer::Pause> pause;
    if (tr.on() && !traced) pause.emplace(tr);

    probes.push_back(probe_search(tr, bm.graph, req, traced, i));
    const SearchResult& sr = probes.back().result;
    const double wall = probes.back().search_s;
    op_s.add(wall);
    if (tr.on()) (traced ? r.op_traced_s : r.op_untraced_s).add(wall);

    Tracer::Span s(tr, "bench.check", i);
    counts = search_counts(sr);
    const bool ok = sr.feasible() && validate_plan(sr.plan, req).empty() &&
                    digests.matches(plan_name, plan_to_json(sr.plan)) &&
                    r.repeats(counts);
    r.check(ok, "search " + std::to_string(i) +
                    ": infeasible, invalid, digest or count mismatch");
    plan_samples_per_s = sr.plan.throughput(req.batch_size);
    probes.back().result = {};  // keep the run's memory flat
    if (op_s.count() == kRssSearches)
      r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  }

  r.report_ops(setup_s, op_s);

  r.metric("models.build_ms", 1e3 * median(setup_s), "ms");
  report_phases(r, probes);
  r.metric("partition.plan_samples_per_s", plan_samples_per_s, "1/s");
  report_search_counts(r, counts);
}

}  // namespace perfbench
