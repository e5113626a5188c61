// perfbench — one workload of the end-to-end benchmark per process.
//
//   perfbench --workload search_moe|serve_zipf|train_bert --seed N
//             --seconds S --trace 0|1 [--state-dir DIR] [--spec FILE]
//             [--digests FILE] [--record-digests]
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics of BENCHMARK.json (--spec); traced runs (--trace 1)
// record benchmark-side spans and report its per-layer metrics instead. perfbench/run.py builds this
// program and is the benchmark's entry point.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"

namespace {

using namespace perfbench;

/// A metric list of BENCHMARK.json: (name, unit) pairs, in order.
using Metrics = std::vector<std::pair<std::string, std::string>>;

Metrics read_metrics(const std::string& spec_path, const char* list) {
  std::ifstream is(spec_path);
  if (!is) throw std::runtime_error("cannot read " + spec_path);
  std::stringstream ss;
  ss << is.rdbuf();
  const rannc::json::Value spec = rannc::json::parse(ss.str());
  const rannc::json::Value* v = spec.find(list);
  if (!v || !v->is_array())
    throw std::runtime_error(spec_path + " has no list " + list);
  Metrics out;
  for (const rannc::json::Value& m : v->items)
    out.emplace_back(m.gets("name"), m.gets("unit"));
  return out;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload search_moe|serve_zipf|train_bert "
               "--seed N --seconds S --trace 0|1 [--state-dir DIR] "
               "[--spec FILE] [--digests FILE] [--record-digests]\n",
               argv0);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(value().c_str());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--state-dir") o.state_dir = value();
    else if (a == "--spec") o.spec = value();
    else if (a == "--digests") o.digests = value();
    else if (a == "--record-digests") o.record_digests = true;
    else usage(argv[0]);
  }
  if (o.seconds <= 0) usage(argv[0]);
  return o;
}

/// Adds the self time of every span name, "other" and the wall.
void report_trace(const Tracer& tr, Result& r) {
  double wall = 0;
  for (const auto& [name, s] : tr.self_seconds(wall))
    r.metric("self." + name + "_s", s, "s");
  r.metric("trace.wall_s", wall, "s");
  const double untraced = median(r.op_untraced_s.sample());
  r.metric("obs.trace_overhead",
           untraced > 0 ? median(r.op_traced_s.sample()) / untraced - 1 : 0,
           "ratio");
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  std::filesystem::create_directories(opt.state_dir);

  Tracer tr(opt.trace);
  Result r;
  std::optional<Digests> digests_holder;
  Metrics end_to_end, per_layer;
  try {
    end_to_end = read_metrics(opt.spec, "end_to_end");
    per_layer = read_metrics(opt.spec, "per_layer");
    Digests& digests = digests_holder.emplace(opt);
    {
      Tracer::Span root(tr, "workload");
      if (opt.workload == "search_moe") run_search_moe(opt, tr, digests, r);
      else if (opt.workload == "serve_zipf") run_serve_zipf(opt, tr, digests, r);
      else if (opt.workload == "train_bert") run_train_bert(opt, tr, digests, r);
      else usage(argv[0]);
    }
    if (tr.on()) {
      report_trace(tr, r);
      const std::string path =
          opt.state_dir + "/trace-" + opt.workload + ".json";
      if (!tr.write(path)) throw std::runtime_error("cannot write " + path);
      std::printf("spans written to %s\n", path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.record_digests) {
    std::printf("{\n%s\n}\n", digests_holder->recorded_json().c_str());
    return 0;
  }
  if (!r.metrics.count("peak_rss_mb"))  // a workload may read it earlier
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  r.metric("ok_ratio",
           r.attempted > 0 ? static_cast<double>(r.attempted - r.failed) /
                                 static_cast<double>(r.attempted)
                           : 0,
           "ratio");

  // Every metric a workload reports must be listed, with its unit. A listed
  // per-layer metric a workload does not report belongs to a layer it does
  // not exercise, and reads 0.
  for (const auto& [name, m] : r.metrics) {
    bool listed = false;
    for (const Metrics* list : {&end_to_end, &per_layer})
      for (const auto& [n, u] : *list)
        if (name == n) {
          listed = true;
          if (m.second != u) {
            std::fprintf(stderr, "metric %s: unit %s, listed as %s\n",
                         name.c_str(), m.second.c_str(), u.c_str());
            return 1;
          }
        }
    if (!listed) {
      std::fprintf(stderr, "metric %s is not listed in %s\n", name.c_str(),
                   opt.spec.c_str());
      return 1;
    }
  }
  const Metrics& out = tr.on() ? per_layer : end_to_end;

  std::printf("== %s  seed %llu  %.0f s  %s  (%s build, %s, %u hardware "
              "threads)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, tr.on() ? "traced" : "untraced",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              std::thread::hardware_concurrency());
  for (const auto& [name, m] : r.metrics)
    std::printf("  %-34s %14.6g %s\n", name.c_str(), m.first, m.second.c_str());
  for (const std::string& f : r.failures)
    std::printf("  FAILED: %s\n", f.c_str());

  std::string line = "{\"correct\": ";
  line += r.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted) +
          ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : out) {
    const auto it = r.metrics.find(name);
    const double v = it == r.metrics.end() ? 0.0 : it->second.first;
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            json_number(v) + ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
