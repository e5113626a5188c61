// Shared pieces of the end-to-end benchmark: command-line options, the
// result record every workload fills, sample statistics, benchmark-side
// tracing spans, the deterministic-count self-check and plan digests.
//
// The benchmark drives the library only from outside, through the calls a
// user makes; every span and timing here is taken around such a call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rannc.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  /// Directory for run state: span files and plan stores.
  std::string state_dir = ".bench_build/perfbench-state";
  /// The benchmark's definition, whose metric lists say what a run prints.
  std::string spec = "BENCHMARK.json";
  /// File of recorded plan digests (perfbench/digests.json).
  std::string digests = "perfbench/digests.json";
  /// Print the digests of this run's plans instead of checking them.
  bool record_digests = false;
};

/// Nearest-rank percentile (p in [0, 1]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// FNV-1a 64-bit digest of `s`, as 16 hex digits.
std::string digest(const std::string& s);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Benchmark-side spans: name, start, end, parent and request id, kept in
/// memory and written out once at the end. The first span opened is the
/// workload's root; every later span nests inside it.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const { return on_; }

  /// RAII span; a no-op when tracing is off or paused.
  class Span {
   public:
    Span(Tracer& t, const char* name, std::int64_t req = -1);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& t_;
    int idx_ = -1;
  };

  /// RAII reference block for the tracing-overhead measurement: one
  /// "untraced" span whose body records no spans of its own.
  class Pause {
   public:
    explicit Pause(Tracer& t);
    ~Pause();
    Pause(const Pause&) = delete;
    Pause& operator=(const Pause&) = delete;

   private:
    Tracer& t_;
    Span span_;
  };

  /// Per-name self time (span duration minus the time its children cover)
  /// in seconds, plus "other" for the root's own residual. The values sum
  /// exactly, in integer nanoseconds, to the root's wall time, which is
  /// returned in `wall_s`. Requires the root span to be closed.
  std::map<std::string, double> self_seconds(double& wall_s) const;

  /// Writes the spans as Chrome trace-event JSON.
  bool write(const std::string& path) const;

 private:
  struct Rec {
    const char* name;
    std::int64_t start_ns, end_ns;
    int parent;
    std::int64_t req;
  };
  int begin(const char* name, std::int64_t req);
  void end(int idx);

  bool on_;
  bool paused_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Rec> spans_;
  std::vector<int> open_;
};

/// A small deterministic generator (splitmix64) for workload inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : x_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();

 private:
  std::uint64_t x_;
};

/// A uniform sample of at most `cap` values of a stream (Algorithm R), plus
/// the stream's count and sum, so a run's memory does not grow with the
/// number of operations that fit in its time.
class Reservoir {
 public:
  explicit Reservoir(std::uint64_t seed, std::size_t cap = 1 << 18)
      : rng_(seed), cap_(cap) {}
  void add(double x);
  [[nodiscard]] const std::vector<double>& sample() const { return v_; }
  [[nodiscard]] std::int64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  Rng rng_;
  std::size_t cap_;
  std::vector<double> v_;
  std::int64_t n_ = 0;
  double sum_ = 0;
};

/// What a workload reports: the operations it checked and the metrics.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// The deterministic counts of the first repetition of each piece of
  /// work the run repeats, by name (see repeats()).
  std::map<std::string, std::int64_t> counts;
  /// Traced run: the workload's operation latencies with spans recorded
  /// and inside Tracer::Pause blocks, for obs.trace_overhead.
  Reservoir op_traced_s{1}, op_untraced_s{2};

  void metric(const std::string& name, double value, const std::string& unit);
  /// Records one checked operation; `ok == false` counts it as failed.
  void check(bool ok, const std::string& what);
  /// The deterministic-count self-check. Each workload repeats its work
  /// inside one run (searches, cold store fills, restarts, training
  /// windows); `c` holds the counts of one repetition. The first sets them,
  /// and every later one must match them exactly. Returns whether it did.
  /// Counts are never compared across runs, which may be of other code.
  bool repeats(const std::map<std::string, std::int64_t>& c);
  /// The end-to-end metrics shared by every workload: set-up time (median
  /// of several set-ups) and the latency and rate of its operation.
  void report_ops(const std::vector<double>& setup_s, const Reservoir& ops);
};

/// Plan digests recorded in perfbench/digests.json, keyed by plan name.
class Digests {
 public:
  explicit Digests(const Options& opt);
  /// True when `plan_json`'s digest is the one recorded under `name`.
  /// In record mode, remembers it and returns true.
  bool matches(const std::string& name, const std::string& plan_json);
  /// Record mode: the digests seen, as a JSON object body.
  [[nodiscard]] std::string recorded_json() const;

 private:
  bool record_;
  std::map<std::string, std::string> want_;
  std::map<std::string, std::string> seen_;
};

/// One cold search, timed from outside. With `split`, the search's own
/// Phase 1 and 2 are first called on their own (lint_graph,
/// atomic_partition, and block_partition with auto_partition's
/// configuration), each in its span, so the wall can be split into layers.
struct SearchProbe {
  double lint_s = 0, atomic_s = 0, block_s = 0, search_s = 0;
  rannc::SearchResult result;
};
SearchProbe probe_search(Tracer& tr, const rannc::TaskGraph& g,
                         const rannc::SearchRequest& req, bool split,
                         std::int64_t req_id = -1);
/// partition.{lint,atomic,block,rest}_ms: medians over split probes; rest
/// is the search wall minus the three phases.
void report_phases(Result& r, const std::vector<SearchProbe>& probes);

/// The deterministic work counts of one search, by per-layer metric name.
std::map<std::string, std::int64_t> search_counts(const rannc::SearchResult& sr);
/// Reports `counts` (from search_counts) as per-layer metrics and derives
/// profiler.memo_hit_ratio.
void report_search_counts(Result& r,
                          const std::map<std::string, std::int64_t>& counts);

// The three workloads. Each runs for about `opt.seconds`, fills `r` and
// opens every span under the root span `tr` already holds.
void run_search_moe(const Options& opt, Tracer& tr, Digests& digests,
                    Result& r);
void run_serve_zipf(const Options& opt, Tracer& tr, Digests& digests,
                    Result& r);
void run_train_bert(const Options& opt, Tracer& tr, Digests& digests,
                    Result& r);


}  // namespace perfbench
