#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "rannc.h"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(
      std::clamp(rank - 1, 0.0, static_cast<double>(v.size() - 1)));
  return v[idx];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::string digest(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Tracer ------------------------------------------------------------

Tracer::Span::Span(Tracer& t, const char* name, std::int64_t req) : t_(t) {
  if (t_.on_ && !t_.paused_) idx_ = t_.begin(name, req);
}

Tracer::Span::~Span() {
  if (idx_ >= 0) t_.end(idx_);
}

Tracer::Pause::Pause(Tracer& t) : t_(t), span_(t, "untraced") {
  t_.paused_ = true;
}

Tracer::Pause::~Pause() { t_.paused_ = false; }

int Tracer::begin(const char* name, std::int64_t req) {
  const int parent = open_.empty() ? -1 : open_.back();
  if (parent < 0 && !spans_.empty())
    throw std::logic_error("perfbench: span opened outside the root span");
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  spans_.push_back({name, now, -1, parent, req});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int idx) {
  if (open_.empty() || open_.back() != idx)
    throw std::logic_error("perfbench: spans closed out of order");
  open_.pop_back();
  spans_[static_cast<std::size_t>(idx)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
}

std::map<std::string, double> Tracer::self_seconds(double& wall_s) const {
  if (spans_.empty() || !open_.empty())
    throw std::logic_error("perfbench: trace has no closed root span");
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (std::size_t i = 1; i < spans_.size(); ++i)
    self[static_cast<std::size_t>(spans_[i].parent)] -=
        spans_[i].end_ns - spans_[i].start_ns;

  std::map<std::string, std::int64_t> by_name;
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[i == 0 ? "other" : spans_[i].name] += self[i];
    total += self[i];
  }
  const std::int64_t wall = spans_[0].end_ns - spans_[0].start_ns;
  if (total != wall)
    throw std::logic_error("perfbench: self times do not sum to the wall");
  wall_s = static_cast<double>(wall) * 1e-9;
  std::map<std::string, double> out;
  for (const auto& [name, ns] : by_name)
    out[name] = static_cast<double>(ns) * 1e-9;
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %d, \"req\": %lld}}",
                  i ? "," : "", s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, static_cast<long long>(s.req));
    os << buf;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

// ---- Result --------------------------------------------------------------

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics[name] = {value, unit};
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

bool Result::repeats(const std::map<std::string, std::int64_t>& c) {
  bool same = true;
  for (const auto& [k, v] : c) {
    const auto [it, first] = counts.emplace(k, v);
    if (first || it->second == v) continue;
    same = false;
    std::fprintf(stderr, "count %s: %lld, first repetition %lld\n", k.c_str(),
                 static_cast<long long>(v), static_cast<long long>(it->second));
  }
  return same;
}

void Result::report_ops(const std::vector<double>& setup_s,
                        const Reservoir& ops) {
  const std::vector<double>& op_s = ops.sample();
  metric("setup_s", median(setup_s), "s");
  metric("op_ms_p50", 1e3 * median(op_s), "ms");
  metric("op_ms_p90", 1e3 * percentile(op_s, 0.9), "ms");
  metric("ops_per_s",
         ops.sum() > 0 ? static_cast<double>(ops.count()) / ops.sum() : 0,
         "1/s");
  const auto quantiles = [](const char* what, std::int64_t n,
                            const std::vector<double>& v) {
    std::printf("%s: n=%lld  ms p10 %.4f  p25 %.4f  p50 %.4f  p75 %.4f  "
                "p90 %.4f\n",
                what, static_cast<long long>(n), 1e3 * percentile(v, 0.1),
                1e3 * percentile(v, 0.25), 1e3 * median(v),
                1e3 * percentile(v, 0.75), 1e3 * percentile(v, 0.9));
  };
  quantiles("set-up", static_cast<std::int64_t>(setup_s.size()), setup_s);
  quantiles("operation", ops.count(), op_s);
}

// ---- Digests -------------------------------------------------------------

Digests::Digests(const Options& opt) : record_(opt.record_digests) {
  if (record_) return;
  std::ifstream is(opt.digests);
  if (!is) throw std::runtime_error("cannot read digests file " + opt.digests);
  std::stringstream ss;
  ss << is.rdbuf();
  const rannc::json::Value v = rannc::json::parse(ss.str());
  for (const auto& [name, d] : v.members) want_[name] = d.str;
}

bool Digests::matches(const std::string& name, const std::string& plan_json) {
  const std::string d = digest(plan_json);
  if (record_) {
    seen_[name] = d;
    return true;
  }
  const auto it = want_.find(name);
  return it != want_.end() && it->second == d;
}

std::string Digests::recorded_json() const {
  std::string out;
  for (const auto& [name, d] : seen_)
    out += (out.empty() ? "  \"" : ",\n  \"") + name + "\": \"" + d + "\"";
  return out;
}

// ---- search probes and counts -------------------------------------------------

SearchProbe probe_search(Tracer& tr, const rannc::TaskGraph& g,
                         const rannc::SearchRequest& req, bool split,
                         std::int64_t req_id) {
  using namespace rannc;
  SearchProbe p;
  if (split) {
    Clock::time_point t0 = Clock::now();
    {
      Tracer::Span s(tr, "analysis.lint");
      lint_graph(g);
    }
    p.lint_s = seconds_since(t0);
    t0 = Clock::now();
    AtomicPartition ap;
    {
      Tracer::Span s(tr, "partition.atomic");
      ap = atomic_partition(g);
    }
    p.atomic_s = seconds_since(t0);
    t0 = Clock::now();
    {
      Tracer::Span s(tr, "partition.block");
      GraphProfiler prof(ap.graph, req.cluster.device, req.precision);
      BlockPartitionConfig bcfg;
      bcfg.k = req.num_blocks;
      bcfg.device_memory = req.usable_memory();
      bcfg.profile_batch = 1;
      block_partition(ap, prof, bcfg);
    }
    p.block_s = seconds_since(t0);
  }
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Span s(tr, "partition.auto_partition", req_id);
    p.result = auto_partition(g, req);
  }
  p.search_s = seconds_since(t0);
  return p;
}

void report_phases(Result& r, const std::vector<SearchProbe>& probes) {
  std::vector<double> lint, atomic, block, rest;
  for (const SearchProbe& p : probes) {
    if (p.block_s == 0) continue;  // not split
    lint.push_back(p.lint_s);
    atomic.push_back(p.atomic_s);
    block.push_back(p.block_s);
    rest.push_back(p.search_s - p.lint_s - p.atomic_s - p.block_s);
  }
  r.metric("analysis.lint_ms", 1e3 * median(lint), "ms");
  r.metric("partition.atomic_ms", 1e3 * median(atomic), "ms");
  r.metric("partition.block_ms", 1e3 * median(block), "ms");
  r.metric("partition.rest_ms", 1e3 * median(rest), "ms");
}

std::map<std::string, std::int64_t> search_counts(
    const rannc::SearchResult& sr) {
  const rannc::SearchStats& st = sr.stats();
  return {{"partition.blocks", st.blocks},
          {"partition.coarsen_levels", st.coarsen_levels},
          {"partition.uncoarsen_moves", st.uncoarsen_moves},
          {"partition.compaction_merges", st.compaction_merges},
          {"partition.dp_cells", st.dp_cells_visited},
          {"partition.dp_invocations", st.dp_invocations},
          {"partition.jobs_pruned", sr.prune().jobs_pruned},
          {"profiler.profile_queries", st.profile_queries},
          {"profiler.memo_hits", st.memo_hits},
          {"profiler.memo_misses", st.memo_misses}};
}

void report_search_counts(Result& r,
                          const std::map<std::string, std::int64_t>& counts) {
  for (const auto& [k, v] : counts) {
    if (k.rfind("profiler.memo_", 0) != 0)
      r.metric(k, static_cast<double>(v), "count");
  }
  const double hits = static_cast<double>(counts.at("profiler.memo_hits"));
  const double lookups =
      hits + static_cast<double>(counts.at("profiler.memo_misses"));
  r.metric("profiler.memo_hit_ratio", lookups > 0 ? hits / lookups : 0,
           "ratio");
}

// ---- Rng -------------------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (x_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) / static_cast<double>(1ULL << 53);
}

void Reservoir::add(double x) {
  ++n_;
  sum_ += x;
  if (v_.size() < cap_) {
    v_.push_back(x);
  } else {
    const std::uint64_t j = rng_.next() % static_cast<std::uint64_t>(n_);
    if (j < cap_) v_[j] = x;
  }
}

}  // namespace perfbench
