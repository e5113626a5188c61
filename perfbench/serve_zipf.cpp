// serve_zipf: a seeded Zipf(1.2) request trace through PlanServer::
// serve_line, the daemon's newline-delimited JSON codec, over a durable
// plan store. One driver thread, closed loop. Phases:
//
//   set-up    cold rounds: a fresh store and server, every key once; each
//             request misses, searches and writes its store entry;
//   warm      a Zipf trace against the last cold server: memory hits;
//   restarts  a new server over the same store, every key once: each
//             request is a disk hit (graph rebuild + store read);
//   steady    a Zipf trace against the last restarted server, hits only,
//             until the run's time is up. Its hits are the measured
//             operation.
//
// The seed draws the Zipf trace and the key order of every restart; the key
// set, the rank of each key in the Zipf law and the cold order are fixed.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "rannc.h"

namespace perfbench {

using namespace rannc;
namespace fs = std::filesystem;

namespace {

struct Key {
  const char* name;
  const char* fields;  ///< the request's JSON members after "id"
};

/// Hottest first: the index is the key's Zipf rank. Several geometries
/// share a model (and so a fingerprint and a warm-start memo); the three
/// ResNet-50 keys store ~2.5 MB memo snapshots, the small keys 16-180 KB.
const Key kKeys[] = {
    {"bert-tiny-1x2-bs8",
     R"("model": "bert", "layers": 2, "hidden": 128, "heads": 2, "seq": 32, "vocab": 512, "nodes": 1, "devices_per_node": 2, "batch_size": 8)"},
    {"mlp-1x2-bs16",
     R"("model": "mlp", "nodes": 1, "devices_per_node": 2, "batch_size": 16)"},
    {"resnet50-4x8-bs256",
     R"("model": "resnet", "depth": 50, "nodes": 4, "devices_per_node": 8, "batch_size": 256)"},
    {"gpt2-tiny-1x2-bs8",
     R"("model": "gpt2", "layers": 2, "hidden": 128, "heads": 2, "seq": 64, "vocab": 512, "nodes": 1, "devices_per_node": 2, "batch_size": 8)"},
    {"bert-L4-2x4-bs64",
     R"("model": "bert", "layers": 4, "hidden": 256, "heads": 4, "seq": 128, "vocab": 1024, "nodes": 2, "devices_per_node": 4, "batch_size": 64)"},
    {"mlp-1x4-bs32",
     R"("model": "mlp", "nodes": 1, "devices_per_node": 4, "batch_size": 32)"},
    {"bert-tiny-2x2-bs16",
     R"("model": "bert", "layers": 2, "hidden": 128, "heads": 2, "seq": 32, "vocab": 512, "nodes": 2, "devices_per_node": 2, "batch_size": 16)"},
    {"gpt2-L4-2x4-bs64",
     R"("model": "gpt2", "layers": 4, "hidden": 256, "heads": 4, "seq": 128, "vocab": 1024, "nodes": 2, "devices_per_node": 4, "batch_size": 64)"},
    {"resnet50-2x4-bs128",
     R"("model": "resnet", "depth": 50, "nodes": 2, "devices_per_node": 4, "batch_size": 128)"},
    {"mlp128-1x2-bs16",
     R"("model": "mlp", "input_dim": 128, "nodes": 1, "devices_per_node": 2, "batch_size": 16)"},
    {"resnet50-1x2-bs8",
     R"("model": "resnet", "depth": 50, "nodes": 1, "devices_per_node": 2, "batch_size": 8)"},
};
constexpr std::size_t kNumKeys = std::size(kKeys);
constexpr int kColdRounds = 11;  // >= 20 misses; set-up is their median
constexpr int kRestarts = 12;    // >= 10 disk hits beyond p90
constexpr int kWarmRequests = 2000;
constexpr std::size_t kBlock = 64;  // requests per traced/untraced block

std::string request_line(std::size_t key, std::int64_t id) {
  return "{\"id\": " + std::to_string(id) + ", " + kKeys[key].fields + "}";
}

/// The reply's status and plan: `reply` must carry `"status": "<want>"`
/// and end in `"plan": <plan>}`. Returns the plan text, or nullopt.
std::optional<std::string> reply_plan(const std::string& reply,
                                      const char* want) {
  if (reply.find(std::string("\"status\": \"") + want + "\"") ==
      std::string::npos)
    return std::nullopt;
  const std::string tag = "\"plan\": ";
  const std::size_t at = reply.find(tag);
  if (at == std::string::npos || reply.back() != '}') return std::nullopt;
  return reply.substr(at + tag.size(),
                      reply.size() - at - tag.size() - 1);
}

/// True when `reply` has status `status` and ends in plan `plan`, which
/// must not be empty (a key whose first miss failed has no plan to match).
bool reply_is(const std::string& reply, const char* status,
              const std::string& plan) {
  const std::string tag = "\"plan\": ";
  return !plan.empty() && reply.size() > plan.size() + tag.size() &&
         reply.compare(reply.size() - plan.size() - 1, plan.size(), plan) ==
             0 &&
         reply.find(std::string("\"status\": \"") + status + "\"") !=
             std::string::npos;
}

std::vector<std::size_t> shuffled_keys(Rng& rng) {
  std::vector<std::size_t> order(kNumKeys);
  for (std::size_t i = 0; i < kNumKeys; ++i) order[i] = i;
  for (std::size_t i = kNumKeys - 1; i > 0; --i)
    std::swap(order[i], order[rng.next() % (i + 1)]);
  return order;
}

std::vector<std::uint8_t> zipf_trace(Rng& rng, std::size_t len) {
  std::vector<double> cdf(kNumKeys);
  double total = 0;
  for (std::size_t r = 0; r < kNumKeys; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 1.2);
    cdf[r] = total;
  }
  std::vector<std::uint8_t> trace(len);
  for (auto& t : trace) {
    const double u = rng.uniform() * total;
    t = static_cast<std::uint8_t>(
        std::min<std::size_t>(kNumKeys - 1, std::upper_bound(cdf.begin(),
                                                             cdf.end(), u) -
                                                cdf.begin()));
  }
  return trace;
}

/// One check per key and phase: every reply the key got in the phase was
/// right, and the phase sent it at least once. With a few checks per key a
/// single wrong plan or count moves ok_ratio by more than its bound, which
/// one check per request (10^5-10^6 of them) would not.
struct PhaseCheck {
  std::vector<int> sent = std::vector<int>(kNumKeys);
  std::vector<int> bad = std::vector<int>(kNumKeys);

  void note(std::size_t k, bool ok) {
    ++sent[k];
    bad[k] += ok ? 0 : 1;
  }
  void report(Result& r, const char* phase) const {
    for (std::size_t k = 0; k < kNumKeys; ++k)
      r.check(sent[k] > 0 && bad[k] == 0,
              std::string(phase) + " " + kKeys[k].name + ": " +
                  std::to_string(bad[k]) + " of " + std::to_string(sent[k]) +
                  " replies wrong");
  }
};

std::int64_t dir_bytes(const fs::path& dir) {
  std::int64_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir))
    bytes += static_cast<std::int64_t>(e.file_size());
  return bytes;
}

struct Totals {
  std::int64_t requests = 0;
  serve::PlanServer::Stats stats;

  void add(const serve::PlanServer& s) {
    const serve::PlanServer::Stats x = s.stats();
    stats.hits += x.hits;
    stats.disk_hits += x.disk_hits;
    stats.misses += x.misses;
    stats.searches += x.searches;
    stats.shed += x.shed;
    stats.errors += x.errors;
  }
};

}  // namespace

void run_serve_zipf(const Options& opt, Tracer& tr, Digests& digests,
                    Result& r) {
  const Clock::time_point run_start = Clock::now();
  Rng rng(opt.seed);
  const fs::path store = fs::path(opt.state_dir) /
                         ("store-" + std::to_string(::getpid()));
  serve::ServeOptions so;
  so.store_dir = store.string();
  so.request_defaults.budget.threads = 1;

  std::int64_t next_id = 1;
  std::vector<std::string> plan(kNumKeys);  // the first miss reply's plan
  std::vector<double> setup_s, miss_s, disk_s;
  Reservoir hit_s(opt.seed);
  Totals totals;

  // Sends one request and returns its reply; `lat` receives the latency.
  const auto send = [&](serve::PlanServer& srv, std::size_t key,
                        double& lat) {
    const std::int64_t id = next_id++;
    const std::string line = request_line(key, id);
    const Clock::time_point t0 = Clock::now();
    Tracer::Span s(tr, "serve.request", id);
    std::string reply = srv.serve_line(line).reply;
    lat = seconds_since(t0);
    ++totals.requests;
    return reply;
  };

  // ---- set-up: cold rounds --------------------------------------------
  std::unique_ptr<serve::PlanServer> srv;
  PhaseCheck miss_chk;
  {
    Tracer::Span s(tr, "setup");
    for (int round = 0; round < kColdRounds; ++round) {
      fs::remove_all(store);
      if (srv) totals.add(*srv);
      const Clock::time_point t0 = Clock::now();
      srv = std::make_unique<serve::PlanServer>(so);
      // Rank order, not a seeded one: keys of one model share a warm-start
      // memo whose snapshot grows with each search, so the order fixes the
      // entry sizes (each ResNet-50 entry stores ~2.5 MB).
      std::vector<std::string> replies(kNumKeys);
      for (std::size_t k = 0; k < kNumKeys; ++k) {
        double lat = 0;
        replies[k] = send(*srv, k, lat);
        miss_s.push_back(lat);
      }
      setup_s.push_back(seconds_since(t0));

      Tracer::Span c(tr, "bench.check");
      for (std::size_t k = 0; k < kNumKeys; ++k) {
        const std::optional<std::string> p = reply_plan(replies[k], "miss");
        if (!p || round > 0) {
          miss_chk.note(k, p && !plan[k].empty() && *p == plan[k]);
          continue;
        }
        // Check each key's plan once, in the first round, against its
        // digest and its own atomic graph; later rounds, and every hit,
        // must then reproduce it byte for byte.
        const std::string name = std::string("serve_zipf/") + kKeys[k].name;
        bool ok = digests.matches(name, *p);
        if (ok) {
          const json::Value v = json::parse(request_line(k, 0));
          const serve::ServeRequest req = serve::request_from_json(v);
          auto ap = std::make_shared<AtomicPartition>(
              atomic_partition(serve::build_model(req.model).graph));
          PartitionResult pr = plan_from_json(*p);
          pr.graph = std::shared_ptr<const TaskGraph>(ap, &ap->graph);
          ok = validate_plan(pr, req.search).empty();
        }
        if (ok) plan[k] = *p;
        miss_chk.note(k, ok);
      }
      r.check(r.repeats({{"serve.searches_per_fill", srv->stats().searches},
                         {"serve.store_bytes", dir_bytes(store)}}),
              "cold round " + std::to_string(round) +
                  ": searches or store bytes differ from the first round");
    }
  }
  miss_chk.report(r, "miss");

  // Runs `n` hits of the trace on `s`, checking every reply against its
  // key's plan. Traced runs alternate traced blocks with Pause blocks.
  const std::vector<std::uint8_t> trace = zipf_trace(rng, 1 << 16);
  std::size_t pos = 0;
  std::int64_t block_no = 0;
  const auto hits = [&](serve::PlanServer& s, std::size_t n,
                        Reservoir* lat_out, PhaseCheck& chk) {
    std::vector<std::string> replies(kBlock);
    std::vector<std::size_t> keys(kBlock);
    for (std::size_t done = 0; done < n; done += kBlock, ++block_no) {
      const std::size_t m = std::min(kBlock, n - done);
      const bool traced = tr.on() && block_no % 2 == 0;
      {
        std::optional<Tracer::Pause> pause;
        if (tr.on() && !traced) pause.emplace(tr);
        for (std::size_t i = 0; i < m; ++i) {
          keys[i] = trace[pos++ % trace.size()];
          double lat = 0;
          replies[i] = send(s, keys[i], lat);
          if (lat_out) lat_out->add(lat);
          if (tr.on()) (traced ? r.op_traced_s : r.op_untraced_s).add(lat);
        }
      }
      Tracer::Span c(tr, "bench.check");
      for (std::size_t i = 0; i < m; ++i)
        chk.note(keys[i], reply_is(replies[i], "hit", plan[keys[i]]));
    }
  };

  // ---- warm: memory hits on the last cold server -------------------------
  PhaseCheck warm_chk;
  hits(*srv, kWarmRequests, nullptr, warm_chk);
  warm_chk.report(r, "warm hit");
  totals.add(*srv);

  // ---- restarts: disk hits ------------------------------------------------
  PhaseCheck disk_chk;
  for (int round = 0; round < kRestarts; ++round) {
    if (round > 0) totals.add(*srv);
    srv = std::make_unique<serve::PlanServer>(so);
    for (std::size_t k : shuffled_keys(rng)) {
      double lat = 0;
      const std::string reply = send(*srv, k, lat);
      disk_s.push_back(lat);
      Tracer::Span c(tr, "bench.check", next_id - 1);
      disk_chk.note(k, reply_is(reply, "hit", plan[k]) &&
                           reply.find("\"from_disk\": true") !=
                               std::string::npos);
    }
    r.check(r.repeats({{"serve.disk_hits_per_restart",
                        srv->stats().disk_hits}}),
            "restart " + std::to_string(round) +
                ": disk hits differ from the first restart");
  }
  disk_chk.report(r, "disk hit");

  // ---- steady state: hits until the time is up ------------------------------
  const double steady_s =
      std::max(0.25 * opt.seconds, opt.seconds - seconds_since(run_start));
  const Clock::time_point steady_start = Clock::now();
  PhaseCheck steady_chk;
  while (seconds_since(steady_start) < steady_s)
    hits(*srv, 16 * kBlock, &hit_s, steady_chk);
  steady_chk.report(r, "steady hit");
  totals.add(*srv);

  // ---- per-layer probes (traced run) ------------------------------------------
  if (tr.on()) {
    std::vector<double> parse_us, build_ms, fp_us, load_us, save_ms, entry_kb;
    std::vector<SearchProbe> probes;
    serve::PlanStore disk(store);
    serve::PlanStore scratch(store.string() + "-probe");
    for (std::size_t k = 0; k < kNumKeys; ++k) {
      const std::string line = request_line(k, 0);
      serve::ServeRequest req;
      {
        Tracer::Span s(tr, "serve.parse");
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < 200; ++i)
          req = serve::request_from_json(json::parse(line),
                                         so.request_defaults);
        parse_us.push_back(seconds_since(t0) / 200 * 1e6);
      }
      BuiltModel bm;
      {
        Tracer::Span s(tr, "models.build");
        const Clock::time_point t0 = Clock::now();
        bm = serve::build_model(req.model);
        build_ms.push_back(seconds_since(t0) * 1e3);
      }
      serve::Fingerprint fp;
      {
        Tracer::Span s(tr, "serve.fingerprint");
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < 20; ++i) fp = serve::fingerprint_graph(bm.graph);
        fp_us.push_back(seconds_since(t0) / 20 * 1e6);
      }
      // A cold search of the key, split into layers.
      probes.push_back(probe_search(tr, bm.graph, req.search, true));
      probes.back().result = {};
      const serve::PlanKey key = serve::make_plan_key(fp, req.search);
      std::optional<serve::StoredEntry> e;
      {
        Tracer::Span s(tr, "serve.store_load");
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < 5; ++i) e = disk.load(key);
        load_us.push_back(seconds_since(t0) / 5 * 1e6);
      }
      r.check(e.has_value(), std::string("store load ") + kKeys[k].name);
      if (!e) continue;
      entry_kb.push_back(
          static_cast<double>(fs::file_size(store / key.filename())) / 1024);
      {
        Tracer::Span s(tr, "serve.store_save");
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < 5; ++i) scratch.save(key, *e);
        save_ms.push_back(seconds_since(t0) / 5 * 1e3);
      }
    }
    fs::remove_all(scratch.dir());
    report_phases(r, probes);
    r.metric("models.build_ms", mean(build_ms), "ms");
    r.metric("serve.parse_us", mean(parse_us), "us");
    r.metric("serve.fingerprint_us", mean(fp_us), "us");
    r.metric("serve.store_load_us", mean(load_us), "us");
    r.metric("serve.store_save_ms", mean(save_ms), "ms");
    r.metric("serve.store_entry_kb", mean(entry_kb), "KiB");
  }
  srv.reset();
  fs::remove_all(store);

  r.report_ops(setup_s, hit_s);
  const serve::PlanServer::Stats& st = totals.stats;
  r.metric("serve.miss_ms_p50", 1e3 * median(miss_s), "ms");
  r.metric("serve.disk_hit_ms_p50", 1e3 * median(disk_s), "ms");
  r.metric("serve.disk_hit_ms_p90", 1e3 * percentile(disk_s, 0.9), "ms");
  r.metric("serve.hit_us_p99", 1e6 * percentile(hit_s.sample(), 0.99), "us");
  r.metric("serve.hit_ratio",
           static_cast<double>(st.hits) / static_cast<double>(totals.requests),
           "ratio");
  r.metric("serve.disk_hits", static_cast<double>(st.disk_hits), "count");
  r.metric("serve.searches", static_cast<double>(st.searches), "count");
  r.metric("serve.shed", static_cast<double>(st.shed), "count");
  r.metric("serve.errors", static_cast<double>(st.errors), "count");
}

}  // namespace perfbench
