#include "partition/profile_memo.h"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "obs/trace.h"
#include "util/json.h"

namespace rannc {

void ProfileMemo::trace_progress() const {
  obs::TraceRecorder* rec = obs::recorder();
  if (rec == nullptr) return;
  const std::int64_t h = hits();
  const std::int64_t m = misses();
  if ((h + m) % kTraceEvery != 0) return;
  rec->counter(obs::Domain::Search, 0, "profile_memo", rec->now_us(),
               "\"hits\":" + std::to_string(h) +
                   ",\"misses\":" + std::to_string(m));
}

void ProfileMemo::clear() {
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.map.clear();
  }
}

RangeProfileFn ProfileMemo::fn() {
  return [this](int lo, int hi, std::int64_t bsize, int microbatches,
                int num_stages) -> StageProfile {
    return lookup(lo, hi, bsize, microbatches, num_stages);
  };
}

std::size_t ProfileMemo::size() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh.mu);
    n += sh.map.size();
  }
  return n;
}

std::string ProfileMemo::to_json() const {
  std::vector<std::pair<Key, StageProfile>> entries;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh.mu);
    entries.insert(entries.end(), sh.map.begin(), sh.map.end());
  }
  // Canonical order: by key, so shard layout and fill order never leak
  // into the serialized form.
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return std::tie(a.first.lo, a.first.hi, a.first.bsize,
                              a.first.inflight, a.first.checkpointing) <
                     std::tie(b.first.lo, b.first.hi, b.first.bsize,
                              b.first.inflight, b.first.checkpointing);
            });
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"version\": 1, \"entries\": [";
  bool first = true;
  for (const auto& [k, p] : entries) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "  {\"lo\": " << k.lo << ", \"hi\": " << k.hi
       << ", \"bsize\": " << k.bsize << ", \"inflight\": " << k.inflight
       << ", \"ckpt\": " << (k.checkpointing ? "true" : "false")
       << ", \"t_f\": " << p.t_f << ", \"t_b\": " << p.t_b
       << ", \"mem\": " << p.mem << "}";
  }
  os << (first ? "]}" : "\n]}");
  return os.str();
}

void ProfileMemo::from_json(const std::string& text) {
  const json::Value doc = json::parse(text);
  if (!doc.is_object() || doc.geti("version", -1) != 1)
    throw std::invalid_argument("ProfileMemo: unsupported snapshot version");
  const json::Value* entries = doc.find("entries");
  if (entries == nullptr || !entries->is_array())
    throw std::invalid_argument("ProfileMemo: snapshot has no entries array");
  for (const json::Value& e : entries->items) {
    if (!e.is_object())
      throw std::invalid_argument("ProfileMemo: entry is not an object");
    for (const char* field : {"lo", "hi", "bsize", "inflight", "ckpt", "t_f",
                              "t_b", "mem"})
      if (e.find(field) == nullptr)
        throw std::invalid_argument(
            std::string("ProfileMemo: entry missing field '") + field + "'");
    Key k;
    k.lo = static_cast<std::int32_t>(e.geti("lo"));
    k.hi = static_cast<std::int32_t>(e.geti("hi"));
    k.bsize = e.geti("bsize");
    k.inflight = e.geti("inflight");
    k.checkpointing = e.getb("ckpt");
    StageProfile p;
    p.t_f = e.getd("t_f");
    p.t_b = e.getd("t_b");
    p.mem = e.geti("mem");
    Shard& sh = shards_[KeyHash{}(k) % kShards];
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.map.emplace(k, p);
  }
}

StageProfile ProfileMemo::lookup(int lo, int hi, std::int64_t bsize,
                                 int microbatches, int num_stages) {
  Key k;
  k.lo = lo;
  k.hi = hi;
  k.bsize = bsize;
  k.inflight = num_stages == 1 ? 1 : microbatches;
  k.checkpointing = num_stages > 1;
  Shard& sh = shards_[KeyHash{}(k) % kShards];
  {
    bool hit = false;
    StageProfile cached;
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      if (auto it = sh.map.find(k); it != sh.map.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        cached = it->second;
        hit = true;
      }
    }
    if (hit) {
      trace_progress();
      return cached;
    }
  }
  // Compute outside the shard lock: the base fn may take its own locks
  // (UnitSequence's time-prefix cache) and other shard keys stay usable
  // meanwhile. A concurrent miss on the same key computes the same value;
  // the second emplace is a no-op and counts as a hit, so misses are the
  // distinct keys inserted whatever the scheduling.
  const StageProfile p = base_(lo, hi, bsize, microbatches, num_stages);
  StageProfile out;
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    const auto [it, inserted] = sh.map.emplace(k, p);
    (inserted ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
    out = it->second;
  }
  trace_progress();
  return out;
}

}  // namespace rannc
