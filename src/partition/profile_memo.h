// Cross-DP-invocation stage-profile memoization (the paper's Algorithm 1
// `profile` cache, lifted above a single DP).
//
// Algorithm 2 runs form_stage_dp once per (S, MB) pair of a node group, and
// every invocation re-queries the same unit ranges: a StageProfile depends
// on (S, MB) only through the derived pair
//
//   inflight      = (num_stages == 1 ? 1 : microbatches)
//   checkpointing = (num_stages > 1)
//
// so e.g. (S=5, MB=4) and (S=7, MB=4) share every profile. ProfileMemo
// wraps any RangeProfileFn with a sharded, thread-safe flat hash cache
// keyed by exactly (lo, hi, bsize, inflight, checkpointing), which lets the
// concurrent sweep share one cache and lets later DP invocations run almost
// entirely off earlier ones' work.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "partition/stage_dp.h"

namespace rannc {

class ProfileMemo {
 public:
  /// `base` must be pure (same arguments -> bit-identical StageProfile) and
  /// must depend on (microbatches, num_stages) only through the derived
  /// (inflight, checkpointing) pair above. Both make_profile_fn variants in
  /// auto_partitioner satisfy this; a base fn that violates the contract
  /// would silently receive profiles from a sibling (S, MB) configuration.
  explicit ProfileMemo(RangeProfileFn base) : base_(std::move(base)) {}
  /// Unbound memo for cross-run sharing (PartitionConfig::shared_memo):
  /// call set_base before the first lookup of each run.
  ProfileMemo() = default;
  ProfileMemo(const ProfileMemo&) = delete;
  ProfileMemo& operator=(const ProfileMemo&) = delete;

  /// Rebinds the base fn while keeping the cache — the warm-restart path
  /// of elastic recovery, where a re-partition after device loss reuses
  /// every profile of the original search. Caller contract: the new base
  /// must produce bit-identical profiles for any key the cache already
  /// holds (true when model, profiler and block partition are unchanged —
  /// cluster *size* may differ, it does not enter profiles). Not
  /// thread-safe against concurrent lookups.
  void set_base(RangeProfileFn base) { base_ = std::move(base); }

  /// Drops every cached profile (counters are kept).
  void clear();

  /// The memoizing RangeProfileFn. Holds a non-owning reference to this
  /// memo, which must outlive every copy of the returned function. Safe
  /// for concurrent calls; cache hits return exactly the StageProfile the
  /// base fn produced on the miss, so results are bit-identical to the
  /// unmemoized fn regardless of thread count or call order.
  [[nodiscard]] RangeProfileFn fn();

  /// Lookups answered from the cache, and lookups that inserted a new
  /// key. A lookup that computes a key another thread inserts first counts
  /// as a hit, so both counters are the same at any thread count (misses
  /// are the distinct keys added; base-fn calls can exceed them).
  [[nodiscard]] std::int64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// Number of cached profiles across all shards.
  [[nodiscard]] std::size_t size() const;

  /// Exact JSON snapshot of the cache. Entries are emitted sorted by key
  /// (not by shard or hash order), so two memos holding the same profiles
  /// serialize byte-identically regardless of fill order or thread count;
  /// doubles are printed at max_digits10 so from_json restores them
  /// bit-exactly. Takes the shard locks; safe against concurrent lookups.
  [[nodiscard]] std::string to_json() const;

  /// Merges the entries of a to_json snapshot into this memo (existing
  /// entries win, matching the lookup no-op-on-second-emplace policy).
  /// Throws std::invalid_argument on malformed JSON, a missing/unknown
  /// version, or entries with missing fields — callers treat that as a
  /// cache miss, never as fatal.
  void from_json(const std::string& text);

 private:
  struct Key {
    std::int32_t lo = 0, hi = 0;
    std::int64_t bsize = 0, inflight = 0;
    bool checkpointing = false;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
      const auto mix = [&h](std::uint64_t x) {
        h ^= x;
        h *= 1099511628211ULL;
      };
      mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.lo)));
      mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.hi)) << 1);
      mix(static_cast<std::uint64_t>(k.bsize));
      mix(static_cast<std::uint64_t>(k.inflight) << 1);
      mix(k.checkpointing ? 0x9e3779b97f4a7c15ULL : 0x2545F4914F6CDD1DULL);
      return static_cast<std::size_t>(h);
    }
  };
  static constexpr unsigned kShards = 64;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, StageProfile, KeyHash> map;
  };

  StageProfile lookup(int lo, int hi, std::int64_t bsize, int microbatches,
                      int num_stages);
  /// Emits a cumulative hit/miss counter event every kTraceEvery lookups
  /// when a trace recorder is attached.
  void trace_progress() const;
  static constexpr std::int64_t kTraceEvery = 256;

  RangeProfileFn base_;
  Shard shards_[kShards];
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
};

}  // namespace rannc
