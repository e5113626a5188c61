// A set of small non-negative ints that empties in O(1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rannc {

/// Membership flags over [0, n) for searches that run many times on the
/// same index space: an entry is a member iff its stamp equals the current
/// epoch, so clear() bumps the epoch instead of zeroing n flags.
class StampSet {
 public:
  explicit StampSet(std::size_t n = 0) : stamp_(n, 0) {}

  void clear() {
    if (++epoch_ == 0) {  // wrapped: no stale stamp may match
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }
  void insert(int i) { stamp_[static_cast<std::size_t>(i)] = epoch_; }
  [[nodiscard]] bool contains(int i) const {
    return stamp_[static_cast<std::size_t>(i)] == epoch_;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 1;
};

}  // namespace rannc
