// The memoization core of the service layer (DESIGN.md §15): a thread-safe,
// request-coalescing map from content-addressed keys to shared immutable
// artifacts. A service lives for one invocation, so nothing is ever
// evicted: an entry lives as long as its cache.
//
// Coalescing is what makes the hit/miss counters deterministic under
// concurrency: the first requester of a key becomes its computer (one
// miss); every other requester — even one arriving while the computation
// is still in flight — blocks on the slot and counts as a hit, because the
// artifact was NOT recomputed for it. For a fixed multiset of get() calls,
// misses always equals the number of distinct keys and hits equals the
// remainder, regardless of thread scheduling. That invariant is what lets
// `mptool batch --json` pin its cache-stats block byte-for-byte across
// --jobs values.
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace meshpar::service {

/// Deterministic cache counters for one memoization level.
struct LevelStats {
  long long hits = 0;
  long long misses = 0;
};

template <typename T>
class MemoCache {
 public:
  using Value = std::shared_ptr<const T>;

  /// Returns the artifact for `key`, running `compute` exactly once per
  /// key. Blocks while another thread is computing the same key. `hit_out`
  /// (optional) reports whether this call reused an existing slot. If
  /// `compute` throws, the slot is abandoned and one of the blocked waiters
  /// (or a later caller) becomes the new computer.
  Value get(const std::string& key, const std::function<Value()>& compute,
            bool* hit_out = nullptr) {
    std::shared_ptr<Slot> slot;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (true) {
        auto it = map_.find(key);
        if (it == map_.end()) break;
        slot = it->second;
        ++stats_.hits;
        if (hit_out) *hit_out = true;
        cv_.wait(lock, [&] { return slot->ready || slot->abandoned; });
        if (slot->ready) return slot->value;
        // The computer threw; its slot was erased. Retry: either we become
        // the computer or we find a newer slot. The optimistic hit above is
        // rolled back so the counters reflect what actually happened.
        --stats_.hits;
        if (hit_out) *hit_out = false;
        slot.reset();
      }
      slot = std::make_shared<Slot>();
      map_.emplace(key, slot);
      ++stats_.misses;
      if (hit_out) *hit_out = false;
    }
    try {
      slot->value = compute();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      map_.erase(key);
      slot->abandoned = true;
      cv_.notify_all();
      throw;
    }
    std::lock_guard<std::mutex> lock(mu_);
    slot->ready = true;
    cv_.notify_all();
    return slot->value;
  }

  [[nodiscard]] LevelStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  struct Slot {
    Value value;
    bool ready = false;
    bool abandoned = false;  // compute() threw; waiters must retry
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, std::shared_ptr<Slot>> map_;
  LevelStats stats_;
};

}  // namespace meshpar::service
