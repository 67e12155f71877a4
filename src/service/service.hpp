// The placement service layer (DESIGN.md §15): a thread-safe facade over
// the compile -> enumerate pipeline. Its three calls — compile(),
// placements() and result() — each serve one cache level, and every
// artifact they return is shared, immutable, and content-addressed.
//
// Three memoization levels, each a bounded coalescing LRU (cache.hpp):
//
//   compile     key = digest(source, spec)
//               value = placement::Compiled (model + applicability + flow
//               graph). Options never enter this key: the front end depends
//               on the text pair alone.
//   placements  key = digest(compile key, normalized tool options)
//               value = PlacementSet (ranked placements + engine stats),
//               holding a reference to its Compiled so enumerated pointers
//               stay valid for as long as any consumer does.
//   results     key = caller-supplied (the CLI uses digest(compile key,
//               subcommand, normalized flags)); value = a fully rendered
//               ActionResult. This is what makes a repeated batch entry
//               free end to end.
//
// Option normalization (options_key): `jobs` is excluded whenever the
// engine's determinism contract makes the output independent of it — i.e.
// unless the run can truncate (an assignment budget, or a plain-enumeration
// solution cap, where the "states tried" statistic depends on scheduling).
// A wall-clock deadline makes the result irreproducible, so such requests
// bypass the cache entirely and are counted as `uncacheable`.
//
// Every cache miss that computes emits a trace span ("service/compile",
// "service/enumerate") and every reuse an instant ("service/hit" with the
// level and short key), so `mptool profile --trace` can attribute cache
// behavior run by run.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "placement/tool.hpp"
#include "service/cache.hpp"

namespace meshpar::service {

/// Ranked placements enumerated from one cached front end. `compiled`
/// keeps the model (which the placements point into) alive.
struct PlacementSet {
  std::shared_ptr<const placement::Compiled> compiled;
  std::vector<placement::Placement> placements;
  placement::EngineStats stats;
};

/// One memoized, fully rendered action: what a CLI subcommand printed and
/// how it exited. Deterministic for a fixed (source, spec, options), which
/// is what makes it cacheable at all.
struct ActionResult {
  int exit_code = 0;
  std::string output;  // stdout
  std::string error;   // stderr
};

struct CacheStats {
  LevelStats compile;
  LevelStats placements;
  LevelStats results;
  long long uncacheable = 0;  // deadline-carrying requests, never cached

  [[nodiscard]] long long hits() const {
    return compile.hits + placements.hits + results.hits;
  }
  [[nodiscard]] long long misses() const {
    return compile.misses + placements.misses + results.misses;
  }
};

struct ServiceConfig {
  std::size_t compile_capacity = 32;
  std::size_t placement_capacity = 64;
  std::size_t result_capacity = 128;
};

class Service {
 public:
  explicit Service(const ServiceConfig& config = {});

  /// The compile level alone (cached, coalesced). `hit_out` (optional)
  /// reports whether the artifact was reused.
  std::shared_ptr<const placement::Compiled> compile(std::string_view source,
                                                     std::string_view spec,
                                                     bool* hit_out = nullptr);

  /// Compile + enumerate (both cached; a deadline-carrying request bypasses
  /// the placement cache and is counted as uncacheable).
  std::shared_ptr<const PlacementSet> placements(
      std::string_view source, std::string_view spec,
      const placement::ToolOptions& options, bool* compile_hit_out = nullptr,
      bool* placements_hit_out = nullptr);

  /// Generic memoized action result; `compute` runs at most once per cached
  /// lifetime of `key`. `reused_out` (optional) reports slot reuse.
  std::shared_ptr<const ActionResult> result(
      const std::string& key,
      const std::function<ActionResult()>& compute, bool* reused_out = nullptr);

  /// True when `key` already holds a ready action result (no counter
  /// changes; see MemoCache::contains).
  [[nodiscard]] bool has_result(const std::string& key) const;

  [[nodiscard]] CacheStats stats() const;

  /// The content address of a (source, spec) pair.
  [[nodiscard]] static std::string content_key(std::string_view source,
                                               std::string_view spec);

  /// The normalized serialization of the options that can change an
  /// enumeration's bytes (see the header comment for the jobs rule).
  [[nodiscard]] static std::string options_key(
      const placement::ToolOptions& options);

 private:
  MemoCache<placement::Compiled> compile_;
  MemoCache<PlacementSet> placements_;
  MemoCache<ActionResult> results_;
  std::atomic<long long> uncacheable_{0};
};

}  // namespace meshpar::service
