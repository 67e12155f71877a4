// The placement service layer (DESIGN.md §15): a thread-safe facade over
// the compile -> enumerate pipeline. Its two calls — compile() and
// placements() — each serve one cache level, and every artifact they
// return is shared, immutable, and content-addressed.
//
// Two memoization levels, each a coalescing map (cache.hpp) that lives as
// long as the service — one mptool invocation:
//
//   compile     key = digest(source, spec)
//               value = placement::Compiled (model + applicability + flow
//               graph). Options never enter this key: the front end depends
//               on the text pair alone.
//   placements  key = digest(compile key, normalized tool options)
//               value = PlacementSet (ranked placements + engine stats),
//               holding a reference to its Compiled so enumerated pointers
//               stay valid for as long as any consumer does.
//
// Whole repeated `mptool batch` entries are not a service level: the batch
// driver runs each distinct entry once and copies its result to the
// repeats (cmd_batch.cpp).
//
// Option normalization (options_key): `jobs` is excluded whenever the
// engine's determinism contract makes the output independent of it — i.e.
// unless the run can truncate (an assignment budget, or a plain-enumeration
// solution cap, where the "states tried" statistic depends on scheduling).
// Every search bound is deterministic, so every request is cacheable.
//
// Every cache miss that computes emits a trace span ("service/compile",
// "service/enumerate") and every reuse an instant ("service/hit" with the
// level and short key), so `mptool profile --trace` can attribute cache
// behavior run by run.
#pragma once

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

struct CacheStats {
  LevelStats compile;
  LevelStats placements;

  [[nodiscard]] long long hits() const {
    return compile.hits + placements.hits;
  }
  [[nodiscard]] long long misses() const {
    return compile.misses + placements.misses;
  }
};

class Service {
 public:
  /// The compile level alone (cached, coalesced). `hit_out` (optional)
  /// reports whether the artifact was reused.
  std::shared_ptr<const placement::Compiled> compile(std::string_view source,
                                                     std::string_view spec,
                                                     bool* hit_out = nullptr);

  /// Compile + enumerate, both levels cached and coalesced. The hit
  /// out-params (optional) report reuse per level.
  std::shared_ptr<const PlacementSet> placements(
      std::string_view source, std::string_view spec,
      const placement::ToolOptions& options, bool* compile_hit_out = nullptr,
      bool* placements_hit_out = nullptr);

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
};

}  // namespace meshpar::service
