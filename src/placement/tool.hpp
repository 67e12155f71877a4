// The top-level tool pipeline, tying §3 and §4 together:
//   source + spec  ->  analyze  ->  verify applicability  ->  build the
//   flow graph  ->  enumerate placements  ->  rank them.
//
// The pipeline is split at its natural seam (DESIGN.md §15):
//
//   * compile_frontend() — everything that depends only on (source, spec):
//     the program model, the Figure-4 applicability verdict and the flow
//     graph. The result is a self-contained `Compiled` handle; placements
//     enumerated from it hold pointers into its model, so the handle must
//     outlive them.
//   * enumerate_placements() — the search + ranking over a compiled front
//     end, parameterized by ToolOptions.
//
// `service::Service` memoizes both halves behind a content-addressed cache.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "placement/check.hpp"
#include "placement/solution.hpp"

namespace meshpar::placement {

/// The front-end artifact: everything derivable from (source, spec) before
/// any enumeration option enters the picture.
struct Compiled {
  std::unique_ptr<ProgramModel> model;  // null: the program/spec failed to build
  std::unique_ptr<FlowGraph> fg;        // null: rejected applicability
  ApplicabilityReport applicability;
  DiagnosticEngine diags;               // front-end build diagnostics

  /// Enumeration is meaningful: the model built, the partitioning was
  /// accepted, and the flow graph carries no errors.
  [[nodiscard]] bool ok() const {
    return model && fg && applicability.ok() && !diags.has_errors();
  }
};

/// Runs the front end only: parse + model + applicability + flow graph.
/// The flow graph is built only when applicability accepts the
/// partitioning.
Compiled compile_frontend(std::string_view source, std::string_view spec_text);

struct ToolOptions {
  EngineOptions engine;
  /// Rank with the bounded-memory streaming k-best pipeline
  /// (enumerate_k_best) instead of enumerate + materialize_all. Same
  /// placements, same order; engine.max_solutions becomes the number of
  /// ranked placements to keep (0 = all) rather than a search cap.
  bool k_best = false;
};

/// The enumeration half of the pipeline: search + dedup + ranking.
struct EnumerationResult {
  std::vector<Placement> placements;  // ranked, cheapest first
  EngineStats stats;
};

/// Enumerates and ranks placements over a compiled front end. The returned
/// placements point into `model`, which must outlive them.
EnumerationResult enumerate_placements(const ProgramModel& model,
                                       const FlowGraph& fg,
                                       const ToolOptions& options = {});

}  // namespace meshpar::placement
