// Proof-carrying optimization pipeline (DESIGN.md §14).
//
// optimize_placement() runs the rewrite passes of passes.hpp in a fixed
// order — dead-comm-elim, coalesce, hoist, (dead-comm-elim + coalesce again
// if hoisting moved anything), vectorize — and refuses to keep any step it
// cannot prove. Every applied step is re-checked on the spot:
//
//   * the placement verifier must still accept the rewritten placement
//     (no new MP-V errors), and
//   * simulate_cost against the canonical example decomposition must be
//     monotonically non-increasing in both messages and bytes —
//
// otherwise the step is rolled back and recorded as such. The final
// placement then carries a full certificate: verifier-clean, lint-clean
// (0 MP-L findings), and — unless the caller opts out — dynamically proven
// by running BOTH placements through the SPMD staleness sanitizer and
// demanding bitwise-identical assembled node fields and scalars plus a
// clean sanitizer report. An OptimizeReport with ok() == false means the
// raw placement should be used; the optimizer never "wins" by weakening
// its own obligations.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "opt/passes.hpp"
#include "placement/cost.hpp"
#include "placement/flowgraph.hpp"
#include "placement/verify.hpp"

namespace meshpar::opt {

/// One executed pipeline step and the cost in force after it.
struct PassStep {
  PassResult pass;
  /// Cost after the step (equal to the previous step's cost when the pass
  /// found nothing or was rolled back).
  placement::CostReport cost_after;
  bool rolled_back = false;
  std::string note;  // why a step was rolled back, when it was
};

struct OptimizeOptions {
  /// Re-run both placements through the SPMD sanitizer and require
  /// bitwise-identical outputs (slower; skipped by --no-dynamic).
  bool dynamic_proof = true;
  analysis::LintOptions lint;
};

struct OptimizeReport {
  placement::Placement optimized;
  std::vector<PassStep> steps;  // in execution order
  placement::CostReport cost_raw;
  placement::CostReport cost_opt;

  // The certificate.
  bool verify_ok = false;     // placement verifier accepts the result
  bool lint_clean = false;    // 0 MP-L findings on the result
  bool cost_monotone = true;  // every KEPT step non-increasing (by constr.)
  bool dynamic_ran = false;
  bool dynamic_identical = false;  // bitwise-equal node outputs + scalars
  bool sanitizer_clean = false;    // optimized run has 0 MP-S001 findings
  std::vector<std::string> notes;

  [[nodiscard]] std::size_t removed() const;
  [[nodiscard]] std::size_t hoisted() const;
  [[nodiscard]] std::size_t fused() const;

  /// True when every proof obligation that was attempted holds.
  [[nodiscard]] bool ok() const {
    return verify_ok && lint_clean && cost_monotone &&
           (!dynamic_ran || (dynamic_identical && sanitizer_clean));
  }
};

/// Runs the full pipeline over `p` and proves the result (see file
/// comment). `p` itself is not modified.
OptimizeReport optimize_placement(const placement::ProgramModel& model,
                                  const placement::FlowGraph& fg,
                                  const placement::Placement& p,
                                  const OptimizeOptions& options = {});

}  // namespace meshpar::opt
