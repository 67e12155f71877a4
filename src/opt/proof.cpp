#include "opt/proof.hpp"

#include <utility>

#include "interp/spmd.hpp"
#include "mesh/mesh2d.hpp"
#include "runtime/world.hpp"
#include "support/trace.hpp"

namespace meshpar::opt {

using placement::CostReport;
using placement::Placement;
using placement::ProgramModel;

std::size_t OptimizeReport::removed() const {
  std::size_t n = 0;
  for (const PassStep& s : steps)
    if (!s.rolled_back) n += s.pass.removed;
  return n;
}
std::size_t OptimizeReport::hoisted() const {
  std::size_t n = 0;
  for (const PassStep& s : steps)
    if (!s.rolled_back) n += s.pass.hoisted;
  return n;
}
std::size_t OptimizeReport::fused() const {
  std::size_t n = 0;
  for (const PassStep& s : steps)
    if (!s.rolled_back) n += s.pass.fused;
  return n;
}

OptimizeReport optimize_placement(const ProgramModel& model,
                                  const placement::FlowGraph& fg,
                                  const Placement& p,
                                  const OptimizeOptions& options) {
  trace::Span pipeline_span("opt/pipeline", "opt");

  OptimizeReport rep;
  mesh::Mesh2D mesh;
  const overlap::Decomposition d =
      placement::example_decomposition(model, &mesh);
  rep.cost_raw = placement::simulate_cost(model, p, d);
  rep.optimized = p;

  CostReport current = rep.cost_raw;

  // Runs one pass under a span, then discharges the per-step obligations:
  // the verifier must still accept the rewrite and the simulated traffic
  // must not grow. A pass that fails either is rolled back — the pipeline
  // prefers a provable placement over a cheap one.
  const auto apply = [&](auto&& pass_fn, PassKind kind) {
    PassStep step;
    Placement snapshot = rep.optimized;
    {
      trace::Span span(std::string("opt/") + pass_name(kind), "opt");
      step.pass = pass_fn(rep.optimized);
    }
    if (!step.pass.changed()) {
      step.cost_after = current;
      rep.steps.push_back(std::move(step));
      return false;
    }
    const CostReport after =
        placement::simulate_cost(model, rep.optimized, d);
    const placement::VerifyReport v =
        placement::verify_placement(model, fg, rep.optimized);
    if (!v.ok()) {
      step.rolled_back = true;
      step.note = "verifier rejected the rewrite (" +
                  std::to_string(v.errors()) + " error(s))";
    } else if (after.messages > current.messages ||
               after.bytes > current.bytes) {
      step.rolled_back = true;
      step.note = "cost increased (" + std::to_string(current.messages) +
                  " -> " + std::to_string(after.messages) + " msgs)";
    }
    if (step.rolled_back) {
      rep.optimized = std::move(snapshot);
      step.cost_after = current;
      rep.notes.push_back(std::string(pass_name(kind)) +
                          " rolled back: " + step.note);
      rep.steps.push_back(std::move(step));
      return false;
    }
    current = after;
    step.cost_after = after;
    rep.steps.push_back(std::move(step));
    return true;
  };

  const auto dce = [&](Placement& pl) {
    return eliminate_dead_comms(model, pl, options.lint);
  };
  const auto coalesce = [&](Placement& pl) {
    return coalesce_redundant_syncs(model, pl, options.lint);
  };
  const auto hoist = [&](Placement& pl) {
    return hoist_invariant_syncs(model, pl);
  };
  const auto vectorize = [&](Placement& pl) {
    return vectorize_messages(model, pl);
  };

  apply(dce, PassKind::kDeadCommElim);
  apply(coalesce, PassKind::kCoalesce);
  if (apply(hoist, PassKind::kHoist)) {
    // Hoisting relocates syncs; the new points may expose fresh dead or
    // redundant exchanges (e.g. the hoisted copy lands where the variable
    // is already coherent).
    apply(dce, PassKind::kDeadCommElim);
    apply(coalesce, PassKind::kCoalesce);
  }
  apply(vectorize, PassKind::kVectorize);

  rep.cost_opt = current;
  // Kept steps are individually non-increasing, so the chain is; assert it
  // end to end anyway — this is the certificate the CLI prints.
  rep.cost_monotone = rep.cost_opt.messages <= rep.cost_raw.messages &&
                      rep.cost_opt.bytes <= rep.cost_raw.bytes;

  // Final static certificate: independent verifier + coherence lint.
  rep.verify_ok = placement::verify_placement(model, fg, rep.optimized).ok();
  const analysis::LintReport lint =
      analysis::lint_placement(model, rep.optimized, options.lint);
  rep.lint_clean = lint.findings.empty();
  if (!rep.lint_clean)
    rep.notes.push_back("lint reported " +
                        std::to_string(lint.findings.size()) +
                        " finding(s) on the optimized placement");

  // Dynamic certificate: both placements through the SPMD staleness
  // sanitizer, bit-for-bit equal observable outputs, clean report.
  if (options.dynamic_proof) {
    trace::Span span("opt/dynamic-proof", "opt");
    rep.dynamic_ran = true;
    const interp::MeshBinding binding = interp::synthetic_binding(model, mesh);
    runtime::World raw_world(d.parts());
    interp::StalenessReport raw_stale;
    const interp::RunResult raw = interp::run_spmd_sanitized(
        raw_world, model, p, d, mesh, binding, &raw_stale);
    runtime::World opt_world(d.parts());
    interp::StalenessReport opt_stale;
    const interp::RunResult opt = interp::run_spmd_sanitized(
        opt_world, model, rep.optimized, d, mesh, binding, &opt_stale);
    if (!raw.ok || !opt.ok) {
      rep.notes.push_back("dynamic proof failed to run: " +
                          (raw.ok ? opt.error : raw.error));
    } else {
      rep.dynamic_identical = interp::bitwise_identical(raw, opt);
      rep.sanitizer_clean = opt_stale.clean();
      if (!rep.dynamic_identical)
        rep.notes.push_back("optimized run diverged from the raw run");
      if (!rep.sanitizer_clean)
        rep.notes.push_back(
            "sanitizer flagged " +
            std::to_string(opt_stale.findings.size()) +
            " stale read(s) in the optimized run");
    }
  }

  return rep;
}

}  // namespace meshpar::opt
