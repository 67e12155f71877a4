// `mptool place`: ranked placement enumeration with the static coherence
// gate, optional proof-carrying optimization, and annotated-source output.
// Exit contract: 0 = placements printed, 1 = rejected applicability / no
// placement / gate findings, 2 = build error or a placement index that
// does not exist.
#include "analysis/lint.hpp"
#include "cli/handlers.hpp"
#include "cli/options.hpp"
#include "codegen/annotate.hpp"
#include "opt/proof.hpp"
#include "placement/cost.hpp"
#include "placement/tool.hpp"
#include "service/service.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace meshpar::cli {

int cmd_place(Context& ctx) {
  const Options& o = ctx.opts;
  const placement::Compiled& c = *ctx.compiled;
  const service::PlacementSet& set = *ctx.placements;
  std::ostream& out = ctx.out;
  std::ostream& err = ctx.err;
  // Post-placement gate: no emitted placement may carry a provable
  // coherence error. Silent when clean, so clean output stays byte-stable;
  // --werror promotes the advice findings (L002..L005) into the gate.
  {
    DiagnosticEngine gate;
    analysis::LintOptions lopt;
    lopt.werror = o.werror;
    for (std::size_t i = 0; i < set.placements.size(); ++i) {
      analysis::LintReport rep =
          analysis::lint_placement(*c.model, set.placements[i], lopt);
      for (const Diagnostic& f : rep.findings)
        if (f.severity == Severity::kError)
          gate.report(f.severity, f.range(),
                      f.code.empty()
                          ? f.code
                          : f.code + "/placement#" + std::to_string(i),
                      f.message);
    }
    if (gate.has_errors()) {
      err << gate.str()
          << "LINT: placement rejected by the static coherence gate; run "
             "'mptool lint' for the full report\n";
      return 1;
    }
  }
  // --optimize: rewrite every ranked placement through the proof-carrying
  // optimizer (static certificate only here — the verifier and lint must
  // accept each rewrite; `mptool opt` is the surface for the full SPMD
  // bitwise proof). A placement whose certificate fails stays raw. The
  // cached PlacementSet is shared and immutable, so the rewrites go into a
  // local copy.
  const std::vector<placement::Placement>* view = &set.placements;
  std::vector<placement::Placement> optimized;
  if (o.optimize) {
    opt::OptimizeOptions oopt;
    oopt.lint.werror = o.werror;
    oopt.dynamic_proof = false;
    optimized = set.placements;
    for (auto& p : optimized) {
      opt::OptimizeReport rep =
          opt::optimize_placement(*c.model, *c.fg, p, oopt);
      if (rep.ok()) p = std::move(rep.optimized);
    }
    view = &optimized;
  }
  const std::vector<placement::Placement>& placements = *view;
  // Cost reports simulate each placement's syncs against the bundled
  // example decomposition (the `verify --dynamic` mesh). Computed only for
  // the surfaces that show them — the default `place` output must stay
  // byte-identical to the pre-observability tool.
  std::vector<placement::CostReport> reports;
  if (o.k_best || o.json) {
    overlap::Decomposition d = placement::example_decomposition(*c.model);
    reports.reserve(placements.size());
    for (const auto& p : placements)
      reports.push_back(placement::simulate_cost(*c.model, p, d));
  }
  if (o.json) {
    out << "{\"placements\":" << placements.size()
        << ",\"raw_solutions\":" << set.stats.solutions
        << ",\"assignments\":" << set.stats.assignments
        << ",\"truncated\":" << (set.stats.truncated ? "true" : "false")
        << ",\"report\":[";
    for (std::size_t i = 0; i < placements.size(); ++i) {
      const auto& p = placements[i];
      const placement::CostReport& cr = reports[i];
      if (i) out << ",";
      out << "{\"id\":" << i << ",\"cost\":" << p.cost
          << ",\"syncs\":" << cr.syncs
          << ",\"locations\":" << p.sync_locations()
          << ",\"in_cycle\":" << cr.syncs_in_cycle
          << ",\"messages\":" << cr.messages << ",\"bytes\":" << cr.bytes
          << ",\"loops\":[";
      for (std::size_t l = 0; l < cr.loops.size(); ++l) {
        const placement::LoopCost& lc = cr.loops[l];
        if (l) out << ",";
        out << "{\"loop\":\"" << json_escape(lc.loop) << "\",\"entity\":\""
            << json_escape(lc.entity) << "\",\"layers\":" << lc.layers
            << ",\"domain_cells\":" << lc.domain_cells
            << ",\"kernel_cells\":" << lc.kernel_cells << "}";
      }
      out << "]}";
    }
    out << "]}\n";
    return 0;
  }
  out << placements.size() << " distinct placements ("
      << set.stats.solutions << " raw solutions, " << set.stats.assignments
      << " states tried)\n";
  if (set.stats.dominance_pruned > 0)
    out << set.stats.dominance_pruned
        << " duplicate raw solutions skipped (repeated projections)\n";
  if (set.stats.truncated)
    out << "search truncated: " << to_string(set.stats.reason) << "\n";
  out << "\n";
  if (o.k_best) {
    // The k-best table carries the simulated traffic columns: messages and
    // bytes of one sweep against the example mesh, and the iteration cells
    // each sweep touches versus the kernel-only floor (redundant work).
    TextTable t({"#", "cost", "syncs", "locations", "per-step syncs",
                 "msgs/sweep", "bytes/sweep", "cells (dom/kern)"});
    for (std::size_t i = 0; i < placements.size(); ++i) {
      const auto& p = placements[i];
      const placement::CostReport& cr = reports[i];
      long long dom = 0;
      long long kern = 0;
      for (const placement::LoopCost& lc : cr.loops) {
        dom += lc.domain_cells;
        kern += lc.kernel_cells;
      }
      t.add_row({TextTable::num(i), TextTable::num(p.cost, 1),
                 TextTable::num(p.syncs.size()),
                 TextTable::num(p.sync_locations()),
                 TextTable::num(p.syncs_in_cycle()),
                 TextTable::num(cr.messages), TextTable::num(cr.bytes),
                 TextTable::num(dom) + "/" + TextTable::num(kern)});
    }
    out << t.str() << "\n";
  } else {
    TextTable t({"#", "cost", "syncs", "locations", "per-step syncs"});
    for (std::size_t i = 0; i < placements.size(); ++i) {
      const auto& p = placements[i];
      t.add_row({TextTable::num(i), TextTable::num(p.cost, 1),
                 TextTable::num(p.syncs.size()),
                 TextTable::num(p.sync_locations()),
                 TextTable::num(p.syncs_in_cycle())});
    }
    out << t.str() << "\n";
  }

  auto emit_one = [&](std::size_t i) {
    out << "---- placement #" << i << " ----\n"
        << codegen::annotate(*c.model, placements[i]) << "\n";
  };
  if (o.all) {
    for (std::size_t i = 0; i < placements.size(); ++i) emit_one(i);
  } else if (o.emit >= 0) {
    if (static_cast<std::size_t>(o.emit) >= placements.size()) {
      err << "placement #" << o.emit << " does not exist\n";
      return 2;  // usage error: the index is not addressable
    }
    emit_one(static_cast<std::size_t>(o.emit));
  } else {
    emit_one(0);
  }
  return 0;
}

}  // namespace meshpar::cli
