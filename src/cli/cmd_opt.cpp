// `mptool opt`: the proof-carrying communication optimizer on one ranked
// placement (DESIGN.md §14). Exit contract: 0 = optimized placement fully
// certified (verifier + lint + monotone cost + SPMD bitwise identity),
// 1 = some obligation failed (use the raw placement), 2 = build error or a
// placement index that does not exist.
#include "cli/handlers.hpp"
#include "cli/options.hpp"
#include "opt/proof.hpp"
#include "placement/tool.hpp"
#include "service/service.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace meshpar::cli {

namespace {

/// Golden-pinned JSON of one optimization run: the driver test and the CI
/// opt-examples job parse this, so field names and order are a contract.
void opt_json(const opt::OptimizeReport& rep, std::size_t idx,
              std::ostream& out) {
  auto cost = [&](const placement::CostReport& c) {
    out << "{\"syncs\":" << c.syncs << ",\"in_cycle\":" << c.syncs_in_cycle
        << ",\"messages\":" << c.messages << ",\"bytes\":" << c.bytes << "}";
  };
  out << "{\"placement\":" << idx
      << ",\"verified\":" << (rep.verify_ok ? "true" : "false")
      << ",\"lint_clean\":" << (rep.lint_clean ? "true" : "false")
      << ",\"cost_monotone\":" << (rep.cost_monotone ? "true" : "false")
      << ",\"dynamic\":" << (rep.dynamic_ran ? "true" : "false")
      << ",\"bitwise_identical\":"
      << (rep.dynamic_identical ? "true" : "false")
      << ",\"sanitizer_clean\":" << (rep.sanitizer_clean ? "true" : "false")
      << ",\"removed\":" << rep.removed() << ",\"hoisted\":" << rep.hoisted()
      << ",\"fused\":" << rep.fused() << ",\"raw\":";
  cost(rep.cost_raw);
  out << ",\"optimized\":";
  cost(rep.cost_opt);
  out << ",\"passes\":[";
  for (std::size_t i = 0; i < rep.steps.size(); ++i) {
    const opt::PassStep& s = rep.steps[i];
    if (i) out << ",";
    out << "{\"pass\":\"" << opt::pass_name(s.pass.kind)
        << "\",\"removed\":" << s.pass.removed
        << ",\"hoisted\":" << s.pass.hoisted << ",\"fused\":" << s.pass.fused
        << ",\"rolled_back\":" << (s.rolled_back ? "true" : "false")
        << ",\"messages\":" << s.cost_after.messages
        << ",\"bytes\":" << s.cost_after.bytes << "}";
  }
  out << "],\"notes\":[";
  for (std::size_t i = 0; i < rep.notes.size(); ++i) {
    if (i) out << ",";
    out << "\"" << json_escape(rep.notes[i]) << "\"";
  }
  out << "],\"ok\":" << (rep.ok() ? "true" : "false") << "}\n";
}

}  // namespace

int cmd_opt(Context& ctx) {
  const Options& o = ctx.opts;
  const placement::Compiled& c = *ctx.compiled;
  const service::PlacementSet& set = *ctx.placements;
  std::ostream& out = ctx.out;
  std::ostream& err = ctx.err;
  const std::size_t idx = o.emit >= 0 ? static_cast<std::size_t>(o.emit) : 0;
  if (idx >= set.placements.size()) {
    err << "placement #" << idx << " does not exist\n";
    return 2;  // usage error: the index is not addressable
  }
  opt::OptimizeOptions oopt;
  oopt.lint.werror = o.werror;
  oopt.dynamic_proof = !o.no_dynamic;
  const opt::OptimizeReport rep =
      opt::optimize_placement(*c.model, *c.fg, set.placements[idx], oopt);
  if (o.json) {
    opt_json(rep, idx, out);
    return rep.ok() ? 0 : 1;
  }
  out << "optimizing placement #" << idx << " (" << rep.cost_raw.syncs
      << " sync(s), " << rep.cost_raw.messages << " msgs/sweep, "
      << rep.cost_raw.bytes << " bytes/sweep)\n\n";
  TextTable t({"pass", "removed", "hoisted", "fused", "msgs/sweep",
               "bytes/sweep", "status"});
  for (const opt::PassStep& s : rep.steps)
    t.add_row({opt::pass_name(s.pass.kind), TextTable::num(s.pass.removed),
               TextTable::num(s.pass.hoisted), TextTable::num(s.pass.fused),
               TextTable::num(s.cost_after.messages),
               TextTable::num(s.cost_after.bytes),
               s.rolled_back     ? "rolled back"
               : s.pass.changed() ? "applied"
                                  : "no-op"});
  out << t.str() << "\n";
  out << "savings: " << rep.removed() << " sync(s) removed, "
      << rep.hoisted() << " hoisted, " << rep.fused()
      << " fused into aggregated messages\n";
  out << "traffic: " << rep.cost_raw.messages << " -> "
      << rep.cost_opt.messages << " message(s), " << rep.cost_raw.bytes
      << " -> " << rep.cost_opt.bytes << " byte(s) per sweep\n";
  out << "certificate: verifier " << (rep.verify_ok ? "ok" : "FAILED")
      << ", lint " << (rep.lint_clean ? "clean" : "FINDINGS") << ", cost "
      << (rep.cost_monotone ? "monotone" : "INCREASED");
  if (rep.dynamic_ran)
    out << ", SPMD outputs "
        << (rep.dynamic_identical ? "bitwise-identical" : "DIVERGED")
        << ", sanitizer " << (rep.sanitizer_clean ? "clean" : "FINDINGS");
  else
    out << ", dynamic proof skipped";
  out << "\n";
  for (const std::string& n : rep.notes) err << "note: " << n << "\n";
  out << (rep.ok() ? "OPTIMIZED: all proof obligations hold\n"
                   : "REJECTED: keeping the raw placement\n");
  return rep.ok() ? 0 : 1;
}

}  // namespace meshpar::cli
