// Front-end-only subcommands: `check`, `deps`, `fission`, plus the
// pipeline-free `automaton`. None of these needs an enumeration, which is
// why their registry rows say Needs::kFrontEnd (or kNone) and a batch over
// them never pays for the placement engine.
#include "automaton/library.hpp"
#include "cli/handlers.hpp"
#include "cli/options.hpp"
#include "placement/fission.hpp"
#include "placement/tool.hpp"
#include "support/table.hpp"

namespace meshpar::cli {

int cmd_automaton(Context& ctx) {
  auto a = automaton::by_spec_name(ctx.opts.pattern_name);
  if (!a) {
    ctx.err << "unknown pattern '" << ctx.opts.pattern_name
            << "'; available: overlap-triangle-layer, overlap-node-boundary, "
               "overlap-tetra-layer, overlap-triangle-layer-2\n";
    return 2;
  }
  ctx.out << (ctx.opts.dot ? a->to_dot() : a->describe());
  return 0;
}

int cmd_check(Context& ctx) {
  const placement::Compiled& c = *ctx.compiled;
  TextTable t({"case", "verdict", "detail"});
  for (const auto& f : c.applicability.findings) {
    if (f.verdict == placement::Verdict::kRespected) continue;  // noise
    t.add_row({to_string(f.fig4), to_string(f.verdict),
               render(f, c.model->sub())});
  }
  ctx.out << t.str();
  ctx.out << (c.applicability.ok()
                  ? "ACCEPTED: the partitioning respects all dependences\n"
                  : "REJECTED: forbidden dependences remain\n");
  return c.applicability.ok() ? 0 : 1;
}

int cmd_deps(Context& ctx) {
  TextTable t({"kind", "variable", "from", "to", "carried by"});
  const placement::ProgramModel& model = *ctx.compiled->model;
  for (const auto& d : model.deps().all()) {
    std::string carried;
    for (const lang::Stmt* l : d.carried_by) {
      if (!carried.empty()) carried += ",";
      carried += "do@" + to_string(l->loc);
    }
    t.add_row({to_string(d.kind), d.var < 0 ? "" : model.sub().symbols[d.var],
               d.src ? to_string(d.src->loc) : "<entry>",
               d.dst ? to_string(d.dst->loc) : "<exit>", carried});
  }
  ctx.out << t.str();
  return 0;
}

int cmd_fission(Context& ctx) {
  const placement::Compiled& c = *ctx.compiled;
  if (c.applicability.ok()) {
    ctx.out << "the partitioning is already acceptable; nothing to fission\n";
    return 0;
  }
  auto fissioned = placement::fission_forbidden_loops(*c.model);
  if (!fissioned) {
    ctx.err << "no forbidden loop could be distributed (the dependences form "
               "cycles)\n";
    return 1;
  }
  ctx.out << "distributed " << fissioned->loops_fissioned << " loop(s) into "
          << fissioned->pieces << " pieces; transformed program:\n\n"
          << fissioned->source;
  return 0;
}

}  // namespace meshpar::cli
