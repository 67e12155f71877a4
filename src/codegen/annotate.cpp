#include "codegen/annotate.hpp"

#include <map>

#include "lang/printer.hpp"

namespace meshpar::codegen {

using placement::Placement;
using placement::ProgramModel;

std::string domain_text(const ProgramModel& model, int layers) {
  const bool boundary_pattern =
      model.autom().pattern() == automaton::PatternKind::kNodeBoundary;
  if (layers == 0) return boundary_pattern ? "OWNED" : "KERNEL";
  if (boundary_pattern) return "ALL";
  if (layers == 1 && model.autom().halo_depth() == 1) return "OVERLAP";
  return "OVERLAP:" + std::to_string(layers);
}

std::string annotate(const ProgramModel& model, const Placement& placement) {
  // Index annotations by statement.
  std::map<const lang::Stmt*, std::vector<std::string>> pre;
  std::vector<std::string> at_end;

  for (const auto& d : placement.domains) {
    pre[d.loop].push_back("C$ITERATION DOMAIN: " +
                          domain_text(model, d.layers));
  }
  for (std::size_t i = 0; i < placement.syncs.size(); ++i) {
    const auto& s = placement.syncs[i];
    const bool scalar = !model.entity_of(model.sub().symbol(s.var));
    std::string vars = s.var;
    if (s.fuse_group >= 0) {
      // Members of a fuse group ride one aggregated message; annotate them
      // as a single synchronization, at the first member's slot.
      bool first = true;
      for (std::size_t j = 0; j < i; ++j)
        if (placement.syncs[j].before == s.before &&
            placement.syncs[j].fuse_group == s.fuse_group)
          first = false;
      if (!first) continue;
      for (std::size_t j = i + 1; j < placement.syncs.size(); ++j)
        if (placement.syncs[j].before == s.before &&
            placement.syncs[j].fuse_group == s.fuse_group)
          vars += "," + placement.syncs[j].var;
    }
    const bool many = vars.find(',') != std::string::npos;
    std::string line = std::string("C$SYNCHRONIZE METHOD: ") +
                       placement::method_name(s.action) +
                       (scalar ? " ON SCALAR: " : many ? " ON ARRAYS: "
                                                       : " ON ARRAY: ") +
                       vars;
    if (s.before)
      pre[s.before].push_back(std::move(line));
    else
      at_end.push_back(std::move(line));
  }

  lang::PrintOptions opts;
  opts.pre_comments = [&](const lang::Stmt& s) -> std::vector<std::string> {
    auto it = pre.find(&s);
    return it == pre.end() ? std::vector<std::string>{} : it->second;
  };
  const lang::Stmt* last = model.sub().body.empty()
                               ? nullptr
                               : model.sub().body.back().get();
  opts.post_comments = [&](const lang::Stmt& s) -> std::vector<std::string> {
    if (&s == last) return at_end;
    return {};
  };
  return lang::to_source(model.sub(), opts);
}

CommPlan comm_plan(const Placement& placement) {
  CommPlan plan;
  for (const auto& s : placement.syncs)
    plan.steps.push_back({s.action, s.var, s.before});
  plan.domains = placement.domains;
  return plan;
}

}  // namespace meshpar::codegen
