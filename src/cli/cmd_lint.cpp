// `mptool lint`: static coherence analysis of every ranked placement.
// Exit contract (mirrors `mptool verify`): 0 = every placement coherent,
// 1 = findings detected, 2 = the program/spec did not even build.
#include <sstream>

#include "analysis/lint.hpp"
#include "cli/handlers.hpp"
#include "cli/options.hpp"
#include "placement/tool.hpp"
#include "service/service.hpp"

namespace meshpar::cli {

int cmd_lint(Context& ctx) {
  const Options& o = ctx.opts;
  const placement::Compiled& c = *ctx.compiled;
  const service::PlacementSet& set = *ctx.placements;
  std::ostream& out = ctx.out;
  DiagnosticEngine diags;
  if (o.max_errors != 0) diags.set_max_errors(o.max_errors);
  analysis::LintOptions lopt;
  lopt.werror = o.werror;
  std::size_t dirty = 0;
  std::ostringstream lines;
  for (std::size_t i = 0; i < set.placements.size(); ++i) {
    analysis::LintReport rep =
        analysis::lint_placement(*c.model, set.placements[i], lopt);
    if (rep.clean())
      lines << "placement #" << i << ": coherent (" << rep.stats.nodes
            << " nodes, " << rep.stats.iterations << " iterations)\n";
    else
      ++dirty;
    std::size_t errors = 0;
    for (const Diagnostic& f : rep.findings) {
      if (f.severity == Severity::kError) ++errors;
      diags.report(f.severity, f.range(),
                   f.code.empty()
                       ? f.code
                       : f.code + "/placement#" + std::to_string(i),
                   f.message);
    }
    if (!rep.clean())
      lines << "placement #" << i << ": FINDINGS (" << errors
            << " error(s), " << rep.findings.size() - errors
            << " other(s))\n";
  }
  if (o.json) {
    out << diags.json();
  } else {
    out << lines.str();
    std::string rendered = diags.str();
    if (!rendered.empty()) out << "\n" << rendered;
    out << (dirty == 0 ? "LINT: all placements coherent\n"
                       : "LINT: findings detected\n");
  }
  return dirty == 0 ? 0 : 1;
}

}  // namespace meshpar::cli
