// `mptool verify`: re-checks every ranked placement with the independent
// checker; --dynamic adds a sanitized SPMD run on the example mesh. Exit
// contract: 0 = every placement verified, 1 = findings or no placement,
// 2 = build error.
#include <optional>
#include <sstream>

#include "cli/handlers.hpp"
#include "cli/options.hpp"
#include "interp/spmd.hpp"
#include "overlap/decompose.hpp"
#include "placement/cost.hpp"
#include "placement/tool.hpp"
#include "placement/verify.hpp"
#include "runtime/world.hpp"
#include "service/service.hpp"

namespace meshpar::cli {

namespace {

/// Best-effort SPMD staleness check on a small synthetic mesh: binds the
/// spec's inputs deterministically, runs every verified placement with the
/// staleness sanitizer, and reports MP-S001 findings into `diags`.
void dynamic_verify(const placement::ProgramModel& model,
                    const std::vector<placement::Placement>& placements,
                    const std::vector<std::size_t>& which,
                    DiagnosticEngine& diags, std::ostream& err) {
  mesh::Mesh2D m;
  const overlap::Decomposition d = placement::example_decomposition(model, &m);
  overlap::trace_halo_schedule(d);
  interp::MeshBinding binding = interp::synthetic_binding(model, m);
  for (std::size_t i : which) {
    runtime::World world(d.parts());
    interp::StalenessReport report;
    interp::RunResult run = interp::run_spmd_sanitized(
        world, model, placements[i], d, m, binding, &report);
    if (!run.ok) {
      err << "placement #" << i << ": dynamic run failed: " << run.error
          << "\n";
      continue;
    }
    for (const Diagnostic& f : report.findings)
      diags.report(f.severity, f.range(),
                   f.code + "/placement#" + std::to_string(i), f.message);
  }
}

}  // namespace

int cmd_verify(Context& ctx) {
  const Options& o = ctx.opts;
  const placement::Compiled& c = *ctx.compiled;
  const service::PlacementSet& set = *ctx.placements;
  std::ostream& out = ctx.out;
  std::ostream& err = ctx.err;
  DiagnosticEngine diags;
  std::vector<std::size_t> clean;
  std::size_t failed = 0;
  std::ostringstream lines;
  for (std::size_t i = 0; i < set.placements.size(); ++i) {
    placement::VerifyReport rep = placement::verify_placement(
        *c.model, *c.fg, set.placements[i], &diags);
    if (rep.ok())
      clean.push_back(i);
    else
      ++failed;
    lines << "placement #" << i << ": "
          << (rep.ok() ? "verified" : "FAILED") << " (" << rep.errors()
          << " error(s), " << rep.findings.size() - rep.errors()
          << " warning(s))\n";
  }
  if (o.dynamic) dynamic_verify(*c.model, set.placements, clean, diags, err);
  if (o.json) {
    out << diags.json();
  } else {
    out << lines.str();
    std::string rendered = diags.str();
    if (!rendered.empty()) out << "\n" << rendered;
    out << (failed == 0 && !diags.has_errors()
                ? "VERIFIED: all placements pass the independent checker\n"
                : "FAILED: findings detected\n");
  }
  return failed == 0 && !diags.has_errors() ? 0 : 1;
}

}  // namespace meshpar::cli
