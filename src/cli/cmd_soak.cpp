// `mptool soak`: a seeded fault campaign (see interp/soak.hpp) on the
// cheapest verified placement; exits non-zero unless EVERY injected fault
// was caught by the sanitizer, the watchdog or the containment layer.
// Exit contract: 0 = all detected (or healed with --recover), 1 = an
// escaped fault or a campaign that could not run, 2 = build error.
#include "cli/handlers.hpp"
#include "cli/options.hpp"
#include "interp/soak.hpp"
#include "placement/tool.hpp"
#include "service/service.hpp"

namespace meshpar::cli {

int cmd_soak(Context& ctx) {
  const Options& o = ctx.opts;
  const placement::Compiled& c = *ctx.compiled;
  const service::PlacementSet& set = *ctx.placements;
  interp::SoakOptions sopt;
  sopt.seed = o.seed;
  sopt.faults = o.faults;
  sopt.recover = o.recover;
  interp::SoakReport report;
  std::string error;
  if (!interp::run_soak(*c.model, set.placements[0], sopt, &report,
                        &error)) {
    ctx.err << "soak: " << error << "\n";
    // The inputs built; the campaign itself failed — a pipeline failure
    // (exit 1), not a usage error. (This previously exited 2, the one
    // deviation from the registry's contract.)
    return 1;
  }
  ctx.out << (o.json ? report.json() : report.str());
  return (o.recover ? report.all_healed() : report.all_detected()) ? 0 : 1;
}

}  // namespace meshpar::cli
