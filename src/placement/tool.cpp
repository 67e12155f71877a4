#include "placement/tool.hpp"

#include "support/trace.hpp"

namespace meshpar::placement {

Compiled compile_frontend(std::string_view source, std::string_view spec_text) {
  Compiled c;
  {
    trace::Span span("tool/build-model", "tool");
    c.model = ProgramModel::build(source, spec_text, c.diags);
  }
  if (!c.model) return c;

  {
    trace::Span span("tool/applicability", "tool");
    c.applicability = check_applicability(*c.model);
  }
  if (!c.applicability.ok()) return c;

  trace::Span span("tool/flowgraph", "tool");
  c.fg = std::make_unique<FlowGraph>(FlowGraph::build(*c.model, c.diags));
  return c;
}

EnumerationResult enumerate_placements(const ProgramModel& model,
                                       const FlowGraph& fg,
                                       const ToolOptions& options) {
  EnumerationResult r;
  trace::Span span("tool/enumerate", "tool");
  Engine engine(model, fg);
  if (options.k_best) {
    KBestResult kb = enumerate_k_best(engine, options.engine);
    span.arg("built", kb.built);
    r.stats = kb.stats;
    r.placements = std::move(kb.placements);
  } else {
    auto assignments = engine.enumerate(options.engine, &r.stats);
    r.placements = materialize_all(engine, assignments);
  }
  span.arg("placements", r.placements.size());
  span.arg("assignments", r.stats.assignments);
  span.arg("backtracks", r.stats.backtracks);
  return r;
}

}  // namespace meshpar::placement
