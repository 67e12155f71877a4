#include "service/service.hpp"

#include "service/key.hpp"
#include "support/trace.hpp"

namespace meshpar::service {

namespace {

void trace_hit(const char* level, const std::string& key) {
  if (!trace::active()) return;
  trace::current()->instant(
      "service/hit", "service",
      {{"level", level}, {"key", short_key(key)}});
}

}  // namespace

std::string Service::content_key(std::string_view source,
                                 std::string_view spec) {
  return digest({source, spec});
}

std::string Service::options_key(const placement::ToolOptions& o) {
  // Everything that can change the enumerated bytes, in a fixed order.
  // `jobs` enters only when the run can truncate: a plain enumeration with
  // a solution cap or any assignment budget reports scheduling-dependent
  // statistics, so such results are keyed per jobs value. Untruncatable
  // runs are byte-identical for every jobs value (the engine's ordered-
  // merge contract) and share one entry.
  const bool truncatable =
      o.engine.max_assignments > 0 ||
      (o.engine.max_solutions > 0 && !o.k_best);
  std::string k;
  k += "max=" + std::to_string(o.engine.max_solutions);
  k += ";kbest=" + std::to_string(o.k_best ? 1 : 0);
  k += ";budget=" + std::to_string(o.engine.max_assignments);
  k += ";prune=" + std::to_string(o.engine.prune_domains ? 1 : 0);
  if (truncatable) k += ";jobs=" + std::to_string(o.engine.jobs);
  return k;
}

std::shared_ptr<const placement::Compiled> Service::compile(
    std::string_view source, std::string_view spec, bool* hit_out) {
  const std::string key = content_key(source, spec);
  bool hit = false;
  auto compiled = compile_.get(
      key,
      [&]() -> std::shared_ptr<const placement::Compiled> {
        trace::Span span("service/compile", "service");
        span.arg("key", short_key(key));
        auto c = std::make_shared<placement::Compiled>(
            placement::compile_frontend(source, spec));
        span.arg("built", c->model ? 1 : 0);
        return c;
      },
      &hit);
  if (hit) trace_hit("compile", key);
  if (hit_out) *hit_out = hit;
  return compiled;
}

std::shared_ptr<const PlacementSet> Service::placements(
    std::string_view source, std::string_view spec,
    const placement::ToolOptions& options, bool* compile_hit_out,
    bool* placements_hit_out) {
  auto compiled = compile(source, spec, compile_hit_out);
  const std::string key =
      digest({content_key(source, spec), options_key(options)});
  bool hit = false;
  auto set = placements_.get(
      key,
      [&]() -> std::shared_ptr<const PlacementSet> {
        trace::Span span("service/enumerate", "service");
        span.arg("key", short_key(key));
        auto ps = std::make_shared<PlacementSet>();
        ps->compiled = compiled;
        if (compiled->ok()) {
          placement::EnumerationResult e = placement::enumerate_placements(
              *compiled->model, *compiled->fg, options);
          ps->placements = std::move(e.placements);
          ps->stats = e.stats;
        }
        span.arg("placements", ps->placements.size());
        return ps;
      },
      &hit);
  if (hit) trace_hit("placements", key);
  if (placements_hit_out) *placements_hit_out = hit;
  return set;
}

CacheStats Service::stats() const {
  CacheStats s;
  s.compile = compile_.stats();
  s.placements = placements_.stats();
  return s;
}

}  // namespace meshpar::service
