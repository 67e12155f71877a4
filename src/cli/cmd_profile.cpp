// `mptool profile`: executes one placement on the example mesh with edge
// metrics on and prints the measured communication breakdown — static
// cost, per-rank totals, per-edge traffic, and a per-sync-phase table
// aggregated from the trace. All printed numbers are counter-derived and
// deterministic (no times), so the output is golden-testable. Exit
// contract: 0 = profiled, 1 = rejected applicability / no placement / a
// failed run, 2 = build error or a placement index that does not exist.
#include <cstdlib>
#include <map>
#include <optional>

#include "cli/handlers.hpp"
#include "cli/options.hpp"
#include "interp/spmd.hpp"
#include "overlap/decompose.hpp"
#include "placement/cost.hpp"
#include "placement/tool.hpp"
#include "runtime/world.hpp"
#include "service/service.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace meshpar::cli {

int cmd_profile(Context& ctx) {
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
  const placement::Placement& p = set.placements[idx];

  // A tracer is required for the per-phase breakdown: reuse the --trace one
  // when installed, otherwise install a run-local collector.
  std::optional<trace::Tracer> local;
  std::optional<trace::ScopedInstall> guard;
  if (!trace::active()) {
    local.emplace();
    guard.emplace(&*local);
  }
  trace::Tracer* tracer = trace::current();

  mesh::Mesh2D m;
  overlap::Decomposition d = placement::example_decomposition(*c.model, &m);
  overlap::trace_halo_schedule(d);
  interp::MeshBinding binding = interp::synthetic_binding(*c.model, m);
  placement::CostReport cost = placement::simulate_cost(*c.model, p, d);

  runtime::WorldOptions wopts;
  wopts.edge_metrics = true;
  runtime::World world(d.parts(), wopts);
  const std::vector<trace::Event> before = tracer->events();
  interp::RunResult run = interp::run_spmd(world, *c.model, p, d, m, binding);
  if (!run.ok) {
    err << "profile run failed: " << run.error << "\n";
    return 1;
  }

  out << "profile of placement #" << idx << " on the example mesh ("
      << m.num_nodes() << " nodes, " << m.num_tris() << " triangles, "
      << d.parts() << " ranks)\n\n";
  out << "static cost: " << cost.messages << " message(s), " << cost.bytes
      << " byte(s) per sweep across " << cost.syncs
      << " sync point(s) (" << cost.syncs_in_cycle << " in-cycle)\n";
  out << "measured:    " << world.total_msgs() << " message(s), "
      << world.total_bytes() << " byte(s), " << run.sync_executions
      << " coherence sync(s) executed\n\n";

  {
    // Received traffic comes from the per-edge receive maps; the interpreted
    // run does no native kernel work, so flops would always read 0 here.
    TextTable t({"rank", "msgs sent", "bytes sent", "msgs recv", "bytes recv"});
    const auto& counters = world.counters();
    std::map<int, runtime::EdgeCounters> recv;
    for (const runtime::EdgeTraffic& e : world.edge_traffic()) {
      recv[e.dst].msgs += e.msgs;
      recv[e.dst].bytes += e.bytes;
    }
    for (std::size_t rk = 0; rk < counters.size(); ++rk)
      t.add_row({TextTable::num(rk), TextTable::num(counters[rk].msgs_sent),
                 TextTable::num(counters[rk].bytes_sent),
                 TextTable::num(recv[static_cast<int>(rk)].msgs),
                 TextTable::num(recv[static_cast<int>(rk)].bytes)});
    out << t.str() << "\n";
  }
  {
    TextTable t({"edge", "msgs", "bytes"});
    for (const runtime::EdgeTraffic& e : world.edge_traffic())
      t.add_row({TextTable::num(static_cast<long long>(e.src)) + " -> " +
                     TextTable::num(static_cast<long long>(e.dst)),
                 TextTable::num(e.msgs), TextTable::num(e.bytes)});
    out << t.str() << "\n";
  }
  {
    // Per-phase breakdown from the run's "spmd" complete events (one per
    // rank per execution). Events recorded before the run (an earlier
    // --trace'd phase) are excluded by count.
    struct Phase {
      long long execs = 0;
      long long msgs = 0;
      long long bytes = 0;
    };
    std::map<std::string, Phase> phases;
    std::vector<trace::Event> events = tracer->events();
    auto arg_of = [](const trace::Event& ev, const char* key) -> long long {
      for (const trace::Arg& a : ev.args)
        if (a.key == key) return std::atoll(a.value.c_str());
      return 0;
    };
    for (std::size_t i = before.size(); i < events.size(); ++i) {
      const trace::Event& ev = events[i];
      if (ev.cat != "spmd" || ev.phase != 'X') continue;
      Phase& ph = phases[ev.name];
      if (arg_of(ev, "rank") == 0) ++ph.execs;
      ph.msgs += arg_of(ev, "msgs");
      ph.bytes += arg_of(ev, "bytes");
    }
    TextTable t({"phase", "execs", "msgs", "bytes"});
    for (const auto& [name, ph] : phases)
      t.add_row({name, TextTable::num(ph.execs), TextTable::num(ph.msgs),
                 TextTable::num(ph.bytes)});
    out << t.str();
  }
  return 0;
}

}  // namespace meshpar::cli
