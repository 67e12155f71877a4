// Measures the verification subsystem:
//   * the static placement verifier over every enumerated TESTT solution
//     (it re-derives the communication obligations from the dependence
//     graph, so its cost scales with placements x arrows), and
//   * the runtime overhead of the SPMD staleness sanitizer — the same
//     placement executed with and without the coherence-epoch shadowing.
// Both numbers support the paper's §5.2 remark that *checking* a placement
// is the cheap direction compared to enumerating one.
//
// google-benchmark timings (JSON-capable via --benchmark_out for the CI
// regression gate), with the original pass/fail contract preserved: the
// process exits 1 if the verifier reports findings on engine-produced
// placements or the staleness sanitizer flags an execution.
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "interp/spmd.hpp"
#include "lang/corpus.hpp"
#include "mesh/generators.hpp"
#include "placement/tool.hpp"
#include "placement/verify.hpp"

using namespace meshpar;

namespace {

bool g_failed = false;

struct Setup {
  placement::Compiled compiled;
  placement::EnumerationResult enumerated;
  mesh::Mesh2D m;
  partition::NodePartition part;
  overlap::Decomposition d;
  interp::MeshBinding binding;
  static constexpr int kRanks = 4;
};

Setup& setup() {
  static Setup* s = [] {
    auto* out = new Setup;
    placement::ToolOptions opt;
    opt.engine.max_solutions = 0;
    out->compiled =
        placement::compile_frontend(lang::testt_source(), lang::testt_spec());
    if (!out->compiled.ok()) {
      std::cerr << "front end failed:\n" << out->compiled.diags.str();
      std::abort();
    }
    out->enumerated = placement::enumerate_placements(
        *out->compiled.model, *out->compiled.fg, opt);
    if (out->enumerated.placements.empty()) {
      std::cerr << "no placements enumerated\n";
      std::abort();
    }
    out->m = mesh::rectangle(20, 20);
    Rng rng(7);
    mesh::jitter(out->m, rng, 0.15);
    out->part = partition::partition_nodes(out->m, Setup::kRanks,
                                           partition::Algorithm::kRcb);
    out->d = overlap::decompose_entity_layer(out->m, out->part);
    out->binding = interp::testt_binding(out->m);
    std::vector<double> init(out->m.num_nodes());
    for (int n = 0; n < out->m.num_nodes(); ++n)
      init[n] = std::sin(2.0 * out->m.x[n]) + std::cos(3.0 * out->m.y[n]);
    out->binding.node_fields["init"] = std::move(init);
    out->binding.scalars["epsilon"] = 0.0;  // fixed-length run
    out->binding.scalars["maxloop"] = 10;
    return out;
  }();
  return *s;
}

// One iteration = the static verifier over every enumerated placement.
void BM_StaticVerifyAllPlacements(benchmark::State& state) {
  Setup& s = setup();
  std::size_t findings = 0;
  for (auto _ : state) {
    for (const auto& p : s.enumerated.placements) {
      placement::VerifyReport r =
          placement::verify_placement(*s.compiled.model, *s.compiled.fg, p);
      findings += r.findings.size();
    }
  }
  if (findings != 0) {
    g_failed = true;
    state.SkipWithError("unexpected findings on engine-produced placements");
  }
  state.counters["placements"] =
      static_cast<double>(s.enumerated.placements.size());
}
BENCHMARK(BM_StaticVerifyAllPlacements)->Unit(benchmark::kMillisecond);

void BM_SpmdPlain(benchmark::State& state) {
  Setup& s = setup();
  const auto& placement = s.enumerated.placements.front();
  for (auto _ : state) {
    runtime::World w(Setup::kRanks);
    auto r = interp::run_spmd(w, *s.compiled.model, placement, s.d, s.m,
                              s.binding);
    if (!r.ok) {
      g_failed = true;
      state.SkipWithError("plain run failed");
      break;
    }
    benchmark::DoNotOptimize(w.total_msgs());
  }
}
BENCHMARK(BM_SpmdPlain)->Unit(benchmark::kMillisecond);

void BM_SpmdSanitized(benchmark::State& state) {
  Setup& s = setup();
  const auto& placement = s.enumerated.placements.front();
  bool clean = true;
  for (auto _ : state) {
    runtime::World w(Setup::kRanks);
    interp::StalenessReport report;
    auto r = interp::run_spmd_sanitized(w, *s.compiled.model, placement, s.d,
                                        s.m, s.binding, &report);
    if (!r.ok) {
      g_failed = true;
      state.SkipWithError("sanitized run failed");
      break;
    }
    clean = clean && report.clean();
  }
  if (!clean) {
    g_failed = true;
    state.SkipWithError("sanitizer flagged an engine-produced placement");
  }
}
BENCHMARK(BM_SpmdSanitized)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_failed) {
    std::cerr << "verification bench FAILED\n";
    return 1;
  }
  std::cout << "OK: all placements verify statically; sanitized execution "
               "is clean\n";
  return 0;
}
