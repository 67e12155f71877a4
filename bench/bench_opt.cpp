// Measures the post-placement communication optimizer (`mptool opt`,
// DESIGN.md §14):
//   * the static pipeline — audit-driven dead-comm elimination, redundant-
//     sync coalescing, invariant hoisting and message vectorization, each
//     re-verified and cost-checked — which is what `mptool place
//     --optimize` pays per ranked placement, and
//   * the full proof-carrying run including the dynamic SPMD bitwise-
//     identity certificate, the `mptool opt` price.
//
// google-benchmark timings (JSON-capable via --benchmark_out for the CI
// regression gate), with a pass/fail contract: the process exits 1 unless
// the COUPLED pipeline discharges every proof obligation AND saves
// messages against the raw placement — the optimizer regressing to a
// no-op would silently void the paper's Figure-9 message-grouping story.
#include <benchmark/benchmark.h>

#include <iostream>

#include "lang/corpus.hpp"
#include "opt/proof.hpp"
#include "placement/tool.hpp"

using namespace meshpar;

namespace {

bool g_failed = false;

struct Setup {
  placement::Compiled coupled;
  placement::EnumerationResult enumerated;
};

Setup& setup() {
  static Setup* s = [] {
    auto* out = new Setup;
    out->coupled = placement::compile_frontend(lang::coupled_source(),
                                               lang::coupled_spec());
    if (!out->coupled.ok()) {
      std::cerr << "front end failed:\n" << out->coupled.diags.str();
      std::abort();
    }
    out->enumerated =
        placement::enumerate_placements(*out->coupled.model, *out->coupled.fg);
    if (out->enumerated.placements.empty()) {
      std::cerr << "no placements enumerated\n";
      std::abort();
    }
    return out;
  }();
  return *s;
}

// One iteration = the four passes + per-step verification and cost
// simulation on the best COUPLED placement, without the SPMD run.
void BM_OptimizeStaticPipeline(benchmark::State& state) {
  Setup& s = setup();
  opt::OptimizeOptions options;
  options.dynamic_proof = false;
  long long saved = 0;
  for (auto _ : state) {
    opt::OptimizeReport rep = opt::optimize_placement(
        *s.coupled.model, *s.coupled.fg, s.enumerated.placements.front(),
        options);
    if (!rep.ok() || rep.cost_opt.messages >= rep.cost_raw.messages) {
      g_failed = true;
      state.SkipWithError("static pipeline failed to certify a saving");
      break;
    }
    saved = rep.cost_raw.messages - rep.cost_opt.messages;
  }
  benchmark::DoNotOptimize(saved);
  state.counters["msgs_saved"] = static_cast<double>(saved);
}
BENCHMARK(BM_OptimizeStaticPipeline)->Unit(benchmark::kMillisecond);

// One iteration = the full `mptool opt` certificate, including both
// sanitized SPMD runs and the bitwise output comparison.
void BM_OptimizeWithDynamicProof(benchmark::State& state) {
  Setup& s = setup();
  for (auto _ : state) {
    opt::OptimizeReport rep = opt::optimize_placement(
        *s.coupled.model, *s.coupled.fg, s.enumerated.placements.front());
    if (!rep.ok() || !rep.dynamic_identical) {
      g_failed = true;
      state.SkipWithError("dynamic proof failed");
      break;
    }
    benchmark::DoNotOptimize(rep.fused());
  }
}
BENCHMARK(BM_OptimizeWithDynamicProof)->Unit(benchmark::kMillisecond);

// One iteration = optimizing every ranked COUPLED placement statically —
// the `place --optimize` sweep.
void BM_OptimizeAllPlacements(benchmark::State& state) {
  Setup& s = setup();
  opt::OptimizeOptions options;
  options.dynamic_proof = false;
  std::size_t certified = 0;
  for (auto _ : state) {
    certified = 0;
    for (const auto& p : s.enumerated.placements) {
      opt::OptimizeReport rep = opt::optimize_placement(
          *s.coupled.model, *s.coupled.fg, p, options);
      if (rep.ok()) ++certified;
    }
  }
  if (certified != s.enumerated.placements.size()) {
    g_failed = true;
    state.SkipWithError("an engine placement failed the static certificate");
  }
  state.counters["placements"] =
      static_cast<double>(s.enumerated.placements.size());
}
BENCHMARK(BM_OptimizeAllPlacements)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_failed) {
    std::cerr << "opt bench FAILED\n";
    return 1;
  }
  std::cout << "OK: the optimizer certifies a message saving on COUPLED\n";
  return 0;
}
