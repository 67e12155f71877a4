// Measures the static coherence analyzer (`mptool lint`):
//   * the full lint pass over every enumerated TESTT solution — one
//     worklist fixpoint per placement, so the cost scales with
//     placements x CFG nodes x lattice height, and
//   * a single placement in isolation, the number a pre-commit hook or
//     the post-placement gate in `mptool place` actually pays.
// Together with bench_verify these support the paper's §5.2 remark that
// *checking* a placement is the cheap direction compared to enumerating
// one: the abstract interpretation re-proves coherence without executing
// a single SPMD step.
//
// google-benchmark timings (JSON-capable via --benchmark_out for the CI
// regression gate), with a pass/fail contract: the process exits 1 if
// the lint pass reports any finding on an engine-produced placement —
// that would break the static/dynamic agreement contract of DESIGN.md
// §11.
#include <benchmark/benchmark.h>

#include <iostream>

#include "analysis/lint.hpp"
#include "lang/corpus.hpp"
#include "placement/tool.hpp"

using namespace meshpar;

namespace {

bool g_failed = false;

struct Setup {
  placement::Compiled compiled;
  placement::EnumerationResult enumerated;
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
    return out;
  }();
  return *s;
}

// One iteration = the lint fixpoint over every enumerated placement.
void BM_LintAllPlacements(benchmark::State& state) {
  Setup& s = setup();
  std::size_t findings = 0;
  std::size_t iterations = 0;
  for (auto _ : state) {
    for (const auto& p : s.enumerated.placements) {
      analysis::LintReport r = analysis::lint_placement(*s.compiled.model, p);
      findings += r.findings.size();
      iterations += r.stats.iterations;
    }
  }
  if (findings != 0) {
    g_failed = true;
    state.SkipWithError("lint findings on engine-produced placements");
  }
  benchmark::DoNotOptimize(iterations);
  state.counters["placements"] =
      static_cast<double>(s.enumerated.placements.size());
}
BENCHMARK(BM_LintAllPlacements)->Unit(benchmark::kMillisecond);

// One iteration = the gate cost: linting the single best placement.
void BM_LintBestPlacement(benchmark::State& state) {
  Setup& s = setup();
  std::size_t findings = 0;
  for (auto _ : state) {
    analysis::LintReport r = analysis::lint_placement(
        *s.compiled.model, s.enumerated.placements.front());
    findings += r.findings.size();
    benchmark::DoNotOptimize(r.stats.iterations);
  }
  if (findings != 0) {
    g_failed = true;
    state.SkipWithError("lint findings on the best placement");
  }
}
BENCHMARK(BM_LintBestPlacement)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_failed) {
    std::cerr << "lint bench FAILED\n";
    return 1;
  }
  std::cout << "OK: every enumerated placement lints coherent\n";
  return 0;
}
