// Pins the cost of the tracing layer (DESIGN.md §13) under the CI
// regression gate, in both directions:
//
//   * disabled-path overhead — active() checks and Span construction with
//     no tracer installed must stay in the "a few loads" range, because
//     they sit on the placement engine's per-trial hot path and inside the
//     runtime's send/recv;
//   * end-to-end — a full `place`-equivalent pipeline with tracing off
//     (the default everyone pays) and with a tracer installed (the price
//     of --trace), so a change that makes instrumentation expensive shows
//     up as a regression here before a user sees it.
#include <benchmark/benchmark.h>

#include "lang/corpus.hpp"
#include "placement/tool.hpp"
#include "support/trace.hpp"

namespace {

using namespace meshpar;

void BM_ActiveCheckDisabled(benchmark::State& state) {
  for (auto _ : state) {
    bool on = trace::active();
    benchmark::DoNotOptimize(on);
  }
}
BENCHMARK(BM_ActiveCheckDisabled);

void BM_SpanDisabled(benchmark::State& state) {
  // The exact pattern every instrumented scope uses; with no tracer this
  // must compile down to two pointer stores and a null check.
  for (auto _ : state) {
    trace::Span span("bench/span", "bench");
    span.arg("i", 1);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  trace::Tracer tracer;
  trace::ScopedInstall guard(&tracer);
  for (auto _ : state) {
    trace::Span span("bench/span", "bench");
    span.arg("i", 1);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanEnabled);

void BM_PlaceTracingOff(benchmark::State& state) {
  const std::string src = lang::testt_source();
  const std::string spec = lang::testt_spec();
  for (auto _ : state) {
    placement::Compiled c = placement::compile_frontend(src, spec);
    if (!c.ok()) {
      state.SkipWithError("front end failed");
      break;
    }
    placement::EnumerationResult r =
        placement::enumerate_placements(*c.model, *c.fg);
    benchmark::DoNotOptimize(r.placements.size());
  }
}
BENCHMARK(BM_PlaceTracingOff);

void BM_PlaceTracingOn(benchmark::State& state) {
  const std::string src = lang::testt_source();
  const std::string spec = lang::testt_spec();
  for (auto _ : state) {
    trace::Tracer tracer;
    trace::ScopedInstall guard(&tracer);
    placement::Compiled c = placement::compile_frontend(src, spec);
    if (!c.ok()) {
      state.SkipWithError("front end failed");
      break;
    }
    placement::EnumerationResult r =
        placement::enumerate_placements(*c.model, *c.fg);
    benchmark::DoNotOptimize(r.placements.size());
    benchmark::DoNotOptimize(tracer.events().size());
  }
}
BENCHMARK(BM_PlaceTracingOn);

}  // namespace

BENCHMARK_MAIN();
