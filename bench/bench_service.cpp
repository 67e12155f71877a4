// Measures the placement service layer (DESIGN.md §15): what a cold
// compile / full pipeline costs against the warm, content-addressed hit
// path, and how `mptool batch`-style workloads scale over the shared
// caches as the worker count grows.
//
// google-benchmark timings (JSON-capable via --benchmark_out for the CI
// regression gate), with a pass/fail contract: the process exits 1 unless
//   * warm requests are strictly faster than cold ones (measured directly
//     in main, not inferred from the series), and
//   * the batch workload's cache counters equal the distinct-key counts
//     for every jobs value — the coalescing determinism the batch report
//     byte-identity rests on.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "lang/corpus.hpp"
#include "service/service.hpp"
#include "support/pool.hpp"

using namespace meshpar;

namespace {

bool g_failed = false;

placement::ToolOptions k_best_options(int k) {
  placement::ToolOptions o;
  o.engine.max_solutions = k;
  o.k_best = true;
  return o;
}

// One iteration = the cold front end: a fresh service compiles TESTT from
// nothing. This is the price every first-seen (source, spec) pair pays.
void BM_ServiceCompileCold(benchmark::State& state) {
  const std::string src = lang::testt_source();
  const std::string spec = lang::testt_spec();
  for (auto _ : state) {
    service::Service svc;
    auto compiled = svc.compile(src, spec);
    if (!compiled || !compiled->model) {
      g_failed = true;
      state.SkipWithError("cold compile did not build");
      break;
    }
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_ServiceCompileCold)->Unit(benchmark::kMicrosecond);

// One iteration = the warm hit path: a content-key digest plus one map
// lookup returning the shared artifact.
void BM_ServiceCompileWarm(benchmark::State& state) {
  const std::string src = lang::testt_source();
  const std::string spec = lang::testt_spec();
  service::Service svc;
  svc.compile(src, spec);  // prime
  for (auto _ : state) {
    bool hit = false;
    auto compiled = svc.compile(src, spec, &hit);
    if (!hit) {
      g_failed = true;
      state.SkipWithError("warm compile missed the cache");
      break;
    }
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_ServiceCompileWarm)->Unit(benchmark::kMicrosecond);

// One iteration = the full cold pipeline on COUPLED: compile, dependence
// analysis, applicability, flow graph, k-best enumeration.
void BM_ServicePipelineCold(benchmark::State& state) {
  const std::string src = lang::coupled_source();
  const std::string spec = lang::coupled_spec();
  const placement::ToolOptions opt = k_best_options(4);
  std::size_t placements = 0;
  for (auto _ : state) {
    service::Service svc;
    auto set = svc.placements(src, spec, opt);
    if (set->placements.empty()) {
      g_failed = true;
      state.SkipWithError("cold pipeline produced no placements");
      break;
    }
    placements = set->placements.size();
  }
  state.counters["placements"] = static_cast<double>(placements);
}
BENCHMARK(BM_ServicePipelineCold)->Unit(benchmark::kMillisecond);

// One iteration = the same request against a warm service: two digests and
// two map lookups, no recomputation.
void BM_ServicePipelineWarm(benchmark::State& state) {
  const std::string src = lang::coupled_source();
  const std::string spec = lang::coupled_spec();
  const placement::ToolOptions opt = k_best_options(4);
  service::Service svc;
  svc.placements(src, spec, opt);  // prime
  for (auto _ : state) {
    bool placements_hit = false;
    auto set = svc.placements(src, spec, opt, nullptr, &placements_hit);
    if (!placements_hit) {
      g_failed = true;
      state.SkipWithError("warm pipeline missed the placements cache");
      break;
    }
    benchmark::DoNotOptimize(set);
  }
}
BENCHMARK(BM_ServicePipelineWarm)->Unit(benchmark::kMicrosecond);

// One iteration = a 24-entry batch-shaped workload (2 sources x 3 option
// variants, each appearing 4 times — repeats are the norm in real
// manifests) fanned out over a pool with Arg worker threads, against a
// fresh service. Duplicate entries coalesce: whatever the schedule, the
// placements level must count exactly 6 misses and 18 hits.
void BM_ServiceBatchThroughput(benchmark::State& state) {
  const std::string sources[2] = {lang::testt_source(),
                                  lang::coupled_source()};
  const std::string specs[2] = {lang::testt_spec(), lang::coupled_spec()};
  const placement::ToolOptions variants[3] = {
      k_best_options(4), k_best_options(2), placement::ToolOptions{}};
  const int jobs = static_cast<int>(state.range(0));
  constexpr int kRepeats = 4;
  for (auto _ : state) {
    service::Service svc;
    {
      support::ThreadPool pool(support::ThreadPool::clamp_jobs(jobs));
      for (int r = 0; r < kRepeats; ++r)
        for (int s = 0; s < 2; ++s)
          for (const placement::ToolOptions& opt : variants)
            pool.submit([&, s, opt] {
              auto set = svc.placements(sources[s], specs[s], opt);
              if (!set || set->placements.empty()) g_failed = true;
            });
      pool.wait();
    }
    const service::CacheStats stats = svc.stats();
    if (stats.placements.misses != 6 || stats.placements.hits != 18 ||
        stats.compile.misses != 2 || stats.compile.hits != 22) {
      g_failed = true;
      state.SkipWithError("cache counters depend on scheduling");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * 2 * 3 * kRepeats);
}
BENCHMARK(BM_ServiceBatchThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// The exit-code contract behind "warm is measurably faster": time one cold
/// full pipeline against the warm repeat on the same service.
bool warm_beats_cold() {
  using clock = std::chrono::steady_clock;
  const std::string src = lang::coupled_source();
  const std::string spec = lang::coupled_spec();
  const placement::ToolOptions opt = k_best_options(4);
  service::Service svc;
  const auto t0 = clock::now();
  auto cold = svc.placements(src, spec, opt);
  const auto t1 = clock::now();
  auto warm = svc.placements(src, spec, opt);
  const auto t2 = clock::now();
  if (cold->placements.empty()) {
    std::cerr << "validation: cold pipeline failed\n";
    return false;
  }
  if (warm.get() != cold.get()) {
    std::cerr << "validation: warm run did not share the cold artifact\n";
    return false;
  }
  const auto cold_us =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();
  const auto warm_us =
      std::chrono::duration_cast<std::chrono::microseconds>(t2 - t1).count();
  if (warm_us >= cold_us) {
    std::cerr << "validation: warm (" << warm_us << "us) not faster than cold ("
              << cold_us << "us)\n";
    return false;
  }
  std::cout << "cold pipeline " << cold_us << "us, warm hit " << warm_us
            << "us\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (g_failed || !warm_beats_cold()) {
    std::cerr << "service bench FAILED\n";
    return 1;
  }
  std::cout << "OK: warm service requests beat cold, counters are "
               "scheduling-independent\n";
  return 0;
}
