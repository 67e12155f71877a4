// Placement-engine scaling study (paper §5.2: "The current, straightforward
// implementation may become expensive on large programs" and the proposed
// simulation-style reduction). google-benchmark timings of:
//   * the full pipeline on TESTT,
//   * the backtracking search on synthetic programs of growing size,
//     with and without the arc-consistency domain reduction,
//   * the simulation-mode check (verifying a given placement), which the
//     paper notes is the cheap direction.
#include <benchmark/benchmark.h>

#include <atomic>

#include "lang/corpus.hpp"
#include "placement/simulate.hpp"
#include "placement/solution.hpp"
#include "placement/tool.hpp"
#include "support/pool.hpp"

using namespace meshpar;
using namespace meshpar::placement;

namespace {

struct Prepared {
  std::unique_ptr<ProgramModel> model;
  std::unique_ptr<FlowGraph> fg;
};

Prepared prepare(int stages) {
  DiagnosticEngine diags;
  Prepared p;
  p.model = ProgramModel::build(lang::synthetic_source(stages),
                                lang::synthetic_spec(stages), diags);
  if (!p.model) std::abort();
  p.fg = std::make_unique<FlowGraph>(FlowGraph::build(*p.model, diags));
  return p;
}

void BM_FullPipelineTestt(benchmark::State& state) {
  for (auto _ : state) {
    ToolOptions opt;
    opt.engine.max_solutions = 64;
    Compiled c = compile_frontend(lang::testt_source(), lang::testt_spec());
    if (!c.ok()) {
      state.SkipWithError("front end failed");
      break;
    }
    auto r = enumerate_placements(*c.model, *c.fg, opt);
    benchmark::DoNotOptimize(r.placements.size());
  }
}
BENCHMARK(BM_FullPipelineTestt)->Unit(benchmark::kMillisecond);

void BM_EngineFirstSolution(benchmark::State& state) {
  auto p = prepare(static_cast<int>(state.range(0)));
  Engine engine(*p.model, *p.fg);
  EngineOptions opt;
  opt.max_solutions = 1;
  for (auto _ : state) {
    auto sols = engine.enumerate(opt);
    benchmark::DoNotOptimize(sols.size());
  }
  state.SetLabel(std::to_string(p.fg->occs().size()) + " occs");
}
BENCHMARK(BM_EngineFirstSolution)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_EngineEnumerate64_WithReduction(benchmark::State& state) {
  auto p = prepare(static_cast<int>(state.range(0)));
  Engine engine(*p.model, *p.fg);
  EngineOptions opt;
  opt.max_solutions = 64;
  opt.prune_domains = true;
  EngineStats stats;
  for (auto _ : state) {
    auto sols = engine.enumerate(opt, &stats);
    benchmark::DoNotOptimize(sols.size());
  }
  state.counters["states_tried"] = static_cast<double>(stats.assignments);
}
BENCHMARK(BM_EngineEnumerate64_WithReduction)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_EngineEnumerate64_NoReduction(benchmark::State& state) {
  auto p = prepare(static_cast<int>(state.range(0)));
  Engine engine(*p.model, *p.fg);
  EngineOptions opt;
  opt.max_solutions = 64;
  opt.prune_domains = false;
  EngineStats stats;
  for (auto _ : state) {
    auto sols = engine.enumerate(opt, &stats);
    benchmark::DoNotOptimize(sols.size());
  }
  state.counters["states_tried"] = static_cast<double>(stats.assignments);
}
BENCHMARK(BM_EngineEnumerate64_NoReduction)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_SimulationCheck(benchmark::State& state) {
  auto p = prepare(static_cast<int>(state.range(0)));
  Engine engine(*p.model, *p.fg);
  EngineOptions opt;
  opt.max_solutions = 1;
  auto sols = engine.enumerate(opt);
  if (sols.empty()) std::abort();
  for (auto _ : state) {
    auto result = simulate_check(*p.model, *p.fg, sols[0]);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_SimulationCheck)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---- jobs sweeps: parallel enumeration (DESIGN.md §9) ----
// The solution list is identical for every jobs value; only wall-clock
// should move. Arg = worker threads.

void BM_EnumerateJobs_Testt(benchmark::State& state) {
  DiagnosticEngine diags;
  auto model = ProgramModel::build(lang::testt_source(), lang::testt_spec(),
                                   diags);
  if (!model) std::abort();
  auto fg = FlowGraph::build(*model, diags);
  Engine engine(*model, fg);
  EngineOptions opt;
  opt.max_solutions = 0;  // exhaustive
  opt.jobs = static_cast<int>(state.range(0));
  EngineStats stats;
  for (auto _ : state) {
    auto sols = engine.enumerate(opt, &stats);
    benchmark::DoNotOptimize(sols.size());
  }
  state.counters["solutions"] = static_cast<double>(stats.solutions);
}
BENCHMARK(BM_EnumerateJobs_Testt)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The "large dfg" corpus program: enough chained gather-scatter stages that
// exhaustive enumeration dominates setup, the regime where subtree
// parallelism should pay (acceptance: >= 2x at 4 jobs).
constexpr int kLargeDfgStages = 12;

void BM_EnumerateJobs_LargeDfg(benchmark::State& state) {
  auto p = prepare(kLargeDfgStages);
  Engine engine(*p.model, *p.fg);
  EngineOptions opt;
  opt.max_solutions = 0;
  opt.jobs = static_cast<int>(state.range(0));
  EngineStats stats;
  for (auto _ : state) {
    auto sols = engine.enumerate(opt, &stats);
    benchmark::DoNotOptimize(sols.size());
  }
  state.SetLabel(std::to_string(p.fg->occs().size()) + " occs");
  state.counters["solutions"] = static_cast<double>(stats.solutions);
}
BENCHMARK(BM_EnumerateJobs_LargeDfg)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---- bounded-memory k-best (DESIGN.md §10) ----
// The k-best path bounds retained placements to O(jobs x k) while
// reproducing the legacy ranking prefix.

void BM_KBestJobs_LargeDfg(benchmark::State& state) {
  auto p = prepare(kLargeDfgStages);
  Engine engine(*p.model, *p.fg);
  EngineOptions opt;
  opt.max_solutions = 16;  // k
  opt.jobs = static_cast<int>(state.range(0));
  std::size_t kept_peak = 0;
  for (auto _ : state) {
    auto r = enumerate_k_best(engine, opt);
    kept_peak = r.stats.kept_peak;
    benchmark::DoNotOptimize(r.placements.size());
  }
  state.counters["kept_peak"] = static_cast<double>(kept_peak);
}
BENCHMARK(BM_KBestJobs_LargeDfg)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_KBestSweepK_Testt(benchmark::State& state) {
  DiagnosticEngine diags;
  auto model = ProgramModel::build(lang::testt_source(), lang::testt_spec(),
                                   diags);
  if (!model) std::abort();
  auto fg = FlowGraph::build(*model, diags);
  Engine engine(*model, fg);
  EngineOptions opt;
  opt.max_solutions = static_cast<int>(state.range(0));
  opt.jobs = 4;
  for (auto _ : state) {
    auto r = enumerate_k_best(engine, opt);
    benchmark::DoNotOptimize(r.placements.size());
  }
}
BENCHMARK(BM_KBestSweepK_Testt)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Raw pool dispatch overhead: bounds the task granularity below which
// splitting the search cannot win.
void BM_ThreadPoolDispatch(benchmark::State& state) {
  support::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::atomic<int> counter{0};
    for (int i = 0; i < 256; ++i)
      pool.submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
    pool.wait();
    benchmark::DoNotOptimize(counter.load());
  }
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

void BM_AnalyzerOnly(benchmark::State& state) {
  const std::string src = lang::synthetic_source(static_cast<int>(state.range(0)));
  const std::string spec = lang::synthetic_spec(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    DiagnosticEngine diags;
    auto model = ProgramModel::build(src, spec, diags);
    benchmark::DoNotOptimize(model.get());
  }
}
BENCHMARK(BM_AnalyzerOnly)->Arg(1)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
