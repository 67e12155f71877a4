// Validates the solution-ranking cost model: the paper leaves the choice
// among placements "to the user" — our tool ranks them with a static cost.
// Here every distinct TESTT placement is EXECUTED through the SPMD
// interpreter and its measured traffic (projected machine time) is compared
// with the static rank: the cheapest-ranked placements must be among the
// cheapest measured, and the rank correlation should be strongly positive.
//
// The validation runs first and the process exits 1 if the ranking is out
// of band (Spearman <= 0.5 or rank-1 outside the measured top quartile);
// google-benchmark timings follow (JSON-capable via --benchmark_out for the
// CI regression gate).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>

#include "interp/spmd.hpp"
#include "lang/corpus.hpp"
#include "mesh/generators.hpp"
#include "placement/tool.hpp"
#include "runtime/cost_model.hpp"
#include "support/table.hpp"

using namespace meshpar;

namespace {

constexpr int kRanks = 8;

struct Setup {
  placement::Compiled compiled;
  placement::EnumerationResult enumerated;
  mesh::Mesh2D m;
  overlap::Decomposition d;
  interp::MeshBinding binding;
};

Setup& setup() {
  static Setup* s = [] {
    auto* out = new Setup;
    placement::ToolOptions opt;
    opt.engine.max_solutions = 0;
    out->compiled =
        placement::compile_frontend(lang::testt_source(), lang::testt_spec());
    if (!out->compiled.ok()) {
      std::cerr << "front end failed\n";
      std::abort();
    }
    out->enumerated = placement::enumerate_placements(
        *out->compiled.model, *out->compiled.fg, opt);
    if (out->enumerated.placements.empty()) {
      std::cerr << "no placements enumerated\n";
      std::abort();
    }
    out->m = mesh::rectangle(24, 24);
    Rng rng(61);
    mesh::jitter(out->m, rng, 0.15);
    auto part =
        partition::partition_nodes(out->m, kRanks, partition::Algorithm::kRcb);
    out->d = overlap::decompose_entity_layer(out->m, part);
    out->binding = interp::testt_binding(out->m);
    std::vector<double> init(out->m.num_nodes());
    for (int n = 0; n < out->m.num_nodes(); ++n)
      init[n] = std::sin(3.0 * out->m.x[n]) * std::cos(4.0 * out->m.y[n]);
    out->binding.node_fields["init"] = std::move(init);
    out->binding.scalars["epsilon"] = 0.0;  // fixed-length run
    out->binding.scalars["maxloop"] = 15;
    return out;
  }();
  return *s;
}

bool validate() {
  Setup& s = setup();
  const runtime::MachineModel machine = runtime::MachineModel::mpp1994();

  struct Row {
    std::size_t static_rank;
    double static_cost;
    double measured_ms;
    long long msgs;
  };
  std::vector<Row> rows;
  bool all_correct = true;

  // Reference result from the sequential interpretation.
  interp::RunResult seq = interp::run_sequential(*s.compiled.model, s.m,
                                                 s.binding);

  for (std::size_t i = 0; i < s.enumerated.placements.size(); ++i) {
    runtime::World w(kRanks);
    interp::RunResult r = interp::run_spmd(w, *s.compiled.model,
                                           s.enumerated.placements[i], s.d, s.m,
                                           s.binding);
    if (!r.ok) {
      std::cerr << "placement " << i << " failed: " << r.error;
      return false;
    }
    const auto& a = seq.node_outputs.at("result");
    const auto& b = r.node_outputs.at("result");
    for (std::size_t k = 0; k < a.size(); ++k)
      if (std::fabs(a[k] - b[k]) > 1e-10) all_correct = false;
    rows.push_back({i, s.enumerated.placements[i].cost,
                    machine.time(w.counters()) * 1e3, w.total_msgs()});
  }

  // Spearman rank correlation between static cost order and measured time.
  std::vector<std::size_t> by_measured(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) by_measured[i] = i;
  std::sort(by_measured.begin(), by_measured.end(), [&](auto a, auto b) {
    return rows[a].measured_ms < rows[b].measured_ms;
  });
  std::vector<double> measured_rank(rows.size());
  for (std::size_t r = 0; r < by_measured.size(); ++r)
    measured_rank[by_measured[r]] = static_cast<double>(r);
  double n = static_cast<double>(rows.size());
  double d2 = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    double diff = static_cast<double>(i) - measured_rank[i];
    d2 += diff * diff;
  }
  double spearman = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));

  std::cout << "# Static cost ranking vs executed cost (" << rows.size()
            << " placements, " << kRanks << " ranks, 15 steps)\n\n";
  TextTable t({"static rank", "static cost", "measured T ms", "msgs"});
  for (std::size_t i = 0; i < std::min<std::size_t>(rows.size(), 10); ++i) {
    t.add_row({TextTable::num(rows[i].static_rank),
               TextTable::num(rows[i].static_cost, 1),
               TextTable::num(rows[i].measured_ms, 2),
               TextTable::num(rows[i].msgs)});
  }
  std::cout << t.str() << "\n";
  std::cout << "all placements computed the sequential result: "
            << (all_correct ? "yes" : "NO") << "\n";
  std::cout << "Spearman rank correlation (static cost vs measured time): "
            << TextTable::num(spearman, 3) << "\n";
  // The best-ranked placement must be within the measured top quartile.
  double best_measured = rows[by_measured[0]].measured_ms;
  std::cout << "rank-1 placement measured "
            << TextTable::num(rows[0].measured_ms, 2) << " ms; fastest measured "
            << TextTable::num(best_measured, 2) << " ms\n";
  bool ok = all_correct && spearman > 0.5 &&
            measured_rank[0] < std::max<double>(1.0, n / 4.0);
  std::cout << (ok ? "RANKING VALIDATED\n" : "RANKING OUT OF BAND\n");
  return ok;
}

// Ranking production cost: the legacy pipeline (enumerate everything, then
// materialize + sort) vs the bounded-memory k-best stream keeping only the
// 8 cheapest placements.
void BM_RankLegacyFull(benchmark::State& state) {
  for (auto _ : state) {
    placement::ToolOptions opt;
    opt.engine.max_solutions = 0;
    placement::Compiled c =
        placement::compile_frontend(lang::testt_source(), lang::testt_spec());
    if (!c.ok()) {
      state.SkipWithError("front end failed");
      break;
    }
    auto r = placement::enumerate_placements(*c.model, *c.fg, opt);
    benchmark::DoNotOptimize(r.placements.size());
  }
}
BENCHMARK(BM_RankLegacyFull)->Unit(benchmark::kMillisecond);

void BM_RankKBest8(benchmark::State& state) {
  for (auto _ : state) {
    placement::ToolOptions opt;
    opt.engine.max_solutions = 8;
    opt.engine.jobs = 4;
    opt.k_best = true;
    placement::Compiled c =
        placement::compile_frontend(lang::testt_source(), lang::testt_spec());
    if (!c.ok()) {
      state.SkipWithError("front end failed");
      break;
    }
    auto r = placement::enumerate_placements(*c.model, *c.fg, opt);
    benchmark::DoNotOptimize(r.placements.size());
  }
}
BENCHMARK(BM_RankKBest8)->Unit(benchmark::kMillisecond);

// Executed cost of the rank-1 placement: one SPMD run of the mesh problem
// the validation uses.
void BM_SpmdExecuteRank1(benchmark::State& state) {
  Setup& s = setup();
  for (auto _ : state) {
    runtime::World w(kRanks);
    interp::RunResult r = interp::run_spmd(w, *s.compiled.model,
                                           s.enumerated.placements.front(), s.d,
                                           s.m, s.binding);
    if (!r.ok) {
      state.SkipWithError("run failed");
      break;
    }
    benchmark::DoNotOptimize(w.total_msgs());
  }
}
BENCHMARK(BM_SpmdExecuteRank1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!validate()) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
