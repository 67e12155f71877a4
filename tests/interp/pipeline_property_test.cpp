// Whole-pipeline property sweeps: for generated programs of varying size,
// every pattern and partitioner, the tool's best placement must execute to
// the sequential result. This is the closest thing to a fuzzer the target
// class admits: the program generator varies the number of chained
// gather-scatter stages, the mesh generator varies geometry, and the sweep
// varies the overlap automaton and the splitter.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <string_view>

#include "interp/spmd.hpp"
#include "lang/corpus.hpp"
#include "mesh/generators.hpp"
#include "partition/partition.hpp"
#include "placement/tool.hpp"

namespace meshpar::interp {
namespace {

struct Case {
  int stages;
  const char* pattern;
  int parts;
  partition::Algorithm algo;
  int depth;
};

// Names a case "s<stages>_<pattern>_p<parts>_<splitter>", the pattern
// without its "overlap-" prefix. gtest would otherwise print Case's raw
// bytes, which include uninitialized padding and the pattern pointer, so the
// test names would change from run to run.
void PrintTo(const Case& c, std::ostream* os) {
  std::string_view pattern = c.pattern;
  if (pattern.starts_with("overlap-")) pattern.remove_prefix(8);
  *os << "s" << c.stages << "_" << pattern << "_p" << c.parts << "_"
      << partition::to_string(c.algo);
}

class PipelineSweep : public ::testing::TestWithParam<Case> {};

std::string spec_with_pattern(int stages, const std::string& pattern) {
  std::string spec = lang::synthetic_spec(stages);
  auto pos = spec.find("overlap-triangle-layer");
  spec.replace(pos, std::string("overlap-triangle-layer").size(), pattern);
  return spec;
}

TEST_P(PipelineSweep, BestPlacementExecutesToSequentialResult) {
  const Case& c = GetParam();
  placement::ToolOptions opt;
  opt.engine.max_solutions = 512;
  placement::Compiled fe = placement::compile_frontend(
      lang::synthetic_source(c.stages), spec_with_pattern(c.stages, c.pattern));
  ASSERT_TRUE(fe.ok()) << fe.diags.str();
  placement::EnumerationResult tool =
      placement::enumerate_placements(*fe.model, *fe.fg, opt);
  ASSERT_FALSE(tool.placements.empty());

  auto m = mesh::rectangle(9, 8);
  Rng rng(c.stages * 7 + c.parts);
  mesh::jitter(m, rng, 0.12);

  MeshBinding binding = testt_binding(m);
  std::vector<double> init(m.num_nodes());
  for (int n = 0; n < m.num_nodes(); ++n)
    init[n] = std::sin(2.0 * m.x[n] + m.y[n]) + 1.0;
  binding.node_fields["init"] = std::move(init);
  binding.scalars["epsilon"] = 1e-12;
  binding.scalars["maxloop"] = 5;

  RunResult seq = run_sequential(*fe.model, m, binding);
  ASSERT_TRUE(seq.ok) << seq.error;

  auto p = partition::partition_nodes(m, c.parts, c.algo);
  auto d = std::string(c.pattern) == "overlap-node-boundary"
               ? overlap::decompose_node_boundary(m, p)
               : overlap::decompose_entity_layer(m, p, c.depth);
  ASSERT_TRUE(overlap::validate(m, d).empty());

  runtime::World w(c.parts);
  RunResult par =
      run_spmd(w, *fe.model, tool.placements.front(), d, m, binding);
  ASSERT_TRUE(par.ok) << par.error;

  const auto& a = seq.node_outputs.at("result");
  const auto& b = par.node_outputs.at("result");
  double err = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    err = std::max(err, std::fabs(a[i] - b[i]));
  EXPECT_LT(err, 1e-10);
  EXPECT_DOUBLE_EQ(par.scalars.at("loop"), seq.scalars.at("loop"));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineSweep,
    ::testing::Values(
        Case{1, "overlap-triangle-layer", 2, partition::Algorithm::kRcb, 1},
        Case{1, "overlap-triangle-layer", 5, partition::Algorithm::kGreedy, 1},
        Case{1, "overlap-node-boundary", 3, partition::Algorithm::kRcb, 1},
        Case{2, "overlap-triangle-layer", 3, partition::Algorithm::kRib, 1},
        Case{2, "overlap-triangle-layer-2", 3, partition::Algorithm::kRcb, 2},
        Case{3, "overlap-triangle-layer", 4, partition::Algorithm::kRcb, 1},
        Case{3, "overlap-triangle-layer-2", 2, partition::Algorithm::kGreedy,
             2},
        Case{2, "overlap-node-boundary", 4, partition::Algorithm::kGreedy,
             1}));

TEST(PipelineDeterminism, SameInputSamePlacements) {
  placement::ToolOptions opt;
  opt.engine.max_solutions = 0;
  placement::Compiled fe1 =
      placement::compile_frontend(lang::testt_source(), lang::testt_spec());
  placement::Compiled fe2 =
      placement::compile_frontend(lang::testt_source(), lang::testt_spec());
  ASSERT_TRUE(fe1.ok()) << fe1.diags.str();
  ASSERT_TRUE(fe2.ok()) << fe2.diags.str();
  auto r1 = placement::enumerate_placements(*fe1.model, *fe1.fg, opt);
  auto r2 = placement::enumerate_placements(*fe2.model, *fe2.fg, opt);
  ASSERT_FALSE(r1.placements.empty());
  ASSERT_FALSE(r2.placements.empty());
  ASSERT_EQ(r1.placements.size(), r2.placements.size());
  for (std::size_t i = 0; i < r1.placements.size(); ++i) {
    EXPECT_EQ(r1.placements[i].key(), r2.placements[i].key());
    EXPECT_DOUBLE_EQ(r1.placements[i].cost, r2.placements[i].cost);
  }
}

TEST(PipelineDeterminism, SpmdExecutionIsReproducible) {
  auto m = mesh::rectangle(8, 8);
  MeshBinding binding = testt_binding(m);
  std::vector<double> init(m.num_nodes());
  for (int n = 0; n < m.num_nodes(); ++n) init[n] = m.x[n] - m.y[n];
  binding.node_fields["init"] = std::move(init);
  binding.scalars["epsilon"] = 1e-12;
  binding.scalars["maxloop"] = 6;

  placement::ToolOptions opt;
  placement::Compiled fe =
      placement::compile_frontend(lang::testt_source(), lang::testt_spec());
  ASSERT_TRUE(fe.ok()) << fe.diags.str();
  placement::EnumerationResult tool =
      placement::enumerate_placements(*fe.model, *fe.fg, opt);
  ASSERT_FALSE(tool.placements.empty());
  auto p = partition::partition_nodes(m, 4, partition::Algorithm::kRcb);
  auto d = overlap::decompose_entity_layer(m, p);

  std::vector<double> first;
  for (int run = 0; run < 3; ++run) {
    runtime::World w(4);
    auto res = run_spmd(w, *fe.model, tool.placements.front(), d, m,
                        binding);
    ASSERT_TRUE(res.ok);
    if (run == 0) {
      first = res.node_outputs.at("result");
    } else {
      // Thread scheduling must not affect the numbers: exchanges receive
      // in fixed peer order.
      EXPECT_EQ(res.node_outputs.at("result"), first);
    }
  }
}

}  // namespace
}  // namespace meshpar::interp
