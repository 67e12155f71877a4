// The two-field coupled program: multiple assembled arrays per loop,
// multiple reductions per loop, a nested block-IF convergence test — the
// tool must handle all of it, and the generated placements must execute
// correctly.
#include <gtest/gtest.h>

#include <cmath>

#include "interp/spmd.hpp"
#include "lang/corpus.hpp"
#include "mesh/generators.hpp"
#include "placement/tool.hpp"
#include "placement/verify.hpp"

namespace meshpar::placement {
namespace {

TEST(Coupled, AnalysisRecognizesBothFields) {
  DiagnosticEngine diags;
  auto model = ProgramModel::build(lang::coupled_source(),
                                   lang::coupled_spec(), diags);
  ASSERT_NE(model, nullptr) << diags.str();
  int ru_asm = 0, rv_asm = 0;
  for (const auto& a : model->patterns().assemblies()) {
    if (a.var == model->sub().symbol("ru")) ++ru_asm;
    if (a.var == model->sub().symbol("rv")) ++rv_asm;
  }
  EXPECT_EQ(ru_asm, 3);
  EXPECT_EQ(rv_asm, 3);
  ASSERT_EQ(model->patterns().reductions().size(), 2u);
  EXPECT_TRUE(check_applicability(*model).ok());
}

TEST(Coupled, BestPlacementSynchronizesBothFieldsAndBothResiduals) {
  ToolOptions opt;
  opt.engine.max_solutions = 2048;
  Compiled c = compile_frontend(lang::coupled_source(), lang::coupled_spec());
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult r = enumerate_placements(*c.model, *c.fg, opt);
  ASSERT_FALSE(r.placements.empty());
  const Placement& best = r.placements.front();
  bool ru_sync = false, rv_sync = false, resu_sync = false, resv_sync = false;
  for (const auto& s : best.syncs) {
    if (s.var == "ru") ru_sync = true;
    if (s.var == "rv") rv_sync = true;
    if (s.var == "resu") resu_sync = true;
    if (s.var == "resv") resv_sync = true;
  }
  EXPECT_TRUE(ru_sync);
  EXPECT_TRUE(rv_sync);
  EXPECT_TRUE(resu_sync);
  EXPECT_TRUE(resv_sync);
}

TEST(Coupled, SpmdExecutionMatchesSequential) {
  ToolOptions opt;
  opt.engine.max_solutions = 512;
  Compiled c = compile_frontend(lang::coupled_source(), lang::coupled_spec());
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult tool = enumerate_placements(*c.model, *c.fg, opt);
  ASSERT_FALSE(tool.placements.empty());

  auto m = mesh::rectangle(9, 8);
  Rng rng(3);
  mesh::jitter(m, rng, 0.1);
  interp::MeshBinding binding = interp::testt_binding(m);
  std::vector<double> u0(m.num_nodes()), v0(m.num_nodes());
  for (int n = 0; n < m.num_nodes(); ++n) {
    u0[n] = std::sin(2.0 * m.x[n]);
    v0[n] = std::cos(3.0 * m.y[n]);
  }
  binding.node_fields["u0"] = u0;
  binding.node_fields["v0"] = v0;
  binding.scalars["epsu"] = 1e-10;
  binding.scalars["epsv"] = 1e-10;
  binding.scalars["maxloop"] = 9;

  auto seq = interp::run_sequential(*c.model, m, binding);
  ASSERT_TRUE(seq.ok) << seq.error;

  auto p = partition::partition_nodes(m, 4, partition::Algorithm::kRcb);
  auto d = overlap::decompose_entity_layer(m, p);
  // Execute the best few placements.
  std::size_t count = std::min<std::size_t>(tool.placements.size(), 8);
  for (std::size_t i = 0; i < count; ++i) {
    // Static verification first: every placement we are about to execute
    // must pass the independent checker.
    VerifyReport rep = verify_placement(*c.model, *c.fg,
                                        tool.placements[i]);
    EXPECT_TRUE(rep.findings.empty())
        << "placement #" << i << ": " << rep.findings.front().message;
    runtime::World w(4);
    interp::StalenessReport stale;
    auto par = interp::run_spmd_sanitized(w, *c.model, tool.placements[i],
                                          d, m, binding, &stale);
    ASSERT_TRUE(par.ok) << par.error;
    EXPECT_TRUE(stale.clean())
        << "placement " << i << ": " << stale.findings.front().message;
    for (const char* out : {"uout", "vout"}) {
      const auto& a = seq.node_outputs.at(out);
      const auto& b = par.node_outputs.at(out);
      double err = 0;
      for (std::size_t k = 0; k < a.size(); ++k)
        err = std::max(err, std::fabs(a[k] - b[k]));
      EXPECT_LT(err, 1e-10) << out << " placement " << i;
    }
    EXPECT_DOUBLE_EQ(par.scalars.at("loop"), seq.scalars.at("loop"));
  }
}

TEST(Coupled, NestedIfPredicatesForceReplicatedResiduals) {
  // The inner IF reads resv: every placement must reduce resv before that
  // statement executes — on a path all ranks take identically.
  ToolOptions opt;
  opt.engine.max_solutions = 512;
  Compiled c = compile_frontend(lang::coupled_source(), lang::coupled_spec());
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult r = enumerate_placements(*c.model, *c.fg, opt);
  ASSERT_FALSE(r.placements.empty());
  for (const auto& p : r.placements) {
    bool resv_reduced = false;
    for (const auto& s : p.syncs)
      if (s.var == "resv" &&
          s.action == automaton::CommAction::kReduceScalar)
        resv_reduced = true;
    EXPECT_TRUE(resv_reduced);
  }
}

}  // namespace
}  // namespace meshpar::placement
