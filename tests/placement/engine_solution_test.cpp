// End-to-end placement tests: the engine must reproduce the paper's two
// generated programs (Figures 9 and 10) among its enumerated solutions.
#include <gtest/gtest.h>

#include "lang/corpus.hpp"
#include "placement/simulate.hpp"
#include "placement/tool.hpp"
#include "placement/verify.hpp"

namespace meshpar::placement {
namespace {

using automaton::CommAction;

const Compiled& testt() {
  static const Compiled c =
      compile_frontend(lang::testt_source(), lang::testt_spec());
  return c;
}

/// Enumerates over testt(), which must have compiled.
EnumerationResult enumerate_testt(std::size_t max_solutions = 0) {
  ToolOptions opt;
  opt.engine.max_solutions = max_solutions;
  return enumerate_placements(*testt().model, *testt().fg, opt);
}

const lang::Stmt* loop_with_bound_and_lhs(const ProgramModel& m,
                                          const std::string& bound,
                                          const std::string& lhs) {
  for (const lang::Stmt* s : m.partitioned_loops()) {
    if (s->do_hi->name != bound) continue;
    if (!s->body.empty() && s->body[0]->kind == lang::StmtKind::kAssign &&
        s->body[0]->lhs->name == lhs)
      return s;
  }
  return nullptr;
}

const lang::Stmt* first_if(const ProgramModel& m) {
  for (const lang::Stmt* s : m.cfg().statements())
    if (s->kind == lang::StmtKind::kIf) return s;
  return nullptr;
}

TEST(Engine, TesttIsSolvable) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult r = enumerate_testt();
  ASSERT_FALSE(r.placements.empty());
  EXPECT_GT(r.stats.solutions, 0u);
  EXPECT_GT(r.placements.size(), 1u)
      << "the paper stresses that more than one solution exists";
}

TEST(Engine, PruningFixesManyOccurrences) {
  DiagnosticEngine diags;
  auto m = ProgramModel::build(lang::testt_source(), lang::testt_spec(),
                               diags);
  ASSERT_NE(m, nullptr);
  FlowGraph fg = FlowGraph::build(*m, diags);
  Engine engine(*m, fg);
  EngineStats with_pruning, without_pruning;
  EngineOptions opt;
  opt.max_solutions = 0;
  opt.prune_domains = true;
  auto a1 = engine.enumerate(opt, &with_pruning);
  opt.prune_domains = false;
  auto a2 = engine.enumerate(opt, &without_pruning);
  // Same solution set either way (the reduction is sound and complete)...
  EXPECT_EQ(a1.size(), a2.size());
  // ...but the pruned search does strictly less work.
  EXPECT_LT(with_pruning.assignments, without_pruning.assignments);
  EXPECT_GT(with_pruning.pruned_singletons, 0u);
}

TEST(Engine, MaxSolutionsTruncates) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult r = enumerate_testt(/*max_solutions=*/8);
  EXPECT_TRUE(r.stats.truncated);
  EXPECT_EQ(r.stats.solutions, 8u);
  EXPECT_EQ(r.stats.reason, TruncationReason::kMaxSolutions);
}

TEST(Engine, AssignmentBudgetTruncatesWithReason) {
  ToolOptions opt;
  opt.engine.max_solutions = 0;
  opt.engine.max_assignments = 10;
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult r = enumerate_placements(*c.model, *c.fg, opt);
  EXPECT_TRUE(r.stats.truncated);
  EXPECT_EQ(r.stats.reason, TruncationReason::kMaxAssignments);
  EXPECT_LE(r.stats.assignments, 10);
  EXPECT_STREQ(to_string(r.stats.reason), "assignment budget exhausted");
}

TEST(Engine, UntruncatedSearchReportsNoReason) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult r = enumerate_testt();
  EXPECT_FALSE(r.stats.truncated);
  EXPECT_EQ(r.stats.reason, TruncationReason::kNone);
}

TEST(Placement, Figure9SolutionIsFound) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult r = enumerate_testt();
  ASSERT_FALSE(r.placements.empty());
  const lang::Stmt* ifstmt = first_if(*c.model);
  const lang::Stmt* copy_loop =
      loop_with_bound_and_lhs(*c.model, "nsom", "old");
  // There are two old-assign loops (init and copy); the copy one reads new.
  const lang::Stmt* init_loop = copy_loop;
  for (const lang::Stmt* s : c.model->partitioned_loops()) {
    if (s->do_hi->name == "nsom" && !s->body.empty() &&
        s->body[0]->kind == lang::StmtKind::kAssign &&
        s->body[0]->lhs->name == "old") {
      if (lang::expr_reads(*s->body[0]->rhs, "new"))
        copy_loop = s;
      else
        init_loop = s;
    }
  }
  const lang::Stmt* diff_loop =
      loop_with_bound_and_lhs(*c.model, "nsom", "diff");
  const lang::Stmt* tri_loop = nullptr;
  for (const lang::Stmt* s : c.model->partitioned_loops())
    if (s->do_hi->name == "ntri") tri_loop = s;
  ASSERT_NE(ifstmt, nullptr);
  ASSERT_NE(copy_loop, nullptr);
  ASSERT_NE(diff_loop, nullptr);
  ASSERT_NE(tri_loop, nullptr);
  ASSERT_NE(init_loop, copy_loop);

  // Figure 9: both syncs (overlap-som on NEW, + reduction on sqrdiff) sit
  // right after the difference loop (= before the first IF); the copy loops
  // run on OVERLAP so OLD never needs its own update; the diff loop runs on
  // KERNEL.
  bool found = false;
  for (const auto& p : r.placements) {
    bool new_sync = false, sq_sync = false, extra = false;
    for (const auto& s : p.syncs) {
      if (s.var == "new" && s.action == CommAction::kUpdateCopy &&
          s.before == ifstmt)
        new_sync = true;
      else if (s.var == "sqrdiff" && s.action == CommAction::kReduceScalar &&
               s.before == ifstmt)
        sq_sync = true;
      else
        extra = true;
    }
    if (new_sync && sq_sync && !extra &&
        p.domain_layers(*copy_loop) == 1 &&
        p.domain_layers(*init_loop) == 1 &&
        p.domain_layers(*diff_loop) == 0 &&
        p.domain_layers(*tri_loop) == 1) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "Figure 9 placement not among the solutions";
}

TEST(Placement, Figure10SolutionIsFound) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult r = enumerate_testt();
  ASSERT_FALSE(r.placements.empty());
  const lang::Stmt* diff_loop =
      loop_with_bound_and_lhs(*c.model, "nsom", "diff");
  ASSERT_NE(diff_loop, nullptr);

  // Figure 10: OLD is synchronized once per time step (anywhere between the
  // top of the convergence loop and the gather), sqrdiff is reduced, RESULT
  // is synchronized at the very end, and the copy loops run on KERNEL.
  bool found = false;
  for (const auto& p : r.placements) {
    bool old_sync = false, sq_sync = false, result_sync = false, extra = false;
    for (const auto& s : p.syncs) {
      if (s.var == "old" && s.action == CommAction::kUpdateCopy &&
          s.in_cycle)
        old_sync = true;
      else if (s.var == "sqrdiff" && s.action == CommAction::kReduceScalar)
        sq_sync = true;
      else if (s.var == "result" && s.before == nullptr)
        result_sync = true;
      else
        extra = true;
    }
    bool kernel_copies = true;
    for (const lang::Stmt* l : c.model->partitioned_loops()) {
      if (l->do_hi->name == "nsom" && !l->body.empty() &&
          l->body[0]->kind == lang::StmtKind::kAssign &&
          (l->body[0]->lhs->name == "old" ||
           l->body[0]->lhs->name == "result")) {
        if (p.domain_layers(*l) != 0) kernel_copies = false;
      }
    }
    if (old_sync && sq_sync && result_sync && !extra && kernel_copies) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "Figure 10 placement not among the solutions";
}

TEST(Placement, CheapestSolutionGroupsTheTwoCommunications) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult r = enumerate_testt();
  ASSERT_FALSE(r.placements.empty());
  const Placement& best = r.placements.front();
  // The best solutions co-locate the array update and the scalar reduction
  // (one communication "location"), the grouping advantage the paper
  // discusses in §4.
  EXPECT_EQ(best.sync_locations(), 1u);
  EXPECT_EQ(best.syncs.size(), 2u);
  for (std::size_t i = 1; i < r.placements.size(); ++i)
    EXPECT_LE(r.placements[i - 1].cost, r.placements[i].cost);
}

TEST(Placement, AllPlacementsPassSimulationCheck) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult r = enumerate_testt();
  ASSERT_FALSE(r.placements.empty());
  for (const auto& p : r.placements) {
    SimulationResult sim = simulate_check(*c.model, *c.fg, p.assignment);
    EXPECT_TRUE(sim.ok())
        << (sim.violations.empty() ? std::string() : sim.violations.front());
    // The independent verifier must agree with the simulation check.
    VerifyReport rep = verify_placement(*c.model, *c.fg, p);
    EXPECT_TRUE(rep.findings.empty())
        << rep.findings.front().code << ": " << rep.findings.front().message;
  }
}

TEST(Placement, DroppedUpdateTransitionFailsVerifier) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult r = enumerate_testt();
  ASSERT_FALSE(r.placements.empty());
  Placement bad = r.placements.front();
  // Corrupt the materialized assignment by dropping one Update
  // communication; the verifier must flag the now-uncovered dependence.
  bool dropped = false;
  for (auto it = bad.syncs.begin(); it != bad.syncs.end(); ++it) {
    if (it->action == CommAction::kUpdateCopy) {
      bad.syncs.erase(it);
      dropped = true;
      break;
    }
  }
  ASSERT_TRUE(dropped);
  VerifyReport rep = verify_placement(*c.model, *c.fg, bad);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has(kVerifyMissingComm));
}

TEST(Placement, CorruptedAssignmentFailsSimulationCheck) {
  const Compiled& c = testt();
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult r = enumerate_testt();
  ASSERT_FALSE(r.placements.empty());
  Assignment bad = r.placements.front().assignment;
  // Force the RESULT output to the incoherent node state.
  int out = c.fg->output_occ(c.model->sub().symbol("result"));
  ASSERT_GE(out, 0);
  bad.state_of[out] = *c.model->autom().find_state("Nod1");
  SimulationResult sim = simulate_check(*c.model, *c.fg, bad);
  EXPECT_FALSE(sim.ok());
}

TEST(Placement, NodeBoundaryPatternAssemblesBeforeReduction) {
  // Under the Figure-2/7 pattern, the node reduction requires coherent
  // values, so the assembly of NEW must happen before the difference loop.
  std::string spec = lang::testt_spec();
  auto pos = spec.find("overlap-triangle-layer");
  spec.replace(pos, std::string("overlap-triangle-layer").size(),
               "overlap-node-boundary");
  ToolOptions opt;
  Compiled c = compile_frontend(lang::testt_source(), spec);
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult r = enumerate_placements(*c.model, *c.fg, opt);
  ASSERT_FALSE(r.placements.empty());
  const lang::Stmt* diff_loop =
      loop_with_bound_and_lhs(*c.model, "nsom", "diff");
  ASSERT_NE(diff_loop, nullptr);
  for (const auto& p : r.placements) {
    // Every solution must assemble NEW at a point no later than the
    // difference loop.
    bool assemble_new = false;
    for (const auto& s : p.syncs) {
      if (s.var == "new" && s.action == CommAction::kAssembleAdd &&
          s.before && s.before->id <= diff_loop->id)
        assemble_new = true;
    }
    EXPECT_TRUE(assemble_new);
  }
}

TEST(Placement, UnsatisfiableRequirementYieldsNoSolutions) {
  // Under the Figure-7 automaton, a coherent input cannot become "partial"
  // (no weakening), so requiring a partial output of a pass-through program
  // is unsatisfiable.
  Compiled c = compile_frontend(
      "      subroutine f(nsom,x,y)\n"
      "      integer nsom,i\n"
      "      real x(10),y(10)\n"
      "      do i = 1,nsom\n"
      "        y(i) = x(i)\n"
      "      end do\n"
      "      end\n",
      "pattern overlap-node-boundary\n"
      "loopvar i over nsom partition nodes\n"
      "array x nodes\narray y nodes\n"
      "input x coherent\ninput nsom replicated\n"
      "output y partial\n");
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EXPECT_TRUE(enumerate_placements(*c.model, *c.fg).placements.empty());
}

TEST(Placement, DeepHaloHalvesTheUpdates) {
  // The §3.1 "two layers of overlapping triangles" pattern: with two
  // chained gather-scatter stages per time step, a one-layer overlap needs
  // two array updates per step, a two-layer overlap only one.
  auto count_cycle_updates = [](const EnumerationResult& r) {
    std::size_t best = 1000;
    for (const auto& p : r.placements) {
      std::size_t n = 0;
      for (const auto& s : p.syncs)
        if (s.action == CommAction::kUpdateCopy && s.in_cycle) ++n;
      best = std::min(best, n);
    }
    return best;
  };
  ToolOptions opt;
  opt.engine.max_solutions = 4096;

  Compiled c =
      compile_frontend(lang::synthetic_source(2), lang::synthetic_spec(2));
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult shallow = enumerate_placements(*c.model, *c.fg, opt);
  ASSERT_FALSE(shallow.placements.empty());

  std::string deep_spec = lang::synthetic_spec(2);
  auto pos = deep_spec.find("overlap-triangle-layer");
  deep_spec.replace(pos, std::string("overlap-triangle-layer").size(),
                    "overlap-triangle-layer-2");
  Compiled c2 = compile_frontend(lang::synthetic_source(2), deep_spec);
  ASSERT_TRUE(c2.ok()) << c2.diags.str();
  EnumerationResult deep = enumerate_placements(*c2.model, *c2.fg, opt);
  ASSERT_FALSE(deep.placements.empty());

  EXPECT_EQ(count_cycle_updates(shallow), 2u);
  EXPECT_EQ(count_cycle_updates(deep), 1u);
}

}  // namespace
}  // namespace meshpar::placement
