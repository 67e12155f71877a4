// Parallel-enumeration determinism and the engine-filtered transition
// lookup. The contract under test (DESIGN.md §9): any --jobs value yields
// the same solution list in the same order; untruncated runs additionally
// report identical statistics; and Engine::transition_for never reports a
// transition the search itself would refuse to take.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "lang/corpus.hpp"
#include "placement/simulate.hpp"
#include "placement/tool.hpp"

namespace meshpar::placement {
namespace {

using automaton::ArrowKind;
using automaton::CommAction;

struct Built {
  DiagnosticEngine diags;
  std::unique_ptr<ProgramModel> model;
  std::unique_ptr<FlowGraph> fg;
};

Built build(const std::string& src, const std::string& spec) {
  Built b;
  b.model = ProgramModel::build(src, spec, b.diags);
  if (b.model)
    b.fg = std::make_unique<FlowGraph>(FlowGraph::build(*b.model, b.diags));
  return b;
}

void expect_same_solutions(const std::vector<Assignment>& a,
                           const std::vector<Assignment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].state_of, b[i].state_of) << "solution " << i << " differs";
}

// ---------------------------------------------------------------------------
// Determinism across job counts.
// ---------------------------------------------------------------------------

TEST(ParallelEngine, UntruncatedRunsAreIdenticalAcrossJobCounts) {
  struct Program {
    const char* name;
    std::string src, spec;
  };
  const Program programs[] = {
      {"testt", lang::testt_source(), lang::testt_spec()},
      {"coupled", lang::coupled_source(), lang::coupled_spec()},
      {"synthetic2", lang::synthetic_source(2), lang::synthetic_spec(2)},
  };
  for (const Program& prog : programs) {
    SCOPED_TRACE(prog.name);
    Built b = build(prog.src, prog.spec);
    ASSERT_NE(b.model, nullptr) << b.diags.str();
    Engine engine(*b.model, *b.fg);

    EngineOptions opt;
    opt.max_solutions = 0;  // exhaustive: Figure 9 and 10 are both inside
    EngineStats seq_stats;
    auto seq = engine.enumerate(opt, &seq_stats);
    ASSERT_FALSE(seq_stats.truncated);

    for (int jobs : {2, 8}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      opt.jobs = jobs;
      EngineStats par_stats;
      auto par = engine.enumerate(opt, &par_stats);
      expect_same_solutions(seq, par);
      // Untruncated parallel runs report *exactly* the sequential stats:
      // the prefix enumerator counts the split levels, the subtrees count
      // everything below, and the totals add up.
      EXPECT_EQ(par_stats.assignments, seq_stats.assignments);
      EXPECT_EQ(par_stats.backtracks, seq_stats.backtracks);
      EXPECT_EQ(par_stats.solutions, seq_stats.solutions);
      EXPECT_EQ(par_stats.truncated, seq_stats.truncated);
      EXPECT_EQ(par_stats.reason, seq_stats.reason);
      EXPECT_EQ(par_stats.pruned_singletons, seq_stats.pruned_singletons);
    }
  }
}

TEST(ParallelEngine, JobsZeroMeansAllHardwareThreads) {
  Built b = build(lang::testt_source(), lang::testt_spec());
  ASSERT_NE(b.model, nullptr) << b.diags.str();
  Engine engine(*b.model, *b.fg);
  EngineOptions opt;
  opt.max_solutions = 0;
  auto seq = engine.enumerate(opt);
  opt.jobs = 0;
  auto par0 = engine.enumerate(opt);
  opt.jobs = -3;
  auto parneg = engine.enumerate(opt);
  expect_same_solutions(seq, par0);
  expect_same_solutions(seq, parneg);
}

TEST(ParallelEngine, TruncatedRunKeepsTheSequentialSolutionPrefix) {
  Built b = build(lang::testt_source(), lang::testt_spec());
  ASSERT_NE(b.model, nullptr) << b.diags.str();
  Engine engine(*b.model, *b.fg);

  EngineOptions opt;
  opt.max_solutions = 8;
  EngineStats seq_stats;
  auto seq = engine.enumerate(opt, &seq_stats);
  ASSERT_TRUE(seq_stats.truncated);

  opt.jobs = 8;
  EngineStats par_stats;
  auto par = engine.enumerate(opt, &par_stats);
  // Work counters may differ (later subtrees run before cancellation), but
  // the solution list and the truncation outcome must not.
  expect_same_solutions(seq, par);
  EXPECT_EQ(par_stats.solutions, seq_stats.solutions);
  EXPECT_EQ(par_stats.truncated, seq_stats.truncated);
  EXPECT_EQ(par_stats.reason, seq_stats.reason);
}

TEST(ParallelEngine, ParallelPlacementsMatchSequential) {
  // End to end through the tool: the materialized, deduplicated, cost-sorted
  // placements — what `mptool place` prints — are identical for any jobs.
  ToolOptions opt;
  opt.engine.max_solutions = 0;
  Compiled c = compile_frontend(lang::testt_source(), lang::testt_spec());
  ASSERT_TRUE(c.ok()) << c.diags.str();
  EnumerationResult seq = enumerate_placements(*c.model, *c.fg, opt);
  ASSERT_FALSE(seq.placements.empty());
  opt.engine.jobs = 8;
  EnumerationResult par = enumerate_placements(*c.model, *c.fg, opt);
  ASSERT_FALSE(par.placements.empty());
  ASSERT_EQ(seq.placements.size(), par.placements.size());
  for (std::size_t i = 0; i < seq.placements.size(); ++i) {
    EXPECT_EQ(seq.placements[i].key(), par.placements[i].key());
    EXPECT_EQ(seq.placements[i].assignment.state_of,
              par.placements[i].assignment.state_of);
    EXPECT_EQ(seq.placements[i].cost, par.placements[i].cost);
  }
  EXPECT_EQ(seq.stats.assignments, par.stats.assignments);
  EXPECT_EQ(seq.stats.backtracks, par.stats.backtracks);
}

TEST(ParallelEngine, GlobalBudgetIsRespectedAcrossWorkers) {
  Built b = build(lang::testt_source(), lang::testt_spec());
  ASSERT_NE(b.model, nullptr) << b.diags.str();
  Engine engine(*b.model, *b.fg);
  EngineOptions opt;
  opt.max_solutions = 0;
  opt.max_assignments = 100;
  opt.jobs = 8;
  EngineStats stats;
  engine.enumerate(opt, &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.reason, TruncationReason::kMaxAssignments);
  EXPECT_LE(stats.assignments, 100);
}

// ---------------------------------------------------------------------------
// transition_for: the reporting side must use the engine's filtered
// relation, not the raw automaton (the original mismatch let a same-loop
// Update — which the search never takes — surface in reports).
// ---------------------------------------------------------------------------

constexpr const char* kSameLoopSrc = R"(      subroutine f(nsom,init,z)
      integer nsom,i
      real init(1000),z(1000)
      real x(1000)
      do i = 1,nsom
        x(i) = init(i)
        z(i) = x(i)
      end do
      end
)";

constexpr const char* kSameLoopSpec = R"(pattern overlap-triangle-layer
loopvar i over nsom partition nodes
array init nodes
array x nodes
array z nodes
input init coherent
input nsom replicated
output z coherent
)";

TEST(TransitionFor, SameLoopUpdateIsNeverReported) {
  Built b = build(kSameLoopSrc, kSameLoopSpec);
  ASSERT_NE(b.model, nullptr) << b.diags.str();
  Engine engine(*b.model, *b.fg);
  const auto& autom = b.model->autom();

  // The true dependence x(write) -> x(read) with both endpoints inside the
  // single partitioned loop.
  const FlowArrow* xarrow = nullptr;
  for (const FlowArrow& a : b.fg->arrows()) {
    if (a.kind != ArrowKind::kTrue || a.var != b.model->sub().symbol("x"))
      continue;
    const Occurrence& s = b.fg->occ(a.src);
    const Occurrence& d = b.fg->occ(a.dst);
    if (s.stmt && d.stmt &&
        b.model->enclosing_partitioned(*s.stmt) != nullptr &&
        b.model->enclosing_partitioned(*s.stmt) ==
            b.model->enclosing_partitioned(*d.stmt))
      xarrow = &a;
  }
  ASSERT_NE(xarrow, nullptr) << "no intra-loop true arrow on x";

  int nod0 = *autom.find_state("Nod0");
  int nod1 = *autom.find_state("Nod1");
  // The *raw* automaton does contain the Update Nod1 -> Nod0 across a true
  // dependence; that transition is exactly what the engine must withhold
  // here, because no program point inside the loop can host the
  // communication.
  bool raw_has_update = false;
  for (const auto* t : autom.transitions_from(nod1, ArrowKind::kTrue))
    if (t->to == nod0 && t->action == CommAction::kUpdateCopy)
      raw_has_update = true;
  ASSERT_TRUE(raw_has_update);

  EngineOptions opt;
  opt.max_solutions = 0;
  auto sols = engine.enumerate(opt);
  ASSERT_FALSE(sols.empty());

  Assignment bad = sols.front();
  bad.state_of[xarrow->src] = nod1;
  bad.state_of[xarrow->dst] = nod0;
  EXPECT_EQ(engine.transition_for(bad, *xarrow), nullptr)
      << "same-loop Update leaked through the reporting path";

  SimulationResult sim = simulate_check(engine, bad);
  EXPECT_FALSE(sim.ok())
      << "simulation check accepted an assignment that needs an unhostable "
         "communication";

  // No enumerated solution crosses this arrow with a communication.
  for (const Assignment& a : sols) {
    const automaton::OverlapTransition* t = engine.transition_for(a, *xarrow);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->action, CommAction::kNone);
  }
}

constexpr const char* kScalarSrc = R"(      subroutine g(nsom,x,z)
      integer nsom,i
      real x(1000),z(1000),s
      s = 2.0
      do i = 1,nsom
        z(i) = x(i) * s
      end do
      end
)";

constexpr const char* kScalarSpec = R"(pattern overlap-triangle-layer
loopvar i over nsom partition nodes
array x nodes
array z nodes
input x coherent
input nsom replicated
output z coherent
)";

TEST(TransitionFor, ScalarWeakeningOutsideAccumulatorIsNeverReported) {
  Built b = build(kScalarSrc, kScalarSpec);
  ASSERT_NE(b.model, nullptr) << b.diags.str();
  Engine engine(*b.model, *b.fg);
  const auto& autom = b.model->autom();

  // s = 2.0 feeds the loop body: a true dependence on a plain scalar, not a
  // reduction accumulator's self-read.
  const FlowArrow* sarrow = nullptr;
  for (const FlowArrow& a : b.fg->arrows())
    if (a.kind == ArrowKind::kTrue && a.var == b.model->sub().symbol("s") &&
        !a.into_accumulator)
      sarrow = &a;
  ASSERT_NE(sarrow, nullptr);

  int sca0 = *autom.find_state("Sca0");
  int sca1 = *autom.find_state("Sca1");
  bool raw_has_weaken = false;
  for (const auto* t : autom.transitions_from(sca0, ArrowKind::kTrue))
    if (t->to == sca1) raw_has_weaken = true;
  ASSERT_TRUE(raw_has_weaken) << "raw automaton should allow Sca0 -> Sca1";

  EngineOptions opt;
  opt.max_solutions = 0;
  auto sols = engine.enumerate(opt);
  ASSERT_FALSE(sols.empty());

  Assignment bad = sols.front();
  bad.state_of[sarrow->src] = sca0;
  bad.state_of[sarrow->dst] = sca1;
  EXPECT_EQ(engine.transition_for(bad, *sarrow), nullptr)
      << "replicated scalar weakened outside a reduction accumulator";
  EXPECT_FALSE(simulate_check(engine, bad).ok());
}

// ---------------------------------------------------------------------------
// pruned_domains over-constrained status.
// ---------------------------------------------------------------------------

TEST(PrunedDomains, ReportsOverConstrainedPrograms) {
  // Under the Figure-7 automaton a coherent input cannot weaken, so a
  // partial output of a pass-through program empties a domain during
  // arc-consistency.
  Built b = build(
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
  ASSERT_NE(b.model, nullptr) << b.diags.str();
  Engine engine(*b.model, *b.fg);
  bool over_constrained = false;
  auto dom = engine.pruned_domains(&over_constrained);
  EXPECT_TRUE(over_constrained);
  bool some_empty = false;
  for (const auto& d : dom) some_empty |= d.empty();
  EXPECT_TRUE(some_empty) << "status says over-constrained but no domain is";
  EXPECT_TRUE(engine.enumerate().empty());
}

TEST(PrunedDomains, SatisfiableProgramIsNotOverConstrained) {
  Built b = build(lang::testt_source(), lang::testt_spec());
  ASSERT_NE(b.model, nullptr) << b.diags.str();
  Engine engine(*b.model, *b.fg);
  bool over_constrained = true;
  auto dom = engine.pruned_domains(&over_constrained);
  EXPECT_FALSE(over_constrained);
  for (const auto& d : dom) EXPECT_FALSE(d.empty());
}

}  // namespace
}  // namespace meshpar::placement
