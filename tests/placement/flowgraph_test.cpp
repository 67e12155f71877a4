#include "placement/flowgraph.hpp"

#include <gtest/gtest.h>

#include "lang/corpus.hpp"

namespace meshpar::placement {
namespace {

using automaton::ArrowKind;
using automaton::EntityKind;
using automaton::ValueClass;

struct Built {
  std::unique_ptr<ProgramModel> model;
  FlowGraph fg;
};

Built build_testt() {
  DiagnosticEngine diags;
  auto m = ProgramModel::build(lang::testt_source(), lang::testt_spec(),
                               diags);
  EXPECT_NE(m, nullptr) << diags.str();
  FlowGraph fg = FlowGraph::build(*m, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.str();
  return {std::move(m), std::move(fg)};
}

/// The symbol of variable `name` in the model.
int sym(const Built& b, std::string_view name) {
  return b.model->sub().symbol(name);
}

const lang::Stmt* find_assign(const ProgramModel& m, const std::string& lhs,
                              int skip = 0) {
  for (const lang::Stmt* s : m.cfg().statements()) {
    if (s->kind == lang::StmtKind::kAssign && s->lhs->name == lhs) {
      if (skip-- == 0) return s;
    }
  }
  return nullptr;
}

TEST(FlowGraph, TesttHasExpectedOccurrences) {
  auto b = build_testt();
  // 9 inputs + 1 output + writes/reads/predicates.
  EXPECT_GT(b.fg.occs().size(), 60u);
  EXPECT_GT(b.fg.arrows().size(), 100u);
  EXPECT_GE(b.fg.input_occ(sym(b, "init")), 0);
  EXPECT_GE(b.fg.input_occ(sym(b, "epsilon")), 0);
  EXPECT_GE(b.fg.output_occ(sym(b, "result")), 0);
  EXPECT_EQ(b.fg.output_occ(sym(b, "old")), -1);
}

TEST(FlowGraph, InputAndOutputStatesFixed) {
  auto b = build_testt();
  const auto& autom = b.model->autom();
  const Occurrence& init = b.fg.occ(b.fg.input_occ(sym(b, "init")));
  ASSERT_TRUE(init.fixed_state.has_value());
  EXPECT_EQ(autom.state(*init.fixed_state).name, "Nod0");
  const Occurrence& eps = b.fg.occ(b.fg.input_occ(sym(b, "epsilon")));
  ASSERT_TRUE(eps.fixed_state.has_value());
  EXPECT_EQ(autom.state(*eps.fixed_state).name, "Sca0");
  const Occurrence& result = b.fg.occ(b.fg.output_occ(sym(b, "result")));
  ASSERT_TRUE(result.fixed_state.has_value());
  EXPECT_EQ(autom.state(*result.fixed_state).name, "Nod0");
}

TEST(FlowGraph, GatherArrowOnIndirectionRead) {
  auto b = build_testt();
  const lang::Stmt* vm = find_assign(*b.model, "vm");
  ASSERT_NE(vm, nullptr);
  int read_old = b.fg.read_occ(*vm, sym(b, "old"));
  ASSERT_GE(read_old, 0);
  EXPECT_EQ(b.fg.occ(read_old).shape, EntityKind::kNode);
  // The value arrow old-read -> vm-write is a gather.
  bool found = false;
  for (int aid : b.fg.out_arrows(read_old)) {
    const FlowArrow& a = b.fg.arrows()[aid];
    if (a.kind == ArrowKind::kValue) {
      EXPECT_EQ(a.vclass, ValueClass::kGather);
      EXPECT_EQ(b.fg.occ(a.dst).var, sym(b, "vm"));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(FlowGraph, ScatterAndAccumulateArrowsOnAssembly) {
  auto b = build_testt();
  const lang::Stmt* scatter = find_assign(*b.model, "new", /*skip=*/1);
  ASSERT_NE(scatter, nullptr);
  ASSERT_EQ(scatter->lhs->kind, lang::ExprKind::kArrayRef);

  int read_vm = b.fg.read_occ(*scatter, sym(b, "vm"));
  int read_new = b.fg.read_occ(*scatter, sym(b, "new"));
  int read_airesom = b.fg.read_occ(*scatter, sym(b, "airesom"));
  ASSERT_GE(read_vm, 0);
  ASSERT_GE(read_new, 0);
  ASSERT_GE(read_airesom, 0);

  auto vclass_of = [&](int occ) {
    for (int aid : b.fg.out_arrows(occ)) {
      const FlowArrow& a = b.fg.arrows()[aid];
      if (a.kind == ArrowKind::kValue) return a.vclass;
    }
    return ValueClass::kBroadcast;  // sentinel
  };
  EXPECT_EQ(vclass_of(read_vm), ValueClass::kScatter);
  EXPECT_EQ(vclass_of(read_new), ValueClass::kAccumulate);
  EXPECT_EQ(vclass_of(read_airesom), ValueClass::kGather);
}

TEST(FlowGraph, ReductionArrows) {
  auto b = build_testt();
  const lang::Stmt* red = find_assign(*b.model, "sqrdiff", /*skip=*/1);
  ASSERT_NE(red, nullptr);
  int read_diff = b.fg.read_occ(*red, sym(b, "diff"));
  int read_self = b.fg.read_occ(*red, sym(b, "sqrdiff"));
  ASSERT_GE(read_diff, 0);
  ASSERT_GE(read_self, 0);
  auto vclass_of = [&](int occ) {
    for (int aid : b.fg.out_arrows(occ)) {
      const FlowArrow& a = b.fg.arrows()[aid];
      if (a.kind == ArrowKind::kValue) return a.vclass;
    }
    return ValueClass::kBroadcast;
  };
  EXPECT_EQ(vclass_of(read_diff), ValueClass::kReduction);
  EXPECT_EQ(vclass_of(read_self), ValueClass::kAccumulate);
}

TEST(FlowGraph, LoopVariableReadsAreMachinery) {
  auto b = build_testt();
  const lang::Stmt* diff = find_assign(*b.model, "diff");
  ASSERT_NE(diff, nullptr);
  // "diff = new(i) - old(i)" reads i, but i is loop machinery: no read occ.
  EXPECT_EQ(b.fg.read_occ(*diff, sym(b, "i")), -1);
  EXPECT_GE(b.fg.read_occ(*diff, sym(b, "new")), 0);
}

TEST(FlowGraph, PredicateOccsForIfs) {
  auto b = build_testt();
  int preds = 0;
  for (const auto& o : b.fg.occs())
    if (o.kind == OccKind::kPredicate) {
      ++preds;
      EXPECT_EQ(o.shape, EntityKind::kScalar);
    }
  EXPECT_EQ(preds, 2);  // the two convergence tests
}

TEST(FlowGraph, TrueArrowsFollowReachingDefs) {
  auto b = build_testt();
  const lang::Stmt* vm = find_assign(*b.model, "vm");
  int read_old = b.fg.read_occ(*vm, sym(b, "old"));
  // OLD reaches the gather from the init copy and from the end-of-step
  // copy: two true arrows.
  int true_arrows = 0;
  for (int aid : b.fg.in_arrows(read_old)) {
    if (b.fg.arrows()[aid].kind == ArrowKind::kTrue) ++true_arrows;
  }
  EXPECT_EQ(true_arrows, 2);
}

TEST(FlowGraph, PartitionedDoVariableFixedCoherent) {
  auto b = build_testt();
  const auto& autom = b.model->autom();
  for (const lang::Stmt* l : b.model->partitioned_loops()) {
    int w = b.fg.write_occ(*l);
    ASSERT_GE(w, 0);
    const Occurrence& o = b.fg.occ(w);
    ASSERT_TRUE(o.fixed_state.has_value());
    EXPECT_EQ(autom.state(*o.fixed_state).level, 0);
  }
}

}  // namespace
}  // namespace meshpar::placement
