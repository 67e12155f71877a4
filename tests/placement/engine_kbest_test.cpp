// The search's duplicate filter and bounded-memory k-best ranking
// (DESIGN.md §10). Contracts under test:
//   * the observable projection the duplicate filter skips on determines
//     the materialized placement, and the filter's statistics are
//     jobs-independent;
//   * enumerate_k_best equals materialize_all over the full enumeration
//     truncated to k, byte-identically, for every jobs value, while the
//     peak number of simultaneously retained placements stays within
//     (jobs + 1) * k;
//   * the ranked output of the bundled examples and of the synthetic
//     corpus is pinned by hash;
//   * the MaterializeCache reports the failure reason.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lang/corpus.hpp"
#include "placement/simulate.hpp"
#include "placement/solution.hpp"
#include "placement/tool.hpp"

// The 12-stage program enumerates ~10^5 raw solutions; under TSan/ASan the
// instrumented walk is an order of magnitude slower, so scale it down (the
// contracts are size-independent).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define MP_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define MP_SANITIZED_BUILD 1
#endif
#endif
#ifdef MP_SANITIZED_BUILD
constexpr int kLargeStages = 6;
// The retention bound needs more raw solutions than 6 stages give (1,024);
// 7 stages give 2,048.
constexpr int kRetentionStages = 7;
#else
constexpr int kLargeStages = 12;
constexpr int kRetentionStages = kLargeStages;
#endif

namespace meshpar::placement {
namespace {

struct Built {
  DiagnosticEngine diags;
  std::unique_ptr<ProgramModel> model;
  std::unique_ptr<FlowGraph> fg;
  std::unique_ptr<Engine> engine;
};

Built build(const std::string& src, const std::string& spec) {
  Built b;
  b.model = ProgramModel::build(src, spec, b.diags);
  if (b.model) {
    b.fg = std::make_unique<FlowGraph>(FlowGraph::build(*b.model, b.diags));
    b.engine = std::make_unique<Engine>(*b.model, *b.fg);
  }
  return b;
}

/// Full byte-level identity: same placements, same costs, and the same
/// representative assignment per placement.
void expect_same_placements(const std::vector<Placement>& a,
                            const std::vector<Placement>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key(), b[i].key()) << "placement " << i;
    EXPECT_EQ(a[i].cost, b[i].cost) << "placement " << i;
    EXPECT_EQ(a[i].assignment.state_of, b[i].assignment.state_of)
        << "placement " << i;
  }
}

std::vector<Placement> legacy_rank(const Engine& engine) {
  EngineOptions opt;
  opt.max_solutions = 0;
  opt.jobs = 2;
  auto assignments = engine.enumerate(opt);
  return materialize_all(engine, assignments);
}

// ---------------------------------------------------------------------------
// Duplicate filter.
// ---------------------------------------------------------------------------

TEST(Dominance, StatsAreJobsIndependent) {
  Built b = build(lang::coupled_source(), lang::coupled_spec());
  ASSERT_NE(b.engine, nullptr) << b.diags.str();
  EngineOptions opt;
  opt.max_solutions = 0;
  EngineStats seq;
  opt.jobs = 1;
  auto seq_sols = b.engine->enumerate(opt, &seq);
  EXPECT_GT(seq.dominance_pruned, 0);
  for (int jobs : {2, 8}) {
    EngineStats par;
    opt.jobs = jobs;
    auto par_sols = b.engine->enumerate(opt, &par);
    EXPECT_EQ(par.dominance_pruned, seq.dominance_pruned) << jobs;
    EXPECT_EQ(par.assignments, seq.assignments) << jobs;
    EXPECT_EQ(par.solutions, seq.solutions) << jobs;
    ASSERT_EQ(par_sols.size(), seq_sols.size()) << jobs;
    for (std::size_t i = 0; i < seq_sols.size(); ++i)
      EXPECT_EQ(par_sols[i].state_of, seq_sols[i].state_of) << jobs;
  }
}

TEST(Dominance, EqualProjectionsMaterializeIdentically) {
  // The soundness invariant behind the duplicate filter: the observable
  // projection determines the materialized placement (key and cost), or
  // that both assignments fail to materialize. The search never emits two
  // solutions with one projection, so the pairs compared here are each
  // emitted solution and a neighbour with one occurrence moved to another
  // value of its pruned domain, still legal on every arrow touching it.
  struct Program {
    const char* name;
    std::string src, spec;
  };
  const Program programs[] = {
      {"testt", lang::testt_source(), lang::testt_spec()},
      {"coupled", lang::coupled_source(), lang::coupled_spec()},
  };
  for (const Program& prog : programs) {
    SCOPED_TRACE(prog.name);
    Built b = build(prog.src, prog.spec);
    ASSERT_NE(b.engine, nullptr) << b.diags.str();
    const Engine& engine = *b.engine;
    const FlowGraph& fg = *b.fg;
    EngineOptions opt;
    opt.max_solutions = 0;
    auto sols = engine.enumerate(opt);
    ASSERT_FALSE(sols.empty());
    const auto dom = engine.pruned_domains();
    std::vector<std::vector<const FlowArrow*>> touching(fg.occs().size());
    for (const FlowArrow& a : fg.arrows()) {
      touching[static_cast<std::size_t>(a.src)].push_back(&a);
      if (a.dst != a.src)
        touching[static_cast<std::size_t>(a.dst)].push_back(&a);
    }
    const MaterializeCache cache(engine);
    std::size_t pairs = 0;
    for (const Assignment& a : sols) {
      const std::string proj = engine.projection_of(a);
      const auto p = cache.run(a);
      for (std::size_t o = 0; o < dom.size(); ++o) {
        for (int v : dom[o]) {
          if (v == a.state_of[o]) continue;
          Assignment moved = a;
          moved.state_of[o] = v;
          bool legal = true;
          for (const FlowArrow* arrow : touching[o])
            legal = legal && engine.transition_for(moved, *arrow) != nullptr;
          if (!legal || engine.projection_of(moved) != proj) continue;
          ++pairs;
          const auto q = cache.run(moved);
          ASSERT_EQ(p.has_value(), q.has_value()) << "occurrence " << o;
          if (!p) continue;
          EXPECT_EQ(p->key(), q->key()) << "occurrence " << o;
          EXPECT_EQ(p->cost, q->cost) << "occurrence " << o;
        }
      }
    }
    EXPECT_GT(pairs, 0u) << "no neighbour shares a projection";
  }
}

// ---------------------------------------------------------------------------
// Streaming k-best.
// ---------------------------------------------------------------------------

TEST(KBest, MatchesLegacyTopKForEveryJobsValue) {
  struct Program {
    const char* name;
    std::string src, spec;
    std::size_t k;
  };
  const Program programs[] = {
      {"testt", lang::testt_source(), lang::testt_spec(), 8},
      {"coupled", lang::coupled_source(), lang::coupled_spec(), 16},
  };
  for (const Program& prog : programs) {
    SCOPED_TRACE(prog.name);
    Built b = build(prog.src, prog.spec);
    ASSERT_NE(b.engine, nullptr) << b.diags.str();
    auto full = legacy_rank(*b.engine);
    ASSERT_GT(full.size(), prog.k) << "program too small for the test";
    full.resize(prog.k);
    for (int jobs : {1, 2, 8, 0}) {
      SCOPED_TRACE(jobs);
      EngineOptions opt;
      opt.max_solutions = prog.k;
      opt.jobs = jobs;
      KBestResult kb = enumerate_k_best(*b.engine, opt);
      expect_same_placements(kb.placements, full);
      EXPECT_FALSE(kb.stats.truncated);
    }
  }
}

TEST(KBest, UnboundedKEqualsLegacyRanking) {
  Built b = build(lang::coupled_source(), lang::coupled_spec());
  ASSERT_NE(b.engine, nullptr) << b.diags.str();
  auto full = legacy_rank(*b.engine);
  for (int jobs : {1, 8}) {
    SCOPED_TRACE(jobs);
    EngineOptions opt;
    opt.max_solutions = 0;  // unbounded: keep every distinct placement
    opt.jobs = jobs;
    KBestResult kb = enumerate_k_best(*b.engine, opt);
    expect_same_placements(kb.placements, full);
  }
}

TEST(KBest, PeakRetentionIsBoundedByJobsTimesK) {
  Built b = build(lang::synthetic_source(kRetentionStages),
                  lang::synthetic_spec(kRetentionStages));
  ASSERT_NE(b.engine, nullptr) << b.diags.str();
  const std::size_t k = 16;
  std::size_t raw = 0;
  for (int jobs : {1, 2, 8}) {
    SCOPED_TRACE(jobs);
    EngineOptions opt;
    opt.max_solutions = k;
    opt.jobs = jobs;
    KBestResult kb = enumerate_k_best(*b.engine, opt);
    ASSERT_EQ(kb.placements.size(), k);
    raw = kb.stats.solutions;
    // The bound under test: every live subtree book holds at most k
    // placements, the shared accumulator at most k, and at most `jobs`
    // books are live at once — O(jobs × k), never O(raw solutions).
    EXPECT_GT(kb.stats.kept_peak, 0u);
    EXPECT_LE(kb.stats.kept_peak,
              (static_cast<std::size_t>(jobs) + 1) * k);
  }
  EXPECT_GT(raw, 8 * (8 + 1) * k)
      << "program too small to demonstrate the memory bound";
}

TEST(KBest, CostGateSkipsBuildsAndIsJobsIndependent) {
  // Once a subtree's book is full, a raw solution costing strictly more
  // than its worst entry is rejected before its Placement is built. The
  // books are per subtree, so the number built does not depend on jobs.
  Built b = build(lang::synthetic_source(kRetentionStages),
                  lang::synthetic_spec(kRetentionStages));
  ASSERT_NE(b.engine, nullptr) << b.diags.str();
  std::size_t built = 0;
  for (int jobs : {1, 2, 8}) {
    SCOPED_TRACE(jobs);
    EngineOptions opt;
    opt.max_solutions = 16;
    opt.jobs = jobs;
    KBestResult kb = enumerate_k_best(*b.engine, opt);
    EXPECT_GT(kb.built, 0u);
    EXPECT_LT(kb.built, kb.stats.solutions) << "the cost gate never fired";
    if (jobs == 1) built = kb.built;
    EXPECT_EQ(kb.built, built);
  }
}

TEST(KBest, ToolPipelineUsesKBestRanking) {
  Compiled c = compile_frontend(lang::testt_source(), lang::testt_spec());
  ASSERT_TRUE(c.ok()) << c.diags.str();
  ToolOptions legacy;
  legacy.engine.max_solutions = 0;
  EnumerationResult want = enumerate_placements(*c.model, *c.fg, legacy);
  ASSERT_FALSE(want.placements.empty());

  ToolOptions opt;
  opt.k_best = true;
  opt.engine.max_solutions = 4;
  opt.engine.jobs = 2;
  EnumerationResult got = enumerate_placements(*c.model, *c.fg, opt);
  ASSERT_EQ(got.placements.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(got.placements[i].key(), want.placements[i].key());
    EXPECT_EQ(got.placements[i].cost, want.placements[i].cost);
  }
  EXPECT_GT(got.stats.kept_peak, 0u);
}

/// FNV-1a over a ranked list: per placement its key, cost bits, syncs in
/// order (action, var, `before` id, in_cycle), domains (loop id, layers)
/// and the representative assignment's state_of.
std::uint64_t hash_ranked(const std::vector<Placement>& ps) {
  std::uint64_t h = 14695981039346656037ull;
  auto feed = [&](const std::string& field) {
    for (unsigned char c : field) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // field separator: no field contains this byte
    h *= 1099511628211ull;
  };
  for (const Placement& p : ps) {
    feed(p.key());
    feed(std::to_string(std::bit_cast<std::uint64_t>(p.cost)));
    for (const SyncPoint& s : p.syncs) {
      feed(std::to_string(static_cast<int>(s.action)));
      feed(s.var);
      feed(std::to_string(s.before ? s.before->id : -1));
      feed(s.in_cycle ? "c" : "o");
    }
    for (const LoopDomain& d : p.domains)
      feed(std::to_string(d.loop->id) + ":" + std::to_string(d.layers));
    std::string states;
    for (int v : p.assignment.state_of) states += std::to_string(v) + ",";
    feed(states);
  }
  return h;
}

TEST(KBest, SyntheticRankedListIsPinned) {
  // The ranked output of the synthetic corpus, pinned by hash for every
  // jobs value: any change to which placements are kept, their order,
  // their costs, their syncs and domains or their representatives shows
  // up here.
  struct Pin {
    int stages;
    std::size_t k;
    std::size_t count;
    std::uint64_t hash;
  };
  const Pin pinned[] = {
      {1, 0, 32, 0xa2bdc3b693569700ull},
      {1, 16, 16, 0x9a707657a5551640ull},
      {3, 0, 128, 0x2bc6d4a8be855eadull},
      {3, 16, 16, 0x1c1a967c457a5b03ull},
      {5, 0, 512, 0xa4180419f2f10e79ull},
      {5, 16, 16, 0x65d06bcc9193bffaull},
      {9, 0, 8192, 0x2ffd572224469c42ull},
      {9, 16, 16, 0xe85bbaa0c8227d48ull},
  };
  for (const Pin& pin : pinned) {
    Built b = build(lang::synthetic_source(pin.stages),
                    lang::synthetic_spec(pin.stages));
    ASSERT_NE(b.engine, nullptr) << b.diags.str();
    for (int jobs : {1, 2, 4}) {
      SCOPED_TRACE(::testing::Message() << pin.stages << " stages, k "
                                        << pin.k << ", jobs " << jobs);
      EngineOptions opt;
      opt.max_solutions = pin.k;
      opt.jobs = jobs;
      KBestResult kb = enumerate_k_best(*b.engine, opt);
      EXPECT_EQ(kb.placements.size(), pin.count);
      EXPECT_EQ(hash_ranked(kb.placements), pin.hash)
          << std::hex << "0x" << hash_ranked(kb.placements);
    }
  }
}

TEST(KBest, BundledExamplesRankedListIsPinned) {
  // The full (k = 0) ranking of TESTT and COUPLED, representatives
  // included, and the raw solution count after duplicate projections are
  // skipped.
  struct Pin {
    const char* name;
    std::string src, spec;
    std::size_t count;
    std::size_t raw;
    std::uint64_t hash;
  };
  const Pin pinned[] = {
      {"testt", lang::testt_source(), lang::testt_spec(), 32, 32,
       0x6a040068fbad0326ull},
      {"coupled", lang::coupled_source(), lang::coupled_spec(), 64, 1024,
       0x7c3dcddb46ef4427ull},
  };
  for (const Pin& pin : pinned) {
    Built b = build(pin.src, pin.spec);
    ASSERT_NE(b.engine, nullptr) << b.diags.str();
    for (int jobs : {1, 2, 4}) {
      SCOPED_TRACE(::testing::Message() << pin.name << ", jobs " << jobs);
      EngineOptions opt;
      opt.max_solutions = 0;
      opt.jobs = jobs;
      KBestResult kb = enumerate_k_best(*b.engine, opt);
      EXPECT_EQ(kb.placements.size(), pin.count);
      EXPECT_EQ(kb.stats.solutions, pin.raw);
      EXPECT_EQ(hash_ranked(kb.placements), pin.hash)
          << std::hex << "0x" << hash_ranked(kb.placements);
    }
  }
}

// ---------------------------------------------------------------------------
// MaterializeCache.
// ---------------------------------------------------------------------------

TEST(MaterializeCache, ReportsFailureReason) {
  Built b = build(lang::testt_source(), lang::testt_spec());
  ASSERT_NE(b.engine, nullptr) << b.diags.str();
  const ProgramModel& m = *b.model;
  const FlowGraph& fg = *b.fg;
  const auto& states = m.autom().states();
  EngineOptions opt;
  opt.max_solutions = 1;
  auto sols = b.engine->enumerate(opt);
  ASSERT_FALSE(sols.empty());
  MaterializeFailure failure = MaterializeFailure::kUncuttableUpdate;
  ASSERT_TRUE(materialize(*b.engine, sols[0], &failure).has_value());
  EXPECT_EQ(failure, MaterializeFailure::kNone);

  // No transition: move the read end of a true arrow to a state of its
  // shape that no legal transition reaches from the arrow's source. A read
  // occurrence feeds no iteration domain, so the domains still agree.
  bool corrupted = false;
  for (const FlowArrow& a : fg.arrows()) {
    if (a.kind != automaton::ArrowKind::kTrue) continue;
    const Occurrence& dst = fg.occ(a.dst);
    if (dst.kind != OccKind::kRead || dst.fixed_state) continue;
    for (std::size_t v = 0; v < states.size() && !corrupted; ++v) {
      if (states[v].entity != dst.shape) continue;
      Assignment broken = sols[0];
      broken.state_of[static_cast<std::size_t>(a.dst)] = static_cast<int>(v);
      if (b.engine->transition_for(broken, a)) continue;
      corrupted = true;
      EXPECT_FALSE(materialize(*b.engine, broken, &failure).has_value());
      EXPECT_EQ(failure, MaterializeFailure::kNoTransition)
          << dst.describe(m.sub());
    }
    if (corrupted) break;
  }
  ASSERT_TRUE(corrupted) << "no true arrow with an illegal destination state";

  // Domain conflict: two writes of `new` in the triangle loop require the
  // same iteration domain; give them different coherence levels.
  std::map<const lang::Stmt*, std::vector<int>> writes_of_new;
  for (const lang::Stmt* s : m.cfg().statements()) {
    const lang::Stmt* loop = m.enclosing_partitioned(*s);
    const dfg::StmtDefUse& du = m.defuse(*s);
    if (loop && du.def && du.def->var == m.sub().symbol("new") &&
        fg.write_occ(*s) >= 0)
      writes_of_new[loop].push_back(fg.write_occ(*s));
  }
  bool conflicted = false;
  for (const auto& [loop, occs] : writes_of_new) {
    if (occs.size() < 2) continue;
    const Occurrence& w0 = fg.occ(occs[0]);
    const Occurrence& w1 = fg.occ(occs[1]);
    for (std::size_t v0 = 0; v0 < states.size() && !conflicted; ++v0) {
      for (std::size_t v1 = 0; v1 < states.size() && !conflicted; ++v1) {
        if (states[v0].entity != w0.shape || states[v1].entity != w1.shape ||
            states[v0].level == states[v1].level)
          continue;
        Assignment broken = sols[0];
        broken.state_of[static_cast<std::size_t>(occs[0])] =
            static_cast<int>(v0);
        broken.state_of[static_cast<std::size_t>(occs[1])] =
            static_cast<int>(v1);
        conflicted = true;
        EXPECT_FALSE(materialize(*b.engine, broken, &failure).has_value());
        EXPECT_EQ(failure, MaterializeFailure::kDomainConflict);
      }
    }
  }
  ASSERT_TRUE(conflicted) << "no loop with two writes of new at two levels";
}

}  // namespace
}  // namespace meshpar::placement
