// The placement engine (paper §4): finds every mapping M_n from data-flow
// occurrences to overlap-automaton states, and M_a from arrows to
// transitions, such that
//   1. every input occurrence carries its given initial state,
//   2. every output occurrence carries its required result state,
//   3. every arrow maps to an automaton transition whose endpoints agree
//      with the states of the arrow's endpoints.
//
// Because in the predefined automata a transition is uniquely determined by
// (source state, destination state, arrow kind, value class), searching over
// M_n alone is complete: M_a is recovered afterwards. The paper's recursive
// cross_node/cross_arrow backtracking therefore becomes an exhaustive search
// over occurrence states, with the §5.2 "simulation reduction" realized as
// arc-consistency pruning of the per-occurrence state domains before the
// search, strengthened by bitset forward checking during it: every
// per-arrow legal relation is a 64-bit mask of destination (resp. source)
// states per source (resp. destination) state, and each assignment
// intersects the live domains of its unassigned neighbours, failing as soon
// as one empties.
//
// The search parallelizes by splitting the variable order at a prefix depth
// k: every consistent assignment of the first k variables roots an
// independent subtree, and the subtrees run on a worker pool. Results merge
// in subtree discovery order, which is exactly the sequential visiting
// order, so the solution list — and, for untruncated runs, every statistic —
// is identical for every job count (see DESIGN.md §9).
//
// Two bounded-memory refinements ride on the subtree decomposition
// (DESIGN.md §10): a leaf whose observable placement projection (comm
// action per true-dependence arrow, coherence level per domain-relevant
// write occurrence) repeats one already emitted in the same subtree is
// skipped as a duplicate; and enumerate_stream feeds solutions to
// per-subtree consumers instead of materializing a global list, which is
// what the k-best ranking in solution.hpp builds on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "placement/flowgraph.hpp"

namespace meshpar::placement {

/// One consistent state mapping: state id per occurrence. The transition
/// chosen for an arrow is recovered through Engine::transition_for, which
/// honours the engine's per-arrow transition filtering; the raw automaton
/// may contain transitions (same-loop Updates, non-accumulator scalar
/// weakenings) that the search never allows.
struct Assignment {
  std::vector<int> state_of;
};

struct EngineOptions {
  /// Stop after this many solutions (0 = unlimited). enumerate_stream (and
  /// the k-best ranking built on it) reinterprets this as the per-consumer
  /// retention bound instead of a search cap.
  std::size_t max_solutions = 256;
  /// Run arc-consistency domain pruning before the search (§5.2-style
  /// reduction). Disable to measure the raw backtracking cost.
  bool prune_domains = true;
  /// Work budget: stop after this many assignment steps (0 = unlimited).
  /// Pathological programs degrade to a truncated-with-reason result
  /// instead of searching unbounded.
  long long max_assignments = 0;
  /// Worker threads for the enumeration (1 = sequential, <= 0 = all
  /// hardware threads). Any value yields the same solution list in the
  /// same order; untruncated runs also report identical statistics.
  int jobs = 1;
};

/// Why enumeration stopped before exhausting the search space.
enum class TruncationReason { kNone, kMaxSolutions, kMaxAssignments };
[[nodiscard]] const char* to_string(TruncationReason r);

struct EngineStats {
  long long assignments = 0;   // states tried
  long long backtracks = 0;    // dead ends
  std::size_t solutions = 0;
  bool truncated = false;      // stopped before exhausting the space
  TruncationReason reason = TruncationReason::kNone;
  std::size_t pruned_singletons = 0;  // occurrences fixed by pruning alone
  /// Leaves skipped because their observable projection repeats one
  /// already emitted in the same subtree (they would materialize to a
  /// placement already found). Deterministic across job counts for
  /// untruncated runs.
  long long dominance_pruned = 0;
  /// Peak number of simultaneously retained placements across all k-best
  /// consumers plus the shared accumulator (set by enumerate_k_best;
  /// 0 for plain enumeration). Bounded by (workers + 1) * k.
  std::size_t kept_peak = 0;
};

namespace detail {
/// Projection table for one true-dependence arrow whose legal transitions
/// carry more than one distinct communication action (the only arrows whose
/// chosen action can vary across solutions). Engine-internal; lives in
/// this header only because Engine holds a table of them.
struct ProjArrow {
  int src = -1;
  int dst = -1;
  /// Flat nstates x nstates action code per legal (s, d) pair (255 = no
  /// transition).
  std::vector<std::uint8_t> act_code;
};
}  // namespace detail

class Engine {
 public:
  Engine(const ProgramModel& model, const FlowGraph& fg);

  /// Enumerates all consistent assignments (up to options.max_solutions).
  /// Returns an empty vector when the program cannot be mapped onto the
  /// automaton at all.
  std::vector<Assignment> enumerate(const EngineOptions& options = {},
                                    EngineStats* stats = nullptr) const;

  /// Per-subtree consumer for the streaming enumeration. Created on the
  /// worker thread that owns the subtree; on_solution is called once per
  /// consistent assignment, in the canonical (sequential) order within the
  /// subtree. Return false to abandon the rest of the subtree.
  class SubtreeSink {
   public:
    virtual ~SubtreeSink() = default;
    virtual bool on_solution(const Assignment& a) = 0;
  };
  using SinkFactory =
      std::function<std::unique_ptr<SubtreeSink>(std::size_t subtree)>;
  /// Completion hook, called (possibly from a worker thread, in arbitrary
  /// subtree order) exactly once per created sink.
  using SinkDone =
      std::function<void(std::size_t subtree, std::unique_ptr<SubtreeSink>)>;

  /// Bounded-memory streaming enumeration: exhaustive modulo the budget
  /// (options.max_solutions is NOT a search cap here — bounding
  /// retention is the consumer's job). The subtree decomposition is a pure
  /// function of the pruned domains, never of `jobs`, so the sequence of
  /// (subtree, solution) events each consumer observes — and therefore any
  /// deterministic per-subtree reduction — is identical for every job
  /// count. stats->solutions counts raw accepted solutions.
  void enumerate_stream(const EngineOptions& options, EngineStats* stats,
                        const SinkFactory& make_sink,
                        const SinkDone& done) const;

  /// The per-occurrence state domains after arc-consistency pruning.
  /// An empty domain pinpoints why a program cannot be mapped; the engine
  /// tests inspect it. When `over_constrained` is non-null it is set to
  /// true iff some domain emptied (no mapping exists).
  [[nodiscard]] std::vector<std::vector<int>> pruned_domains(
      bool* over_constrained = nullptr) const;

  /// The automaton transition this assignment selects for an arrow, or
  /// nullptr when the assigned endpoint states admit none. Looks the pair
  /// up in the engine's *filtered* per-arrow transition table — a
  /// transition the search itself deemed unhostable (an Update with both
  /// endpoints inside one partitioned loop, a scalar weakening outside a
  /// reduction accumulator) is never reported, even if the raw automaton
  /// contains it.
  [[nodiscard]] const automaton::OverlapTransition* transition_for(
      const Assignment& assignment, const FlowArrow& a) const;

  /// The transitions the search allows on the arrow with this id: the
  /// filtered per-arrow table transition_for looks pairs up in, in
  /// automaton order.
  [[nodiscard]] const std::vector<const automaton::OverlapTransition*>&
  legal_transitions(int arrow) const {
    return legal_trans_[static_cast<std::size_t>(arrow)];
  }

  /// The observable placement projection of a full assignment: one byte
  /// per action-varying true-dependence arrow (the chosen comm action) and
  /// one per level-varying domain-relevant write occurrence (the chosen
  /// coherence level). Assignments with equal projections materialize to
  /// byte-identical placements, or both fail to materialize — this is the
  /// equivalence the search's duplicate filter quotients by (DESIGN.md §10).
  [[nodiscard]] std::string projection_of(const Assignment& a) const;

  [[nodiscard]] const ProgramModel& model() const { return model_; }
  [[nodiscard]] const FlowGraph& fg() const { return fg_; }

 private:
  struct StreamHooks;  // internal shared search driver (engine.cpp)
  void search_core(const EngineOptions& options, EngineStats& st,
                   bool first_k, const StreamHooks& hooks) const;

  const ProgramModel& model_;
  const FlowGraph& fg_;
  // Per-arrow transitions that survive the engine's hosting filters; the
  // single source of truth for both the search and transition_for.
  std::vector<std::vector<const automaton::OverlapTransition*>> legal_trans_;
  // Bitset form of the same relation: legal_bits_[arrow][s] is the mask of
  // destination states d with (s, d) legal; legal_rbits_[arrow][d] the mask
  // of source states s. State count is bounded by 64 (checked in the ctor).
  std::vector<std::vector<std::uint64_t>> legal_bits_;
  std::vector<std::vector<std::uint64_t>> legal_rbits_;
  // Initial domain per occurrence (states of matching entity, or the fixed
  // state), ordered coherent-first; this order defines the canonical
  // solution order.
  std::vector<std::vector<int>> domain_;

  // ---- observable-projection tables (duplicate filter, DESIGN.md §10) ---
  // Arrows / occurrences omitted here contribute a constant to every
  // solution's projection and never need checking.
  std::vector<detail::ProjArrow> proj_arrows_;
  std::vector<int> proj_occs_;          // level-varying write occurrences
  std::vector<std::uint8_t> level_of_;  // state id -> coherence level

  /// projection_of into a reused buffer: the one projection path, shared
  /// by the search's per-leaf duplicate filter.
  void project(const std::vector<int>& state_of, std::string& out) const;

  /// Arc-consistency fixpoint over `dom`. Returns false — without looping
  /// further — as soon as some domain empties.
  bool prune(std::vector<std::vector<int>>& dom) const;
};

}  // namespace meshpar::placement
