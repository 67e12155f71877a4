// The data-flow graph the placement engine propagates over (§3.3–3.4).
//
// Nodes ("occurrences") carry flowing data:
//   * input      — the incoming value of a subroutine parameter,
//   * write      — the value defined by a statement (assignment lhs or DO
//                  variable),
//   * read       — the value of a variable as consumed by one statement,
//   * predicate  — the branch decision of an IF statement,
//   * output     — the final value of a result parameter.
//
// Arrows:
//   * true    — write/input -> read/output of the same variable, one per
//               reaching definition. These are where the engine may choose
//               identity, weakening, or an Update (communication).
//   * value   — read -> write/predicate inside one statement, classified as
//               identity / gather / scatter / accumulate / reduction /
//               broadcast from the access shapes and recognized patterns.
//   * control — predicate/header -> controlled statements' occurrences.
//
// Each occurrence has a fixed *shape* (entity kind); its automaton state is
// what the engine searches for. Splitting reads from writes is what lets a
// single automaton transition (e.g. the Update Nod1 -> Nod0) sit on exactly
// one dependence arrow, as the paper requires.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "placement/model.hpp"

namespace meshpar::placement {

enum class OccKind { kInput, kWrite, kRead, kPredicate, kOutput };

struct Occurrence {
  int id = -1;
  OccKind kind = OccKind::kWrite;
  const lang::Stmt* stmt = nullptr;  // null for input/output
  int var = -1;                      // symbol; -1 for predicates
  automaton::EntityKind shape = automaton::EntityKind::kScalar;
  /// Fixed automaton state (inputs, outputs, partitioned DO variables).
  std::optional<int> fixed_state;

  /// "read x @3:7", naming the variable from `sub`'s symbols.
  [[nodiscard]] std::string describe(const lang::Subroutine& sub) const;
};

struct FlowArrow {
  int id = -1;
  int src = -1;
  int dst = -1;
  automaton::ArrowKind kind = automaton::ArrowKind::kTrue;
  automaton::ValueClass vclass = automaton::ValueClass::kIdentity;
  int var = -1;  // symbol of the carried variable; -1 for control arrows
  /// True arrows feeding the self-read of a reduction accumulator. Only
  /// here may a replicated scalar legally "weaken" to the per-processor
  /// partial state Sca1: a replicated value is a valid partial only as a
  /// reduction's (identity) start value. Everywhere else, reducing a
  /// replicated scalar would multiply it by the processor count.
  bool into_accumulator = false;
};

class FlowGraph {
 public:
  /// Builds the occurrence graph. Requires a model that already passed the
  /// applicability check; inconsistencies found here (e.g. an input without
  /// a declared state) are reported via `diags`.
  static FlowGraph build(const ProgramModel& model, DiagnosticEngine& diags);

  [[nodiscard]] const std::vector<Occurrence>& occs() const { return occs_; }
  [[nodiscard]] const std::vector<FlowArrow>& arrows() const {
    return arrows_;
  }
  [[nodiscard]] const Occurrence& occ(int id) const { return occs_[id]; }
  [[nodiscard]] const std::vector<int>& out_arrows(int occ) const {
    return out_[occ];
  }
  [[nodiscard]] const std::vector<int>& in_arrows(int occ) const {
    return in_[occ];
  }

  /// The write occurrence of a statement, -1 if none.
  [[nodiscard]] int write_occ(const lang::Stmt& s) const;
  /// The read occurrence of (statement, symbol), -1 if none.
  [[nodiscard]] int read_occ(const lang::Stmt& s, int var) const;
  /// The input/output occurrence of a symbol, -1 if none.
  [[nodiscard]] int input_occ(int var) const;
  [[nodiscard]] int output_occ(int var) const;

 private:
  std::vector<Occurrence> occs_;
  std::vector<FlowArrow> arrows_;
  std::vector<std::vector<int>> out_;
  std::vector<std::vector<int>> in_;

  int add_occ(Occurrence o);
  void add_arrow(FlowArrow a);
  friend class FlowGraphBuilder;
};

}  // namespace meshpar::placement
