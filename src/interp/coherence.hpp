// The program-level coherence-state model shared by the dynamic staleness
// sanitizer (interp/spmd.cpp, MP-S001) and the static coherence analyzer
// (analysis/lint.hpp, MP-L0xx). Both tools reason about the same facts:
//
//   * which arrays are *tracked* (partitioned on mesh nodes/triangles — the
//     entities the 2-D runner decomposes);
//   * which statements (re)define a tracked array, and whether the store is
//     an elementwise write (x(i) = ...) or an assembly/scatter through an
//     indirection (x(s1) = x(s1) + ...);
//   * which partitioned loop encloses each such definition — entering that
//     loop starts a new *write generation* of the variable;
//   * which reads are exempt from the current-generation staleness check:
//     assembly accumulators read back their own partial sums, and
//     elementwise rewrites (x(i) = f(x(i))) legitimately read the previous
//     generation.
//
// Factoring this classification into one place is what makes the static
// pass a sound abstraction of the dynamic one: anything the analyzer calls
// provably stale must also trip MP-S001 under sanitized interpretation,
// because both derive the generation structure from the same tables.
//
// The tables are vectors: per-statement facts are indexed by Stmt::id and
// per-variable facts by the subroutine's symbol index (Expr::sym), both
// assigned by lang::number_statements, so the sanitizer's per-element
// queries compare no strings.
#pragma once

#include <optional>
#include <vector>

#include "placement/model.hpp"

namespace meshpar::interp {

/// How a read of a tracked array at a given statement is checked against
/// the variable's write-generation clock.
enum class ReadCheck {
  /// The value must be of the current generation.
  kNormal,
  /// Elementwise rewrite (x(i) = f(x(i)) inside the generation-starting
  /// loop): the previous generation is the legitimate operand.
  kPreviousGeneration,
  /// Assembly accumulator (x(s1) = x(s1) + ...): the partial sum read back
  /// is never checked — a stale partial is dead unless a later statement
  /// consumes it, and that read is checked instead.
  kSkipAccumulator,
};

class CoherenceModel {
 public:
  explicit CoherenceModel(const placement::ProgramModel& model);

  /// True for the entity kinds the model tracks (mesh nodes and triangles,
  /// the entities the 2-D runner decomposes).
  [[nodiscard]] static bool tracks(automaton::EntityKind entity) {
    return entity == automaton::EntityKind::kNode ||
           entity == automaton::EntityKind::kTriangle;
  }

  /// The entity kind of symbol `sym` if it is a tracked array, else nullopt.
  [[nodiscard]] std::optional<automaton::EntityKind> tracked(int sym) const {
    return static_cast<std::size_t>(sym) < tracked_.size()
               ? tracked_[static_cast<std::size_t>(sym)]
               : std::nullopt;
  }

  /// The symbol of the tracked array defined by this assignment, or -1.
  [[nodiscard]] int def_sym(const lang::Stmt& s) const {
    return def_sym_[static_cast<std::size_t>(s.id)];
  }

  /// True if the definition at `s` is an assembly/scatter store.
  [[nodiscard]] bool is_scatter(const lang::Stmt& s) const {
    return scatter_[static_cast<std::size_t>(s.id)] != 0;
  }

  /// The partitioned loop whose entry starts the write generation of the
  /// definition at `s`, or nullptr (a definition outside partitioned loops
  /// does not tick any clock).
  [[nodiscard]] const lang::Stmt* partitioned_loop(const lang::Stmt& s) const {
    return loop_of_[static_cast<std::size_t>(s.id)];
  }

  /// Symbols whose write-generation clock ticks when `loop` begins (once
  /// per entry, SPMD-symmetric across ranks); empty for other statements.
  [[nodiscard]] const std::vector<int>& ticks(const lang::Stmt& loop) const {
    return ticks_[static_cast<std::size_t>(loop.id)];
  }

  /// True if `s` is the first statement of its partitioned loop's body (in
  /// program order) that defines its tracked array — the store at which the
  /// abstract generation switch happens — or if `s` has no partitioned
  /// loop. Later same-loop stores extend the same generation instead of
  /// starting another one.
  [[nodiscard]] bool is_first_write(const lang::Stmt& s) const {
    return first_write_[static_cast<std::size_t>(s.id)] != 0;
  }

  /// How a read of symbol `sym` at statement `s` is checked.
  [[nodiscard]] ReadCheck read_check(const lang::Stmt& s, int sym) const;

  [[nodiscard]] automaton::PatternKind pattern() const { return pattern_; }
  /// The automaton's halo depth: the valid-depth value meaning "every
  /// overlap layer coherent".
  [[nodiscard]] int depth() const { return depth_; }

  /// Valid-depth value for "even kernel cells hold partial sums".
  static constexpr int kPartial = -1;

  /// Abstract counterpart of the per-cell store-completeness rule: the
  /// valid depth (number of coherent overlap layers, kPartial..depth())
  /// that a store at `s` establishes when its loop iterates
  /// `domain_layers` overlap layers. Elementwise stores complete every
  /// cell they visit; an entity-layer assembly over k triangle layers
  /// completes only nodes of layer <= k-1; a node-boundary assembly
  /// leaves every duplicated boundary node partial.
  [[nodiscard]] int write_valid_layers(const lang::Stmt& s,
                                       int domain_layers) const;

  /// Abstract counterpart of the per-cell read rule: the valid depth a
  /// read with access shape `shape` requires when its loop iterates
  /// `domain_layers` overlap layers. Under the node-boundary pattern every
  /// tracked node can be a duplicated boundary node, so reads require full
  /// coherence.
  [[nodiscard]] int read_required_layers(dfg::AccessShape shape,
                                         int domain_layers) const;

 private:
  automaton::PatternKind pattern_;
  int depth_ = 1;
  std::vector<std::optional<automaton::EntityKind>> tracked_;  // by symbol
  // By Stmt::id:
  std::vector<int> def_sym_;
  std::vector<char> scatter_;
  std::vector<const lang::Stmt*> loop_of_;
  std::vector<std::vector<int>> ticks_;
  std::vector<char> first_write_;
};

}  // namespace meshpar::interp
