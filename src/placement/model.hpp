// ProgramModel bundles everything the tool knows about one subroutine: the
// AST, the control-flow graph, def/use and dependence information, the
// recognized removal patterns, the user's partition specification, and the
// overlap automaton selected by that specification.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "automaton/automaton.hpp"
#include "dfg/cfg.hpp"
#include "dfg/defuse.hpp"
#include "dfg/depgraph.hpp"
#include "dfg/patterns.hpp"
#include "dfg/reaching.hpp"
#include "lang/ast.hpp"
#include "placement/spec.hpp"

namespace meshpar::placement {

/// A spec input or output, resolved to the symbol it names.
struct SpecVar {
  int sym = -1;
  int level = 0;  // the declared coherence level
};

class ProgramModel {
 public:
  /// Parses and analyzes. Returns nullptr if the source, the spec, or the
  /// pattern name is invalid, or if the spec names a variable the
  /// subroutine never mentions (details in `diags`). Spec names are
  /// resolved to symbols here, once; everything below reads the symbols.
  static std::unique_ptr<ProgramModel> build(std::string_view source,
                                             std::string_view spec_text,
                                             DiagnosticEngine& diags);

  const lang::Subroutine& sub() const { return sub_; }
  const dfg::Cfg& cfg() const { return cfg_; }
  const std::vector<dfg::StmtDefUse>& defuse() const { return defuse_; }
  const dfg::StmtDefUse& defuse(const lang::Stmt& s) const {
    return defuse_[s.id];
  }
  const dfg::DepGraph& deps() const { return deps_; }
  const dfg::ReachingDefs& reaching() const { return reaching_; }
  const dfg::Patterns& patterns() const { return patterns_; }
  const automaton::OverlapAutomaton& autom() const { return autom_; }

  /// The rule partitioning this DO loop, or nullptr.
  [[nodiscard]] const LoopRule* partition_rule(const lang::Stmt& loop) const;
  [[nodiscard]] bool is_partitioned(const lang::Stmt& loop) const {
    return partition_rule(loop) != nullptr;
  }

  /// Innermost partitioned DO loop enclosing `s`, or nullptr.
  [[nodiscard]] const lang::Stmt* enclosing_partitioned(
      const lang::Stmt& s) const;

  /// The entity a spec `array` line partitions symbol `sym` on, or nullopt
  /// for scalars, replicated arrays and -1 (no symbol).
  [[nodiscard]] std::optional<automaton::EntityKind> entity_of(int sym) const {
    return static_cast<std::size_t>(sym) < entity_.size()
               ? entity_[static_cast<std::size_t>(sym)]
               : std::nullopt;
  }
  /// The spec's `input` / `output` lines, in variable-name order.
  [[nodiscard]] const std::vector<SpecVar>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<SpecVar>& outputs() const {
    return outputs_;
  }

  /// The shape (entity kind) of symbol `var` at statement `s`:
  /// partitioned arrays have their declared entity; scalars localized in the
  /// enclosing partitioned loop take the loop's entity; everything else is
  /// scalar. The DO variable of a partitioned loop is shaped like the loop.
  [[nodiscard]] automaton::EntityKind shape_at(int var,
                                               const lang::Stmt& s) const;

  /// All partitioned DO loops of the program, in pre-order.
  [[nodiscard]] const std::vector<const lang::Stmt*>& partitioned_loops()
      const {
    return partitioned_loops_;
  }

 private:
  ProgramModel() = default;

  lang::Subroutine sub_;
  dfg::Cfg cfg_;
  std::vector<dfg::StmtDefUse> defuse_;
  dfg::DepGraph deps_;
  dfg::ReachingDefs reaching_;
  dfg::Patterns patterns_;
  PartitionSpec spec_;
  automaton::OverlapAutomaton autom_{"", automaton::PatternKind::kEntityLayer};
  std::vector<std::optional<automaton::EntityKind>> entity_;  // by symbol
  std::vector<SpecVar> inputs_;
  std::vector<SpecVar> outputs_;
  std::map<const lang::Stmt*, const LoopRule*> rules_;
  std::vector<const lang::Stmt*> partitioned_loops_;
};

}  // namespace meshpar::placement
