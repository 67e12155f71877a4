// The partition specification: the user input of §3.1. The user chooses an
// overlapping pattern and designates the partitioned loops and variables,
// "through a small data file, as it is done now".
//
// File format (one directive per line, '#' starts a comment):
//
//   pattern overlap-triangle-layer
//   loopvar i over nsom partition nodes
//   loopvar i over ntri partition triangles
//   array old nodes
//   input init coherent
//   input nsom replicated
//   output result coherent
//
// "loopvar V over B partition E" declares that every loop "do V = 1,B" is
// partitioned over mesh entity E. "array A E" declares A partitioned on E;
// scalars are simply not declared. "input X coherent|replicated|incoherent"
// gives the initial overlap state of an input; "output X ..." the required
// final state.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "automaton/automaton.hpp"
#include "lang/ast.hpp"
#include "support/diagnostics.hpp"

namespace meshpar::placement {

struct LoopRule {
  std::string var;    // loop variable name
  std::string bound;  // upper-bound variable name
  automaton::EntityKind entity = automaton::EntityKind::kNode;
};

struct PartitionSpec {
  std::string pattern_name;
  std::vector<LoopRule> loop_rules;
  /// Partitioned arrays and their entity kinds. Arrays not listed are
  /// replicated (treated as scalar-like whole objects). ProgramModel
  /// resolves these names to symbols (ProgramModel::entity_of).
  std::map<std::string, automaton::EntityKind> arrays;
  /// Initial coherence level of each input (0 = coherent / replicated).
  std::map<std::string, int> inputs;
  /// Required final coherence level of each output.
  std::map<std::string, int> outputs;

  /// The rule partitioning this DO statement, or nullptr. Matches on the
  /// loop variable and on the upper bound being exactly the declared bound
  /// variable.
  [[nodiscard]] const LoopRule* rule_for(const lang::Stmt& do_stmt) const;
};

/// Parses the specification format above. Unknown directives and malformed
/// lines are reported through `diags`.
PartitionSpec parse_spec(std::string_view text, DiagnosticEngine& diags);

/// Parses the entity names accepted in spec files: nodes, edges, triangles,
/// tetrahedra (and singular forms).
std::optional<automaton::EntityKind> parse_entity(const std::string& word);

}  // namespace meshpar::placement
