// The dependence graph: the five dependence kinds of the paper's Figure 4
// (true, anti, output, control, value), with loop-carried classification for
// every DO loop that encloses both endpoints.
//
// "Value" dependences (operand -> operation inside one instruction) are not
// materialized as edges: statements are the dependence units here, so a
// value dependence is the implicit combination of a statement's incoming
// true dependences. The placement engine accounts for this by requiring all
// incoming transitions of a statement to agree on its state.
#pragma once

#include <vector>

#include "dfg/cfg.hpp"
#include "dfg/defuse.hpp"
#include "dfg/reaching.hpp"

namespace meshpar::dfg {

enum class DepKind { kTrue, kAnti, kOutput, kControl };

struct Dependence {
  DepKind kind = DepKind::kTrue;
  /// Source statement (the earlier access). nullptr when the source is the
  /// subroutine entry (a parameter's incoming value).
  const lang::Stmt* src = nullptr;
  /// Destination statement. nullptr when the destination is the subroutine
  /// exit (a result flowing out).
  const lang::Stmt* dst = nullptr;
  /// The symbol of the variable carrying the dependence (-1 for control).
  int var = -1;
  /// DO loops that carry this dependence across their iterations.
  std::vector<const lang::Stmt*> carried_by;

  [[nodiscard]] bool is_carried() const { return !carried_by.empty(); }
};

class DepGraph {
 public:
  static DepGraph build(const lang::Subroutine& sub, const Cfg& cfg,
                        const std::vector<StmtDefUse>& defuse);

  [[nodiscard]] const std::vector<Dependence>& all() const { return deps_; }

  /// Dependences carried by the given DO loop.
  [[nodiscard]] std::vector<const Dependence*> carried_by(
      const lang::Stmt& loop) const;

 private:
  std::vector<Dependence> deps_;
};

[[nodiscard]] const char* to_string(DepKind k);

}  // namespace meshpar::dfg
