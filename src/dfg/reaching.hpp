// Reaching-definitions dataflow over the CFG.
//
// Definition sites are assignment statements, DO headers (the loop
// variable), and one synthetic "entry definition" per subroutine parameter.
// Scalar definitions kill; array element stores are may-definitions and kill
// nothing — the conservative treatment that is exact enough for the paper's
// program class, where arrays are rebuilt wholesale each time step.
#pragma once

#include <vector>

#include "dfg/cfg.hpp"
#include "dfg/defuse.hpp"

namespace meshpar::dfg {

struct Definition {
  int id = -1;
  int var = -1;  // the defined variable's symbol (Subroutine::symbols)
  /// Defining statement, or nullptr for the synthetic entry definition of a
  /// parameter.
  const lang::Stmt* stmt = nullptr;
  /// False for scalar (killing) definitions, true for array may-defs.
  bool may = false;

  [[nodiscard]] bool is_entry() const { return stmt == nullptr; }
};

class ReachingDefs {
 public:
  static ReachingDefs solve(const lang::Subroutine& sub, const Cfg& cfg,
                            const std::vector<StmtDefUse>& defuse);

  [[nodiscard]] const std::vector<Definition>& definitions() const {
    return defs_;
  }

  /// Definition ids reaching the *start* of CFG node `n`.
  [[nodiscard]] const std::vector<int>& in(NodeId n) const { return in_[n]; }

  /// Definition ids of symbol `var` reaching the start of statement `s`.
  [[nodiscard]] std::vector<int> reaching(const lang::Stmt& s, int var) const {
    return reaching_at(cfg_->node_of(s), var);
  }

  /// Definition ids of symbol `var` reaching subroutine exit.
  [[nodiscard]] std::vector<int> reaching_exit(int var) const {
    return reaching_at(kExit, var);
  }

  /// All definition ids of symbol `var`.
  [[nodiscard]] std::vector<int> defs_of(int var) const;

  /// The definition made by statement `s`, or -1.
  [[nodiscard]] int def_at(const lang::Stmt& s) const;

  /// The synthetic entry definition of parameter symbol `var`, or -1.
  [[nodiscard]] int entry_def(int var) const;

 private:
  std::vector<Definition> defs_;
  std::vector<std::vector<int>> in_;  // sorted def ids per node
  std::vector<int> def_at_stmt_;      // stmt id -> def id or -1
  const Cfg* cfg_ = nullptr;

  [[nodiscard]] std::vector<int> reaching_at(NodeId n, int var) const;
};

}  // namespace meshpar::dfg
