// Per-statement definition/use extraction, with the access-shape
// classification the placement engine needs: whether an array is accessed
// elementwise through an enclosing DO variable (old(i)) or through an
// indirection scalar (old(s1), som(i,2) feeding s1), which is the
// gather-scatter signature of the paper's program class.
#pragma once

#include <optional>
#include <vector>

#include "dfg/cfg.hpp"
#include "lang/ast.hpp"

namespace meshpar::dfg {

enum class AccessShape {
  kScalar,       // plain scalar variable
  kElementwise,  // a(i) / a(i,const) where i is an enclosing DO variable
  kIndirect,     // a(s1), a(f(i)) — indexed through computed values
  kWhole,        // array passed or used as a whole (call argument)
};

struct VarAccess {
  /// The accessed variable, as an index into Subroutine::symbols.
  int var = -1;
  AccessShape shape = AccessShape::kScalar;
  /// For kElementwise: the DO statement whose variable indexes the access.
  const lang::Stmt* index_loop = nullptr;
  /// For kElementwise: constant shift of the index (a(i+1) has offset +1).
  /// Shifted accesses give dependences a computable direction, which is
  /// what makes the paper's case d (acyclic carried true dependence)
  /// distinguishable from a recurrence.
  long long offset = 0;
  /// Symbols read inside the index expressions (the indirection scalars).
  std::vector<int> index_reads;
  SrcLoc loc;
};

struct StmtDefUse {
  const lang::Stmt* stmt = nullptr;
  /// The variable defined by the statement (assignment lhs or DO variable),
  /// if any. An IF has no def; its condition reads become `uses`.
  std::optional<VarAccess> def;
  std::vector<VarAccess> uses;

  /// True if the def is a "strong" definition that kills previous reaching
  /// definitions of the same variable (scalar assignments and DO variables).
  [[nodiscard]] bool kills() const {
    return def && def->shape == AccessShape::kScalar;
  }
};

/// Extracts def/use information for every statement of `sub` (indexed by
/// Stmt::id). `cfg` supplies the loop nesting used to classify accesses.
std::vector<StmtDefUse> analyze_defuse(const lang::Subroutine& sub,
                                       const Cfg& cfg);

[[nodiscard]] const char* to_string(AccessShape s);

}  // namespace meshpar::dfg
