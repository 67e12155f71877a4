// Kill-aware path queries inside a single DO loop, shared by the dependence
// classifier and the pattern detectors.
#pragma once

#include <vector>

#include "dfg/cfg.hpp"
#include "dfg/defuse.hpp"

namespace meshpar::dfg {

/// Is there a CFG path `from` -> `to` whose nodes (after `from`) all lie
/// inside `loop` (header included) and none of which strongly (scalar)
/// redefines symbol `var` before reaching `to`?
bool path_inside_loop(const Cfg& cfg, const std::vector<StmtDefUse>& defuse,
                      NodeId from, NodeId to, const lang::Stmt& loop, int var);

/// The access of symbol `var` in the list, preferring an elementwise one.
const VarAccess* find_access(const std::vector<VarAccess>& accesses, int var);

}  // namespace meshpar::dfg
