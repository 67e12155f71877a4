// Classical dependence-removal detection (§3.2 of the paper): "induction
// variable detection, variable localization, or reduction operation
// detection may help removing some dependences. We shall use these methods
// to remove forbidden dependences."
//
// Four patterns are recognized:
//   * localizable scalars   — temporaries written before read in every
//                             iteration of a DO loop and dead after it
//                             (s1, s2, s3, vm, diff in TESTT);
//   * scalar reductions     — v = v (+|*) expr, accumulating across the
//                             iterations of a loop (sqrdiff);
//   * array assemblies      — a(idx) = a(idx) (+|*) expr with syntactically
//                             identical index, the gather-scatter assembly
//                             (NEW(s1) = NEW(s1) + ...);
//   * induction variables   — v = v + loop-invariant, a linear function of
//                             the iteration count.
#pragma once

#include <set>
#include <utility>
#include <vector>

#include "dfg/cfg.hpp"
#include "dfg/defuse.hpp"
#include "dfg/reaching.hpp"
#include "lang/ast.hpp"

namespace meshpar::dfg {

// Every record's `var` is the symbol (Subroutine::symbols) of its variable.
struct Reduction {
  const lang::Stmt* stmt = nullptr;  // the accumulating assignment
  int var = -1;
  lang::BinOp op = lang::BinOp::kAdd;
  const lang::Stmt* loop = nullptr;  // innermost enclosing DO
};

struct Assembly {
  const lang::Stmt* stmt = nullptr;
  int var = -1;
  lang::BinOp op = lang::BinOp::kAdd;
  const lang::Stmt* loop = nullptr;
};

struct Induction {
  const lang::Stmt* stmt = nullptr;
  int var = -1;
  const lang::Stmt* loop = nullptr;
};

class Patterns {
 public:
  static Patterns detect(const lang::Subroutine& sub, const Cfg& cfg,
                         const std::vector<StmtDefUse>& defuse);

  [[nodiscard]] const std::vector<Reduction>& reductions() const {
    return reductions_;
  }
  [[nodiscard]] const std::vector<Assembly>& assemblies() const {
    return assemblies_;
  }
  [[nodiscard]] const std::vector<Induction>& inductions() const {
    return inductions_;
  }

  /// True if symbol `var` can be privatized in `loop`.
  [[nodiscard]] bool is_localizable(const lang::Stmt& loop, int var) const;

  /// The reduction recognized at this statement, if any.
  [[nodiscard]] const Reduction* reduction_at(const lang::Stmt& s) const;
  /// The assembly recognized at this statement, if any.
  [[nodiscard]] const Assembly* assembly_at(const lang::Stmt& s) const;

  /// True if symbol `var` is a recognized reduction accumulator in the
  /// given loop.
  [[nodiscard]] bool is_reduction_var(const lang::Stmt& loop, int var) const;

 private:
  std::vector<Reduction> reductions_;
  std::vector<Assembly> assemblies_;
  std::vector<Induction> inductions_;
  std::set<std::pair<const lang::Stmt*, int>> localizable_;  // (loop, var)
};

}  // namespace meshpar::dfg
