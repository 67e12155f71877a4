// A reference interpreter for the mini-Fortran language.
//
// This is what turns the tool from a source-to-source annotator into a
// closed loop: the SEQUENTIAL interpreter executes the original program
// (the paper's users ran the original Fortran through their compiler), and
// the SPMD interpreter (spmd.hpp) executes a *generated placement* — local
// arrays, restricted iteration domains, communication calls at the
// C$SYNCHRONIZE points — so every solution the engine enumerates can be
// validated against the sequential semantics.
//
// Supported: REAL/INTEGER scalars and arrays (1-D and 2-D, Fortran
// column-major, 1-based), DO loops, logical IF / block IF, GOTO, CALL is
// rejected, expressions as in the parser. Values are doubles; integers are
// exact up to 2^53, far beyond any mesh size here.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "support/diagnostics.hpp"

namespace meshpar::interp {

/// A variable binding: scalar or array storage. Arrays are flat,
/// column-major, sized from the declaration (or from the binding when the
/// declaration is larger — the paper's programs over-declare, e.g.
/// "real old(1000)" used up to nsom).
struct Binding {
  bool is_array = false;
  double scalar = 0.0;
  std::vector<double> array;
  std::vector<long long> dims;  // declared/overridden dimensions
};

class Frame {
 public:
  void set_scalar(const std::string& name, double v);
  void set_array(const std::string& name, std::vector<double> values,
                 std::vector<long long> dims);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] double scalar(const std::string& name) const;
  [[nodiscard]] const std::vector<double>& array(
      const std::string& name) const;

  std::map<std::string, Binding> vars;
};

struct ExecOptions {
  /// Hard cap on executed statements, guarding against runaway GOTO loops.
  long long max_steps = 100'000'000;
};

/// Hooks let the SPMD interpreter intercept execution; the sequential
/// interpreter uses the defaults. The element hooks run once per array
/// access, so they receive the resolved reference (Expr::sym names the
/// variable without a string compare) and its binding rather than a name
/// to look up.
class ExecHooks {
 public:
  virtual ~ExecHooks() = default;
  /// Called before each statement executes (synchronization points).
  virtual void before_statement(const lang::Stmt&, Frame&) {}
  /// Called at subroutine exit (end-of-program synchronizations).
  virtual void at_exit(Frame&) {}
  /// Called after an array element is read (`idx` is the flat column-major
  /// index into `b.array`). `stmt` is the innermost statement whose
  /// evaluation reads it; `ref` is the array reference.
  virtual void on_array_read(const lang::Stmt& /*stmt*/,
                             const lang::Expr& /*ref*/, long long /*idx*/,
                             const Binding& /*b*/) {}
  /// Called after an array element is stored (`ref` is the assignment's
  /// left-hand side).
  virtual void on_array_write(const lang::Stmt& /*stmt*/,
                              const lang::Expr& /*ref*/, long long /*idx*/,
                              const Binding& /*b*/) {}
  /// Override a DO loop's trip range. Return false to keep 1..hi as
  /// evaluated. `hi` is in/out.
  virtual bool override_loop_bound(const lang::Stmt&, long long* /*hi*/) {
    return false;
  }
};

/// Executes the subroutine body against the frame. Parameters and locals
/// must already be bound (locals may be bound lazily: unbound scalars
/// default to 0, unbound arrays are allocated from their declaration).
/// Variables are reached through the subroutine's resolved symbols
/// (lang::number_statements, which the parser already runs): each symbol's
/// binding is looked up by name once, on first use, and cached by index.
/// Reports runtime errors (bad subscript, missing declaration, CALL,
/// unresolved GOTO) through `diags`; returns false on error.
bool execute(const lang::Subroutine& sub, Frame& frame,
             DiagnosticEngine& diags, const ExecOptions& options = {},
             ExecHooks* hooks = nullptr);

}  // namespace meshpar::interp
