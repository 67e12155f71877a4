// Abstract syntax tree for the mini-Fortran language accepted by the tool.
//
// The language is the target class of the paper (Hascoët, PPoPP'97 §2.1):
// FORTRAN-77-style subroutines with DO loops over mesh entities, indirection
// arrays, scalar reductions, labels and GOTOs for the outer iterative loop.
// It covers every construct appearing in the paper's Figures 5, 9 and 10.
//
// Nodes are tagged structs rather than a class hierarchy: the tree is small,
// traversals are explicit, and compilation stays fast.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/source_location.hpp"

namespace meshpar::lang {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kIntLit,    // 42
  kRealLit,   // 18.0
  kVarRef,    // nsom
  kArrayRef,  // old(s1), som(i,2)
  kUnary,     // -x, .not. c
  kBinary,    // a + b, a .lt. b
};

enum class BinOp {
  kAdd, kSub, kMul, kDiv, kPow,
  kLt, kLe, kGt, kGe, kEq, kNe,
  kAnd, kOr,
};

enum class UnOp { kNeg, kNot };

[[nodiscard]] const char* to_fortran(BinOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;
  SrcLoc loc;

  long long int_val = 0;    // kIntLit
  double real_val = 0.0;    // kRealLit
  std::string name;         // kVarRef / kArrayRef (always lower-case)
  /// kVarRef / kArrayRef: index of `name` in Subroutine::symbols, set by
  /// number_statements(); -1 until then.
  int sym = -1;
  BinOp bin = BinOp::kAdd;  // kBinary
  UnOp un = UnOp::kNeg;     // kUnary
  std::vector<ExprPtr> args;  // indices (kArrayRef) or operands (kUnary/kBinary)

  [[nodiscard]] ExprPtr clone() const;
};

// Factories. These are the programmatic construction API used by tests and
// by the synthetic-program generator.
ExprPtr int_lit(long long v, SrcLoc loc = {});
ExprPtr real_lit(double v, SrcLoc loc = {});
ExprPtr var(std::string name, SrcLoc loc = {});
ExprPtr aref(std::string name, std::vector<ExprPtr> indices, SrcLoc loc = {});
ExprPtr aref(std::string name, ExprPtr index, SrcLoc loc = {});
ExprPtr unary(UnOp op, ExprPtr operand, SrcLoc loc = {});
ExprPtr binary(BinOp op, ExprPtr lhs, ExprPtr rhs, SrcLoc loc = {});

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  kAssign,    // lhs = rhs
  kDo,        // do v = lo, hi [, step] ... end do
  kIf,        // if (c) <stmt>  |  if (c) then ... [else ...] end if
  kGoto,      // goto 100
  kContinue,  // continue (label anchor)
  kCall,      // call foo(a, b)
  kReturn,    // return
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  StmtKind kind;
  SrcLoc loc;
  int label = 0;  // numeric statement label, 0 = none
  int id = -1;    // unique pre-order id, assigned by number_statements()

  // kAssign
  ExprPtr lhs;  // kVarRef or kArrayRef
  ExprPtr rhs;

  // kDo
  std::string do_var;
  int do_sym = -1;  // do_var's index in Subroutine::symbols (see Expr::sym)
  ExprPtr do_lo, do_hi, do_step;  // do_step may be null (defaults to 1)
  std::vector<StmtPtr> body;

  // kIf
  ExprPtr cond;
  std::vector<StmtPtr> then_body;
  std::vector<StmtPtr> else_body;

  // kGoto
  int target = 0;

  // kCall
  std::string callee;
  std::vector<ExprPtr> call_args;

  [[nodiscard]] StmtPtr clone() const;
};

StmtPtr assign(ExprPtr lhs, ExprPtr rhs, SrcLoc loc = {});
StmtPtr do_loop(std::string var, ExprPtr lo, ExprPtr hi,
                std::vector<StmtPtr> body, SrcLoc loc = {});
StmtPtr if_stmt(ExprPtr cond, std::vector<StmtPtr> then_body,
                std::vector<StmtPtr> else_body = {}, SrcLoc loc = {});
StmtPtr goto_stmt(int target, SrcLoc loc = {});
StmtPtr continue_stmt(int label, SrcLoc loc = {});
StmtPtr call_stmt(std::string callee, std::vector<ExprPtr> args,
                  SrcLoc loc = {});
StmtPtr return_stmt(SrcLoc loc = {});

// ---------------------------------------------------------------------------
// Declarations, subroutines, programs
// ---------------------------------------------------------------------------

enum class Type { kInteger, kReal };

struct VarDecl {
  std::string name;        // lower-case
  Type type = Type::kReal;
  std::vector<long long> dims;  // empty for scalars
  SrcLoc loc;

  [[nodiscard]] bool is_array() const { return !dims.empty(); }
};

struct Subroutine {
  std::string name;
  std::vector<std::string> params;  // lower-case, in order
  std::vector<VarDecl> decls;
  std::vector<StmtPtr> body;
  /// Every variable name of the subroutine, once: params, then decls, then
  /// the remaining names in order of first mention (statement pre-order).
  /// Filled by number_statements(); Expr::sym and Stmt::do_sym index it,
  /// so per-variable state can live in vectors instead of name-keyed maps.
  std::vector<std::string> symbols;
  /// The symbols sorted by name, and per symbol its name rank (its position
  /// there); both filled by number_statements(). Passes whose output is
  /// pinned in name order walk `by_name` or sort symbols by `name_rank`.
  std::vector<int> by_name;
  std::vector<int> name_rank;

  [[nodiscard]] const VarDecl* find_decl(std::string_view var) const;
  [[nodiscard]] bool is_param(std::string_view var) const;
  /// Index of `var` in `symbols`, or -1 (linear: keep it off per-element
  /// paths).
  [[nodiscard]] int symbol(std::string_view var) const;
};

struct Program {
  std::vector<Subroutine> subs;

  [[nodiscard]] const Subroutine* find(std::string_view name) const;
};

// ---------------------------------------------------------------------------
// Tree utilities
// ---------------------------------------------------------------------------

/// Assigns pre-order ids to every statement, resolves every variable name
/// (fills Subroutine::symbols, by_name, name_rank, Expr::sym and
/// Stmt::do_sym) and returns the statements in pre-order. The returned
/// pointers, ids and symbol indices stay valid while the subroutine is
/// alive and un-mutated.
std::vector<Stmt*> number_statements(Subroutine& sub);
std::vector<const Stmt*> collect_statements(const Subroutine& sub);

/// Calls `fn` on every expression in the tree rooted at `e`, parents first.
void visit_exprs(const Expr& e, const std::function<void(const Expr&)>& fn);

/// Calls `fn` on every statement in the body, outer-first.
void visit_stmts(const std::vector<StmtPtr>& body,
                 const std::function<void(const Stmt&)>& fn);

/// The symbols of every variable read by this expression, in pre-order.
/// Array names count as read; index expressions are visited too.
void collect_reads(const Expr& e, std::vector<int>& out);

/// Structural equality of expression trees (same kind, operator, names,
/// literal values, and operands).
[[nodiscard]] bool expr_equal(const Expr& a, const Expr& b);

/// True if the expression (transitively) reads variable `var`.
[[nodiscard]] bool expr_reads(const Expr& e, std::string_view var);

}  // namespace meshpar::lang
