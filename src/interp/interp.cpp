#include "interp/interp.hpp"

#include <cmath>

namespace meshpar::interp {

using lang::BinOp;
using lang::Expr;
using lang::ExprKind;
using lang::Stmt;
using lang::StmtKind;
using lang::UnOp;

void Frame::set_scalar(const std::string& name, double v) {
  Binding& b = vars[name];
  b.is_array = false;
  b.scalar = v;
}

void Frame::set_array(const std::string& name, std::vector<double> values,
                      std::vector<long long> dims) {
  Binding& b = vars[name];
  b.is_array = true;
  b.array = std::move(values);
  b.dims = std::move(dims);
}

bool Frame::has(const std::string& name) const { return vars.count(name) > 0; }

double Frame::scalar(const std::string& name) const {
  auto it = vars.find(name);
  return it == vars.end() ? 0.0 : it->second.scalar;
}

const std::vector<double>& Frame::array(const std::string& name) const {
  static const std::vector<double> kEmpty;
  auto it = vars.find(name);
  return it == vars.end() || !it->second.is_array ? kEmpty
                                                  : it->second.array;
}

namespace {

/// Exception-free error signalling: the machine stops at the first runtime
/// error and reports through diags.
class Machine {
 public:
  Machine(const lang::Subroutine& sub, Frame& frame, DiagnosticEngine& diags,
          const ExecOptions& options, ExecHooks* hooks)
      : sub_(sub), frame_(frame), diags_(diags), options_(options),
        hooks_(hooks), slots_(sub.symbols.size(), nullptr) {}

  bool run() {
    Flow f = run_list(sub_.body);
    if (f.kind == FlowKind::kGoto && ok_) {
      error({}, "goto " + std::to_string(f.label) +
                    " could not be resolved in any enclosing scope");
    }
    if (ok_ && hooks_) hooks_->at_exit(frame_);
    return ok_;
  }

 private:
  const lang::Subroutine& sub_;
  Frame& frame_;
  DiagnosticEngine& diags_;
  const ExecOptions& options_;
  ExecHooks* hooks_;
  // Binding of each symbol, filled on first use. Frame::vars is a std::map,
  // whose nodes never move, so the cached pointers stay valid.
  std::vector<Binding*> slots_;
  bool ok_ = true;
  long long steps_ = 0;
  const Stmt* cur_ = nullptr;  // statement whose evaluation is in progress

  enum class FlowKind { kNormal, kGoto, kReturn, kError };
  struct Flow {
    FlowKind kind = FlowKind::kNormal;
    int label = 0;
  };

  void error(SrcLoc loc, std::string msg) {
    if (ok_) diags_.error(loc, std::move(msg));
    ok_ = false;
  }

  /// Like error(), but with a stable machine-readable finding code.
  void coded_error(SrcLoc loc, std::string code, std::string msg) {
    if (ok_)
      diags_.report(Severity::kError, SrcRange{loc}, std::move(code),
                    std::move(msg));
    ok_ = false;
  }

  Binding& materialize(const std::string& name, SrcLoc /*loc*/) {
    auto it = frame_.vars.find(name);
    if (it != frame_.vars.end()) return it->second;
    Binding b;
    const lang::VarDecl* d = sub_.find_decl(name);
    if (d && d->is_array()) {
      b.is_array = true;
      long long total = 1;
      for (long long dim : d->dims) total *= dim;
      b.array.assign(static_cast<std::size_t>(total), 0.0);
      b.dims = d->dims;
    } else {
      if (!d && !sub_.is_param(name)) {
        // Implicit scalar (loop variables etc.) — allowed.
      }
      b.is_array = false;
      b.scalar = 0.0;
    }
    return frame_.vars.emplace(name, std::move(b)).first->second;
  }

  /// The binding of symbol `sym` (named `name`); an unresolved reference
  /// (sym < 0) falls back to the by-name lookup.
  Binding& binding(const std::string& name, int sym, SrcLoc loc) {
    if (static_cast<std::size_t>(sym) >= slots_.size())
      return materialize(name, loc);
    Binding*& slot = slots_[static_cast<std::size_t>(sym)];
    if (!slot) slot = &materialize(name, loc);
    return *slot;
  }

  /// Column-major flat index, 1-based subscripts; -1 on error.
  long long flat_index(const Binding& b, const Expr& ref) {
    if (ref.args.size() != b.dims.size() && b.dims.size() != 0) {
      // Allow 1-D access into 1-D arrays only; dimension mismatch is an
      // error for multi-D.
      if (!(b.dims.empty() && ref.args.size() == 1)) {
        error(ref.loc, "array '" + ref.name + "' accessed with " +
                           std::to_string(ref.args.size()) +
                           " subscripts, declared with " +
                           std::to_string(b.dims.size()));
        return -1;
      }
    }
    long long idx = 0, stride = 1;
    for (std::size_t k = 0; k < ref.args.size(); ++k) {
      double sv = eval(*ref.args[k]);
      if (!ok_) return -1;
      long long s = static_cast<long long>(std::llround(sv));
      long long dim = k < b.dims.size()
                          ? b.dims[k]
                          : static_cast<long long>(b.array.size());
      if (s < 1 || (k + 1 < ref.args.size() && s > dim)) {
        error(ref.loc, "subscript " + std::to_string(s) + " of '" +
                           ref.name + "' out of declared bound " +
                           std::to_string(dim));
        return -1;
      }
      idx += (s - 1) * stride;
      stride *= dim;
    }
    if (idx < 0 || idx >= static_cast<long long>(b.array.size())) {
      error(ref.loc, "element " + std::to_string(idx + 1) + " of '" +
                         ref.name + "' outside allocated storage (" +
                         std::to_string(b.array.size()) + ")");
      return -1;
    }
    return idx;
  }

  double eval(const Expr& e) {
    if (!ok_) return 0.0;
    switch (e.kind) {
      case ExprKind::kIntLit:
        return static_cast<double>(e.int_val);
      case ExprKind::kRealLit:
        return e.real_val;
      case ExprKind::kVarRef: {
        Binding& b = binding(e.name, e.sym, e.loc);
        if (b.is_array) {
          error(e.loc, "array '" + e.name + "' used without subscripts");
          return 0.0;
        }
        return b.scalar;
      }
      case ExprKind::kArrayRef: {
        Binding& b = binding(e.name, e.sym, e.loc);
        if (!b.is_array) {
          error(e.loc, "scalar '" + e.name + "' used with subscripts");
          return 0.0;
        }
        long long idx = flat_index(b, e);
        if (idx < 0) return 0.0;
        if (hooks_ && cur_) hooks_->on_array_read(*cur_, e, idx, b);
        return b.array[static_cast<std::size_t>(idx)];
      }
      case ExprKind::kUnary: {
        double v = eval(*e.args[0]);
        return e.un == UnOp::kNeg ? -v : (v != 0.0 ? 0.0 : 1.0);
      }
      case ExprKind::kBinary: {
        double a = eval(*e.args[0]);
        double b = eval(*e.args[1]);
        switch (e.bin) {
          case BinOp::kAdd: return a + b;
          case BinOp::kSub: return a - b;
          case BinOp::kMul: return a * b;
          case BinOp::kDiv: return a / b;
          case BinOp::kPow: return std::pow(a, b);
          case BinOp::kLt: return a < b ? 1.0 : 0.0;
          case BinOp::kLe: return a <= b ? 1.0 : 0.0;
          case BinOp::kGt: return a > b ? 1.0 : 0.0;
          case BinOp::kGe: return a >= b ? 1.0 : 0.0;
          case BinOp::kEq: return a == b ? 1.0 : 0.0;
          case BinOp::kNe: return a != b ? 1.0 : 0.0;
          case BinOp::kAnd: return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
          case BinOp::kOr: return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
        }
        return 0.0;
      }
    }
    return 0.0;
  }

  Flow run_list(const std::vector<lang::StmtPtr>& body) {
    std::size_t i = 0;
    while (i < body.size()) {
      Flow f = run_stmt(*body[i]);
      if (!ok_) return {FlowKind::kError, 0};
      if (f.kind == FlowKind::kGoto) {
        // Does the label name a statement of THIS list?
        bool found = false;
        for (std::size_t j = 0; j < body.size(); ++j) {
          if (body[j]->label == f.label) {
            i = j;
            found = true;
            break;
          }
        }
        if (found) continue;
        return f;  // propagate to the enclosing scope
      }
      if (f.kind == FlowKind::kReturn) return f;
      ++i;
    }
    return {};
  }

  Flow run_stmt(const Stmt& s) {
    if (++steps_ > options_.max_steps) {
      coded_error(s.loc, "MP-I001",
                  "statement budget exhausted after " +
                      std::to_string(options_.max_steps) +
                      " statements (possible runaway loop)");
      return {FlowKind::kError, 0};
    }
    cur_ = &s;
    if (hooks_) hooks_->before_statement(s, frame_);
    switch (s.kind) {
      case StmtKind::kAssign: {
        double v = eval(*s.rhs);
        if (!ok_) return {FlowKind::kError, 0};
        Binding& b = binding(s.lhs->name, s.lhs->sym, s.lhs->loc);
        if (s.lhs->kind == ExprKind::kVarRef) {
          if (b.is_array) {
            error(s.lhs->loc, "assignment to array '" + s.lhs->name +
                                  "' without subscripts");
            return {FlowKind::kError, 0};
          }
          b.scalar = v;
        } else {
          if (!b.is_array) {
            error(s.lhs->loc,
                  "subscripted assignment to scalar '" + s.lhs->name + "'");
            return {FlowKind::kError, 0};
          }
          long long idx = flat_index(b, *s.lhs);
          if (idx < 0) return {FlowKind::kError, 0};
          b.array[static_cast<std::size_t>(idx)] = v;
          if (hooks_) hooks_->on_array_write(s, *s.lhs, idx, b);
        }
        return {};
      }
      case StmtKind::kDo: {
        long long lo = static_cast<long long>(std::llround(eval(*s.do_lo)));
        long long hi = static_cast<long long>(std::llround(eval(*s.do_hi)));
        long long step =
            s.do_step ? static_cast<long long>(std::llround(eval(*s.do_step)))
                      : 1;
        if (!ok_) return {FlowKind::kError, 0};
        if (step == 0) {
          error(s.loc, "zero DO step");
          return {FlowKind::kError, 0};
        }
        if (hooks_) hooks_->override_loop_bound(s, &hi);
        Binding& var = binding(s.do_var, s.do_sym, s.loc);
        for (long long v = lo; step > 0 ? v <= hi : v >= hi; v += step) {
          var.scalar = static_cast<double>(v);
          Flow f = run_list(s.body);
          if (f.kind != FlowKind::kNormal) return f;
        }
        return {};
      }
      case StmtKind::kIf: {
        double c = eval(*s.cond);
        if (!ok_) return {FlowKind::kError, 0};
        return run_list(c != 0.0 ? s.then_body : s.else_body);
      }
      case StmtKind::kGoto:
        return {FlowKind::kGoto, s.target};
      case StmtKind::kContinue:
        return {};
      case StmtKind::kReturn:
        return {FlowKind::kReturn, 0};
      case StmtKind::kCall:
        error(s.loc, "CALL is not supported by the interpreter");
        return {FlowKind::kError, 0};
    }
    return {};
  }
};

}  // namespace

bool execute(const lang::Subroutine& sub, Frame& frame,
             DiagnosticEngine& diags, const ExecOptions& options,
             ExecHooks* hooks) {
  return Machine(sub, frame, diags, options, hooks).run();
}

}  // namespace meshpar::interp
