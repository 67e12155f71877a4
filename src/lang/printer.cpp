#include "lang/printer.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace meshpar::lang {

namespace {

int precedence(BinOp op) {
  switch (op) {
    case BinOp::kOr: return 1;
    case BinOp::kAnd: return 2;
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
    case BinOp::kEq:
    case BinOp::kNe: return 3;
    case BinOp::kAdd:
    case BinOp::kSub: return 4;
    case BinOp::kMul:
    case BinOp::kDiv: return 5;
    case BinOp::kPow: return 6;
  }
  return 0;
}

void print_expr(const Expr& e, std::ostringstream& os, int parent_prec) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      os << e.int_val;
      return;
    case ExprKind::kRealLit: {
      char buf[64];
      double v = e.real_val;
      if (v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof buf, "%.1f", v);
      } else {
        std::snprintf(buf, sizeof buf, "%g", v);
      }
      os << buf;
      return;
    }
    case ExprKind::kVarRef:
      os << e.name;
      return;
    case ExprKind::kArrayRef: {
      os << e.name << "(";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i) os << ",";
        print_expr(*e.args[i], os, 0);
      }
      os << ")";
      return;
    }
    case ExprKind::kUnary: {
      os << (e.un == UnOp::kNeg ? "-" : ".not. ");
      print_expr(*e.args[0], os, 7);
      return;
    }
    case ExprKind::kBinary: {
      int prec = precedence(e.bin);
      bool parens = prec < parent_prec;
      if (parens) os << "(";
      print_expr(*e.args[0], os, prec);
      os << " " << to_fortran(e.bin) << " ";
      print_expr(*e.args[1], os, prec + 1);
      if (parens) os << ")";
      return;
    }
  }
}

class StmtPrinter {
 public:
  StmtPrinter(const PrintOptions& opts, std::ostringstream& os)
      : opts_(opts), os_(os) {}

  void print_body(const std::vector<StmtPtr>& body, int depth) {
    for (const auto& s : body) print_stmt(*s, depth);
  }

 private:
  const PrintOptions& opts_;
  std::ostringstream& os_;

  void emit_comments(
      const std::function<std::vector<std::string>(const Stmt&)>& hook,
      const Stmt& s) {
    if (!hook) return;
    for (const auto& line : hook(s)) os_ << line << "\n";
  }

  void line_prefix(const Stmt& s, int depth) {
    // Fixed-form flavor: labels occupy the left margin.
    char buf[16];
    if (s.label != 0) {
      std::snprintf(buf, sizeof buf, "%-6d", s.label);
      os_ << buf;
    } else {
      os_ << "      ";
    }
    constexpr int kIndentWidth = 2;
    for (int i = 0; i < depth * kIndentWidth; ++i) os_ << ' ';
  }

  void print_stmt(const Stmt& s, int depth) {
    emit_comments(opts_.pre_comments, s);
    switch (s.kind) {
      case StmtKind::kAssign: {
        line_prefix(s, depth);
        os_ << to_source(*s.lhs) << " = " << to_source(*s.rhs) << "\n";
        break;
      }
      case StmtKind::kDo: {
        line_prefix(s, depth);
        os_ << "do " << s.do_var << " = " << to_source(*s.do_lo) << ","
            << to_source(*s.do_hi);
        if (s.do_step) os_ << "," << to_source(*s.do_step);
        os_ << "\n";
        print_body(s.body, depth + 1);
        Stmt end_marker;  // unlabeled
        line_prefix(end_marker, depth);
        os_ << "end do\n";
        break;
      }
      case StmtKind::kIf: {
        // One-line logical IF when the then-branch is a single goto/call and
        // there is no else branch — matches the paper's style.
        if (s.else_body.empty() && s.then_body.size() == 1 &&
            (s.then_body[0]->kind == StmtKind::kGoto ||
             s.then_body[0]->kind == StmtKind::kReturn)) {
          line_prefix(s, depth);
          os_ << "if (" << to_source(*s.cond) << ") ";
          if (s.then_body[0]->kind == StmtKind::kGoto)
            os_ << "goto " << s.then_body[0]->target;
          else
            os_ << "return";
          os_ << "\n";
          break;
        }
        line_prefix(s, depth);
        os_ << "if (" << to_source(*s.cond) << ") then\n";
        print_body(s.then_body, depth + 1);
        if (!s.else_body.empty()) {
          Stmt marker;
          line_prefix(marker, depth);
          os_ << "else\n";
          print_body(s.else_body, depth + 1);
        }
        Stmt marker;
        line_prefix(marker, depth);
        os_ << "end if\n";
        break;
      }
      case StmtKind::kGoto: {
        line_prefix(s, depth);
        os_ << "goto " << s.target << "\n";
        break;
      }
      case StmtKind::kContinue: {
        line_prefix(s, depth);
        os_ << "continue\n";
        break;
      }
      case StmtKind::kCall: {
        line_prefix(s, depth);
        os_ << "call " << s.callee << "(";
        for (std::size_t i = 0; i < s.call_args.size(); ++i) {
          if (i) os_ << ",";
          os_ << to_source(*s.call_args[i]);
        }
        os_ << ")\n";
        break;
      }
      case StmtKind::kReturn: {
        line_prefix(s, depth);
        os_ << "return\n";
        break;
      }
    }
    emit_comments(opts_.post_comments, s);
  }
};

}  // namespace

std::string to_source(const Expr& e) {
  std::ostringstream os;
  print_expr(e, os, 0);
  return os.str();
}

std::string to_source(const Subroutine& sub, const PrintOptions& opts) {
  std::ostringstream os;
  os << "      subroutine " << sub.name << "(";
  for (std::size_t i = 0; i < sub.params.size(); ++i) {
    if (i) os << ",";
    os << sub.params[i];
  }
  os << ")\n";
  for (const auto& d : sub.decls) {
    os << "      " << (d.type == Type::kInteger ? "integer " : "real ")
       << d.name;
    if (d.is_array()) {
      os << "(";
      for (std::size_t i = 0; i < d.dims.size(); ++i) {
        if (i) os << ",";
        os << d.dims[i];
      }
      os << ")";
    }
    os << "\n";
  }
  StmtPrinter printer(opts, os);
  printer.print_body(sub.body, 0);
  os << "      end\n";
  return os.str();
}

std::string to_source(const Program& prog, const PrintOptions& opts) {
  std::string out;
  for (const auto& s : prog.subs) {
    out += to_source(s, opts);
    out += "\n";
  }
  return out;
}

}  // namespace meshpar::lang
