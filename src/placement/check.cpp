#include "placement/check.hpp"

#include <algorithm>

namespace meshpar::placement {

using dfg::AccessShape;
using dfg::DepKind;
using dfg::Dependence;
using lang::Stmt;
using lang::StmtKind;

namespace {

class Checker {
 public:
  explicit Checker(const ProgramModel& model) : m_(model) {}

  ApplicabilityReport run() {
    check_structure();
    for (const Dependence& d : m_.deps().all()) classify(d);
    check_accesses();
    check_assembly_inits();
    return std::move(report_);
  }

  /// Under the node-boundary pattern (Figure 2), an assembled array's
  /// partials are SUMMED across the duplicated nodes, so every value
  /// flowing into the assembly from outside the loop must be the
  /// operator's identity — otherwise each holder contributes the start
  /// value once.
  void check_assembly_inits() {
    if (m_.autom().pattern() != automaton::PatternKind::kNodeBoundary)
      return;
    for (const dfg::Assembly& a : m_.patterns().assemblies()) {
      const double identity = a.op == lang::BinOp::kAdd ? 0.0 : 1.0;
      for (int def_id : m_.reaching().reaching(*a.stmt, a.var)) {
        const dfg::Definition& d = m_.reaching().definitions()[def_id];
        if (d.stmt && m_.cfg().inside(*d.stmt, *a.loop)) continue;
        bool is_identity =
            d.stmt && d.stmt->kind == StmtKind::kAssign &&
            ((d.stmt->rhs->kind == lang::ExprKind::kRealLit &&
              d.stmt->rhs->real_val == identity) ||
             (d.stmt->rhs->kind == lang::ExprKind::kIntLit &&
              static_cast<double>(d.stmt->rhs->int_val) == identity));
        if (!is_identity) {
          add(Fig4Case::kA, Verdict::kForbidden,
              "assembly of '" + name(a.var) + "' at " + to_string(a.stmt->loc) +
                  " is reached by a non-identity initialization; the "
                  "node-boundary pattern would count it once per holder");
        }
      }
    }
  }

 private:
  const ProgramModel& m_;
  ApplicabilityReport report_;

  void add(Fig4Case c, Verdict v, const Dependence& d, const char* reason) {
    report_.findings.push_back({c, v, &d, reason, {}});
  }
  void add(Fig4Case c, Verdict v, std::string detail) {
    report_.findings.push_back({c, v, nullptr, "", std::move(detail)});
  }

  [[nodiscard]] const std::string& name(int sym) const {
    return m_.sub().symbols[static_cast<std::size_t>(sym)];
  }

  void check_structure() {
    for (const Stmt* loop : m_.partitioned_loops()) {
      if (m_.enclosing_partitioned(*loop)) {
        add(Fig4Case::kA, Verdict::kForbidden,
            "nested partitioned loops at " + to_string(loop->loc) +
                " are not supported");
      }
    }
  }

  /// Partitioned loops (from the spec) that carry this dependence.
  std::vector<const Stmt*> partitioned_carriers(const Dependence& d) const {
    std::vector<const Stmt*> out;
    for (const Stmt* l : d.carried_by)
      if (m_.is_partitioned(*l)) out.push_back(l);
    return out;
  }

  void classify(const Dependence& d) {
    const Stmt* src_loop = d.src ? m_.enclosing_partitioned(*d.src) : nullptr;
    const Stmt* dst_loop = d.dst ? m_.enclosing_partitioned(*d.dst) : nullptr;

    if (d.kind == DepKind::kControl) {
      classify_control(d, src_loop, dst_loop);
      return;
    }

    // Loop-variable machinery: anti/output dependences into a DO header
    // that (re)defines its own variable are recreated per processor and
    // never constrain the partitioning.
    if (d.kind != DepKind::kTrue && d.dst && d.dst->kind == StmtKind::kDo &&
        d.dst->do_sym == d.var) {
      add(Fig4Case::kH, Verdict::kRemovedInduction, d,
          "loop variable reinitialization");
      return;
    }

    auto carriers = partitioned_carriers(d);
    if (!carriers.empty()) {
      classify_carried(d, carriers);
      return;
    }

    if (src_loop && dst_loop && src_loop == dst_loop) {
      add(Fig4Case::kB, Verdict::kRespected, d,
          "loop-independent inside a partitioned loop");
    } else if (src_loop && dst_loop) {
      add(Fig4Case::kF, Verdict::kRespected, d,
          "between partitioned loops; ordered by the communication");
    } else if (src_loop && !dst_loop) {
      classify_escape(d, src_loop);
    } else if (!src_loop && dst_loop) {
      add(Fig4Case::kI, Verdict::kRespected, d,
          "replicated value flows into a partitioned loop");
    } else {
      add(Fig4Case::kH, Verdict::kRespected, d,
          "entirely in non-partitioned code");
    }
  }

  void classify_control(const Dependence& d, const Stmt* src_loop,
                        const Stmt* dst_loop) {
    if (src_loop && !dst_loop) {
      add(Fig4Case::kG, Verdict::kForbidden, d,
          "control decided inside a partitioned iteration steers "
          "non-partitioned code");
      return;
    }
    if (src_loop && dst_loop && src_loop == dst_loop) {
      add(Fig4Case::kE, Verdict::kRespected, d,
          "control within one partitioned iteration");
      return;
    }
    add(!src_loop && dst_loop ? Fig4Case::kI : Fig4Case::kH,
        Verdict::kRespected, d, "sequential-level control");
  }

  void classify_carried(const Dependence& d,
                        const std::vector<const Stmt*>& carriers) {
    // Try the removal passes (§3.2) on every carrying loop; the dependence
    // is removed only if each carrier is covered.
    Verdict removal = Verdict::kForbidden;
    bool all_removed = true;
    for (const Stmt* loop : carriers) {
      Verdict v = removal_for(d, *loop);
      if (v == Verdict::kForbidden) {
        all_removed = false;
        break;
      }
      removal = v;
    }
    Fig4Case c;
    if (d.kind != DepKind::kTrue)
      c = Fig4Case::kC;
    else if (d.src == d.dst)
      c = Fig4Case::kA;
    else
      c = Fig4Case::kD;

    if (all_removed) {
      add(c, removal, d, "carried, removed");
      return;
    }
    add(c, Verdict::kForbidden, d,
        c == Fig4Case::kD
            ? "carried across iterations of the partitioned loop (loop "
              "fission could make this case f, outside the tool's scope)"
            : "carried across iterations of the partitioned loop");
  }

  Verdict removal_for(const Dependence& d, const Stmt& loop) const {
    const auto& pats = m_.patterns();
    if (pats.is_localizable(loop, d.var)) return Verdict::kRemovedLocalization;
    if (pats.is_reduction_var(loop, d.var)) return Verdict::kRemovedReduction;
    for (const auto& ind : pats.inductions())
      if (ind.loop == &loop && ind.var == d.var)
        return Verdict::kRemovedInduction;
    // Assembly: both endpoints must be assembly statements of this array.
    auto is_assembly_stmt = [&](const Stmt* s) {
      if (!s) return false;
      const dfg::Assembly* a = pats.assembly_at(*s);
      return a && a->loop == &loop && a->var == d.var;
    };
    if (is_assembly_stmt(d.src) && is_assembly_stmt(d.dst))
      return Verdict::kRemovedAssembly;
    return Verdict::kForbidden;
  }

  void classify_escape(const Dependence& d, const Stmt* src_loop) {
    // Case g: value produced inside a partitioned loop flows to
    // non-partitioned code.
    if (m_.patterns().is_reduction_var(*src_loop, d.var)) {
      add(Fig4Case::kG, Verdict::kRemovedReduction, d,
          "reduction result escapes (allowed, §3.2)");
      return;
    }
    // Whole partitioned arrays may flow out: the destination is either the
    // subroutine result (handled by the output state) or another
    // partitioned loop (case f already). Reading the array *elementwise* in
    // sequential code is the forbidden "particular, explicit, partitioned
    // iteration".
    if (m_.entity_of(d.var).has_value()) {
      if (!d.dst) {
        add(Fig4Case::kF, Verdict::kRespected, d,
            "partitioned array flows to the output");
        return;
      }
      add(Fig4Case::kG, Verdict::kForbidden, d,
          "element of a distributed array read in non-partitioned code");
      return;
    }
    if (!d.dst && d.kind != DepKind::kTrue) {
      add(Fig4Case::kH, Verdict::kRespected, d,
          "ordering constraint at the boundary");
      return;
    }
    add(Fig4Case::kG, Verdict::kForbidden, d,
        "value from a particular partitioned iteration escapes to "
        "non-partitioned code (parallel iteration numbers cannot be related "
        "to original ones)");
  }

  void check_accesses() {
    for (const Stmt* s : m_.cfg().statements()) {
      const dfg::StmtDefUse& du = m_.defuse(*s);
      const Stmt* loop = m_.enclosing_partitioned(*s);
      auto check_access = [&](const dfg::VarAccess& a, bool is_def) {
        auto entity = m_.entity_of(a.var);
        if (!entity) return;  // replicated array or scalar
        if (!loop) {
          add(Fig4Case::kG, Verdict::kForbidden,
              "distributed array '" + name(a.var) +
                  (is_def ? "' written at " : "' accessed at ") +
                  to_string(a.loc) + " outside any partitioned loop");
          return;
        }
        if (a.shape == AccessShape::kElementwise && a.index_loop == loop) {
          const LoopRule* rule = m_.partition_rule(*loop);
          if (rule->entity != *entity) {
            add(Fig4Case::kA, Verdict::kForbidden,
                "array '" + name(a.var) + "' partitioned on " +
                    automaton::to_string(*entity) + " accessed elementwise " +
                    "in a loop partitioned on " +
                    automaton::to_string(rule->entity) + " at " +
                    to_string(a.loc));
          }
        }
        if (a.shape == AccessShape::kWhole) {
          add(Fig4Case::kG, Verdict::kForbidden,
              "distributed array '" + name(a.var) +
                  "' passed as a whole object at " + to_string(a.loc));
        }
      };
      if (du.def) check_access(*du.def, /*is_def=*/true);
      for (const auto& u : du.uses) check_access(u, /*is_def=*/false);
    }
  }
};

}  // namespace

ApplicabilityReport check_applicability(const ProgramModel& model) {
  return Checker(model).run();
}

std::string render(const Finding& f, const lang::Subroutine& sub) {
  if (!f.dep) return f.detail;
  const Dependence& d = *f.dep;
  auto stmt_ref = [](const Stmt* s) {
    return s ? "stmt@" + to_string(s->loc) : std::string("<boundary>");
  };
  std::string line = std::string(to_string(d.kind)) + " dep";
  if (d.var >= 0)
    line += " on '" + sub.symbols[static_cast<std::size_t>(d.var)] + "'";
  return line + " " + stmt_ref(d.src) + " -> " + stmt_ref(d.dst) + ": " +
         f.reason;
}

const char* to_string(Fig4Case c) {
  switch (c) {
    case Fig4Case::kA: return "a";
    case Fig4Case::kB: return "b";
    case Fig4Case::kC: return "c";
    case Fig4Case::kD: return "d";
    case Fig4Case::kE: return "e";
    case Fig4Case::kF: return "f";
    case Fig4Case::kG: return "g";
    case Fig4Case::kH: return "h";
    case Fig4Case::kI: return "i";
  }
  return "?";
}

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kRespected: return "respected";
    case Verdict::kRemovedLocalization: return "removed-by-localization";
    case Verdict::kRemovedReduction: return "removed-by-reduction";
    case Verdict::kRemovedInduction: return "removed-by-induction";
    case Verdict::kRemovedAssembly: return "removed-by-assembly";
    case Verdict::kForbidden: return "forbidden";
  }
  return "?";
}

}  // namespace meshpar::placement
