#include "placement/verify.hpp"

#include <optional>
#include <set>
#include <sstream>
#include <string>

namespace meshpar::placement {

using automaton::CommAction;
using automaton::EntityKind;
using automaton::PatternKind;
using dfg::AccessShape;
using dfg::NodeId;
using lang::Stmt;

namespace {

/// The communication method that can improve coherence for a value of this
/// shape under this overlapping pattern. Derived from the pattern semantics
/// (§2.3), not from the automaton's transition table.
CommAction expected_action(EntityKind shape, PatternKind pattern) {
  if (shape == EntityKind::kScalar) return CommAction::kReduceScalar;
  return pattern == PatternKind::kNodeBoundary ? CommAction::kAssembleAdd
                                               : CommAction::kUpdateCopy;
}

class Verifier {
 public:
  Verifier(const ProgramModel& m, const FlowGraph& fg, const Placement& p)
      : m_(m), fg_(fg), p_(p) {}

  VerifyReport run() {
    if (p_.assignment.state_of.size() != fg_.occs().size()) {
      add(Severity::kError, kVerifyShapeMismatch, {},
          "assignment maps " +
              std::to_string(p_.assignment.state_of.size()) +
              " occurrences but the flow graph has " +
              std::to_string(fg_.occs().size()));
      return std::move(report_);
    }
    check_occurrences();
    check_coverage();
    check_domains();
    return std::move(report_);
  }

 private:
  const ProgramModel& m_;
  const FlowGraph& fg_;
  const Placement& p_;
  VerifyReport report_;

  void add(Severity sev, std::string_view code, SrcRange range,
           std::string msg) {
    Diagnostic d;
    d.severity = sev;
    d.loc = range.begin;
    d.end = range.end == range.begin ? SrcLoc{} : range.end;
    d.code = std::string(code);
    d.message = std::move(msg);
    report_.findings.push_back(std::move(d));
  }

  [[nodiscard]] bool state_valid(int s) const {
    return s >= 0 && s < static_cast<int>(m_.autom().states().size());
  }

  // -- check 3: boundary states and shapes --------------------------------

  void check_occurrences() {
    const auto& autom = m_.autom();
    for (const Occurrence& o : fg_.occs()) {
      int s = p_.assignment.state_of[o.id];
      SrcRange at = o.stmt ? SrcRange{o.stmt->loc} : SrcRange{};
      if (!state_valid(s)) {
        add(Severity::kError, kVerifyShapeMismatch, at,
            o.describe(m_.sub()) + ": state index " + std::to_string(s) +
                " is outside the automaton");
        continue;
      }
      if (autom.state(s).entity != o.shape) {
        add(Severity::kError, kVerifyShapeMismatch, at,
            o.describe(m_.sub()) + ": state " + autom.state(s).name +
                " has entity kind " +
                automaton::to_string(autom.state(s).entity) +
                " but the occurrence is shaped " +
                automaton::to_string(o.shape));
      }
      if (o.fixed_state && *o.fixed_state != s) {
        add(Severity::kError, kVerifyBoundaryState, at,
            o.describe(m_.sub()) + ": the specification requires state " +
                autom.state(*o.fixed_state).name + " but the placement uses " +
                autom.state(s).name);
      }
    }
  }

  // -- check 1: communication coverage ------------------------------------

  /// CFG endpoint of a flow-graph occurrence: its statement's node, or the
  /// entry/exit pseudo-node for subroutine inputs/outputs.
  [[nodiscard]] NodeId cfg_endpoint(const Occurrence& o, bool is_def) const {
    if (o.stmt) return m_.cfg().node_of(*o.stmt);
    return is_def ? dfg::kEntry : dfg::kExit;
  }

  /// True if executing a sync right before `at` (nullptr = subroutine end)
  /// intercepts every execution path from `def` to `use`.
  [[nodiscard]] bool cuts(const Stmt* at, NodeId def, NodeId use) const {
    if (at == nullptr) return use == dfg::kExit;
    NodeId t = m_.cfg().node_of(*at);
    if (t == def) return false;  // fires before the definition itself
    return !m_.cfg().reaches(def, use, t);
  }

  void check_coverage() {
    const auto& autom = m_.autom();
    std::set<std::size_t> useful_syncs;
    std::vector<int> sync_sym;  // the symbol each sync names
    for (const SyncPoint& sp : p_.syncs)
      sync_sym.push_back(m_.sub().symbol(sp.var));
    for (const FlowArrow& a : fg_.arrows()) {
      if (a.kind != automaton::ArrowKind::kTrue) continue;
      int ss = p_.assignment.state_of[a.src];
      int sd = p_.assignment.state_of[a.dst];
      if (!state_valid(ss) || !state_valid(sd)) continue;  // already reported
      int drop = autom.state(ss).level - autom.state(sd).level;
      if (drop <= 0) continue;  // identity or weakening: no communication

      const Occurrence& src = fg_.occ(a.src);
      const Occurrence& dst = fg_.occ(a.dst);
      CommAction need = expected_action(src.shape, autom.pattern());
      NodeId def = cfg_endpoint(src, /*is_def=*/true);
      NodeId use = cfg_endpoint(dst, /*is_def=*/false);

      bool covered = false;
      for (std::size_t i = 0; i < p_.syncs.size(); ++i) {
        const SyncPoint& sp = p_.syncs[i];
        if (sync_sym[i] != a.var || sp.action != need) continue;
        if (!cuts(sp.before, def, use)) continue;
        useful_syncs.insert(i);
        covered = true;
      }
      if (covered && autom.state(sd).level == 0) continue;

      SrcRange range =
          src.stmt && dst.stmt
              ? SrcRange{src.stmt->loc, dst.stmt->loc}
              : SrcRange{dst.stmt ? dst.stmt->loc
                                  : (src.stmt ? src.stmt->loc : SrcLoc{})};
      std::ostringstream os;
      os << "true dependence on '" << m_.sub().symbols[a.var] << "' from "
         << src.describe(m_.sub()) << " [" << autom.state(ss).name << "] to "
         << dst.describe(m_.sub()) << " ["
         << autom.state(sd).name << "] improves coherence and needs a '"
         << method_name(need) << "' communication";
      if (autom.state(sd).level != 0) {
        os << ", but no communication can establish the intermediate level "
           << autom.state(sd).level;
      } else {
        os << ", but no placed communication cuts every path from the "
              "definition to the use";
      }
      add(Severity::kError, kVerifyMissingComm, range, os.str());
    }

    // -- redundancy: a sync that covers no coherence-improving dependence --
    for (std::size_t i = 0; i < p_.syncs.size(); ++i) {
      if (useful_syncs.count(i)) continue;
      const SyncPoint& sp = p_.syncs[i];
      SrcRange at = sp.before ? SrcRange{sp.before->loc} : SrcRange{};
      add(Severity::kWarning, kVerifyRedundantComm, at,
          "communication '" + std::string(method_name(sp.action)) + "' of '" +
              sp.var + "' " +
              (sp.before ? "before " + to_string(sp.before->loc)
                         : std::string("at subroutine exit")) +
              " covers no coherence-improving dependence (redundant)");
    }
  }

  // -- check 2: iteration domains ------------------------------------------

  /// The domain (in overlap layers) that one write inside a partitioned
  /// loop demands, given the state the placement assigns to it:
  ///   * a reduction accumulates owned entities only (0 layers);
  ///   * under the node-boundary pattern there is no halo to skip — every
  ///     write runs over all local entities (1);
  ///   * an elementwise write over the loop's own variable leaves exactly
  ///     the iterated prefix valid, so level l (= depth-l valid layers)
  ///     demands depth-l layers;
  ///   * an indirect (assembly/scatter) write over k layers of top entities
  ///     completes the sub-entities interior to them, i.e. k-1 layers, so
  ///     level l demands depth-l+1 layers.
  [[nodiscard]] std::optional<int> required_layers(const Stmt& s,
                                                   const Stmt& loop) const {
    const dfg::StmtDefUse& du = m_.defuse(s);
    if (!du.def) return std::nullopt;
    if (const dfg::Reduction* r = m_.patterns().reduction_at(s))
      if (r->loop == &loop) return 0;
    if (!m_.entity_of(du.def->var)) return std::nullopt;
    int w = fg_.write_occ(s);
    if (w < 0) return std::nullopt;
    if (m_.autom().pattern() == PatternKind::kNodeBoundary) return 1;
    int state = p_.assignment.state_of[w];
    if (!state_valid(state)) return std::nullopt;
    int level = m_.autom().state(state).level;
    bool elementwise = du.def->shape == AccessShape::kElementwise &&
                       du.def->index_loop == &loop;
    int depth = m_.autom().halo_depth();
    return elementwise ? depth - level : depth - level + 1;
  }

  void check_domains() {
    for (const Stmt* loop : m_.partitioned_loops()) {
      int chosen = p_.domain_layers(*loop);
      for (const Stmt* s : m_.cfg().statements()) {
        if (!m_.cfg().inside(*s, *loop)) continue;
        std::optional<int> need = required_layers(*s, *loop);
        if (!need || *need == chosen) continue;
        std::ostringstream os;
        os << "partitioned loop at " << to_string(loop->loc)
           << " iterates KERNEL";
        if (chosen > 0) os << "+" << chosen << " overlap layer(s)";
        os << " but the write at " << to_string(s->loc) << " requires ";
        if (*need == 0)
          os << "owned entities only";
        else
          os << *need << " layer(s)";
        os << " for the states the placement assigns";
        add(Severity::kError, kVerifyDomainMismatch,
            SrcRange{loop->loc, s->loc}, os.str());
      }
    }
  }
};

}  // namespace

VerifyReport verify_placement(const ProgramModel& model, const FlowGraph& fg,
                              const Placement& placement,
                              DiagnosticEngine* sink) {
  VerifyReport report = Verifier(model, fg, placement).run();
  if (sink) {
    for (const Diagnostic& d : report.findings)
      sink->report(d.severity, d.range(), d.code, d.message);
  }
  return report;
}

}  // namespace meshpar::placement
