#include "analysis/lint.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "interp/coherence.hpp"

namespace meshpar::analysis {

using dfg::Cfg;
using dfg::NodeId;
using interp::CoherenceModel;
using interp::ReadCheck;
using placement::Placement;
using placement::ProgramModel;
using placement::SyncPoint;

namespace {

/// Renders a valid depth for messages.
std::string depth_str(int v) {
  if (v <= kPartial) return "only partial sums";
  return std::to_string(v) + " coherent overlap layer(s)";
}

class LintPass {
 public:
  LintPass(const ProgramModel& model, const Placement& placement,
           const LintOptions& options)
      : model_(model), placement_(placement), opts_(options), coh_(model),
        cfg_(model.cfg()), depth_(coh_.depth()) {
    // Tracked symbols get dense variable ordinals, in name order.
    ordinal_.assign(model_.sub().symbols.size(), -1);
    for (int sym : model_.sub().by_name)
      if (coh_.tracked(sym)) ordinal_[static_cast<std::size_t>(sym)] = nv_++;
    for (const SyncPoint& sp : placement_.syncs) {
      sync_sym_.push_back(model_.sub().symbol(sp.var));
      if (sp.before)
        syncs_before_[sp.before].push_back(&sp);
      else
        syncs_at_exit_.push_back(&sp);
    }
    build_graph();
  }

  LintReport run() {
    fixpoint();
    report_unreachable();
    liveness();
    report_statements();
    report_exit();
    if (opts_.werror)
      for (Diagnostic& f : report_.findings)
        if (f.severity == Severity::kWarning) f.severity = Severity::kError;
    report_.stats.nodes = static_cast<std::size_t>(cfg_.num_nodes());
    return std::move(report_);
  }

  /// Judgments aligned with placement.syncs; call after run().
  [[nodiscard]] std::vector<SyncJudgment> judgments() const {
    std::vector<SyncJudgment> out;
    out.reserve(placement_.syncs.size());
    for (const SyncPoint& sp : placement_.syncs) {
      auto it = judgments_.find(&sp);
      out.push_back(it == judgments_.end() ? SyncJudgment::kNeeded
                                           : it->second);
    }
    return out;
  }

 private:
  const ProgramModel& model_;
  const Placement& placement_;
  const LintOptions& opts_;
  CoherenceModel coh_;
  const Cfg& cfg_;
  int depth_;

  std::vector<int> ordinal_;   // per symbol: its variable ordinal, or -1
  int nv_ = 0;                 // tracked variables
  std::vector<int> sync_sym_;  // per placement sync: its symbol, or -1
  std::map<const lang::Stmt*, std::vector<const SyncPoint*>> syncs_before_;
  std::vector<const SyncPoint*> syncs_at_exit_;

  // Analysis graph: the CFG with every partitioned DO loop rotated into
  // do-while form (header -> body unconditionally; body tail -> {header,
  // after-loop}). Partitioned loops iterate 1..bound with bound >= 1 on
  // every rank, so the zero-trip edge would only dilute the must bound.
  std::vector<std::vector<NodeId>> succ_;
  std::vector<std::vector<NodeId>> pred_;

  std::vector<AbsState> in_;
  std::vector<AbsState> out_;
  std::vector<int> visits_;
  std::vector<std::vector<char>> live_in_;  // per node, per var ordinal

  LintReport report_;
  // Read dedup: (statement, ordinal, finding code).
  std::set<std::tuple<const lang::Stmt*, int, std::string_view>> seen_;
  std::map<const SyncPoint*, SyncJudgment> judgments_;  // L003/L004 verdicts

  // ---- graph construction -------------------------------------------------

  void build_graph() {
    const int n = cfg_.num_nodes();
    succ_.resize(n);
    pred_.resize(n);
    for (NodeId u = 0; u < n; ++u) {
      const lang::Stmt* s = cfg_.stmt(u);
      bool rotated = s && s->kind == lang::StmtKind::kDo &&
                     model_.is_partitioned(*s) && !s->body.empty();
      NodeId body_first =
          rotated ? cfg_.node_of(*s->body.front()) : dfg::kEntry;
      for (NodeId v : cfg_.succs(u)) {
        if (rotated && v != body_first) {
          // Zero-trip edge of a rotated loop: the loop exit is re-attached
          // below, at the back-edge tails inside this loop's body.
          for (const Cfg::BackEdge& be : cfg_.back_edges()) {
            const lang::Stmt* tail = cfg_.stmt(be.tail);
            if (be.header == u && tail && cfg_.inside(*tail, *s))
              succ_[be.tail].push_back(v);
          }
          continue;
        }
        succ_[u].push_back(v);
      }
    }
    for (NodeId u = 0; u < n; ++u) {
      std::sort(succ_[u].begin(), succ_[u].end());
      succ_[u].erase(std::unique(succ_[u].begin(), succ_[u].end()),
                     succ_[u].end());
      for (NodeId v : succ_[u]) pred_[v].push_back(u);
    }
  }

  /// The variable ordinal of symbol `sym`; -1 when the symbol is
  /// untracked (or is -1).
  [[nodiscard]] int ordinal(int sym) const {
    return sym < 0 ? -1 : ordinal_[static_cast<std::size_t>(sym)];
  }

  /// The symbol a placement sync refreshes, or -1.
  [[nodiscard]] int sym_of(const SyncPoint& sp) const {
    return sync_sym_[static_cast<std::size_t>(&sp - placement_.syncs.data())];
  }

  [[nodiscard]] const std::string& name(int sym) const {
    return model_.sub().symbols[static_cast<std::size_t>(sym)];
  }

  // ---- abstract semantics -------------------------------------------------

  AbsState initial_state() const {
    AbsState s;
    s.reachable = true;
    // Generation-0 data is coherent by definition, inputs as declared.
    s.lo.assign(static_cast<std::size_t>(nv_), {depth_, depth_});
    for (const placement::SpecVar& in : model_.inputs())
      if (int v = ordinal(in.sym); v >= 0)
        s.lo[v] = {std::max(kPartial, depth_ - in.level), depth_};
    s.hi = s.lo;
    return s;
  }

  void apply_sync(AbsState& s, const SyncPoint& sp) const {
    if (!s.reachable) return;
    if (sp.action != automaton::CommAction::kUpdateCopy &&
        sp.action != automaton::CommAction::kAssembleAdd)
      return;
    const int v = ordinal(sym_of(sp));
    if (v < 0) return;
    s.lo[v] = s.hi[v] = {depth_, depth_};
  }

  /// The iteration-domain layer count governing the cells an access with
  /// shape `shape` touches at statement `s`.
  int access_layers(const lang::Stmt& s, const dfg::VarAccess& acc) const {
    if (acc.shape == dfg::AccessShape::kElementwise && acc.index_loop &&
        model_.is_partitioned(*acc.index_loop))
      return placement_.domain_layers(*acc.index_loop);
    if (const lang::Stmt* loop = model_.enclosing_partitioned(s))
      return placement_.domain_layers(*loop);
    return -1;  // outside every partitioned loop: a single unknown cell
  }

  AbsState transfer(NodeId n, AbsState s) const {
    if (!s.reachable) return s;
    const lang::Stmt* stmt = cfg_.stmt(n);
    if (!stmt || stmt->kind != lang::StmtKind::kAssign) return s;
    const int v = ordinal(coh_.def_sym(*stmt));
    if (v < 0) return s;
    // Stores outside partitioned loops touch one cell of one rank and do
    // not start a generation; the abstract state is unchanged.
    if (!coh_.partitioned_loop(*stmt)) return s;
    const dfg::StmtDefUse& du = model_.defuse(*stmt);
    int w = coh_.write_valid_layers(*stmt, access_layers(*stmt, *du.def));
    if (coh_.is_first_write(*stmt)) {
      // Generation switch: what was fresh becomes the lag-1 value.
      for (auto* b : {&s.lo, &s.hi}) {
        (*b)[v].prev = std::max(w, (*b)[v].fresh);
        (*b)[v].fresh = w;
      }
    } else {
      // Later stores of the same loop extend the generation started above.
      for (auto* b : {&s.lo, &s.hi}) {
        (*b)[v].fresh = std::max((*b)[v].fresh, w);
        (*b)[v].prev = std::max((*b)[v].prev, (*b)[v].fresh);
      }
    }
    return s;
  }

  /// True if pred `p` of DO-header node `n` is a loop-internal edge (the
  /// rotated loop's continue edge) rather than a loop-entry edge. Robust
  /// under rotation, which invalidates the original back-edge set.
  bool loop_internal_pred(NodeId p, const lang::Stmt& header) const {
    const lang::Stmt* ps = cfg_.stmt(p);
    return ps != nullptr && cfg_.inside(*ps, header);
  }

  /// In-state of a node: join of predecessor out-states, with attached
  /// syncs applied. A sync before a DO header runs once per loop *entry*
  /// (the interpreter fires before_statement once per DO statement, and
  /// iteration is internal to it), so at DO headers the sync transfer is
  /// applied to the entry join only, not to the loop-internal
  /// contributions. Syncs before any other statement (notably GOTO-formed
  /// cycle headers) run on every execution, so there the sync follows the
  /// full join.
  AbsState flow_into(NodeId n) const {
    if (n == dfg::kEntry) return initial_state();
    const lang::Stmt* stmt = cfg_.stmt(n);
    auto sit = stmt ? syncs_before_.find(stmt) : syncs_before_.end();
    const std::vector<const SyncPoint*>* syncs =
        sit != syncs_before_.end() ? &sit->second : nullptr;
    AbsState in;
    if (syncs && stmt->kind == lang::StmtKind::kDo) {
      AbsState back;
      for (NodeId p : pred_[n])
        join(loop_internal_pred(p, *stmt) ? back : in, out_[p]);
      for (const SyncPoint* sp : *syncs) apply_sync(in, *sp);
      join(in, back);
      return in;
    }
    for (NodeId p : pred_[n]) join(in, out_[p]);
    if (syncs)
      for (const SyncPoint* sp : *syncs) apply_sync(in, *sp);
    return in;
  }

  /// The state each sync attached before node `n` is judged against
  /// (L003/L004): the join the sync actually runs on — entry paths only at
  /// DO headers, every path elsewhere — with syncs NOT yet applied.
  AbsState entry_join(NodeId n) const {
    if (n == dfg::kEntry) return initial_state();
    const lang::Stmt* stmt = cfg_.stmt(n);
    bool is_do = stmt && stmt->kind == lang::StmtKind::kDo;
    AbsState in;
    for (NodeId p : pred_[n])
      if (!is_do || !loop_internal_pred(p, *stmt)) join(in, out_[p]);
    return in;
  }

  // ---- fixpoint -----------------------------------------------------------

  void fixpoint() {
    const int n = cfg_.num_nodes();
    in_.resize(n);
    out_.resize(n);
    visits_.assign(n, 0);
    std::deque<NodeId> work;
    std::vector<char> queued(static_cast<std::size_t>(n), 0);
    auto push = [&](NodeId u) {
      if (!queued[static_cast<std::size_t>(u)]) {
        queued[static_cast<std::size_t>(u)] = 1;
        work.push_back(u);
      }
    };
    push(dfg::kEntry);
    while (!work.empty()) {
      NodeId u;
      if (opts_.reverse_worklist) {
        u = work.back();
        work.pop_back();
      } else {
        u = work.front();
        work.pop_front();
      }
      queued[static_cast<std::size_t>(u)] = 0;
      ++report_.stats.iterations;
      AbsState in = flow_into(u);
      if (++visits_[u] > opts_.widen_after)
        report_.stats.widenings +=
            static_cast<std::size_t>(widen(in, in_[u], depth_));
      in_[u] = std::move(in);
      AbsState out = transfer(u, in_[u]);
      if (out != out_[u]) {
        out_[u] = std::move(out);
        for (NodeId v : succ_[u]) push(v);
      }
    }
  }

  // ---- backward may-liveness (for MP-L003) --------------------------------

  void liveness() {
    const int n = cfg_.num_nodes();
    const auto nv = static_cast<std::size_t>(nv_);
    live_in_.assign(static_cast<std::size_t>(n),
                    std::vector<char>(nv, 0));
    for (const placement::SpecVar& o : model_.outputs())
      if (int v = ordinal(o.sym); v >= 0) live_in_[dfg::kExit][v] = 1;
    std::deque<NodeId> work;
    for (NodeId u = 0; u < n; ++u) work.push_back(u);
    while (!work.empty()) {
      NodeId u = work.front();
      work.pop_front();
      std::vector<char> live(nv, 0);
      if (u == dfg::kExit) live = live_in_[u];  // outputs stay live
      for (NodeId v : succ_[u])
        for (std::size_t k = 0; k < nv; ++k)
          if (live_in_[v][k]) live[k] = 1;
      const lang::Stmt* s = cfg_.stmt(u);
      if (s) {
        // A generation-starting write overwrites whatever a communication
        // refreshed; reads (including accumulator read-backs, which do
        // consume refreshed overlap values) keep the variable live.
        const int dv = ordinal(coh_.def_sym(*s));
        if (dv >= 0 && coh_.partitioned_loop(*s)) live[dv] = 0;
        for (const dfg::VarAccess& use : model_.defuse(*s).uses)
          if (int v = ordinal(use.var); v >= 0) live[v] = 1;
      }
      if (live != live_in_[u]) {
        live_in_[u] = std::move(live);
        for (NodeId p : pred_[u]) work.push_back(p);
      }
    }
  }

  // ---- reporting ----------------------------------------------------------

  void add(Severity sev, SrcRange range, std::string_view code,
           std::string msg) {
    Diagnostic d;
    d.severity = sev;
    d.loc = range.begin;
    d.end = range.end == range.begin ? SrcLoc{} : range.end;
    d.code = std::string(code);
    d.message = std::move(msg);
    report_.findings.push_back(std::move(d));
  }

  [[nodiscard]] const char* comm_name(int sym) const {
    if (model_.entity_of(sym) != automaton::EntityKind::kNode)
      return "domain extension";
    return coh_.pattern() == automaton::PatternKind::kEntityLayer
               ? "overlap-som"
               : "assemble-som";
  }

  void report_unreachable() {
    bool prev_unreachable = false;
    for (const lang::Stmt* s : cfg_.statements()) {
      bool unreachable = !in_[cfg_.node_of(*s)].reachable &&
                         !out_[cfg_.node_of(*s)].reachable;
      if (unreachable && !prev_unreachable)
        add(Severity::kWarning, SrcRange{s->loc}, kLintUnreachable,
            "unreachable statement: no control-flow path from the "
            "subroutine entry reaches it; its occurrences constrain the "
            "placement but never execute");
      prev_unreachable = unreachable;
    }
  }

  /// Judges the syncs attached before one program point, in placement
  /// order: a sync whose variable is not live there is dead (L003); a live
  /// sync applied to an already fully coherent must-state is redundant
  /// (L004). `state` is the pre-sync join and is updated in place, so the
  /// second of two back-to-back syncs of one variable is the one flagged.
  void check_syncs(const std::vector<const SyncPoint*>& syncs,
                   AbsState& state, const std::vector<char>& live,
                   SrcRange where, const char* where_desc) {
    for (const SyncPoint* sp : syncs) {
      const int sym = sym_of(*sp);
      const int v = ordinal(sym);
      if (v >= 0 && state.reachable &&
          (sp->action == automaton::CommAction::kUpdateCopy ||
           sp->action == automaton::CommAction::kAssembleAdd)) {
        if (!live[static_cast<std::size_t>(v)]) {
          std::ostringstream os;
          os << "dead communication: the '" << comm_name(sym)
             << "' of '" << sp->var << "' placed " << where_desc
             << " refreshes overlap values that are never read before '"
             << sp->var << "' is overwritten";
          add(Severity::kWarning, where, kLintDeadComm, os.str());
          judgments_[sp] = SyncJudgment::kDead;
        } else if (state.lo[v].fresh >= depth_) {
          std::ostringstream os;
          os << "redundant synchronization: '" << sp->var
             << "' is already fully coherent on every path reaching this "
                "point; the '"
             << comm_name(sym) << "' " << where_desc
             << " re-communicates unchanged data";
          add(Severity::kWarning, where, kLintRedundantSync, os.str());
          judgments_[sp] = SyncJudgment::kRedundant;
        }
      }
      apply_sync(state, *sp);
    }
  }

  /// Greedy backward walk along must-minimal predecessors: a concrete
  /// witness for "some path reaches this read with the deficient state".
  std::string worst_path(NodeId n, int v) const {
    std::vector<std::string> hops;
    std::set<NodeId> visited;
    NodeId cur = n;
    while (visited.insert(cur).second &&
           hops.size() < 6) {
      NodeId best = -1;
      for (NodeId p : pred_[cur]) {
        if (!out_[p].reachable) continue;
        if (best == -1 ||
            out_[p].lo[v].fresh < out_[best].lo[v].fresh)
          best = p;
      }
      if (best == -1) break;
      const lang::Stmt* s = cfg_.stmt(best);
      hops.push_back(s ? to_string(s->loc) : "<entry>");
      cur = best;
    }
    std::reverse(hops.begin(), hops.end());
    std::string path;
    for (const std::string& h : hops) path += h + " -> ";
    path += "here";
    return path;
  }

  void check_read(const lang::Stmt& s, NodeId n, const AbsState& st,
                  const dfg::VarAccess& use) {
    const int v = ordinal(use.var);
    if (v < 0 || !st.reachable) return;
    ReadCheck rc = coh_.read_check(s, use.var);
    if (rc == ReadCheck::kSkipAccumulator) return;
    const std::string& vname = name(use.var);
    int layers = access_layers(s, use);
    // Outside every partitioned loop the read touches a single statically
    // unknown cell; require the kernel bound (matching the sanitizer,
    // which checks the concrete — usually kernel — cell).
    int r = layers < 0 ? 0 : coh_.read_required_layers(use.shape, layers);
    // A previous-generation read is of the variable `s` itself defines.
    bool lagged = rc == ReadCheck::kPreviousGeneration &&
                  !coh_.is_first_write(s);
    int have_hi = lagged ? st.hi[v].prev : st.hi[v].fresh;
    int have_lo = lagged ? st.lo[v].prev : st.lo[v].fresh;
    if (have_hi >= r) {
      if (have_lo >= r) return;
      if (!seen_.insert({&s, v, kLintStaleSomePath}).second) return;
      std::ostringstream os;
      os << "possibly stale read: '" << vname << "' needs "
         << depth_str(r) << " here, but some path provides "
         << depth_str(have_lo) << "; a '" << comm_name(use.var)
         << "' communication of '" << vname
         << "' is missing on that path";
      add(Severity::kWarning, SrcRange{use.loc.known() ? use.loc : s.loc},
          kLintStaleSomePath, os.str());
      add(Severity::kNote, SrcRange{use.loc.known() ? use.loc : s.loc}, {},
          "possibly-stale path: " + worst_path(n, v));
      return;
    }
    if (!seen_.insert({&s, v, kLintStaleEveryPath}).second) return;
    std::ostringstream os;
    os << "stale overlap read: '" << vname << "' needs " << depth_str(r)
       << " here, but every path provides at most " << depth_str(have_hi)
       << "; a '" << comm_name(use.var) << "' communication of '" << vname
       << "' must be placed on every path reaching this statement";
    add(Severity::kError, SrcRange{use.loc.known() ? use.loc : s.loc},
        kLintStaleEveryPath, os.str());
  }

  void report_statements() {
    for (const lang::Stmt* s : cfg_.statements()) {
      NodeId n = cfg_.node_of(*s);
      if (!in_[n].reachable && !out_[n].reachable) continue;
      auto sit = syncs_before_.find(s);
      if (sit != syncs_before_.end()) {
        AbsState st = entry_join(n);
        check_syncs(sit->second, st, live_in_[n], SrcRange{s->loc},
                    ("before " + to_string(s->loc)).c_str());
      }
      for (const dfg::VarAccess& use : model_.defuse(*s).uses)
        check_read(*s, n, in_[n], use);
    }
  }

  void report_exit() {
    AbsState st;
    for (NodeId p : pred_[dfg::kExit]) join(st, out_[p]);
    if (!st.reachable) return;
    check_syncs(syncs_at_exit_, st, live_in_[dfg::kExit], SrcRange{},
                "at the end of the subroutine");
    for (const placement::SpecVar& o : model_.outputs()) {
      const int v = ordinal(o.sym);
      if (v < 0) continue;
      int need = std::max(0, depth_ - o.level);
      auto describe = [&](int have, const char* quantifier) {
        std::ostringstream os;
        os << "output '" << name(o.sym) << "' leaves the subroutine with "
           << depth_str(have) << " on " << quantifier
           << " path, but its declared final state needs "
           << depth_str(need);
        return os.str();
      };
      if (st.hi[v].fresh < need)
        add(Severity::kError, SrcRange{}, kLintStaleEveryPath,
            describe(st.hi[v].fresh, "every"));
      else if (st.lo[v].fresh < need)
        add(Severity::kWarning, SrcRange{}, kLintStaleSomePath,
            describe(st.lo[v].fresh, "some"));
    }
  }
};

}  // namespace

LintReport lint_placement(const ProgramModel& model,
                          const Placement& placement,
                          const LintOptions& options,
                          DiagnosticEngine* sink) {
  LintPass pass(model, placement, options);
  LintReport report = pass.run();
  if (sink)
    for (const Diagnostic& f : report.findings)
      sink->report(f.severity, f.range(), f.code, f.message);
  return report;
}

SyncAudit audit_syncs(const ProgramModel& model, const Placement& placement,
                      const LintOptions& options) {
  LintPass pass(model, placement, options);
  SyncAudit audit;
  audit.report = pass.run();
  audit.judgments = pass.judgments();
  return audit;
}

}  // namespace meshpar::analysis
