#include "opt/passes.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dfg/cfg.hpp"
#include "dfg/defuse.hpp"

namespace meshpar::opt {

using analysis::SyncJudgment;
using dfg::Cfg;
using dfg::NodeId;
using placement::Placement;
using placement::ProgramModel;
using placement::SyncPoint;

const char* pass_name(PassKind kind) {
  switch (kind) {
    case PassKind::kDeadCommElim: return "dead-comm-elim";
    case PassKind::kCoalesce: return "coalesce";
    case PassKind::kHoist: return "hoist";
    case PassKind::kVectorize: return "vectorize";
  }
  return "?";
}

namespace {

/// Erases, to a fixpoint, every sync `judge` selects from the audit. One
/// removal can change later judgments (the audit walks each point's sync
/// list in order, applying effects as it goes), so re-audit until clean.
template <typename Judge>
std::size_t erase_judged(const ProgramModel& model, Placement& p,
                         const analysis::LintOptions& lint, Judge judge) {
  std::size_t removed = 0;
  for (std::size_t round = 0; round <= p.syncs.size(); ++round) {
    const analysis::SyncAudit audit = analysis::audit_syncs(model, p, lint);
    std::vector<SyncPoint> kept;
    kept.reserve(p.syncs.size());
    for (std::size_t i = 0; i < p.syncs.size(); ++i) {
      if (judge(audit.judgments[i], p.syncs[i]))
        ++removed;
      else
        kept.push_back(p.syncs[i]);
    }
    if (kept.size() == p.syncs.size()) break;
    p.syncs = std::move(kept);
  }
  return removed;
}

}  // namespace

PassResult eliminate_dead_comms(const ProgramModel& model, Placement& p,
                                const analysis::LintOptions& lint) {
  PassResult r{PassKind::kDeadCommElim};
  r.removed = erase_judged(model, p, lint,
                           [](SyncJudgment j, const SyncPoint&) {
                             return j == SyncJudgment::kDead;
                           });
  return r;
}

PassResult coalesce_redundant_syncs(const ProgramModel& model, Placement& p,
                                    const analysis::LintOptions& lint) {
  PassResult r{PassKind::kCoalesce};
  r.removed = erase_judged(
      model, p, lint, [](SyncJudgment j, const SyncPoint& sp) {
        // Only copy-semantics updates: re-running an update over already
        // coherent copies rewrites identical bytes, so dropping it is
        // invisible. A "redundant" assembly would still double partials.
        return j == SyncJudgment::kRedundant &&
               sp.action == automaton::CommAction::kUpdateCopy;
      });
  return r;
}

namespace {

struct NaturalLoop {
  NodeId header = -1;
  std::set<NodeId> body;  // includes the header
};

/// Natural loops from the CFG's back edges, merged per header (two back
/// edges to one header form one loop).
std::vector<NaturalLoop> natural_loops(const Cfg& cfg) {
  std::map<NodeId, std::set<NodeId>> by_header;
  for (const Cfg::BackEdge& be : cfg.back_edges()) {
    std::set<NodeId>& body = by_header[be.header];
    body.insert(be.header);
    std::vector<NodeId> work;
    if (body.insert(be.tail).second) work.push_back(be.tail);
    while (!work.empty()) {
      const NodeId n = work.back();
      work.pop_back();
      for (NodeId pr : cfg.preds(n))
        if (body.insert(pr).second) work.push_back(pr);
    }
  }
  std::vector<NaturalLoop> loops;
  loops.reserve(by_header.size());
  for (auto& [h, body] : by_header) loops.push_back({h, std::move(body)});
  return loops;
}

bool stmt_reads(const dfg::StmtDefUse& du, int var) {
  for (const dfg::VarAccess& u : du.uses) {
    if (u.var == var) return true;
    if (std::find(u.index_reads.begin(), u.index_reads.end(), var) !=
        u.index_reads.end())
      return true;
  }
  // An indexed def a(s1) = ... reads its index scalars.
  if (du.def && std::find(du.def->index_reads.begin(),
                          du.def->index_reads.end(),
                          var) != du.def->index_reads.end())
    return true;
  return false;
}

bool stmt_writes(const dfg::StmtDefUse& du, int var) {
  return du.def && du.def->var == var;
}

bool in_any_loop(const std::vector<NaturalLoop>& loops, NodeId n) {
  for (const NaturalLoop& l : loops)
    if (l.body.count(n)) return true;
  return false;
}

}  // namespace

PassResult hoist_invariant_syncs(const ProgramModel& model, Placement& p) {
  PassResult r{PassKind::kHoist};
  const Cfg& cfg = model.cfg();
  const std::vector<NaturalLoop> loops = natural_loops(cfg);
  if (loops.empty()) return r;

  for (SyncPoint& sp : p.syncs) {
    // Only copy-semantics updates move: an assembly executed once instead
    // of per iteration changes the accumulated sums.
    if (sp.action != automaton::CommAction::kUpdateCopy) continue;
    if (!sp.before) continue;
    const NodeId at = cfg.node_of(*sp.before);

    // Innermost enclosing natural loop of the sync point.
    const NaturalLoop* loop = nullptr;
    for (const NaturalLoop& l : loops)
      if (l.body.count(at) && (!loop || l.body.size() < loop->body.size()))
        loop = &l;
    if (!loop) continue;
    const NodeId header = loop->header;
    const int var = model.sub().symbol(sp.var);

    // (1) Loop-invariance: the variable is never written inside the loop,
    // so the values the exchange ships are the same every iteration.
    bool invariant = true;
    for (NodeId n : loop->body) {
      const lang::Stmt* s = cfg.stmt(n);
      if (s && stmt_writes(model.defuse(*s), var)) {
        invariant = false;
        break;
      }
    }
    if (!invariant) continue;

    // (2) Read exclusion: on a first trip through the loop, no read of the
    // variable may execute before the sync's old point — those reads saw
    // pre-exchange overlap copies and must keep doing so. A read at
    // statement S is pre-sync-reachable iff S is the header itself or the
    // header reaches S without passing the sync point. When the sync sits
    // at the header it fires before every loop statement and nothing can
    // slip in front of it.
    bool safe = true;
    if (at != header) {
      for (NodeId n : loop->body) {
        const lang::Stmt* s = cfg.stmt(n);
        if (!s || s == sp.before) continue;
        if (!stmt_reads(model.defuse(*s), var)) continue;
        if (n == header || cfg.reaches(header, n, at)) {
          safe = false;
          break;
        }
      }
    }
    if (!safe) continue;

    // (3) Destination: the loop's unique pre-header P — outside every
    // loop, falls through into the header unconditionally, and neither
    // writes nor reads the variable. Those conditions make "exchange at P"
    // fire exactly when "exchange per iteration" used to start firing, on
    // every path that enters the loop and on no other.
    NodeId pre = -1;
    bool unique = true;
    for (NodeId pr : cfg.preds(header)) {
      if (loop->body.count(pr)) continue;  // the back edge(s)
      if (pre != -1) unique = false;
      pre = pr;
    }
    if (!unique || pre == -1 || pre == dfg::kEntry) continue;
    const lang::Stmt* dest = cfg.stmt(pre);
    if (!dest) continue;
    if (in_any_loop(loops, pre)) continue;
    if (cfg.succs(pre).size() != 1 || cfg.succs(pre)[0] != header) continue;
    const dfg::StmtDefUse& du = model.defuse(*dest);
    if (stmt_writes(du, var) || stmt_reads(du, var)) continue;

    sp.before = dest;
    sp.in_cycle = in_any_loop(loops, pre);  // false by construction
    ++r.hoisted;
  }
  return r;
}

PassResult vectorize_messages(const ProgramModel& model, Placement& p) {
  PassResult r{PassKind::kVectorize};
  std::vector<int> sync_sym;  // the symbol each sync names
  for (SyncPoint& sp : p.syncs) {
    sp.fuse_group = -1;
    sync_sym.push_back(model.sub().symbol(sp.var));
  }

  int next_group = 0;
  for (std::size_t i = 0; i < p.syncs.size(); ++i) {
    SyncPoint& a = p.syncs[i];
    if (a.fuse_group >= 0) continue;
    if (a.action != automaton::CommAction::kUpdateCopy &&
        a.action != automaton::CommAction::kAssembleAdd)
      continue;
    // Only node arrays share the node exchange schedule; anything else
    // cannot ride the same message.
    const int a_sym = sync_sym[i];
    if (model.entity_of(a_sym) != automaton::EntityKind::kNode) continue;

    std::vector<std::size_t> members{i};
    std::set<int> vars{a_sym};
    for (std::size_t j = i + 1; j < p.syncs.size(); ++j) {
      const SyncPoint& b = p.syncs[j];
      if (b.before != a.before || b.action != a.action) continue;
      if (b.fuse_group >= 0) continue;
      if (model.entity_of(sync_sym[j]) != automaton::EntityKind::kNode)
        continue;
      // A duplicate variable cannot be aggregated (its payload would be
      // shipped twice in one message); leave it unfused.
      if (!vars.insert(sync_sym[j]).second) continue;
      members.push_back(j);
    }
    if (members.size() < 2) continue;
    for (std::size_t m : members) p.syncs[m].fuse_group = next_group;
    ++next_group;
    r.fused += members.size();
  }
  return r;
}

}  // namespace meshpar::opt
