#include "interp/spmd.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>

#include "interp/checkpoint.hpp"
#include "interp/coherence.hpp"
#include "placement/solution.hpp"
#include "placement/verify.hpp"
#include "runtime/exchange.hpp"
#include "solver/testt.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace meshpar::interp {

using overlap::Decomposition;
using overlap::SubMesh;
using placement::Placement;
using placement::ProgramModel;

namespace {

/// Looks up the reduction operator for a scalar symbol (for the "+
/// reduction" synchronization). Defaults to sum.
lang::BinOp reduction_op(const ProgramModel& model, int var) {
  for (const auto& r : model.patterns().reductions())
    if (r.var == var) return r.op;
  return lang::BinOp::kAdd;
}

/// One rank's staleness shadow state. Every partitioned array is shadowed
/// by per-cell *epochs* against a per-variable *write-generation clock*:
///
///   * the clock ticks when a partitioned loop that (re)writes the variable
///     begins — once per entry, which is SPMD-symmetric across ranks;
///   * an elementwise store stamps its cell with the current generation
///     (the rank computed the value itself, from reads checked below);
///   * an assembly/scatter store stamps the cell with the current
///     generation only where the iteration domain provably delivers every
///     contribution (entity-layer: nodes interior to the iterated triangle
///     layers; node-boundary: non-shared nodes); elsewhere the cell holds a
///     partial sum and stays one generation behind;
///   * an overlap exchange of the variable stamps every cell (the
///     communication is what establishes coherence);
///   * a read of a cell whose epoch lags the clock is stale — the value is
///     not the one the sequential execution would have used (MP-S001).
///
/// A statement that rewrites the variable it reads (x(i) = f(x(..)), and
/// assembly accumulators) legitimately reads the *previous* generation, so
/// its threshold is relaxed by one. The generation structure itself (which
/// statements write which tracked array, under which partitioned loop, and
/// which reads are exempt) comes from the shared CoherenceModel so that the
/// static analyzer and this sanitizer can never disagree about it.
class RankSanitizer {
 public:
  /// `layers` is the placement's iteration domain per Stmt::id (-1 where
  /// the statement has none).
  RankSanitizer(const CoherenceModel& coherence, const std::vector<int>& layers,
                std::size_t num_symbols, const Decomposition& d, int rank_id)
      : coh_(coherence), pattern_(d.pattern), sub_(d.subs[rank_id]),
        layers_(layers), clock_(num_symbols, 0), epochs_(num_symbols) {
    if (pattern_ == automaton::PatternKind::kNodeBoundary) {
      shared_.assign(sub_.node_l2g.size(), 0);
      for (const auto* msgs : {&d.sends[rank_id], &d.recvs[rank_id]})
        for (const auto& msg : *msgs)
          for (int i : msg.indices)
            if (i >= 0 && i < static_cast<int>(shared_.size()))
              shared_[static_cast<std::size_t>(i)] = 1;
    }
  }

  /// Tick write-generation clocks. Called AFTER the statement's syncs ran
  /// (a communication placed before a loop refreshes the *previous*
  /// generation, not the one the loop is about to produce).
  void on_statement(const lang::Stmt& s) {
    for (int sym : coh_.ticks(s)) ++clock_[static_cast<std::size_t>(sym)];
  }

  /// An overlap update/assembly of symbol `sym` (bound to `b`) just
  /// completed: every cell now carries the coherent (owner / fully summed)
  /// value.
  void on_exchange(int sym, const Binding& b) {
    if (!coh_.tracked(sym)) return;
    std::vector<long long>& ep = epochs(sym, b);
    std::fill(ep.begin(), ep.end(), clock_[static_cast<std::size_t>(sym)]);
  }

  void on_write(const lang::Stmt& s, const lang::Expr& ref, long long idx,
                const Binding& b) {
    const auto entity_kind = coh_.tracked(ref.sym);
    if (!entity_kind) return;
    std::vector<long long>& ep = epochs(ref.sym, b);
    if (idx < 0 || idx >= static_cast<long long>(ep.size())) return;
    bool complete = true;
    if (coh_.is_scatter(s) && *entity_kind == automaton::EntityKind::kNode) {
      long long entity = entity_index(idx, b);
      if (pattern_ == automaton::PatternKind::kEntityLayer) {
        // Nodes of layer j collect contributions from triangles of layer
        // <= j+1; iterating k layers completes only nodes with j <= k-1.
        int k = 0;
        if (const lang::Stmt* lp = coh_.partitioned_loop(s))
          k = std::max(layers_[static_cast<std::size_t>(lp->id)], 0);
        complete = entity < static_cast<long long>(sub_.node_layer.size()) &&
                   sub_.node_layer[static_cast<std::size_t>(entity)] <= k - 1;
      } else {
        // Owned triangles only: duplicated boundary nodes end up partial.
        complete = entity >= static_cast<long long>(shared_.size()) ||
                   shared_[static_cast<std::size_t>(entity)] == 0;
      }
    }
    const long long c = clock_[static_cast<std::size_t>(ref.sym)];
    ep[static_cast<std::size_t>(idx)] = complete ? c : c - 1;
  }

  void on_read(const lang::Stmt& s, const lang::Expr& ref, long long idx,
               const Binding& b) {
    const auto entity_kind = coh_.tracked(ref.sym);
    if (!entity_kind) return;
    long long c = clock_[static_cast<std::size_t>(ref.sym)];
    if (c == 0) return;  // nothing written yet: initial data is coherent
    std::vector<long long>& ep = epochs(ref.sym, b);
    if (idx < 0 || idx >= static_cast<long long>(ep.size())) return;
    long long threshold = c;
    switch (coh_.read_check(s, ref.sym)) {
      case ReadCheck::kSkipAccumulator:
        return;
      case ReadCheck::kPreviousGeneration:
        threshold = c - 1;
        break;
      case ReadCheck::kNormal:
        break;
    }
    long long have = ep[static_cast<std::size_t>(idx)];
    if (have >= threshold) return;
    if (first_stale_sync_ < 0) first_stale_sync_ = current_sync_;
    if (!findings_seen_.insert({s.id, ref.sym}).second) return;  // per site
    long long entity = entity_index(idx, b);
    const bool node = *entity_kind == automaton::EntityKind::kNode;
    const std::vector<int>& l2g = node ? sub_.node_l2g : sub_.tri_l2g;
    const std::string& var = ref.name;
    std::ostringstream os;
    os << "stale overlap read: '" << var << "(" << entity + 1 << ")'";
    if (entity >= 0 && entity < static_cast<long long>(l2g.size()))
      os << " (global " << (node ? "node " : "triangle ")
         << l2g[static_cast<std::size_t>(entity)] + 1 << ")";
    os << " is " << threshold - have << " generation(s) behind; a '"
       << comm_name(*entity_kind) << "' communication of '" << var
       << "' must be placed on every path reaching this statement";
    Diagnostic diag;
    diag.severity = Severity::kError;
    diag.loc = s.loc;
    diag.code = std::string(placement::kVerifyStaleRead);
    diag.message = os.str();
    findings_.push_back(std::move(diag));
  }

  [[nodiscard]] std::vector<Diagnostic> take_findings() {
    return std::move(findings_);
  }

  /// The hooks report each coherence-sync ordinal as it is passed (elided
  /// or not), so stale reads can be dated against the sync timeline.
  void note_sync_ordinal(long long ordinal) { current_sync_ = ordinal; }
  /// Ordinal most recently passed when the first stale read was observed;
  /// -1 if the rank saw none.
  [[nodiscard]] long long first_stale_sync() const {
    return first_stale_sync_;
  }

 private:
  const CoherenceModel& coh_;
  automaton::PatternKind pattern_;
  const SubMesh& sub_;
  const std::vector<int>& layers_;
  std::vector<char> shared_;
  std::vector<long long> clock_;                // by symbol
  std::vector<std::vector<long long>> epochs_;  // by symbol
  std::set<std::pair<int, int>> findings_seen_;  // (Stmt::id, symbol)
  std::vector<Diagnostic> findings_;
  long long current_sync_ = -1;
  long long first_stale_sync_ = -1;

  /// Lazily sized shadow array (initial data is generation 0 = coherent).
  std::vector<long long>& epochs(int sym, const Binding& b) {
    std::vector<long long>& ep = epochs_[static_cast<std::size_t>(sym)];
    if (ep.size() != b.array.size()) ep.resize(b.array.size(), 0);
    return ep;
  }

  /// First-dimension (entity) index of a flat cell: column-major, so the
  /// entity index is flat modulo the first extent.
  static long long entity_index(long long idx, const Binding& b) {
    if (b.dims.empty() || b.dims[0] <= 0) return idx;
    return idx % b.dims[0];
  }

  [[nodiscard]] const char* comm_name(automaton::EntityKind entity) const {
    if (entity != automaton::EntityKind::kNode) return "domain extension";
    return pattern_ == automaton::PatternKind::kEntityLayer ? "overlap-som"
                                                            : "assemble-som";
  }
};

/// The placement's iteration-domain layers per Stmt::id; -1 for statements
/// that are not a restricted loop.
std::vector<int> domain_layers_by_stmt(const ProgramModel& model,
                                       const Placement& placement) {
  std::vector<int> layers(model.cfg().statements().size(), -1);
  for (const auto& dom : placement.domains)
    layers[static_cast<std::size_t>(dom.loop->id)] = dom.layers;
  return layers;
}

/// Hooks driving one rank's execution of a placement.
class SpmdHooks : public ExecHooks {
 public:
  SpmdHooks(const ProgramModel& model, const Placement& placement,
            const std::vector<int>& layers, const Decomposition& d,
            runtime::Rank& rank, RankSanitizer* sanitizer = nullptr,
            CheckpointStore* ckpt = nullptr)
      : model_(model), d_(d), rank_(rank), exchanger_(d, rank.id()),
        syncs_before_(model.cfg().statements().size()), layers_(layers),
        sanitizer_(sanitizer), ckpt_(ckpt) {
    for (const auto& s : placement.syncs) {
      if (s.before)
        syncs_before_[static_cast<std::size_t>(s.before->id)].push_back(&s);
      else
        syncs_at_exit_.push_back(&s);
    }
  }

  void before_statement(const lang::Stmt& s, Frame& frame) override {
    // Poll for a watchdog abort so compute-only phases (which never touch
    // the runtime) still unwind on MP-R002.
    rank_.check_abort();
    const auto& syncs = syncs_before_[static_cast<std::size_t>(s.id)];
    if (!syncs.empty()) run_syncs(syncs, frame);
    // Generation ticks AFTER the syncs: a communication placed before a
    // loop coheres the previous generation, not the upcoming one.
    if (sanitizer_) sanitizer_->on_statement(s);
  }

  void at_exit(Frame& frame) override { run_syncs(syncs_at_exit_, frame); }

  void on_array_read(const lang::Stmt& s, const lang::Expr& ref,
                     long long idx, const Binding& b) override {
    if (sanitizer_) sanitizer_->on_read(s, ref, idx, b);
  }

  void on_array_write(const lang::Stmt& s, const lang::Expr& ref,
                      long long idx, const Binding& b) override {
    if (sanitizer_) sanitizer_->on_write(s, ref, idx, b);
  }

  bool override_loop_bound(const lang::Stmt& s, long long* hi) override {
    const int layers = layers_[static_cast<std::size_t>(s.id)];
    if (layers < 0) return false;
    const placement::LoopRule* rule = model_.partition_rule(s);
    const SubMesh& sub = d_.subs[rank_.id()];
    switch (rule->entity) {
      case automaton::EntityKind::kNode:
        *hi = sub.nodes_up_to_layer(layers);
        return true;
      case automaton::EntityKind::kTriangle:
        *hi = sub.tris_up_to_layer(layers);
        return true;
      default:
        return false;  // 3-D runs are outside the 2-D runner's scope
    }
  }

 private:
  const ProgramModel& model_;
  const Decomposition& d_;
  runtime::Rank& rank_;
  runtime::Exchanger exchanger_;
  // By Stmt::id.
  std::vector<std::vector<const placement::SyncPoint*>> syncs_before_;
  std::vector<const placement::SyncPoint*> syncs_at_exit_;
  const std::vector<int>& layers_;  // by Stmt::id, see domain_layers_by_stmt
  RankSanitizer* sanitizer_ = nullptr;
  CheckpointStore* ckpt_ = nullptr;
  long long sync_ordinal_ = 0;

 public:
  /// Coherence (array) synchronizations this rank reached — the kElideSync
  /// ordinal space; identical on every rank of an SPMD run.
  [[nodiscard]] long long sync_executions() const { return sync_ordinal_; }

 private:
  /// Runs the syncs attached to one program point in placement order. Every
  /// overlap update or assembly runs as a fuse group (same point, same
  /// action — see SyncPoint::fuse_group); an unfused one is a group of one.
  void run_syncs(const std::vector<const placement::SyncPoint*>& list,
                 Frame& frame) {
    std::vector<char> done(list.size(), 0);
    std::vector<const placement::SyncPoint*> group;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const placement::SyncPoint* sp = list[i];
      if (sp->action == automaton::CommAction::kReduceScalar) {
        run_reduction(*sp, frame);
        continue;
      }
      if (sp->action == automaton::CommAction::kNone || done[i]) continue;
      group.assign(1, sp);
      if (sp->fuse_group >= 0)
        for (std::size_t j = i + 1; j < list.size(); ++j)
          if (list[j]->fuse_group == sp->fuse_group &&
              list[j]->action == sp->action) {
            group.push_back(list[j]);
            done[j] = 1;
          }
      run_exchange(group, frame);
    }
  }

  /// One coherence exchange for a fuse group: a single collective in the
  /// kElideSync ordinal space, one message per schedule edge carrying every
  /// member's payload, traced as "sync:<method>:<var>[+<var>...]".
  ///
  /// kElideSync: every rank skips the same exchange (the whole group), so
  /// the elision is SPMD-symmetric (no rank blocks waiting for a skipped
  /// exchange) and the damage is purely a missing overlap update or
  /// assembly — exactly the fault class the staleness sanitizer audits.
  void run_exchange(const std::vector<const placement::SyncPoint*>& group,
                    Frame& frame) {
    const long long ordinal = sync_ordinal_++;
    if (sanitizer_) sanitizer_->note_sync_ordinal(ordinal);
    if (const runtime::FaultPlan* plan = rank_.faults();
        plan && plan->should_elide_sync(ordinal))
      return;
    const bool checkpoint = ckpt_ && ckpt_->wants(ordinal);
    const automaton::CommAction action = group[0]->action;
    std::vector<std::vector<double>*> fields;
    fields.reserve(group.size());
    std::string name = std::string("sync:") + placement::method_name(action) +
                       ":";
    for (const placement::SyncPoint* sp : group) {
      fields.push_back(&frame.vars[sp->var].array);
      if (sp != group[0]) name += "+";
      name += sp->var;
    }
    traced_sync(name, ordinal, [&] {
      exchanger_.exchange(rank_, fields,
                          action == automaton::CommAction::kUpdateCopy
                              ? runtime::Exchanger::Combine::kCopy
                              : runtime::Exchanger::Combine::kAdd);
    });
    for (const placement::SyncPoint* sp : group) {
      const Binding& b = frame.vars[sp->var];
      const int sym = model_.sub().symbol(sp->var);
      if (sanitizer_) sanitizer_->on_exchange(sym, b);
      if (checkpoint) contribute_checkpoint(ordinal, *sp, sym, b);
    }
  }

  /// A "+ reduction" of a scalar. Reductions are exempt from kElideSync and
  /// live outside its ordinal space (epoch -1): they are collective control
  /// flow, and eliding them symmetrically perturbs only replicated scalars,
  /// which no cell-granular oracle can flag.
  void run_reduction(const placement::SyncPoint& sp, Frame& frame) {
    Binding& b = frame.vars[sp.var];
    const lang::BinOp op = reduction_op(model_, model_.sub().symbol(sp.var));
    traced_sync(std::string("sync:") + placement::method_name(sp.action) +
                    ":" + sp.var,
                -1, [&] {
                  b.scalar = op == lang::BinOp::kMul
                                 ? rank_.allreduce_prod(b.scalar)
                                 : rank_.allreduce_sum(b.scalar);
                });
  }

  /// Runs one communication action under a trace span carrying the traffic
  /// it produced: a "sync:<method>:<vars>" complete event with this rank's
  /// message/byte deltas, plus one "comm/edge" counter per touched
  /// neighbor and direction. `epoch` is the coherence-sync ordinal (-1 for
  /// scalar reductions). The World collects per-edge counters whenever a
  /// tracer is installed, so the deltas below are well-defined; with
  /// tracing off this is a single relaxed load and the body alone.
  template <typename Body>
  void traced_sync(const std::string& name, long long epoch, Body&& body) {
    trace::Tracer* t = trace::current();
    if (!t) {
      body();
      return;
    }
    const runtime::Counters before = rank_.counters();
    const std::map<int, runtime::EdgeCounters> sent0 = rank_.edges_sent();
    const std::map<int, runtime::EdgeCounters> recv0 = rank_.edges_recv();
    const long long start = t->now_us();
    body();
    const long long dur = t->now_us() - start;
    const runtime::Counters& after = rank_.counters();
    t->complete(name, "spmd", start, dur,
                {{"rank", rank_.id()},
                 {"epoch", epoch},
                 {"msgs", after.msgs_sent - before.msgs_sent},
                 {"bytes", after.bytes_sent - before.bytes_sent}});
    auto edges = [&](const std::map<int, runtime::EdgeCounters>& now,
                     const std::map<int, runtime::EdgeCounters>& was,
                     const char* dir) {
      for (const auto& [peer, ec] : now) {
        auto it = was.find(peer);
        const long long dm =
            ec.msgs - (it == was.end() ? 0 : it->second.msgs);
        const long long db =
            ec.bytes - (it == was.end() ? 0 : it->second.bytes);
        if (dm == 0 && db == 0) continue;
        t->counter("comm/edge", "spmd",
                   {{"rank", rank_.id()},
                    {"peer", peer},
                    {"dir", dir},
                    {"epoch", epoch},
                    {"msgs", dm},
                    {"bytes", db}});
      }
    };
    edges(rank_.edges_sent(), sent0, "send");
    edges(rank_.edges_recv(), recv0, "recv");
  }

  /// Feed this rank's owned slice of the just-synced variable into the
  /// checkpoint store: the kernel copy for node entities, the owned copy
  /// for triangles. Only 1-D entity arrays participate (the synced
  /// variables always are); anything else is skipped symmetrically on
  /// every rank, so epoch completeness is unaffected.
  void contribute_checkpoint(long long ordinal, const placement::SyncPoint& sp,
                             int sym, const Binding& b) {
    const SubMesh& sub = d_.subs[rank_.id()];
    auto entity = model_.entity_of(sym);
    std::vector<std::pair<int, double>> owned;
    if (entity == automaton::EntityKind::kNode &&
        b.array.size() == sub.node_l2g.size()) {
      owned.reserve(static_cast<std::size_t>(sub.num_kernel_nodes));
      for (int l = 0; l < sub.num_kernel_nodes; ++l)
        owned.emplace_back(sub.node_l2g[static_cast<std::size_t>(l)],
                           b.array[static_cast<std::size_t>(l)]);
    } else if (entity == automaton::EntityKind::kTriangle &&
               b.array.size() == sub.tri_l2g.size()) {
      for (std::size_t l = 0; l < sub.tri_l2g.size(); ++l)
        if (sub.tri_owned[l])
          owned.emplace_back(sub.tri_l2g[l], b.array[l]);
    }
    ckpt_->contribute(rank_.id(), ordinal, sp.var, owned);
  }
};

/// Binds `binding` into `frame` as the rank holding `sub` sees it: node
/// and triangle fields localized through the sub-mesh's local-to-global
/// maps, the builder arrays built from it, and the declared entity arrays
/// the binding leaves out (locals such as OLD and NEW, and the outputs)
/// sized to its local extents, not the over-declared Fortran ones. The
/// bounds nsom/ntri default to the local "all" counts; partitioned loops
/// override them per domain anyway.
void bind_mesh(Frame& frame, const ProgramModel& model,
               const MeshBinding& binding, const SubMesh& sub) {
  for (const auto& [name, v] : binding.scalars) frame.set_scalar(name, v);
  auto localize = [&](const std::string& name, const std::vector<double>& field,
                      const std::vector<int>& l2g) {
    std::vector<double> local(l2g.size());
    for (std::size_t l = 0; l < l2g.size(); ++l) local[l] = field[l2g[l]];
    frame.set_array(name, std::move(local),
                    {static_cast<long long>(l2g.size())});
  };
  for (const auto& [name, field] : binding.node_fields)
    localize(name, field, sub.node_l2g);
  for (const auto& [name, field] : binding.tri_fields)
    localize(name, field, sub.tri_l2g);
  for (const auto& [name, builder] : binding.local_builders) {
    auto [values, dims] = builder(sub);
    frame.set_array(name, std::move(values), std::move(dims));
  }
  for (const auto& decl : model.sub().decls) {
    if (!decl.is_array() || frame.has(decl.name)) continue;
    auto entity = model.entity_of(model.sub().symbol(decl.name));
    if (!entity) continue;
    long long n = *entity == automaton::EntityKind::kNode
                      ? static_cast<long long>(sub.node_l2g.size())
                      : static_cast<long long>(sub.tri_l2g.size());
    frame.set_array(decl.name, std::vector<double>(n, 0.0), {n});
  }
  frame.set_scalar("nsom", sub.local.num_nodes());
  frame.set_scalar("ntri", sub.local.num_tris());
}

void collect_scalars(const Frame& frame, RunResult& r) {
  for (const auto& [name, b] : frame.vars)
    if (!b.is_array) r.scalars[name] = b.scalar;
}

}  // namespace

MeshBinding testt_binding(const mesh::Mesh2D& m) {
  MeshBinding b;
  b.tri_fields["airetri"] = m.tri_area;
  b.node_fields["airesom"] = m.node_area;
  b.local_builders["som"] = [](const SubMesh& sub) {
    const int nt = sub.local.num_tris();
    std::vector<double> som(static_cast<std::size_t>(nt) * 3);
    for (int t = 0; t < nt; ++t)
      for (int k = 0; k < 3; ++k)
        som[t + k * nt] = sub.local.tris[t][k] + 1;  // 1-based
    return std::make_pair(std::move(som),
                          std::vector<long long>{nt, 3});
  };
  b.scalars["nsom"] = m.num_nodes();
  b.scalars["ntri"] = m.num_tris();
  return b;
}

MeshBinding synthetic_binding(const placement::ProgramModel& model,
                              const mesh::Mesh2D& m) {
  MeshBinding binding = testt_binding(m);
  for (const placement::SpecVar& in : model.inputs()) {
    const std::string& name = model.sub().symbols[in.sym];
    auto entity = model.entity_of(in.sym);
    if (entity == automaton::EntityKind::kNode) {
      if (!binding.node_fields.count(name)) {
        std::vector<double> field(static_cast<std::size_t>(m.num_nodes()));
        for (std::size_t g = 0; g < field.size(); ++g)
          field[g] = 1.0 + 0.05 * static_cast<double>(g);
        binding.node_fields[name] = std::move(field);
      }
    } else if (entity == automaton::EntityKind::kTriangle) {
      // Covered by testt_binding (som, airetri) or left zeroed.
    } else if (!binding.scalars.count(name) &&
               !binding.local_builders.count(name)) {
      // Deterministic scalar defaults that keep convergence loops running.
      if (starts_with(name, "eps"))
        binding.scalars[name] = 0.0;
      else if (name == "maxloop")
        binding.scalars[name] = 3;
      else
        binding.scalars[name] = 1.0;
    }
  }
  return binding;
}

RunResult run_sequential(const ProgramModel& model, const mesh::Mesh2D& m,
                         const MeshBinding& binding) {
  RunResult out;
  // Sequentially, one rank holds the whole mesh: a sub-mesh whose
  // local-to-global maps are the identity.
  SubMesh whole;
  whole.local = m;
  whole.num_kernel_nodes = m.num_nodes();
  whole.node_l2g.resize(static_cast<std::size_t>(m.num_nodes()));
  std::iota(whole.node_l2g.begin(), whole.node_l2g.end(), 0);
  whole.tri_l2g.resize(static_cast<std::size_t>(m.num_tris()));
  std::iota(whole.tri_l2g.begin(), whole.tri_l2g.end(), 0);
  Frame frame;
  bind_mesh(frame, model, binding, whole);
  DiagnosticEngine diags;
  if (!execute(model.sub(), frame, diags)) {
    out.error = diags.str();
    return out;
  }
  for (const placement::SpecVar& o : model.outputs())
    if (model.entity_of(o.sym) == automaton::EntityKind::kNode) {
      const std::string& name = model.sub().symbols[o.sym];
      out.node_outputs[name] = frame.array(name);
    }
  out.ok = true;
  collect_scalars(frame, out);
  return out;
}

RunResult run_spmd_sanitized(runtime::World& world, const ProgramModel& model,
                             const Placement& placement,
                             const Decomposition& d, const mesh::Mesh2D& m,
                             const MeshBinding& binding,
                             StalenessReport* report, CheckpointStore* ckpt) {
  RunResult out;
  std::mutex out_mu;
  bool failed = false;
  std::string first_error;
  std::vector<Diagnostic> stale;
  // One program-level coherence model, shared (read-only) by every rank's
  // sanitizer.
  std::unique_ptr<CoherenceModel> coherence;
  if (report) coherence = std::make_unique<CoherenceModel>(model);
  const std::vector<int> layers = domain_layers_by_stmt(model, placement);

  auto rank_fn = [&](runtime::Rank& rank) {
    Frame frame;
    bind_mesh(frame, model, binding, d.subs[rank.id()]);

    std::unique_ptr<RankSanitizer> sanitizer;
    if (report)
      sanitizer = std::make_unique<RankSanitizer>(
          *coherence, layers, model.sub().symbols.size(), d, rank.id());
    SpmdHooks hooks(model, placement, layers, d, rank, sanitizer.get(), ckpt);
    DiagnosticEngine diags;
    bool ok = execute(model.sub(), frame, diags, {}, &hooks);

    // Gather outputs.
    std::map<std::string, std::vector<double>> gathered;
    for (const placement::SpecVar& o : model.outputs()) {
      if (model.entity_of(o.sym) != automaton::EntityKind::kNode) continue;
      const std::string& name = model.sub().symbols[o.sym];
      auto field = frame.array(name);
      gathered[name] =
          solver::gather_field(rank, d, field, m.num_nodes());
    }

    std::lock_guard<std::mutex> lock(out_mu);
    if (!ok && !failed) {
      failed = true;
      first_error = "rank " + std::to_string(rank.id()) + ": " + diags.str();
    }
    if (sanitizer) {
      const long long fs = sanitizer->first_stale_sync();
      if (fs >= 0 && (out.first_stale_sync < 0 || fs < out.first_stale_sync))
        out.first_stale_sync = fs;
      for (Diagnostic& f : sanitizer->take_findings())
        stale.push_back(std::move(f));
    }
    if (rank.id() == 0) {
      out.sync_executions = hooks.sync_executions();
      for (auto& [name, field] : gathered)
        out.node_outputs[name] = std::move(field);
      collect_scalars(frame, out);
    }
  };

  try {
    world.run(rank_fn);
  } catch (const runtime::SpmdFailure& f) {
    // Contained runtime failure (injected fault, deadlock, watchdog abort):
    // report it structurally instead of crashing; the sanitizer findings of
    // ranks that completed are still collected below.
    std::lock_guard<std::mutex> lock(out_mu);
    out.failure = f.report();
    if (!failed) {
      failed = true;
      first_error = f.report().describe();
    }
  }

  if (report) {
    // Ranks finish in scheduler order; sort + dedup for determinism.
    std::stable_sort(stale.begin(), stale.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return a.loc != b.loc ? a.loc < b.loc
                                             : a.message < b.message;
                     });
    stale.erase(std::unique(stale.begin(), stale.end(),
                            [](const Diagnostic& a, const Diagnostic& b) {
                              return a.loc == b.loc && a.message == b.message;
                            }),
                stale.end());
    report->findings = std::move(stale);
  }
  if (world.options().recovery) {
    const runtime::RecoveryStats rs = world.recovery_stats();
    out.stats.retransmits = rs.retransmits;
    out.stats.duplicates_suppressed = rs.duplicates_suppressed;
  }
  if (ckpt) out.stats.checkpoints = ckpt->complete_epochs();
  if (failed) {
    out.ok = false;
    out.error = first_error;
    return out;
  }
  out.ok = true;
  return out;
}

bool bitwise_identical(const RunResult& a, const RunResult& b) {
  auto same_bits = [](const double* x, const double* y, std::size_t n) {
    return n == 0 || std::memcmp(x, y, n * sizeof(double)) == 0;
  };
  if (a.node_outputs.size() != b.node_outputs.size() ||
      a.scalars.size() != b.scalars.size())
    return false;
  for (const auto& [name, field] : a.node_outputs) {
    auto it = b.node_outputs.find(name);
    if (it == b.node_outputs.end() || it->second.size() != field.size() ||
        !same_bits(field.data(), it->second.data(), field.size()))
      return false;
  }
  for (const auto& [name, v] : a.scalars) {
    auto it = b.scalars.find(name);
    if (it == b.scalars.end() || !same_bits(&v, &it->second, 1)) return false;
  }
  return true;
}

RunResult run_spmd(runtime::World& world, const ProgramModel& model,
                   const Placement& placement, const Decomposition& d,
                   const mesh::Mesh2D& m, const MeshBinding& binding) {
  return run_spmd_sanitized(world, model, placement, d, m, binding, nullptr);
}

}  // namespace meshpar::interp
