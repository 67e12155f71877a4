#include "placement/flowgraph.hpp"

#include <algorithm>
#include <sstream>

namespace meshpar::placement {

using automaton::ArrowKind;
using automaton::EntityKind;
using automaton::ValueClass;
using dfg::AccessShape;
using lang::Stmt;
using lang::StmtKind;

std::string Occurrence::describe(const lang::Subroutine& sub) const {
  std::ostringstream os;
  switch (kind) {
    case OccKind::kInput: os << "input " << sub.symbols[var]; break;
    case OccKind::kWrite: os << "write " << sub.symbols[var]; break;
    case OccKind::kRead: os << "read " << sub.symbols[var]; break;
    case OccKind::kPredicate: os << "predicate"; break;
    case OccKind::kOutput: os << "output " << sub.symbols[var]; break;
  }
  if (stmt) os << " @" << to_string(stmt->loc);
  return os.str();
}

int FlowGraph::add_occ(Occurrence o) {
  o.id = static_cast<int>(occs_.size());
  occs_.push_back(std::move(o));
  out_.emplace_back();
  in_.emplace_back();
  return occs_.back().id;
}

void FlowGraph::add_arrow(FlowArrow a) {
  a.id = static_cast<int>(arrows_.size());
  out_[a.src].push_back(a.id);
  in_[a.dst].push_back(a.id);
  arrows_.push_back(std::move(a));
}

int FlowGraph::write_occ(const Stmt& s) const {
  for (const auto& o : occs_)
    if (o.kind == OccKind::kWrite && o.stmt == &s) return o.id;
  return -1;
}

int FlowGraph::read_occ(const Stmt& s, int var) const {
  for (const auto& o : occs_)
    if (o.kind == OccKind::kRead && o.stmt == &s && o.var == var) return o.id;
  return -1;
}

int FlowGraph::input_occ(int var) const {
  for (const auto& o : occs_)
    if (o.kind == OccKind::kInput && o.var == var) return o.id;
  return -1;
}

int FlowGraph::output_occ(int var) const {
  for (const auto& o : occs_)
    if (o.kind == OccKind::kOutput && o.var == var) return o.id;
  return -1;
}

class FlowGraphBuilder {
 public:
  FlowGraphBuilder(const ProgramModel& m, DiagnosticEngine& diags)
      : m_(m),
        diags_(diags),
        input_of_(m.sub().symbols.size(), -1),
        write_of_(m.cfg().statements().size(), -1),
        pred_of_(write_of_) {}

  FlowGraph run() {
    build_inputs();
    build_statement_occs();
    build_outputs();
    build_true_arrows();
    build_value_arrows();
    build_control_arrows();
    // A scalar write with no data inputs (a literal assignment) is computed
    // identically on every processor: it is replicated by construction.
    // Without this, the engine could claim Sca1 "at birth" and manufacture
    // spurious reduction updates.
    for (Occurrence& o : fg_.occs_) {
      if (o.kind != OccKind::kWrite || o.fixed_state) continue;
      if (o.shape != EntityKind::kScalar) continue;
      bool has_data_input = false;
      for (int aid : fg_.in_arrows(o.id))
        if (fg_.arrows()[aid].kind != ArrowKind::kControl)
          has_data_input = true;
      if (!has_data_input) o.fixed_state = fixed(EntityKind::kScalar, 0);
    }
    return std::move(fg_);
  }

 private:
  const ProgramModel& m_;
  DiagnosticEngine& diags_;
  FlowGraph fg_;
  std::vector<int> input_of_;  // symbol -> occ or -1
  std::vector<int> write_of_;  // stmt id -> occ or -1
  std::vector<int> pred_of_;   // stmt id -> occ or -1
  /// Read occurrences in (statement id, variable name) order, the order
  /// the true and value arrows are numbered in.
  struct Read {
    const Stmt* stmt;
    int var;
    int occ;
  };
  std::vector<Read> reads_;

  std::optional<int> fixed(EntityKind shape, int level) {
    auto s = m_.autom().find_state(shape, level);
    if (!s) {
      diags_.error({}, std::string("automaton '") + m_.autom().name() +
                           "' has no state for entity " +
                           automaton::to_string(shape) + " at level " +
                           std::to_string(level));
    }
    return s;
  }

  /// Should this use be modeled as a read occurrence? DO variables of
  /// enclosing loops and recognized induction variables are loop machinery,
  /// removed as §3.2 prescribes.
  bool is_machinery(int var, const Stmt& s) const {
    for (const Stmt* l = m_.cfg().enclosing_do(s); l;
         l = m_.cfg().enclosing_do(*l)) {
      if (l->do_sym == var) return true;
      for (const auto& ind : m_.patterns().inductions())
        if (ind.loop == l && ind.var == var) return true;
    }
    return false;
  }

  void add_input(int var, int level) {
    Occurrence o;
    o.kind = OccKind::kInput;
    o.var = var;
    o.shape = m_.entity_of(var).value_or(EntityKind::kScalar);
    o.fixed_state = fixed(o.shape, level);
    input_of_[static_cast<std::size_t>(var)] = fg_.add_occ(std::move(o));
  }

  void build_inputs() {
    for (const SpecVar& in : m_.inputs()) add_input(in.sym, in.level);
    // Parameters without a declared input state default to coherent.
    for (const auto& p : m_.sub().params) {
      const int var = m_.sub().symbol(p);
      if (input_of_[static_cast<std::size_t>(var)] >= 0) continue;
      diags_.warning({}, "parameter '" + p +
                             "' has no declared input state; assuming "
                             "coherent/replicated");
      add_input(var, 0);
    }
  }

  void build_statement_occs() {
    for (const Stmt* s : m_.cfg().statements()) {
      const dfg::StmtDefUse& du = m_.defuse(*s);
      if (du.def) {
        Occurrence o;
        o.kind = OccKind::kWrite;
        o.stmt = s;
        o.var = du.def->var;
        o.shape = m_.shape_at(o.var, *s);
        // Partitioned DO variables iterate local entities: always coherent.
        if (s->kind == StmtKind::kDo && m_.is_partitioned(*s))
          o.fixed_state = fixed(o.shape, 0);
        write_of_[s->id] = fg_.add_occ(std::move(o));
      }
      if (s->kind == StmtKind::kIf) {
        Occurrence o;
        o.kind = OccKind::kPredicate;
        o.stmt = s;
        const Stmt* loop = m_.enclosing_partitioned(*s);
        o.shape = loop ? m_.partition_rule(*loop)->entity
                       : EntityKind::kScalar;
        pred_of_[s->id] = fg_.add_occ(std::move(o));
      }
      // Read occurrences, one per distinct consumed variable, numbered in
      // use order; reads_ lists them in name order.
      const auto first = static_cast<std::ptrdiff_t>(reads_.size());
      for (const auto& u : du.uses) {
        if (std::any_of(reads_.begin() + first, reads_.end(),
                        [&](const Read& r) { return r.var == u.var; }))
          continue;
        if (is_machinery(u.var, *s)) continue;
        Occurrence o;
        o.kind = OccKind::kRead;
        o.stmt = s;
        o.var = u.var;
        o.shape = m_.shape_at(u.var, *s);
        reads_.push_back({s, u.var, fg_.add_occ(std::move(o))});
      }
      std::sort(reads_.begin() + first, reads_.end(),
                [&](const Read& a, const Read& b) {
                  return m_.sub().name_rank[a.var] < m_.sub().name_rank[b.var];
                });
    }
  }

  void build_outputs() {
    for (const SpecVar& out : m_.outputs()) {
      Occurrence o;
      o.kind = OccKind::kOutput;
      o.var = out.sym;
      o.shape = m_.entity_of(out.sym).value_or(EntityKind::kScalar);
      o.fixed_state = fixed(o.shape, out.level);
      fg_.add_occ(std::move(o));
    }
  }

  /// Source occurrence of a reaching definition: a statement's write occ or
  /// the parameter's input occ.
  int def_occ(const dfg::Definition& def) {
    if (def.is_entry()) return input_of_[static_cast<std::size_t>(def.var)];
    return write_of_[def.stmt->id];
  }

  /// What a statement produces: its predicate occurrence (an IF) or its
  /// write occurrence (an assignment or a DO header), else -1.
  [[nodiscard]] int product_of(const Stmt& s) const {
    return pred_of_[s.id] >= 0 ? pred_of_[s.id] : write_of_[s.id];
  }

  void build_true_arrows() {
    const auto& rd = m_.reaching();
    for (const auto& [s, var, read_id] : reads_) {
      bool into_acc = false;
      if (m_.enclosing_partitioned(*s))
        if (const dfg::Reduction* r = m_.patterns().reduction_at(*s))
          into_acc = r->var == var;
      bool any = false;
      for (int def_id : rd.reaching(*s, var)) {
        int src = def_occ(rd.definitions()[def_id]);
        if (src < 0) continue;
        fg_.add_arrow({-1, src, read_id, ArrowKind::kTrue,
                       ValueClass::kIdentity, var, into_acc});
        any = true;
      }
      if (!any) {
        diags_.warning(s->loc, "variable '" + m_.sub().symbols[var] +
                                   "' may be read uninitialized");
      }
    }
    // Results: every definition reaching exit flows into the output occ.
    for (const SpecVar& o : m_.outputs()) {
      int out = fg_.output_occ(o.sym);
      for (int def_id : rd.reaching_exit(o.sym)) {
        int src = def_occ(rd.definitions()[def_id]);
        if (src >= 0)
          fg_.add_arrow({-1, src, out, ArrowKind::kTrue,
                         ValueClass::kIdentity, o.sym});
      }
    }
  }

  ValueClass classify_read(const Stmt& s, const dfg::VarAccess& access,
                           EntityKind src_shape, EntityKind dst_shape) {
    const Stmt* loop = m_.enclosing_partitioned(s);
    const bool partitioned = loop != nullptr;

    if (partitioned && s.kind == StmtKind::kAssign) {
      if (const dfg::Assembly* a = m_.patterns().assembly_at(s)) {
        if (a->var == access.var) return ValueClass::kAccumulate;
      }
      if (const dfg::Reduction* r = m_.patterns().reduction_at(s)) {
        return r->var == access.var ? ValueClass::kAccumulate
                                    : ValueClass::kReduction;
      }
    }
    if (access.shape == AccessShape::kIndirect ||
        access.shape == AccessShape::kWhole)
      return ValueClass::kGather;
    if (src_shape == EntityKind::kScalar && dst_shape != EntityKind::kScalar)
      return ValueClass::kBroadcast;
    if (src_shape == dst_shape) return ValueClass::kIdentity;
    if (dst_shape == EntityKind::kScalar) return ValueClass::kReduction;
    return ValueClass::kScatter;
  }

  void build_value_arrows() {
    for (const auto& [s, var, read_id] : reads_) {
      const int dst = product_of(*s);
      if (dst < 0) continue;  // call/goto arguments have no product

      // The representative access of this variable in this statement.
      const dfg::VarAccess* access = nullptr;
      for (const auto& u : m_.defuse(*s).uses)
        if (u.var == var &&
            (!access || u.shape == AccessShape::kIndirect ||
             u.shape == AccessShape::kWhole))
          access = &u;
      if (!access) continue;

      ValueClass vc = classify_read(*s, *access, fg_.occ(read_id).shape,
                                    fg_.occ(dst).shape);
      fg_.add_arrow({-1, read_id, dst, ArrowKind::kValue, vc, var});
    }
  }

  void build_control_arrows() {
    for (const dfg::Dependence& d : m_.deps().all()) {
      if (d.kind != dfg::DepKind::kControl) continue;
      const int src = product_of(*d.src);
      if (src < 0) continue;
      const int dst = product_of(*d.dst);
      if (dst < 0 || dst == src) continue;
      fg_.add_arrow({-1, src, dst, ArrowKind::kControl,
                     ValueClass::kIdentity, -1});
    }
  }
};

FlowGraph FlowGraph::build(const ProgramModel& model,
                           DiagnosticEngine& diags) {
  return FlowGraphBuilder(model, diags).run();
}

}  // namespace meshpar::placement
