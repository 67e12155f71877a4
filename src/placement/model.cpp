#include "placement/model.hpp"

#include "automaton/library.hpp"
#include "lang/parser.hpp"
#include "support/trace.hpp"

namespace meshpar::placement {

using automaton::EntityKind;

std::unique_ptr<ProgramModel> ProgramModel::build(std::string_view source,
                                                  std::string_view spec_text,
                                                  DiagnosticEngine& diags) {
  auto m = std::unique_ptr<ProgramModel>(new ProgramModel());
  m->sub_ = lang::parse_subroutine(source, diags);
  if (diags.has_errors()) return nullptr;
  m->spec_ = parse_spec(spec_text, diags);
  if (diags.has_errors()) return nullptr;

  auto autom = automaton::by_spec_name(m->spec_.pattern_name);
  if (!autom) {
    diags.error({}, "unknown overlapping pattern '" + m->spec_.pattern_name +
                        "'");
    return nullptr;
  }
  m->autom_ = std::move(*autom);

  // One span per front-end layer, named like the benchmark's layers.
  {
    trace::Span span("dfg.cfg", "dfg");
    m->cfg_ = dfg::Cfg::build(m->sub_, diags);
  }
  if (diags.has_errors()) return nullptr;
  {
    trace::Span span("dfg.defuse", "dfg");
    m->defuse_ = dfg::analyze_defuse(m->sub_, m->cfg_);
  }
  {
    trace::Span span("dfg.depgraph", "dfg");
    m->deps_ = dfg::DepGraph::build(m->sub_, m->cfg_, m->defuse_);
  }
  {
    trace::Span span("dfg.reaching", "dfg");
    m->reaching_ = dfg::ReachingDefs::solve(m->sub_, m->cfg_, m->defuse_);
  }
  {
    trace::Span span("dfg.patterns", "dfg");
    m->patterns_ = dfg::Patterns::detect(m->sub_, m->cfg_, m->defuse_);
  }

  for (const lang::Stmt* s : m->cfg_.statements()) {
    if (s->kind != lang::StmtKind::kDo) continue;
    const LoopRule* rule = m->spec_.rule_for(*s);
    if (rule) {
      m->rules_[s] = rule;
      m->partitioned_loops_.push_back(s);
      // The partitioning contract: partitioned loops run 1..bound step 1.
      if (s->do_lo->kind != lang::ExprKind::kIntLit || s->do_lo->int_val != 1)
        diags.error(s->loc, "partitioned loop must start at 1");
      if (s->do_step &&
          (s->do_step->kind != lang::ExprKind::kIntLit ||
           s->do_step->int_val != 1))
        diags.error(s->loc, "partitioned loop must have unit step");
    }
  }
  for (const LoopRule& r : m->spec_.loop_rules) {
    bool matched = false;
    for (const auto& [loop, rule] : m->rules_) matched |= rule == &r;
    if (!matched)
      diags.error({}, "spec loopvar '" + r.var + "' over '" + r.bound +
                          "' matches no DO loop of subroutine '" +
                          m->sub_.name + "'");
  }

  // The spec boundary: every name resolves to a symbol once, here, and is
  // cross-checked against the declarations.
  auto resolve = [&](const std::string& name, const char* kind) {
    const int sym = m->sub_.symbol(name);
    if (sym < 0)
      diags.error({}, std::string("spec ") + kind + " '" + name +
                          "' is not a variable of subroutine '" +
                          m->sub_.name + "'");
    return sym;
  };
  m->entity_.assign(m->sub_.symbols.size(), std::nullopt);
  for (const auto& [name, entity] : m->spec_.arrays) {
    const int sym = resolve(name, "array");
    if (sym < 0) continue;
    m->entity_[static_cast<std::size_t>(sym)] = entity;
    const lang::VarDecl* d = m->sub_.find_decl(name);
    if (!d)
      diags.warning({}, "spec partitions '" + name +
                            "' which is not declared in the subroutine");
    else if (!d->is_array())
      diags.error(d->loc, "spec partitions scalar '" + name + "'");
  }
  for (const auto& [name, level] : m->spec_.inputs) {
    const int sym = resolve(name, "input");
    if (sym < 0) continue;
    m->inputs_.push_back({sym, level});
    if (!m->sub_.is_param(name))
      diags.warning({}, "spec input '" + name + "' is not a parameter");
  }
  for (const auto& [name, level] : m->spec_.outputs) {
    const int sym = resolve(name, "output");
    if (sym >= 0) m->outputs_.push_back({sym, level});
  }
  if (diags.has_errors()) return nullptr;
  return m;
}

const LoopRule* ProgramModel::partition_rule(const lang::Stmt& loop) const {
  auto it = rules_.find(&loop);
  return it == rules_.end() ? nullptr : it->second;
}

const lang::Stmt* ProgramModel::enclosing_partitioned(
    const lang::Stmt& s) const {
  for (const lang::Stmt* l = cfg_.enclosing_do(s); l;
       l = cfg_.enclosing_do(*l)) {
    if (is_partitioned(*l)) return l;
  }
  return nullptr;
}

EntityKind ProgramModel::shape_at(int var, const lang::Stmt& s) const {
  if (auto entity = entity_of(var)) return *entity;
  // The DO variable of a partitioned loop iterates local entities.
  if (s.kind == lang::StmtKind::kDo && s.do_sym == var) {
    if (const LoopRule* r = partition_rule(s)) return r->entity;
    return EntityKind::kScalar;
  }
  const lang::Stmt* loop = enclosing_partitioned(s);
  if (loop) {
    if (var == loop->do_sym) return partition_rule(*loop)->entity;
    if (patterns_.is_localizable(*loop, var))
      return partition_rule(*loop)->entity;
  }
  return EntityKind::kScalar;
}

}  // namespace meshpar::placement
