// The traced run's layer-by-layer replay (README.md, "The traced run and
// how to read the trace").
// Each replayed call mirrors what the command handler in src/cli/ does,
// through the same public calls in the same order, so the replayed spans
// sum to the real call's time minus what only the CLI does (option
// parsing, cache keys, rendering): cli.residual_ms.
#include <time.h>

#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "analysis/lint.hpp"
#include "automaton/library.hpp"
#include "cli/options.hpp"
#include "dfg/cfg.hpp"
#include "dfg/defuse.hpp"
#include "dfg/depgraph.hpp"
#include "dfg/patterns.hpp"
#include "dfg/reaching.hpp"
#include "e2e.hpp"
#include "interp/soak.hpp"
#include "interp/spmd.hpp"
#include "lang/parser.hpp"
#include "opt/proof.hpp"
#include "placement/cost.hpp"
#include "placement/tool.hpp"
#include "placement/verify.hpp"
#include "runtime/world.hpp"
#include "service/service.hpp"
#include "support/json.hpp"
#include "support/json_reader.hpp"

namespace meshpar::bench {

// ---- Recorder ------------------------------------------------------------

double Recorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Recorder::open(std::string name, int request, Kind kind) {
  const double now = now_us();
  spans_.push_back({std::move(name), now, now, -1, request, kind});
  child_ms_.push_back(0);
  return static_cast<int>(spans_.size()) - 1;
}

void Recorder::close(int id) { spans_[id].end_us = now_us(); }

void Recorder::set_parent(int id, int parent) {
  spans_[id].parent = parent;
  child_ms_[parent] += duration_ms(id);
}

void Recorder::truncate(std::size_t size) {
  spans_.resize(size);
  child_ms_.resize(size);
}

double Recorder::duration_ms(int id) const {
  return (spans_[id].end_us - spans_[id].start_us) / 1e3;
}

double Recorder::self_ms(int id) const {
  return duration_ms(id) - child_ms_[id];
}

std::string Recorder::chrome_json() const {
  static const char* const kKind[] = {"layer", "probe", "request"};
  std::ostringstream out;
  out.precision(3);
  out << std::fixed << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":" << json_quote(s.name)
        << ",\"cat\":\"" << kKind[static_cast<int>(s.kind)]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
        << ",\"dur\":" << (s.end_us - s.start_us)
        << ",\"args\":{\"request\":" << s.request << ",\"span\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

namespace {

/// Closes its span on scope exit.
class Scope {
 public:
  Scope(Recorder& rec, std::string name, int request,
        Recorder::Kind kind = Recorder::Kind::kLayer)
      : rec_(rec), id_(rec.open(std::move(name), request, kind)) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { rec_.close(id_); }
  [[nodiscard]] int id() const { return id_; }

 private:
  Recorder& rec_;
  int id_;
};

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Accepts every raw solution: the search probe pays for the search alone.
class AcceptAll : public placement::Engine::SubtreeSink {
 public:
  bool on_solution(const placement::Assignment&) override { return true; }
};

}  // namespace

// ---- one call ------------------------------------------------------------

/// What a service holds across the entries of one batch: the front end per
/// input and the enumeration per (input, options). A lone invocation starts
/// from an empty one, as a fresh service does.
struct ReplayCache {
  std::map<std::string, std::shared_ptr<const placement::Compiled>> compiled;
  std::map<std::string, placement::EnumerationResult> enumerated;
};

class CallReplay {
 public:
  CallReplay(LayerReplay& owner, int request,
             std::map<std::string, double>& counts)
      : owner_(owner), rec_(owner.rec_), request_(request), n_(counts) {}

  std::string call(const Call& c) {
    const cli::Options o = cli::parse_args(c.args);
    if (!o.parse_error.empty()) return o.parse_error;
    ReplayCache cache;
    if (!c.batch) return invocation(o, c.program, c.spec, cache);
    return batch(o, cache);
  }

 private:
  /// cmd_batch.cpp: each distinct result key runs once; repeats are served
  /// by the results level and replay nothing.
  std::string batch(const cli::Options& o, ReplayCache& cache) {
    const std::optional<JsonValue> doc =
        json_parse(read_file(o.manifest_path));
    const JsonValue* entries = doc ? doc->find("entries") : nullptr;
    if (!entries) return "unreadable manifest " + o.manifest_path;
    const std::filesystem::path base =
        std::filesystem::path(o.manifest_path).parent_path();
    std::set<std::string> done;
    for (const JsonValue& e : entries->items()) {
      std::vector<std::string> argv;
      if (const JsonValue* args = e.find("args"))
        for (const JsonValue& a : args->items()) argv.push_back(a.as_string());
      const cli::Options eo = cli::parse_args(argv);
      if (!eo.parse_error.empty()) return eo.parse_error;
      const std::string program = read_file(base / eo.program_path);
      const std::string spec = read_file(base / eo.spec_path);
      if (!done.insert(eo.cache_key(service::Service::content_key(program, spec)))
               .second)
        continue;
      if (std::string why = invocation(eo, program, spec, cache); !why.empty())
        return why;
    }
    return "";
  }

  /// dispatch_command plus the handler of the invocation's command.
  std::string invocation(const cli::Options& o, const std::string& program,
                         const std::string& spec, ReplayCache& cache) {
    const std::string key = service::Service::content_key(program, spec);
    auto& comp = cache.compiled[key];
    if (!comp) comp = frontend(program, spec);
    if (!comp->ok()) return o.command + ": the front end rejected the input";
    const placement::ToolOptions topt = o.tool_options();
    const std::string ekey = key + service::Service::options_key(topt);
    auto it = cache.enumerated.find(ekey);
    if (it == cache.enumerated.end())
      it = cache.enumerated.emplace(ekey, enumerate(*comp, topt, ekey)).first;
    const std::vector<placement::Placement>& ps = it->second.placements;
    if (ps.empty()) return o.command + ": no placement";
    const placement::ProgramModel& model = *comp->model;

    if (o.command == "place") {
      lint_all(model, ps, o.werror);
      if (o.k_best || o.json) {
        Scope s(rec_, "placement.cost_ms", request_);
        const overlap::Decomposition d = placement::example_decomposition(model);
        for (const placement::Placement& p : ps)
          (void)placement::simulate_cost(model, p, d);
      }
    } else if (o.command == "lint") {
      lint_all(model, ps, o.werror);
    } else if (o.command == "verify") {
      return verify(*comp, ps, o.dynamic);
    } else if (o.command == "opt") {
      const std::size_t idx = o.emit >= 0 ? static_cast<std::size_t>(o.emit) : 0;
      if (idx >= ps.size()) return "opt: no placement #" + std::to_string(idx);
      opt::OptimizeOptions oopt;
      oopt.lint.werror = o.werror;
      oopt.dynamic_proof = !o.no_dynamic;
      opt::OptimizeReport rep;
      {
        Scope s(rec_, "opt.optimize_ms", request_);
        rep = opt::optimize_placement(model, *comp->fg, ps[idx], oopt);
      }
      n_["opt.messages_saved"] += static_cast<double>(rep.cost_raw.messages -
                                                      rep.cost_opt.messages);
      for (const opt::PassStep& step : rep.steps)
        n_["opt.rolled_back"] += step.rolled_back ? 1 : 0;
    } else if (o.command == "soak") {
      interp::SoakOptions sopt;
      sopt.seed = o.seed;
      sopt.faults = o.faults;
      sopt.recover = o.recover;
      interp::SoakReport report;
      std::string error;
      {
        Scope s(rec_, "interp.soak_ms", request_);
        if (!interp::run_soak(model, ps[0], sopt, &report, &error))
          return "soak: " + error;
      }
      n_["soak.healed"] += report.healed();
      n_["soak.total"] += static_cast<double>(report.cases.size());
    } else {
      return o.command + ": not a replayed command";
    }
    return "";
  }

  /// compile_frontend; the breakdown of its model build is left for
  /// LayerReplay::breakdown.
  std::shared_ptr<const placement::Compiled> frontend(const std::string& program,
                                                      const std::string& spec) {
    owner_.pending_.emplace_back(program, spec);
    auto c = std::make_shared<placement::Compiled>();
    {
      Scope s(rec_, "placement.model_ms", request_);
      c->model = placement::ProgramModel::build(program, spec, c->diags);
    }
    if (!c->model) return c;
    {
      Scope s(rec_, "placement.applicability_ms", request_);
      c->applicability = placement::check_applicability(*c->model);
    }
    if (!c->applicability.ok()) return c;
    {
      Scope s(rec_, "placement.flowgraph_ms", request_);
      c->fg = std::make_unique<placement::FlowGraph>(
          placement::FlowGraph::build(*c->model, c->diags));
    }
    n_["dfg.statements"] +=
        static_cast<double>(c->model->cfg().statements().size());
    n_["dfg.dependences"] += static_cast<double>(c->model->deps().all().size());
    n_["placement.occurrences"] += static_cast<double>(c->fg->occs().size());
    n_["placement.arrows"] += static_cast<double>(c->fg->arrows().size());
    return c;
  }

  /// enumerate_placements, split into search and rank: a probe re-runs the
  /// search alone (Engine constructor plus the enumeration the request's
  /// options select, feeding a sink that keeps nothing), and rank is the
  /// rest of the real call.
  placement::EnumerationResult enumerate(const placement::Compiled& c,
                                         const placement::ToolOptions& topt,
                                         const std::string& key) {
    int search = 0;
    {
      Scope s(rec_, "placement.search_ms", request_, Recorder::Kind::kProbe);
      search = s.id();
      const placement::Engine engine(*c.model, *c.fg);
      placement::EngineStats st;
      if (topt.k_best)
        engine.enumerate_stream(
            topt.engine, &st,
            [](std::size_t) { return std::make_unique<AcceptAll>(); }, {});
      else
        (void)engine.enumerate(topt.engine, &st);
    }
    const int jobs = topt.engine.jobs > 0
                         ? topt.engine.jobs
                         : static_cast<int>(std::thread::hardware_concurrency());
    placement::EnumerationResult e;
    const double cpu0 = cpu_seconds();
    int rank = 0;
    {
      Scope s(rec_, "placement.rank_ms", request_);
      rank = s.id();
      e = placement::enumerate_placements(*c.model, *c.fg, topt);
    }
    n_["engine.cpu_s"] += cpu_seconds() - cpu0;
    n_["engine.capacity_s"] += rec_.duration_ms(rank) / 1e3 * jobs;
    rec_.set_parent(search, rank);

    n_["engine.assignments"] += static_cast<double>(e.stats.assignments);
    n_["engine.backtracks"] += static_cast<double>(e.stats.backtracks);
    n_["engine.raw_solutions"] += static_cast<double>(e.stats.solutions);
    n_["engine.dominance_pruned"] += static_cast<double>(e.stats.dominance_pruned);
    n_["engine.kept_peak"] = std::max(n_["engine.kept_peak"],
                                      static_cast<double>(e.stats.kept_peak));
    // A k-best run keeps k placements; the distinct count comes from one
    // untimed unbounded ranking of the same input.
    std::size_t distinct = e.placements.size();
    if (topt.k_best) {
      auto [it, fresh] = owner_.distinct_.try_emplace(key, 0);
      if (fresh) {
        placement::ToolOptions all = topt;
        all.engine.max_solutions = 0;
        it->second =
            placement::enumerate_placements(*c.model, *c.fg, all).placements.size();
      }
      distinct = it->second;
    }
    n_["rank.distinct"] += static_cast<double>(distinct);
    return e;
  }

  void lint_all(const placement::ProgramModel& model,
                const std::vector<placement::Placement>& ps, bool werror) {
    analysis::LintOptions lopt;
    lopt.werror = werror;
    Scope s(rec_, "analysis.lint_ms", request_);
    for (const placement::Placement& p : ps)
      n_["lint.findings"] += static_cast<double>(
          analysis::lint_placement(model, p, lopt).findings.size());
  }

  /// cmd_verify.cpp: every placement through the verifier, then with
  /// --dynamic a sanitized SPMD run of each verified one on the example
  /// decomposition.
  std::string verify(const placement::Compiled& c,
                     const std::vector<placement::Placement>& ps,
                     bool dynamic) {
    const placement::ProgramModel& model = *c.model;
    std::vector<std::size_t> clean;
    {
      Scope s(rec_, "placement.verify_ms", request_);
      for (std::size_t i = 0; i < ps.size(); ++i)
        if (placement::verify_placement(model, *c.fg, ps[i]).ok())
          clean.push_back(i);
    }
    if (!dynamic) return "";
    mesh::Mesh2D m;
    overlap::Decomposition d;
    interp::MeshBinding binding;
    {
      Scope s(rec_, "overlap.decompose_ms", request_);
      d = placement::example_decomposition(model, &m);
      binding = interp::synthetic_binding(model, m);
    }
    runtime::WorldOptions wopt;
    wopt.edge_metrics = true;
    for (std::size_t i : clean) {
      interp::RunResult run;
      std::optional<runtime::World> world;
      {
        Scope s(rec_, "interp.spmd_ms", request_);
        world.emplace(d.parts(), wopt);
        interp::StalenessReport report;
        run = interp::run_spmd_sanitized(*world, model, ps[i], d, m, binding,
                                         &report);
      }
      if (!run.ok) return "verify: dynamic run failed: " + run.error;
      n_["interp.sync_executions"] += static_cast<double>(run.sync_executions);
      for (const runtime::EdgeTraffic& t : world->edge_traffic()) {
        n_["runtime.messages"] += static_cast<double>(t.msgs);
        n_["runtime.bytes"] += static_cast<double>(t.bytes);
      }
    }
    return "";
  }

  LayerReplay& owner_;
  Recorder& rec_;
  int request_;
  std::map<std::string, double>& n_;
};

void LayerReplay::breakdown(int request) {
  using K = Recorder::Kind;
  for (const auto& [program, spec_text] : pending_) {
    // The parts are checked against a whole build timed right before them.
    // An untimed build first warms both, so on the small examples the whole
    // does not pay alone for the cold start. Every result outlives the
    // probes, as it does inside the model: freeing it is not part of
    // building it.
    DiagnosticEngine diags;
    (void)placement::ProgramModel::build(program, spec_text, diags);
    std::unique_ptr<placement::ProgramModel> whole;
    {
      Scope s(rec_, "probe.model_ms", request, K::kProbe);
      whole = placement::ProgramModel::build(program, spec_text, diags);
    }
    lang::Subroutine sub;
    placement::PartitionSpec spec;
    std::optional<automaton::OverlapAutomaton> autom;
    dfg::Cfg cfg;
    std::vector<dfg::StmtDefUse> defuse;
    dfg::DepGraph deps;
    dfg::ReachingDefs reaching;
    dfg::Patterns patterns;
    {
      Scope s(rec_, "lang.parse_ms", request, K::kProbe);
      sub = lang::parse_subroutine(program, diags);
    }
    {
      Scope s(rec_, "placement.spec_ms", request, K::kProbe);
      spec = placement::parse_spec(spec_text, diags);
      autom = automaton::by_spec_name(spec.pattern_name);
    }
    {
      Scope s(rec_, "dfg.cfg_ms", request, K::kProbe);
      cfg = dfg::Cfg::build(sub, diags);
    }
    {
      Scope s(rec_, "dfg.defuse_ms", request, K::kProbe);
      defuse = dfg::analyze_defuse(sub, cfg);
    }
    {
      Scope s(rec_, "dfg.depgraph_ms", request, K::kProbe);
      deps = dfg::DepGraph::build(sub, cfg, defuse);
    }
    {
      Scope s(rec_, "dfg.reaching_ms", request, K::kProbe);
      reaching = dfg::ReachingDefs::solve(sub, cfg, defuse);
    }
    {
      Scope s(rec_, "dfg.patterns_ms", request, K::kProbe);
      patterns = dfg::Patterns::detect(sub, cfg, defuse);
    }
  }
  pending_.clear();
}

std::string LayerReplay::request(const Workload& w,
                                 const std::vector<std::size_t>& order,
                                 int request,
                                 std::map<std::string, double>& counts) {
  CallReplay replay(*this, request, counts);
  for (std::size_t i : order)
    if (std::string why = replay.call(w.calls[i]); !why.empty())
      return describe(w.calls[i]) + ": " + why;
  return "";
}

}  // namespace meshpar::bench
