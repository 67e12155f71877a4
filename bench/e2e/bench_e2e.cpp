// bench_e2e: the end-to-end mptool benchmark (README.md). One process runs
// one round of one workload, closed loop with a single client, and prints
// one JSON line that bench/e2e/run.py pools across rounds:
//
//   bench_e2e --workload W --seed S [--round R] [--seconds T] [--oracle]
//       untimed set-up (inputs + one warm-up request, 3 times), then
//       requests until T seconds have passed; --oracle adds the untimed
//       placement pass afterwards.
//   bench_e2e --workload W --seed S [--seconds T] --trace FILE
//       an untraced phase of T/3 seconds, then requests replayed layer by
//       layer and timed as the real call until 2T/3 more seconds (at least
//       20); writes the spans to FILE as Chrome trace-event JSON.
//   bench_e2e --smoke
//       2 requests per workload, the oracle pass and a 2-request traced
//       replay; the ctest registration.
//
// Exits 1 when any output is wrong, 2 on a usage or input error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "e2e.hpp"
#include "support/json.hpp"
#include "support/json_reader.hpp"
#include "support/numeric.hpp"

namespace meshpar::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kGuardLow = 0.85;   // replayed spans / real call, per request
constexpr double kGuardHigh = 1.15;
constexpr int kGuardAttempts = 5;
constexpr double kBreakdownTolerance = 0.10;  // model parts vs model build

/// Every span-timed layer metric, in README order; each also gets a .share.
const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> kNames = {
      "lang.parse_ms",        "placement.spec_ms",
      "dfg.cfg_ms",           "dfg.defuse_ms",
      "dfg.depgraph_ms",      "dfg.reaching_ms",
      "dfg.patterns_ms",      "placement.model_ms",
      "placement.applicability_ms", "placement.flowgraph_ms",
      "placement.search_ms",  "placement.rank_ms",
      "analysis.lint_ms",     "placement.verify_ms",
      "placement.cost_ms",    "opt.optimize_ms",
      "overlap.decompose_ms", "interp.spmd_ms",
      "interp.soak_ms",       "cli.residual_ms"};
  return kNames;
}

/// The parts of ProgramModel::build that the breakdown probe times.
const std::vector<std::string>& model_parts() {
  static const std::vector<std::string> kParts = {
      "lang.parse_ms",   "placement.spec_ms", "dfg.cfg_ms",
      "dfg.defuse_ms",   "dfg.depgraph_ms",   "dfg.reaching_ms",
      "dfg.patterns_ms"};
  return kParts;
}

/// Counts reported as the median per request.
const std::vector<std::string>& count_names() {
  static const std::vector<std::string> kNames = {
      "dfg.statements",      "dfg.dependences",        "placement.occurrences",
      "placement.arrows",    "engine.assignments",     "engine.backtracks",
      "engine.raw_solutions", "engine.dominance_pruned", "engine.kept_peak",
      "lint.findings",       "opt.messages_saved",     "opt.rolled_back",
      "runtime.messages",    "runtime.bytes",          "interp.sync_executions",
      "soak.healed",         "soak.total"};
  return kNames;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int round = 0;
  double seconds = 5;
  std::string trace;
  bool oracle = false;
  bool smoke = false;
};

/// How much a run does; the smoke test shrinks every count.
struct Plan {
  int setups = 3;
  /// Per round; run.py pools 3 rounds, so latency_ms.p90 always has at
  /// least 12 samples beyond it.
  std::size_t min_timed = 40;
  std::size_t min_traced = 20;
  /// Off in the smoke test: two requests are too few to hold the model
  /// breakdown to kBreakdownTolerance.
  bool check_breakdown = true;
};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The fields every result line starts with.
std::string header(const Args& a) {
  std::ostringstream out;
  out << "\"workload\":" << json_quote(a.workload) << ",\"build_type\":"
      << json_quote(BENCH_BUILD_TYPE) << ",\"compiler\":"
      << json_quote(BENCH_COMPILER)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"seed\":" << a.seed << ",\"round\":" << a.round;
  return out.str();
}

std::string json_list(const std::vector<std::string>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i ? "," : "") + json_quote(v[i]);
  return s + "]";
}

std::string json_numbers(const std::vector<double>& v) {
  std::ostringstream out;
  out << std::setprecision(17) << "[";
  for (std::size_t i = 0; i < v.size(); ++i) out << (i ? "," : "") << v[i];
  out << "]";
  return out.str();
}

/// Failure messages, the first few kept verbatim.
struct Failures {
  std::size_t failed = 0;
  std::vector<std::string> notes;
  void add(std::string why) {
    if (notes.size() < 5) notes.push_back(std::move(why));
  }
};

/// Runs one request's calls in `order`, timing the whole request.
std::vector<CallOutput> run_request(const Workload& w,
                                    const std::vector<std::size_t>& order,
                                    double* ms) {
  std::vector<CallOutput> outs(w.calls.size());
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i : order) outs[i] = run_call(w.calls[i]);
  *ms = ms_since(t0);
  return outs;
}

/// Oracle verdict on one request: true when every call passed.
bool check_request(Oracle& oracle, const Workload& w,
                   const std::vector<CallOutput>& outs, Failures& f) {
  bool ok = true;
  for (std::size_t i = 0; i < w.calls.size(); ++i)
    if (std::string why = oracle.check(w.calls[i], outs[i]); !why.empty()) {
      f.add(why);
      ok = false;
    }
  return ok;
}

/// Set-up: build the inputs and serve one warm-up request, `times` times;
/// returns the last workload and appends each set-up's duration.
Workload set_up(const Args& a, int times, std::vector<double>& setup_s) {
  Workload w;
  for (int k = 0; k < times; ++k) {
    const Clock::time_point t0 = Clock::now();
    w = make_workload(a.workload, BENCH_REPO_ROOT);
    double ms = 0;
    std::vector<std::size_t> order(w.calls.size());
    std::iota(order.begin(), order.end(), 0);
    (void)run_request(w, order, &ms);
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  return w;
}

Rng round_rng(const Args& a) {
  return Rng(a.seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(a.round));
}

/// The untraced closed loop. Returns the exit status and prints the line.
int timed(const Args& a, const Plan& plan, std::ostream& out) {
  std::vector<double> setup_s;
  const Workload w = set_up(a, plan.setups, setup_s);
  Rng rng = round_rng(a);
  Oracle oracle;
  Failures f;
  std::vector<double> latency_ms;
  Modeled modeled;
  const Clock::time_point start = Clock::now();
  while (latency_ms.size() < plan.min_timed ||
         ms_since(start) < a.seconds * 1e3) {
    double ms = 0;
    const std::vector<CallOutput> outs =
        run_request(w, request_order(w, rng), &ms);
    latency_ms.push_back(ms);
    if (!check_request(oracle, w, outs, f)) ++f.failed;
    if (latency_ms.size() == 1)
      for (std::size_t i = 0; i < w.calls.size(); ++i) {
        const Modeled m = modeled_traffic(w.calls[i], outs[i].out);
        modeled.msgs += m.msgs;
        modeled.bytes += m.bytes;
      }
  }
  const double wall_s = ms_since(start) / 1e3;
  const double rss = peak_rss_mb();  // before the oracle pass
  std::string pass = "skipped";
  if (a.oracle) {
    pass = placement_pass(w);
    if (pass.empty()) pass = "passed";
    else f.add(pass);
  }
  const bool ok = f.failed == 0 && (pass == "passed" || pass == "skipped");
  out << std::setprecision(17) << "{" << header(a)
      << ",\"attempted\":" << latency_ms.size() << ",\"failed\":" << f.failed
      << ",\"oracle\":" << json_quote(pass)
      << ",\"errors\":" << json_list(f.notes)
      << ",\"setup_s\":" << json_numbers(setup_s)
      << ",\"latency_ms\":" << json_numbers(latency_ms)
      << ",\"wall_s\":" << wall_s << ",\"peak_rss_mb\":" << rss
      << ",\"best_msgs_per_sweep\":" << modeled.msgs
      << ",\"best_bytes_per_sweep\":" << modeled.bytes << "}\n";
  return ok ? 0 : 1;
}

/// Cache hit counts of a batch report's "cache" block, into `n`.
void add_cache_counts(const CallOutput& o, std::map<std::string, double>& n) {
  const std::optional<JsonValue> doc = json_parse(o.out);
  const JsonValue* cache = doc ? doc->find("cache") : nullptr;
  if (!cache) return;
  for (const char* level : {"compile", "placements", "results"}) {
    const JsonValue* l = cache->find(level);
    if (!l) continue;
    for (const char* k : {"hits", "misses"})
      if (const JsonValue* v = l->find(k); v && v->is_number())
        n[std::string("service.") + level + "." + k] += v->as_number();
  }
}

/// The traced run. Returns the exit status and prints the line.
int traced(const Args& a, const Plan& plan, std::ostream& out) {
  std::vector<double> setup_s;
  const Workload w = set_up(a, 1, setup_s);
  Rng rng = round_rng(a);
  Oracle oracle;
  Failures f;

  std::vector<double> untraced_ms;
  Clock::time_point start = Clock::now();
  while (untraced_ms.size() < 2 || ms_since(start) < a.seconds * 1e3 / 3) {
    double ms = 0;
    const auto outs = run_request(w, request_order(w, rng), &ms);
    untraced_ms.push_back(ms);
    if (!check_request(oracle, w, outs, f)) ++f.failed;
  }

  Recorder rec;
  LayerReplay replay(rec);
  std::vector<std::map<std::string, double>> layer_ms;  // per request
  std::vector<std::map<std::string, double>> counts;    // per request
  std::vector<double> real_ms;
  int remeasured = 0;
  start = Clock::now();
  while (real_ms.size() < plan.min_traced ||
         ms_since(start) < a.seconds * 1e3 * 2 / 3) {
    const int r = static_cast<int>(real_ms.size());
    const std::vector<std::size_t> order = request_order(w, rng);
    const std::size_t first = rec.spans().size();
    std::map<std::string, double> n;
    std::map<std::string, double> ms;
    double sum = 0;
    double request_ms = 0;
    bool ok = true;
    // Host noise (another process stealing a core for a few ms) can push
    // one measurement out of the guard band; a replay that misses work
    // misses it in every measurement. So an out-of-band request is measured
    // again, replay and real call both, and fails only if no measurement
    // lands inside the band.
    for (int attempt = 0; attempt < kGuardAttempts; ++attempt) {
      if (attempt > 0) {
        rec.truncate(first);
        ++remeasured;
      }
      n.clear();
      ms.clear();
      const std::string why = replay.request(w, order, r, n);
      const int real = rec.open("cli.request", r, Recorder::Kind::kRequest);
      std::vector<CallOutput> outs(w.calls.size());
      for (std::size_t i : order) outs[i] = run_call(w.calls[i]);
      rec.close(real);
      replay.breakdown(r);
      if (!why.empty()) f.add("replay: " + why);
      ok = check_request(oracle, w, outs, f) && why.empty() && ok;
      for (const CallOutput& o : outs) add_cache_counts(o, n);

      double replayed = 0;
      for (std::size_t s = first; s < rec.spans().size(); ++s) {
        if (rec.spans()[s].kind == Recorder::Kind::kRequest) continue;
        ms[rec.spans()[s].name] += rec.self_ms(static_cast<int>(s));
        if (rec.spans()[s].kind == Recorder::Kind::kLayer)
          replayed += rec.duration_ms(static_cast<int>(s));
      }
      request_ms = rec.duration_ms(real);
      ms["cli.residual_ms"] = request_ms - replayed;
      sum = replayed / request_ms;
      if (!ok || (sum >= kGuardLow && sum <= kGuardHigh)) break;
    }
    if (ok && (sum < kGuardLow || sum > kGuardHigh)) {
      std::ostringstream why_sum;
      why_sum << "request " << r << ": replayed spans sum to " << sum
              << " of the real call in each of " << kGuardAttempts
              << " measurements";
      f.add(why_sum.str());
      ok = false;
    }
    if (!ok) ++f.failed;
    real_ms.push_back(request_ms);
    layer_ms.push_back(std::move(ms));
    counts.push_back(std::move(n));
  }

  auto total = [](const std::vector<std::map<std::string, double>>& per,
                  const std::string& name) {
    double t = 0;
    for (const auto& m : per)
      if (auto it = m.find(name); it != m.end()) t += it->second;
    return t;
  };
  auto per_request = [](const std::vector<std::map<std::string, double>>& per,
                        const std::string& name) {
    std::vector<double> v;
    for (const auto& m : per) {
      auto it = m.find(name);
      v.push_back(it == m.end() ? 0 : it->second);
    }
    return v;
  };

  const double real_total = std::accumulate(real_ms.begin(), real_ms.end(), 0.0);
  std::vector<std::pair<std::string, double>> metrics;
  for (const std::string& name : layer_names()) {
    metrics.emplace_back(name, median(per_request(layer_ms, name)));
    metrics.emplace_back(name + ".share",
                         ratio(total(layer_ms, name), real_total));
  }
  for (const std::string& name : count_names())
    metrics.emplace_back(name, median(per_request(counts, name)));
  metrics.emplace_back("engine.cpu_util",
                       ratio(total(counts, "engine.cpu_s"),
                             total(counts, "engine.capacity_s")));
  metrics.emplace_back("engine.solution_ratio",
                       ratio(total(counts, "engine.raw_solutions"),
                             total(counts, "engine.assignments")));
  metrics.emplace_back("rank.useful_ratio",
                       ratio(total(counts, "rank.distinct"),
                             total(counts, "engine.raw_solutions")));
  for (const char* level : {"compile", "placements", "results"}) {
    const std::string p = std::string("service.") + level;
    const double hits = total(counts, p + ".hits");
    metrics.emplace_back(p + "_hit_ratio",
                         ratio(hits, hits + total(counts, p + ".misses")));
  }
  metrics.emplace_back(
      "bench.trace_overhead_pct",
      (ratio(median(real_ms), median(untraced_ms)) - 1) * 100);

  // The breakdown probe must account for the model build it splits.
  double parts = 0;
  for (const std::string& p : model_parts()) parts += total(layer_ms, p);
  const double model = total(layer_ms, "probe.model_ms");
  const double breakdown = ratio(parts, model);
  const bool breakdown_ok = !plan.check_breakdown || model == 0 ||
                            std::abs(breakdown - 1) <= kBreakdownTolerance;
  if (!breakdown_ok)
    f.add("model breakdown parts sum to " + std::to_string(breakdown) +
          " of the model build they split");

  bool wrote = true;
  if (!a.trace.empty()) {
    std::ofstream tf(a.trace, std::ios::binary);
    tf << rec.chrome_json();
    wrote = static_cast<bool>(tf);
    if (!wrote) f.add("cannot write trace file '" + a.trace + "'");
  }

  out << std::setprecision(17) << "{" << header(a)
      << ",\"attempted\":" << untraced_ms.size() + real_ms.size()
      << ",\"failed\":" << f.failed << ",\"errors\":" << json_list(f.notes)
      << ",\"breakdown_ratio\":" << breakdown
      << ",\"remeasured\":" << remeasured << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out << (i ? "," : "") << json_quote(metrics[i].first) << ":"
        << metrics[i].second;
  out << "}}\n";
  return f.failed == 0 && breakdown_ok && wrote ? 0 : 1;
}

/// The ctest registration: every workload through every mode, briefly.
int smoke() {
  const Plan plan{1, 2, 2, false};
  int rc = 0;
  for (const std::string& name : workload_names()) {
    Args a;
    a.workload = name;
    a.seconds = 0;
    a.oracle = true;
    a.trace = "bench_e2e_smoke_" + name + ".json";
    std::ostringstream line;
    int code = timed(a, plan, line);
    code = std::max(code, traced(a, plan, line));
    std::ifstream tf(a.trace, std::ios::binary);
    std::ostringstream text;
    text << tf.rdbuf();
    if (!json_parse(text.str())) {
      line << "trace file " << a.trace << " is not valid JSON\n";
      code = 1;
    }
    std::cout << line.str();
    std::cout << "smoke " << name << ": " << (code == 0 ? "ok" : "FAILED")
              << "\n";
    rc = std::max(rc, code);
  }
  return rc;
}

int usage(const std::string& why) {
  std::cerr << "bench_e2e: " << why
            << "\nusage: bench_e2e --workload W --seed S [--round R] "
               "[--seconds T] [--oracle] [--trace FILE]\n"
               "       bench_e2e --smoke\nworkloads:";
  for (const std::string& n : workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  return 2;
}

int run(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    auto number = [&](auto* out) {
      const std::string v = value();
      auto parsed = parse_number<std::decay_t<decltype(*out)>>(v);
      if (!parsed) throw std::runtime_error(flag + ": bad value '" + v + "'");
      *out = *parsed;
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") number(&a.seed);
    else if (flag == "--round") number(&a.round);
    else if (flag == "--seconds") number(&a.seconds);
    else if (flag == "--trace") a.trace = value();
    else if (flag == "--oracle") a.oracle = true;
    else if (flag == "--smoke") a.smoke = true;
    else throw std::runtime_error("unknown flag '" + flag + "'");
  }
  if (a.smoke) return smoke();
  if (a.workload.empty()) return usage("--workload is required");
  return a.trace.empty() ? timed(a, Plan{}, std::cout)
                         : traced(a, Plan{}, std::cout);
}

}  // namespace
}  // namespace meshpar::bench

int main(int argc, char** argv) {
  try {
    return meshpar::bench::run(argc, argv);
  } catch (const std::exception& e) {
    return meshpar::bench::usage(e.what());
  }
}
