#include "interp/soak.hpp"

#include <cmath>
#include <sstream>

#include "interp/recovery.hpp"
#include "mesh/generators.hpp"
#include "overlap/decompose.hpp"
#include "placement/cost.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace meshpar::interp {

namespace {

constexpr int kParts = 3;  // ranks
constexpr int kMeshN = 8;  // the synthetic mesh is kMeshN x kMeshN

/// Tolerant comparison for shrink-to-survivors recoveries: a different
/// decomposition reassociates the floating-point assembly sums, so the
/// survivors' assembled node fields agree with the baseline only to
/// rounding. Scalars are NOT compared — they are rank-0-local values
/// (local node/triangle counts, loop bounds, local residuals) that are
/// decomposition-dependent by construction.
bool close_outputs(const RunResult& a, const RunResult& b, double rtol) {
  auto close = [&](double x, double y) {
    return std::abs(x - y) <=
           rtol * std::max({1.0, std::abs(x), std::abs(y)});
  };
  if (a.node_outputs.size() != b.node_outputs.size()) return false;
  for (const auto& [name, field] : a.node_outputs) {
    auto it = b.node_outputs.find(name);
    if (it == b.node_outputs.end() || it->second.size() != field.size())
      return false;
    for (std::size_t i = 0; i < field.size(); ++i)
      if (!close(field[i], it->second[i])) return false;
  }
  return true;
}

}  // namespace

const char* to_string(Detector d) {
  switch (d) {
    case Detector::kNone: return "none";
    case Detector::kSanitizer: return "sanitizer";
    case Detector::kWatchdog: return "watchdog";
    case Detector::kContainment: return "containment";
  }
  return "?";
}

int SoakReport::detected() const {
  int n = 0;
  for (const SoakCase& c : cases) n += c.detected() ? 1 : 0;
  return n;
}

bool SoakReport::all_detected() const {
  return detected() == static_cast<int>(cases.size());
}

int SoakReport::healed() const {
  int n = 0;
  for (const SoakCase& c : cases) n += c.healed ? 1 : 0;
  return n;
}

bool SoakReport::all_healed() const {
  return healed() == static_cast<int>(cases.size());
}

std::string SoakReport::str() const {
  std::ostringstream os;
  os << (recover ? "recovery campaign: seed=" : "fault campaign: seed=")
     << seed << ", " << cases.size() << " faults, " << kParts << " ranks, "
     << kMeshN << "x" << kMeshN << " mesh\n\n";
  if (recover) {
    TextTable t({"#", "fault", "healer", "healed", "code", "detail"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const SoakCase& c = cases[i];
      t.add_row({TextTable::num(i), c.fault.describe(), c.healer,
                 c.healed ? "yes" : "NO", c.code, c.detail});
    }
    os << t.str() << "\n";
    os << (all_healed() ? "RECOVERY: all " : "RECOVERY: UNHEALED faults: only ")
       << healed() << "/" << cases.size() << " injected faults healed\n";
    return os.str();
  }
  TextTable t({"#", "fault", "detector", "code", "detail"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const SoakCase& c = cases[i];
    t.add_row({TextTable::num(i), c.fault.describe(), to_string(c.detector),
               c.code, c.detail});
  }
  os << t.str() << "\n";
  os << (all_detected() ? "SOAK: all " : "SOAK: UNDETECTED faults: only ")
     << detected() << "/" << cases.size() << " injected faults detected\n";
  return os.str();
}

std::string SoakReport::json() const {
  // Only schedule-independent fields: the fault identity, which layer
  // caught (or healed) it, and the finding code. Free-form details stay
  // out so the report is byte-stable for golden-file tests.
  std::ostringstream os;
  if (recover) {
    os << "{\"seed\":" << seed << ",\"total\":" << cases.size()
       << ",\"healed\":" << healed()
       << ",\"all_healed\":" << (all_healed() ? "true" : "false")
       << ",\"cases\":[";
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const SoakCase& c = cases[i];
      if (i) os << ",";
      os << "{\"id\":" << i << ",\"fault\":\"" << json_escape(c.fault.describe())
         << "\",\"healer\":\"" << json_escape(c.healer) << "\",\"healed\":"
         << (c.healed ? "true" : "false") << ",\"code\":\"" << json_escape(c.code)
         << "\"}";
    }
    os << "]}\n";
    return os.str();
  }
  os << "{\"seed\":" << seed << ",\"total\":" << cases.size()
     << ",\"detected\":" << detected()
     << ",\"all_detected\":" << (all_detected() ? "true" : "false")
     << ",\"cases\":[";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const SoakCase& c = cases[i];
    if (i) os << ",";
    os << "{\"id\":" << i << ",\"fault\":\"" << json_escape(c.fault.describe())
       << "\",\"detector\":\"" << to_string(c.detector) << "\",\"code\":\""
       << json_escape(c.code) << "\"}";
  }
  os << "]}\n";
  return os.str();
}

bool run_soak(const placement::ProgramModel& model,
              const placement::Placement& placement, const SoakOptions& opts,
              SoakReport* report, std::string* error) {
  mesh::Mesh2D m = mesh::rectangle(kMeshN, kMeshN);
  overlap::Decomposition d = placement::decomposition_for(model, m, kParts);
  overlap::trace_halo_schedule(d);
  MeshBinding binding = synthetic_binding(model, m);

  // Fault-free baseline: learns the trace the campaign samples from and the
  // outputs every faulted run is compared against.
  runtime::World baseline_world(kParts);
  StalenessReport baseline_report;
  RunResult baseline = run_spmd_sanitized(baseline_world, model, placement, d,
                                          m, binding, &baseline_report);
  if (!baseline.ok) {
    if (error) *error = "baseline run failed: " + baseline.error;
    return false;
  }
  if (!baseline_report.clean()) {
    if (error)
      *error = "baseline run is not clean: " +
               baseline_report.findings.front().message +
               " (soak needs a verified placement)";
    return false;
  }

  std::vector<runtime::Fault> campaign = runtime::make_campaign(
      baseline_world.trace(), opts.seed, opts.faults,
      baseline.sync_executions);

  report->seed = opts.seed;
  report->recover = opts.recover;
  report->cases.clear();
  if (opts.recover) {
    // Recovery campaign: heal every fault and demand the baseline's
    // results back — bitwise for same-decomposition heals, to rounding
    // for shrink-to-survivors (the survivor decomposition reassociates
    // floating-point assembly).
    const runtime::RecoveryPolicy policy;
    for (const runtime::Fault& fault : campaign) {
      trace::Span span("soak/case", "soak");
      span.arg("id", report->cases.size());
      span.arg("fault", fault.describe());
      runtime::FaultPlan plan(fault);
      RecoveryOutcome oc = run_spmd_recovering(model, placement, d, m,
                                               binding, &plan, policy);
      SoakCase c;
      c.fault = fault;
      c.healer = to_string(oc.healer);
      span.arg("healer", c.healer);
      if (oc.ok) {
        const bool match = oc.survivors == kParts
                               ? bitwise_identical(oc.result, baseline)
                               : close_outputs(oc.result, baseline, 1e-9);
        c.healed = match;
        c.diverged = !match;
        c.detail = match ? "healed; results match the baseline"
                         : "recovered run DIVERGES from the baseline";
        if (!match) c.code = "diverged";
      } else {
        c.code = oc.code;
        c.detail = oc.detail;
      }
      report->cases.push_back(std::move(c));
    }
    return true;
  }
  for (const runtime::Fault& fault : campaign) {
    trace::Span span("soak/case", "soak");
    span.arg("id", report->cases.size());
    span.arg("fault", fault.describe());
    runtime::FaultPlan plan(fault);
    runtime::WorldOptions wopts;
    wopts.faults = &plan;
    runtime::World world(kParts, wopts);
    StalenessReport stale;
    RunResult run =
        run_spmd_sanitized(world, model, placement, d, m, binding, &stale);

    SoakCase c;
    c.fault = fault;
    if (run.failure) {
      const runtime::FailureReport& fr = *run.failure;
      if (fr.contained_exception()) {
        c.detector = Detector::kContainment;
        c.code = fr.code();
        for (const runtime::RankFailure& f : fr.failures)
          if (f.kind != runtime::RankFailure::Kind::kAborted) {
            c.detail = "rank " + std::to_string(f.rank) + ": " + f.message;
            break;
          }
      } else {
        c.detector = Detector::kWatchdog;
        c.code = fr.deadlock ? fr.deadlock->code() : fr.code();
        c.detail = fr.deadlock ? fr.deadlock->describe() : fr.describe();
      }
    } else if (!run.ok) {
      // The interpreter itself faulted (e.g. a poisoned value reached a
      // subscript): the run failed loudly, attribute it to containment.
      c.detector = Detector::kContainment;
      c.code = "interp-error";
      c.detail = run.error;
    } else if (!stale.clean()) {
      c.detector = Detector::kSanitizer;
      c.code = stale.findings.front().code;
      c.detail = stale.findings.front().message;
    } else {
      c.detector = Detector::kNone;
      c.diverged = !bitwise_identical(run, baseline);
      c.detail = c.diverged ? "SILENT DIVERGENCE from baseline"
                            : "no observable effect";
    }
    span.arg("detector", to_string(c.detector));
    report->cases.push_back(std::move(c));
  }
  return true;
}

}  // namespace meshpar::interp
