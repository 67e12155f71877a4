#include "interp/recovery.hpp"

#include <algorithm>
#include <climits>
#include <utility>
#include <vector>

#include "interp/checkpoint.hpp"
#include "overlap/decompose.hpp"
#include "placement/cost.hpp"
#include "support/trace.hpp"

namespace meshpar::interp {

namespace {

using placement::Placement;
using placement::ProgramModel;

/// Highest sync ordinal whose checkpoint the injected damage provably
/// cannot have reached: one before the earliest elided synchronization,
/// capped by one before the earliest stale read the sanitizer dated.
/// LLONG_MAX = no damage bound known, trust every complete epoch (message
/// faults never corrupt interpreter state — recv either heals or throws).
long long damage_horizon(const runtime::FaultPlan* plan, const RunResult& r) {
  long long h = LLONG_MAX;
  if (plan)
    for (const runtime::Fault& f : plan->faults())
      if (f.kind == runtime::FaultKind::kElideSync)
        h = std::min(h, f.op - 1);
  if (r.first_stale_sync >= 0) h = std::min(h, r.first_stale_sync - 1);
  return h;
}

bool has_message_fault(const runtime::FaultPlan* plan) {
  if (!plan) return false;
  return std::any_of(plan->faults().begin(), plan->faults().end(),
                     [](const runtime::Fault& f) {
                       return f.kind != runtime::FaultKind::kKillRank &&
                              f.kind != runtime::FaultKind::kElideSync;
                     });
}

}  // namespace

const char* to_string(Healer h) {
  switch (h) {
    case Healer::kNone: return "none";
    case Healer::kTransport: return "transport";
    case Healer::kRollback: return "rollback";
    case Healer::kShrink: return "shrink";
  }
  return "?";
}

RecoveryOutcome run_spmd_recovering(const ProgramModel& model,
                                    const Placement& placement,
                                    const overlap::Decomposition& d,
                                    const mesh::Mesh2D& m,
                                    const MeshBinding& binding,
                                    const runtime::FaultPlan* plan,
                                    const runtime::RecoveryPolicy& policy) {
  const int nranks = d.parts();
  RecoveryOutcome oc;
  oc.survivors = nranks;

  // Attempt 1: faults armed, reliable transport healing in-line, every
  // checkpoint boundary recorded.
  runtime::WorldOptions wopts;
  wopts.faults = (plan && !plan->empty()) ? plan : nullptr;
  wopts.recovery = &policy;
  runtime::World world(nranks, wopts);
  CheckpointStore store(nranks);
  StalenessReport stale;
  RunResult first = run_spmd_sanitized(world, model, placement, d, m,
                                       binding, &stale, &store);
  SpmdStats stats = first.stats;

  if (first.ok && stale.clean()) {
    oc.ok = true;
    oc.healer = has_message_fault(plan) ? Healer::kTransport : Healer::kNone;
    oc.result = std::move(first);
    oc.result.stats = stats;
    return oc;
  }

  // The heal attempt of the shrink and rollback paths: one re-execution on
  // `rd` with the faults disarmed, its transport counters folded into
  // `stats`. A divergence from `ckpt`'s trusted checkpoints (rollback only)
  // is MP-R006; otherwise a clean completed run is trusted, and anything
  // else keeps the re-run's own failure.
  const auto rerun = [&](const overlap::Decomposition& rd,
                         CheckpointStore* ckpt) {
    runtime::WorldOptions ro;
    ro.recovery = &policy;
    runtime::World world2(rd.parts(), ro);
    StalenessReport stale2;
    RunResult second = run_spmd_sanitized(world2, model, placement, rd, m,
                                          binding, &stale2, ckpt);
    stats.replays += 1;
    stats.retransmits += second.stats.retransmits;
    stats.duplicates_suppressed += second.stats.duplicates_suppressed;
    const std::vector<std::string> div =
        ckpt ? ckpt->divergences() : std::vector<std::string>{};
    if (!div.empty()) {
      oc.code = "MP-R006";
      oc.detail = div.front();
    } else if (second.ok && stale2.clean()) {
      oc.ok = true;
    } else {
      oc.code = second.failure  ? second.failure->code()
                : !stale2.clean() ? stale2.findings.front().code
                                  : "interp-error";
      oc.detail = !second.error.empty() ? second.error
                  : !stale2.clean()     ? stale2.findings.front().message
                                        : "";
    }
    oc.result = std::move(second);
    oc.result.stats = stats;
  };

  // A killed rank never comes back: re-own its entities by re-partitioning
  // the mesh over the survivors and re-executing on the smaller world.
  std::vector<int> killed;
  if (first.failure) killed = first.failure->killed_ranks();
  if (!killed.empty()) {
    oc.healer = Healer::kShrink;
    const int survivors = nranks - static_cast<int>(killed.size());
    if (trace::active())
      trace::current()->instant(
          "recover/shrink", "recover",
          {{"killed", killed.size()}, {"survivors", survivors}});
    if (survivors < 1) {
      oc.code = first.failure->code();
      oc.detail = "every rank was killed; no survivors to shrink onto";
      oc.result = std::move(first);
      oc.result.stats = stats;
      return oc;
    }
    oc.survivors = survivors;
    stats.shrinks = 1;
    rerun(placement::decomposition_for(model, m, survivors), nullptr);
    return oc;
  }

  // Unrecoverable transport under the kRaise policy: surface MP-R005.
  const bool unrecoverable =
      first.failure && first.failure->code() == "MP-R005";
  if (unrecoverable && policy.on_unrecoverable ==
                           runtime::RecoveryPolicy::OnUnrecoverable::kRaise) {
    oc.code = "MP-R005";
    oc.detail = first.error;
    oc.result = std::move(first);
    oc.result.stats = stats;
    return oc;
  }

  // Everything else — elided-sync staleness, an unrecoverable loss under
  // kRollback, interpreter errors from poisoned state — heals by
  // deterministic re-execution with the (transient) faults disarmed,
  // validated bitwise against the trusted checkpoint prefix.
  store.set_mode(CheckpointStore::Mode::kVerify);
  const long long horizon = damage_horizon(plan, first);
  if (horizon != LLONG_MAX) store.set_trust_horizon(horizon);
  if (trace::active())
    trace::current()->instant(
        "recover/rollback", "recover",
        {{"horizon", horizon == LLONG_MAX ? -1LL : horizon}});
  oc.healer = Healer::kRollback;
  stats.rollbacks = 1;
  rerun(d, &store);
  return oc;
}

}  // namespace meshpar::interp
