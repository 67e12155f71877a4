// Seeded fault-soak campaigns: the adversarial test bench for the
// robustness stack (DESIGN.md §8).
//
// A campaign first executes one fault-free SPMD run of a verified placement
// on a small synthetic mesh to learn the run's *trace* (message identities
// per edge, operation counts per rank, synchronization ordinals). It then
// derives `faults` single-fault plans from that trace with a seeded PRNG —
// so every fault targets an event that really occurs and the whole campaign
// replays identically for a fixed seed — and re-runs the placement once per
// fault, recording WHICH layer caught it:
//
//   sanitizer    the staleness sanitizer flagged a stale overlap read
//                (MP-S001) — the elided synchronization mattered;
//   watchdog     the deadlock/hang detector aborted the run (MP-R001/2);
//   containment  a rank failed loudly — integrity violation, injected
//                kill, or any other exception — and World::run rethrew it
//                as a structured SpmdFailure (MP-R003/MP-R004);
//   none         the run completed, all oracles stayed silent. If the
//                outputs differ from the fault-free baseline this is a
//                *silent divergence* — the one outcome the robustness
//                stack exists to rule out. `mptool soak` exits non-zero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "interp/spmd.hpp"
#include "placement/model.hpp"
#include "placement/solution.hpp"

namespace meshpar::interp {

/// A campaign always runs on 3 ranks over an 8x8 synthetic mesh, samples
/// kElideSync faults (skip a coherence synchronization on every rank) over
/// the baseline's sync ordinals alongside the message and rank faults,
/// relies on the deterministic deadlock detector alone (no wall-clock
/// watchdog), and heals under the default RecoveryPolicy.
struct SoakOptions {
  std::uint64_t seed = 1;
  int faults = 100;  // campaign size (one run per fault)
  /// Recovery campaign (`mptool soak --recover`, DESIGN.md §12): instead
  /// of only asking "was the fault detected?", each faulted run is healed
  /// via run_spmd_recovering and asked "did the run complete with the
  /// baseline's results?".
  bool recover = false;
};

enum class Detector { kNone, kSanitizer, kWatchdog, kContainment };
[[nodiscard]] const char* to_string(Detector d);

struct SoakCase {
  runtime::Fault fault;
  Detector detector = Detector::kNone;
  std::string code;    // machine-readable finding code (MP-xxx)
  std::string detail;  // human-readable one-liner
  bool diverged = false;  // outputs differ from the fault-free baseline
  // Recovery campaigns only:
  std::string healer;   // which mechanism completed the run
  bool healed = false;  // run completed AND matched the baseline

  [[nodiscard]] bool detected() const { return detector != Detector::kNone; }
};

struct SoakReport {
  std::uint64_t seed = 0;
  bool recover = false;
  std::vector<SoakCase> cases;

  [[nodiscard]] int detected() const;
  [[nodiscard]] bool all_detected() const;
  [[nodiscard]] int healed() const;
  [[nodiscard]] bool all_healed() const;
  /// Human-readable table plus a "SOAK: ..." (or "RECOVERY: ...") verdict.
  [[nodiscard]] std::string str() const;
  /// Deterministic JSON (stable across platforms and schedules) for CI.
  [[nodiscard]] std::string json() const;
};

/// Runs the campaign for one placement of `model`. Returns false (with
/// `*error` set) only when the campaign cannot even start — the fault-free
/// baseline failed or was flagged by the sanitizer.
bool run_soak(const placement::ProgramModel& model,
              const placement::Placement& placement, const SoakOptions& opts,
              SoakReport* report, std::string* error);

}  // namespace meshpar::interp
