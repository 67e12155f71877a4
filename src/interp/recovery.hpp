// The self-healing run loop: detect → heal → complete (DESIGN.md §12).
//
// run_spmd_recovering executes one placement under an injected FaultPlan
// with the reliable transport armed, and escalates through three healing
// mechanisms until the run completes with trusted results:
//
//   transport   message faults (drop/duplicate/delay/corrupt) are healed
//               in-line by the runtime's retransmit log and duplicate
//               suppression; the run simply completes.
//   rollback    damage the transport cannot see (an elided coherence
//               synchronization, an unrecoverable transport loss under
//               OnUnrecoverable::kRollback, an interpreter error from
//               poisoned state) triggers a deterministic re-execution
//               validated against the coherence-epoch checkpoints the
//               first attempt recorded: every complete epoch inside the
//               trust horizon must be reproduced bitwise, or the heal is
//               rejected as MP-R006 (checkpoint/replay divergence).
//   shrink      a kill-rank fault removes a rank for good: the mesh is
//               re-partitioned over the survivors, overlap decomposition
//               and communication schedule are rebuilt with the existing
//               partitioners, and the run is re-executed on the smaller
//               world.
//
// All healing is deterministic for a fixed seed: the transport heals by
// message identity, the rollback replay re-runs the same decomposition
// with the (transient) faults disarmed, and the shrink re-partition is a
// pure function of the mesh and the survivor count.
#pragma once

#include <string>

#include "interp/spmd.hpp"
#include "runtime/recovery.hpp"

namespace meshpar::interp {

/// Which mechanism completed the run.
enum class Healer { kNone, kTransport, kRollback, kShrink };
[[nodiscard]] const char* to_string(Healer h);

struct RecoveryOutcome {
  /// The run completed and its results are trusted (checkpoint-validated
  /// for rollback replays).
  bool ok = false;
  Healer healer = Healer::kNone;
  /// Terminal diagnostic code when !ok (MP-R005, MP-R006, ...); empty on
  /// success.
  std::string code;
  std::string detail;
  /// Ranks in the final (possibly shrunk) run.
  int survivors = 0;
  /// The final healed run: outputs, scalars, and deterministic recovery
  /// counters (result.stats aggregates every attempt).
  RunResult result;
};

/// Runs `placement` on `d` (one rank per sub-mesh) under `plan`, healing
/// detected faults per `policy`. Hangs are caught by the deterministic
/// deadlock detector alone. A null/empty plan degenerates to a plain
/// checkpointed run.
RecoveryOutcome run_spmd_recovering(const placement::ProgramModel& model,
                                    const placement::Placement& placement,
                                    const overlap::Decomposition& d,
                                    const mesh::Mesh2D& m,
                                    const MeshBinding& binding,
                                    const runtime::FaultPlan* plan,
                                    const runtime::RecoveryPolicy& policy);

}  // namespace meshpar::interp
