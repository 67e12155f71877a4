// The SPMD interpreter: executes a *generated placement* of a program.
//
// This is the missing half of the paper's workflow (Figure 3): the tool
// emits the annotated SPMD source; the user's compiler plus a
// communication library turn it into the parallel program. Here the
// interpreter plays both roles — each rank runs the ORIGINAL statements
// against its LOCAL arrays, with
//   * partitioned loop bounds replaced by the iteration domain the
//     placement chose (KERNEL / OVERLAP[:k] prefixes of the flocalized
//     local numbering),
//   * the overlap update / assembly / scalar reduction executed right
//     before the statements the placement selected (and at exit),
// so that EVERY placement the engine enumerates can be executed and
// checked against the sequential interpretation of the original program.
//
// Each step has one path. One binder localizes the mesh data for a rank's
// sub-mesh; the sequential run is the one rank holding the whole mesh. One
// sync runner executes every overlap update and assembly as a fuse group
// (an unfused sync is a group of one) through a single
// runtime::Exchanger::exchange call, traced as "sync:<method>:<vars>".
// Runs are compared bit for bit by bitwise_identical.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "interp/interp.hpp"
#include "overlap/decompose.hpp"
#include "placement/solution.hpp"
#include "runtime/world.hpp"

namespace meshpar::interp {

/// How the program's arrays map onto the mesh.
struct MeshBinding {
  /// Global node-entity fields by program array name (localized through
  /// node_l2g on each rank).
  std::map<std::string, std::vector<double>> node_fields;
  /// Global triangle-entity fields (localized through tri_l2g).
  std::map<std::string, std::vector<double>> tri_fields;
  /// Connectivity-style arrays whose *values* are entity references and
  /// must be rebuilt per sub-mesh (e.g. SOM from the local triangles).
  /// Returns (values, dims).
  std::map<std::string,
           std::function<std::pair<std::vector<double>, std::vector<long long>>(
               const overlap::SubMesh&)>>
      local_builders;
  /// Plain replicated scalars (epsilon, maxloop, and the global bounds for
  /// the sequential run).
  std::map<std::string, double> scalars;
};

/// Deterministic recovery counters of one (possibly healed) SPMD run.
/// Every field is a function of the program, decomposition, and fault plan
/// alone — never of thread scheduling — so recovered runs can assert
/// byte-identical stats across repeats and across --jobs values. (The
/// transport's backoff retry count IS timing-dependent and deliberately
/// lives only in runtime::RecoveryStats, not here.)
struct SpmdStats {
  long long retransmits = 0;            // messages re-fetched from the log
  long long duplicates_suppressed = 0;  // replayed messages discarded
  long long checkpoints = 0;            // complete consistent epochs captured
  long long rollbacks = 0;              // checkpoint rollback-replays
  long long shrinks = 0;                // shrink-to-survivors rebuilds
  long long replays = 0;                // re-executions after attempt 1

  [[nodiscard]] long long healed() const {
    return retransmits + duplicates_suppressed + rollbacks + shrinks;
  }
  friend bool operator==(const SpmdStats&, const SpmdStats&) = default;
};

struct RunResult {
  bool ok = false;
  std::string error;
  /// Output node arrays (from the spec's outputs), reassembled globally.
  std::map<std::string, std::vector<double>> node_outputs;
  /// Final values of all scalars on rank 0.
  std::map<std::string, double> scalars;
  /// Structured containment/watchdog report when the runtime aborted the
  /// run (SpmdFailure): per-rank failures, deadlock cycle, MP-R0xx code.
  std::optional<runtime::FailureReport> failure;
  /// Synchronization actions executed by rank 0 (the ordinal space for
  /// kElideSync fault campaigns).
  long long sync_executions = 0;
  /// Recovery counters (all zero without a RecoveryPolicy attached).
  SpmdStats stats;
  /// Earliest sync ordinal a rank had passed when the sanitizer recorded
  /// its first stale read; -1 when the run is clean. Bounds the trust
  /// horizon of a rollback replay.
  long long first_stale_sync = -1;
};

/// Findings of the dynamic staleness sanitizer (code MP-S001). Each finding
/// names the reading statement, the variable, the local and global entity
/// index, and the communication that should have covered the read. The
/// list is deterministic: deduplicated per (statement, variable) and sorted
/// by source location, independent of rank scheduling.
struct StalenessReport {
  std::vector<Diagnostic> findings;

  [[nodiscard]] bool clean() const { return findings.empty(); }
};

/// Executes the ORIGINAL program sequentially on the global mesh data.
RunResult run_sequential(const placement::ProgramModel& model,
                         const mesh::Mesh2D& m, const MeshBinding& binding);

/// Executes one generated placement SPMD on `world` (one rank per
/// sub-mesh). The decomposition's pattern must match the model's automaton.
RunResult run_spmd(runtime::World& world,
                   const placement::ProgramModel& model,
                   const placement::Placement& placement,
                   const overlap::Decomposition& d, const mesh::Mesh2D& m,
                   const MeshBinding& binding);

class CheckpointStore;

/// Like run_spmd, but when `report` is non-null every rank shadows its
/// partitioned arrays with per-cell coherence epochs: a cell's epoch is
/// bumped to the variable's current write generation when the rank computes
/// it (or receives it in an exchange) and left behind when it does not, so a
/// read of a cell whose epoch lags the generation is a *stale overlap read*
/// — the value differs from what the sequential program would have used.
/// Findings land in `report` as MP-S001 diagnostics; the run itself is
/// unaffected.
///
/// With `ckpt`, the run also checkpoints at coherence epochs: at every
/// checkpoint sync boundary each rank feeds its owned slice of the synced
/// variable into `ckpt` (recording a globally consistent cut, or verifying
/// one during a rollback replay — see checkpoint.hpp).
RunResult run_spmd_sanitized(runtime::World& world,
                             const placement::ProgramModel& model,
                             const placement::Placement& placement,
                             const overlap::Decomposition& d,
                             const mesh::Mesh2D& m, const MeshBinding& binding,
                             StalenessReport* report,
                             CheckpointStore* ckpt = nullptr);

/// Bitwise equality of two runs' observable outputs: the same node output
/// and scalar names with the same bit patterns. operator== on double would
/// call -0.0 equal to 0.0 and a NaN unequal to itself; the runtime is
/// deterministic, so repeat runs must match bit for bit.
[[nodiscard]] bool bitwise_identical(const RunResult& a, const RunResult& b);

/// The standard binding for TESTT-shaped programs: SOM built from local
/// triangles (1-based), AIRETRI/AIRESOM from the global areas; callers add
/// the INIT field and the scalars.
MeshBinding testt_binding(const mesh::Mesh2D& m);

/// testt_binding plus deterministic defaults for every spec input the
/// binding does not cover: node fields get a smooth synthetic profile,
/// scalars get convergence-friendly values. This is the binding the
/// dynamic verifier and the fault-soak campaigns run with.
MeshBinding synthetic_binding(const placement::ProgramModel& model,
                              const mesh::Mesh2D& m);

}  // namespace meshpar::interp
