// Coherence-epoch checkpointing for the self-healing SPMD interpreter
// (DESIGN.md §12).
//
// A checkpoint is taken at a *sync boundary*: the moment an overlap update
// or assembly of a variable completes, every rank holds the coherent value
// of each entity it owns (the kernel copy for nodes, the owned copy for
// triangles), and the decomposition invariant guarantees every global
// entity has exactly one such owner. The union of the per-rank owned
// snapshots at one sync ordinal is therefore a *globally consistent cut*
// of the variable — no in-flight message can straddle it, because the
// exchange that defines the boundary has completed on every rank.
//
// The store runs in two modes. In kRecord mode (the faulted first
// attempt), each rank contributes its owned slice right after the sync;
// an epoch is *complete* once all ranks contributed. In kVerify mode (the
// rollback replay), contributions are instead compared bitwise against
// the recorded epoch — but only for epochs at or below the *trust
// horizon* (epochs recorded before the injected damage could reach them);
// any mismatch is a checkpoint/replay divergence, reported as MP-R006.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace meshpar::interp {

class CheckpointStore {
 public:
  explicit CheckpointStore(int nranks) : nranks_(nranks) {}

  enum class Mode { kRecord, kVerify };
  void set_mode(Mode mode);
  /// kVerify: only epochs with ordinal <= horizon are compared (damage
  /// from the injected fault cannot have reached them). Default: all.
  void set_trust_horizon(long long horizon);

  [[nodiscard]] bool wants(long long ordinal) const {
    return ordinal % kInterval == 0;
  }

  /// One rank's owned slice of `var` at a sync boundary: (global entity
  /// index, coherent value) pairs. Thread-safe; called from rank threads.
  void contribute(int rank, long long ordinal, const std::string& var,
                  const std::vector<std::pair<int, double>>& owned);

  /// Complete epochs (every rank contributed) recorded so far.
  [[nodiscard]] long long complete_epochs() const;
  /// Highest complete epoch ordinal, or -1 if none.
  [[nodiscard]] long long last_complete_epoch() const;

  /// kVerify findings, deterministically ordered by (ordinal, var, entity).
  /// Non-empty means the replay diverged from the trusted prefix: MP-R006.
  [[nodiscard]] std::vector<std::string> divergences() const;

  /// Damages one recorded value in place — the fault-injection hook that
  /// lets tests prove the verify pass actually detects divergence.
  void poison(long long ordinal, const std::string& var, int entity,
              double value);

 private:
  struct Epoch {
    int contributions = 0;  // ranks that contributed (complete == nranks)
    std::map<std::string, std::map<int, double>> arrays;
  };
  struct Divergence {
    long long ordinal;
    std::string var;
    int entity;
    double want;
    double got;
  };

  /// Coherence-sync epochs between checkpoints: a checkpoint is taken at
  /// every sync ordinal divisible by it.
  static constexpr int kInterval = 2;

  int nranks_;
  mutable std::mutex mu_;
  Mode mode_ = Mode::kRecord;
  long long horizon_ = -2;  // -2 = unlimited; -1 = trust nothing
  std::map<long long, Epoch> epochs_;
  std::vector<Divergence> diffs_;
};

}  // namespace meshpar::interp
