// The two overlap routines the generated C$SYNCHRONIZE annotations stand
// for (§2.3), run through one exchange loop that differs only in how a
// received value combines with the local one:
//   * update()   — "overlap-som": every overlap node receives the value of
//                  its kernel original (Figure-1 pattern, Combine::kCopy);
//   * assemble() — "assemble-som": duplicated boundary nodes swap partial
//                  values and sum them (Figure-2 pattern, Combine::kAdd).
// exchange() moves several fields at once: one message per schedule edge
// carries every field's payload back to back (field-major), so the
// per-message cost is paid once and each field gets bitwise the values a
// single-field exchange would give it. The loop is deterministic: messages
// are posted to all peers first, then received in peer order, so the result
// is independent of thread timing (floating-point sums are in fixed peer
// order).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "overlap/decompose.hpp"
#include "runtime/world.hpp"

namespace meshpar::runtime {

class Exchanger {
 public:
  /// How a received value combines with the local copy.
  enum class Combine { kCopy, kAdd };

  // This rank's schedule rows are copied out of the decomposition: an
  // Exchanger constructed from a temporary Decomposition (or one destroyed
  // mid-run) stays valid. Holding references into the whole schedule table
  // here was a dangling-reference hazard.
  Exchanger(const overlap::Decomposition& d, int rank_id, int tag_base = 100)
      : sends_(d.sends[rank_id]), recvs_(d.recvs[rank_id]), me_(rank_id),
        tag_base_(tag_base) {}

  /// Plan-level constructor (3-D decompositions and ad-hoc schedules);
  /// takes this rank's send/recv rows only.
  Exchanger(std::vector<overlap::Message> sends,
            std::vector<overlap::Message> recvs, int rank_id,
            int tag_base = 100)
      : sends_(std::move(sends)), recvs_(std::move(recvs)), me_(rank_id),
        tag_base_(tag_base) {}

  /// Exchanges every field in `fields` in one message per schedule edge.
  /// Senders snapshot their values before any receive, so every peer gets
  /// the pre-exchange values.
  void exchange(Rank& rank, std::span<std::vector<double>* const> fields,
                Combine combine) const;

  /// Figure-1 update: owners send kernel values, holders overwrite their
  /// overlap copies.
  void update(Rank& rank, std::vector<double>& field) const {
    std::vector<double>* f = &field;
    exchange(rank, {&f, 1}, Combine::kCopy);
  }

  /// Figure-2 assembly: symmetric partial swap, receiver adds.
  void assemble(Rank& rank, std::vector<double>& field) const {
    std::vector<double>* f = &field;
    exchange(rank, {&f, 1}, Combine::kAdd);
  }

 private:
  std::vector<overlap::Message> sends_;  // this rank's outgoing messages
  std::vector<overlap::Message> recvs_;  // this rank's incoming messages
  int me_;
  int tag_base_;
};

}  // namespace meshpar::runtime
