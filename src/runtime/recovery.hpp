// Reliable-transport policy and accounting for the self-healing SPMD
// runtime (DESIGN.md §12).
//
// With a RecoveryPolicy attached to WorldOptions, the runtime stops
// treating transport anomalies as terminal: every sent message is retained
// in a bounded per-edge retransmit log, and the receive path *heals*
// instead of throwing —
//
//   * a replayed or duplicated message (seq below the receive watermark)
//     is suppressed and delivery continues;
//   * a sequence gap or a checksum failure triggers a retransmit from the
//     log, retried under bounded deterministic exponential backoff;
//   * a receiver blocked on a message that was provably sent but is no
//     longer deliverable (dropped in flight, pruned from the log) raises
//     MP-R005 "unrecoverable transport" instead of hanging or reporting a
//     generic deadlock.
//
// The log doubles as the ack window: a receiver's per-edge watermark is its
// cumulative acknowledgement, and entries at or below every watermark are
// dead weight the pruning discards first. All healing decisions are
// functions of message identity (src, dst, tag, seq), never of thread
// timing, so healed runs stay bitwise deterministic.
#pragma once

namespace meshpar::runtime {

struct RecoveryPolicy {
  /// Retransmit attempts per missing/corrupt message before the transport
  /// declares the message unrecoverable (MP-R005).
  int max_retries = 8;
  /// First backoff sleep in microseconds; doubles per retry (capped at
  /// 64x). Purely a pacing knob — healing decisions never depend on it.
  int backoff_base_us = 20;
  /// Per-edge retransmit log depth (the sequence window). 0 disables
  /// retransmission entirely: every loss becomes MP-R005.
  int retain_window = 64;
  /// What the interpreter-level recovery loop does when the transport
  /// reports MP-R005: raise it to the caller, or roll back to the last
  /// consistent checkpoint and replay.
  enum class OnUnrecoverable { kRaise, kRollback };
  OnUnrecoverable on_unrecoverable = OnUnrecoverable::kRaise;
};

/// What the reliable transport did during one World::run. Every counter is
/// deterministic for a fixed program + fault plan: heals are triggered by
/// message identity, not by scheduling.
struct RecoveryStats {
  long long retransmits = 0;            // payloads re-fetched from the log
  long long duplicates_suppressed = 0;  // replayed messages discarded
  long long retries = 0;                // backoff sleeps taken (pacing only)

  /// Total healing interventions (excludes `retries`, which is pacing).
  [[nodiscard]] long long healed() const {
    return retransmits + duplicates_suppressed;
  }
};

}  // namespace meshpar::runtime
