// Analytic alpha-beta machine model: projects the wall-clock time of an
// SPMD execution from per-rank counters (flops, messages, bytes).
//
// The paper's §2.4 cites Farhat & Lanteri [2]: speedups of 20-26 on 32
// processors of 1993/94-era MPPs (iPSC-860, CM-5, KSR-1). mpp1994() is
// calibrated to that class of machine: tens-of-microseconds message
// startup, ~10 MB/s per-link bandwidth, ~25 Mflop/s per node on real CFD
// code. Absolute numbers are not the claim — the *shape* of speedup vs P
// and where communication starts to dominate is.
#pragma once

#include "runtime/world.hpp"

namespace meshpar::runtime {

struct MachineModel {
  double alpha_s = 80e-6;          // message startup (s)
  double beta_s_per_byte = 1e-7;   // 10 MB/s per-byte cost
  double flop_s = 25e6;            // sustained per-node flop rate

  /// Time of one rank's execution.
  [[nodiscard]] double rank_time(const Counters& c) const {
    return c.flops / flop_s + c.msgs_sent * alpha_s +
           static_cast<double>(c.bytes_sent) * beta_s_per_byte;
  }

  /// Projected parallel time: the slowest rank.
  [[nodiscard]] double time(const std::vector<Counters>& per_rank) const {
    double t = 0;
    for (const auto& c : per_rank) t = std::max(t, rank_time(c));
    return t;
  }

  static MachineModel mpp1994() { return {80e-6, 1e-7, 25e6}; }
};

}  // namespace meshpar::runtime
