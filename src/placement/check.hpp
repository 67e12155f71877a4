// Applicability verification (paper §3.2 and Figure 4).
//
// A user-given loop partitioning is acceptable if no dependence — remaining
// after induction-variable detection, reduction detection, and scalar
// localization — is carried across the iterations of a partitioned loop,
// and no value computed in a particular partitioned iteration escapes to
// non-partitioned code (except through reductions).
//
// Every dependence is classified into one of the Figure-4 cases:
//
//   a  cyclic dependence carried by a partitioned loop        forbidden
//   b  loop-independent dependence inside a partitioned loop  respected
//   c  carried anti/output dependence in a partitioned loop   forbidden*
//   d  carried acyclic true dependence in a partitioned loop  forbidden*
//      (loop fission could turn d into f, which the paper notes is outside
//       its scope)
//   e  value/control dependence within one iteration          respected
//   f  dependence between two partitioned loops through       respected
//      memory (the inserted communication orders them)
//   g  dependence from a partitioned loop into non-partitioned
//      code                                                   forbidden
//      except for reductions (and whole coherent arrays)
//   h  dependence entirely inside non-partitioned code        respected
//   i  dependence from non-partitioned code into a
//      partitioned loop (replicated values flow in)           respected
//
// (*) unless removed by localization / reduction / induction / assembly
// recognition, which the verdicts record.
#pragma once

#include <string>
#include <vector>

#include "placement/model.hpp"

namespace meshpar::placement {

enum class Fig4Case { kA, kB, kC, kD, kE, kF, kG, kH, kI };

enum class Verdict {
  kRespected,           // legal as-is
  kRemovedLocalization, // privatizable temporary
  kRemovedReduction,    // recognized scalar reduction
  kRemovedInduction,    // recognized induction variable
  kRemovedAssembly,     // associative-commutative array assembly
  kForbidden,
};

/// One decision of the check. A dependence finding holds the dependence
/// and a static reason; its text is built by render() only when a report
/// is printed. Findings with no dependence (nested partitioned loops,
/// access shapes, assembly initializations) arise only on rejected
/// programs and carry their composed text in `detail`.
struct Finding {
  Fig4Case fig4 = Fig4Case::kB;
  Verdict verdict = Verdict::kRespected;
  const dfg::Dependence* dep = nullptr;
  const char* reason = "";  // string literal; set when dep is
  std::string detail;       // set when dep is null
};

struct ApplicabilityReport {
  std::vector<Finding> findings;

  [[nodiscard]] bool ok() const {
    for (const auto& f : findings)
      if (f.verdict == Verdict::kForbidden) return false;
    return true;
  }
  [[nodiscard]] std::size_t count(Verdict v) const {
    std::size_t n = 0;
    for (const auto& f : findings)
      if (f.verdict == v) ++n;
    return n;
  }
};

/// Runs the full applicability check.
ApplicabilityReport check_applicability(const ProgramModel& model);

/// The finding's line, "true dep on 'x' stmt@L:C -> stmt@L:C: <reason>"
/// for a dependence and `detail` otherwise. `sub` is the checked program.
[[nodiscard]] std::string render(const Finding& f, const lang::Subroutine& sub);

[[nodiscard]] const char* to_string(Fig4Case c);
[[nodiscard]] const char* to_string(Verdict v);

}  // namespace meshpar::placement
