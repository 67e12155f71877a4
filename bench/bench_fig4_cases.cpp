// Reproduces the paper's Figure 4: the taxonomy of dependences in a
// partitioned program and their admissibility. One mini-program per case;
// the table shows how the applicability checker classifies and rules on
// each, including which removal pass (§3.2) rescues the removable ones.
#include <iostream>
#include <string>
#include <vector>

#include "placement/check.hpp"
#include "support/table.hpp"

using namespace meshpar;
using namespace meshpar::placement;

namespace {

struct Case {
  const char* id;
  const char* description;
  const char* source;
  const char* spec;
  bool expect_ok;
};

// A spec may name only the program's own variables and loops, so each
// shape of mini-program gets its own.
constexpr const char* kSpecX =
    "pattern overlap-triangle-layer\n"
    "loopvar i over nsom partition nodes\n"
    "array x nodes\ninput x coherent\ninput nsom replicated\n";
constexpr const char* kSpecXY =
    "pattern overlap-triangle-layer\n"
    "loopvar i over nsom partition nodes\n"
    "array x nodes\narray y nodes\ninput x coherent\ninput nsom replicated\n";
constexpr const char* kSpecAssembly =
    "pattern overlap-triangle-layer\n"
    "loopvar i over ntri partition triangles\n"
    "array x nodes\narray k triangles\n"
    "input k coherent\ninput nsom replicated\ninput ntri replicated\n";
constexpr const char* kSpecSequential =
    "pattern overlap-triangle-layer\ninput nsom replicated\n";

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = {
      {"a", "cyclic recurrence carried by the partitioned loop",
       "      subroutine f(nsom,x)\n"
       "      integer nsom,i\n"
       "      real x(10),c\n"
       "      c = 1.0\n"
       "      do i = 1,nsom\n"
       "        c = c * 0.5\n"
       "        x(i) = c\n"
       "      end do\n"
       "      end\n",
       kSpecX, false},
      {"b", "loop-independent dependence inside one iteration",
       "      subroutine f(nsom,x,y)\n"
       "      integer nsom,i\n"
       "      real x(10),y(10),t\n"
       "      do i = 1,nsom\n"
       "        t = x(i) * 2.0\n"
       "        y(i) = t\n"
       "      end do\n"
       "      end\n",
       kSpecXY, true},
      {"c", "carried anti/output dependences on a temporary (localized)",
       "      subroutine f(nsom,x,y)\n"
       "      integer nsom,i\n"
       "      real x(10),y(10),t\n"
       "      do i = 1,nsom\n"
       "        t = x(i)\n"
       "        y(i) = t + 1.0\n"
       "      end do\n"
       "      end\n",
       kSpecXY, true},
      {"d", "acyclic true dependence across iterations (software pipeline)",
       "      subroutine f(nsom,x,y,t)\n"
       "      integer nsom,i\n"
       "      real x(10),y(10),t\n"
       "      do i = 1,nsom\n"
       "        y(i) = t\n"
       "        t = x(i)\n"
       "      end do\n"
       "      end\n",
       kSpecXY, false},
      {"asm*", "multiplicative array update (commutative, allowed)",
       "      subroutine f(nsom,ntri,k,x)\n"
       "      integer nsom,ntri,i\n"
       "      integer k(10)\n"
       "      real x(10)\n"
       "      do i = 1,ntri\n"
       "        x(k(i)) = x(k(i)) * 2.0\n"
       "      end do\n"
       "      end\n",
       kSpecAssembly, true},
      {"e", "control dependence within one iteration",
       "      subroutine f(nsom,x,y)\n"
       "      integer nsom,i\n"
       "      real x(10),y(10)\n"
       "      do i = 1,nsom\n"
       "        if (x(i) .gt. 0.0) then\n"
       "          y(i) = x(i)\n"
       "        end if\n"
       "      end do\n"
       "      end\n",
       kSpecXY, true},
      {"f", "dependence between two partitioned loops through memory",
       "      subroutine f(nsom,x,y)\n"
       "      integer nsom,i\n"
       "      real x(10),y(10)\n"
       "      do i = 1,nsom\n"
       "        x(i) = 1.0\n"
       "      end do\n"
       "      do i = 1,nsom\n"
       "        y(i) = x(i)\n"
       "      end do\n"
       "      end\n",
       kSpecXY, true},
      {"g", "value of a particular iteration escapes the loop",
       "      subroutine f(nsom,x,out)\n"
       "      integer nsom,i\n"
       "      real x(10),t,out\n"
       "      do i = 1,nsom\n"
       "        t = x(i)\n"
       "      end do\n"
       "      out = t\n"
       "      end\n",
       kSpecX, false},
      {"g-red", "reduction escapes the loop (the allowed exception)",
       "      subroutine f(nsom,x,out)\n"
       "      integer nsom,i\n"
       "      real x(10),s,out\n"
       "      s = 0.0\n"
       "      do i = 1,nsom\n"
       "        s = s + x(i)\n"
       "      end do\n"
       "      out = s\n"
       "      end\n",
       kSpecX, true},
      {"h", "dependences entirely in non-partitioned code",
       "      subroutine f(nsom,out)\n"
       "      integer nsom\n"
       "      real out,c\n"
       "      c = 2.0\n"
       "      c = c * 3.0\n"
       "      out = c\n"
       "      end\n",
       kSpecSequential, true},
      {"i", "replicated value flows into a partitioned loop",
       "      subroutine f(nsom,x)\n"
       "      integer nsom,i\n"
       "      real x(10),c\n"
       "      c = 4.0\n"
       "      do i = 1,nsom\n"
       "        x(i) = c\n"
       "      end do\n"
       "      end\n",
       kSpecX, true},
      {"asm", "array assembly (gather-scatter accumulation, allowed)",
       "      subroutine f(nsom,ntri,k,x)\n"
       "      integer nsom,ntri,i\n"
       "      integer k(10)\n"
       "      real x(10)\n"
       "      do i = 1,ntri\n"
       "        x(k(i)) = x(k(i)) + 2.0\n"
       "      end do\n"
       "      end\n",
       kSpecAssembly, true},
  };
  return kCases;
}

}  // namespace

int main() {
  std::cout << "# Figure 4 — dependence cases and their admissibility\n\n";
  TextTable t({"case", "description", "verdict", "removed-by", "as expected"});
  bool all_ok = true;

  for (const Case& c : cases()) {
    DiagnosticEngine diags;
    auto model = ProgramModel::build(c.source, c.spec, diags);
    if (!model) {
      t.add_row({c.id, c.description, "analysis error", "", "NO"});
      all_ok = false;
      continue;
    }
    ApplicabilityReport report = check_applicability(*model);
    std::string removed;
    for (auto v : {Verdict::kRemovedLocalization, Verdict::kRemovedReduction,
                   Verdict::kRemovedInduction, Verdict::kRemovedAssembly}) {
      if (report.count(v) > 0) {
        if (!removed.empty()) removed += "+";
        removed += to_string(v);
      }
    }
    bool ok = report.ok();
    bool expected = ok == c.expect_ok;
    all_ok = all_ok && expected;
    t.add_row({c.id, c.description, ok ? "accepted" : "REJECTED", removed,
               expected ? "yes" : "NO"});
  }
  std::cout << t.str();
  return all_ok ? 0 : 1;
}
