// Quickstart: run the communication-placement tool on the paper's TESTT
// program (Figures 9/10) and print every distinct placement it finds,
// cheapest first, as annotated Fortran source.
#include <cstdio>
#include <iostream>

#include "codegen/annotate.hpp"
#include "lang/corpus.hpp"
#include "placement/tool.hpp"

int main() {
  using namespace meshpar;

  // The pipeline's two halves, separately: the front end (everything that
  // depends on the text pair alone) ...
  placement::Compiled compiled = placement::compile_frontend(
      lang::testt_source(), lang::testt_spec());

  if (!compiled.model) {
    std::cerr << "analysis failed:\n" << compiled.diags.str();
    return 1;
  }

  std::cout << "== applicability check (Figure 4) ==\n";
  std::size_t forbidden = 0;
  for (const auto& f : compiled.applicability.findings) {
    if (f.verdict == placement::Verdict::kForbidden) {
      ++forbidden;
      std::cout << "  FORBIDDEN case " << to_string(f.fig4) << ": "
                << render(f, compiled.model->sub()) << "\n";
    }
  }
  std::cout << "  " << compiled.applicability.findings.size()
            << " dependences classified, " << forbidden << " forbidden\n\n";
  if (!compiled.applicability.ok()) return 1;

  // ... and the enumeration over it.
  placement::EnumerationResult result =
      placement::enumerate_placements(*compiled.model, *compiled.fg);

  std::cout << "== engine ==\n";
  std::cout << "  " << result.stats.assignments << " states tried, "
            << result.stats.backtracks << " backtracks, "
            << result.stats.solutions << " raw solutions ("
            << result.placements.size() << " distinct placements)\n\n";

  int rank = 1;
  for (const auto& p : result.placements) {
    std::cout << "---- placement #" << rank++ << "  (cost " << p.cost
              << ", " << p.syncs.size() << " syncs at "
              << p.sync_locations() << " locations) ----\n";
    std::cout << codegen::annotate(*compiled.model, p) << "\n";
    if (rank > 4) {
      std::cout << "(" << result.placements.size() - 4
                << " more placements not shown)\n";
      break;
    }
  }
  return 0;
}
