// 3-D placement (paper Figure 8): the TESTT structure on a tetrahedral
// mesh, placed with the tetra-layer overlap automaton. Demonstrates that
// the formalization "is not restricted to 2-D meshes" — the same engine,
// fed the 9-state automaton, finds the same family of placements.
#include <cmath>
#include <iostream>

#include "codegen/annotate.hpp"
#include "mesh/generators.hpp"
#include "placement/tool.hpp"
#include "solver/smooth.hpp"

using namespace meshpar;

namespace {

const char* kSource = R"(      subroutine smooth3d(init,result,nsom,nthd,som,volthd,volsom,epsilon,maxloop)
      integer nsom,nthd,maxloop
      integer som(12000,4)
      real epsilon
      real init(3000),result(3000),volsom(3000)
      real volthd(12000)
      integer i,loop,s1,s2,s3,s4
      real vm,sqrdiff,diff
      real old(3000),new(3000)
      do i = 1,nsom
        old(i) = init(i)
      end do
      loop = 0
100   loop = loop + 1
      do i = 1,nsom
        new(i) = 0.0
      end do
      do i = 1,nthd
        s1 = som(i,1)
        s2 = som(i,2)
        s3 = som(i,3)
        s4 = som(i,4)
        vm = old(s1) + old(s2) + old(s3) + old(s4)
        vm = vm * volthd(i) / 32.0
        new(s1) = new(s1) + vm/volsom(s1)
        new(s2) = new(s2) + vm/volsom(s2)
        new(s3) = new(s3) + vm/volsom(s3)
        new(s4) = new(s4) + vm/volsom(s4)
      end do
      sqrdiff = 0.0
      do i = 1,nsom
        diff = new(i) - old(i)
        sqrdiff = sqrdiff + diff*diff
      end do
      if (sqrdiff .lt. epsilon) goto 200
      if (loop .eq. maxloop) goto 200
      do i = 1,nsom
        old(i) = new(i)
      end do
      goto 100
200   do i = 1,nsom
        result(i) = new(i)
      end do
      end
)";

const char* kSpec = R"(pattern overlap-tetra-layer
loopvar i over nsom partition nodes
loopvar i over nthd partition tetrahedra
array init nodes
array result nodes
array volsom nodes
array old nodes
array new nodes
array som tetrahedra
array volthd tetrahedra
input init coherent
input som coherent
input volthd coherent
input volsom coherent
input nsom replicated
input nthd replicated
input epsilon replicated
input maxloop replicated
output result coherent
)";

}  // namespace

int main() {
  placement::Compiled compiled = placement::compile_frontend(kSource, kSpec);
  if (!compiled.model) {
    std::cerr << "analysis failed:\n" << compiled.diags.str();
    return 1;
  }
  if (!compiled.applicability.ok()) {
    for (const auto& f : compiled.applicability.findings)
      if (f.verdict == placement::Verdict::kForbidden)
        std::cerr << "forbidden: " << render(f, compiled.model->sub())
                  << "\n";
    return 1;
  }
  auto r = placement::enumerate_placements(*compiled.model, *compiled.fg);
  std::cout << "3-D tetra-layer placement (Figure-8 automaton, "
            << compiled.model->autom().states().size() << " states): "
            << r.placements.size() << " distinct placements\n\n";
  if (r.placements.empty()) return 1;
  std::cout << "== cheapest ==\n"
            << codegen::annotate(*compiled.model, r.placements.front())
            << "\n";

  // And execute the 3-D smoothing on a tetra-layer decomposition.
  auto m = mesh::box(8, 8, 6);
  std::vector<double> u0(m.num_nodes());
  for (int n = 0; n < m.num_nodes(); ++n)
    u0[n] = std::sin(3.0 * m.x[n]) + m.y[n] * m.z[n];
  const int P = 6, steps = 8;
  auto part = partition::partition_nodes(m, P, partition::Algorithm::kRib);
  auto d = overlap::decompose_tetra_layer(m, part);
  std::string err = overlap::validate(m, d);
  if (!err.empty()) {
    std::cerr << "3-D decomposition invalid: " << err << "\n";
    return 1;
  }
  auto seq = solver::smooth3d_sequential(m, u0, steps);
  runtime::World w(P);
  auto par = solver::smooth3d_spmd(w, m, d, u0, steps);
  double max_err = 0;
  for (std::size_t i = 0; i < seq.size(); ++i)
    max_err = std::max(max_err, std::fabs(seq[i] - par[i]));
  std::cout << "executed 3-D smoothing: " << m.num_nodes() << " nodes, "
            << m.num_tets() << " tets, " << P << " ranks, " << steps
            << " steps, " << w.total_msgs() << " messages, "
            << d.duplicated_tets() << " duplicated tets, max |err| = "
            << max_err << (max_err < 1e-11 ? "  (MATCH)\n" : "  (MISMATCH)\n");
  return max_err < 1e-11 ? 0 : 1;
}
