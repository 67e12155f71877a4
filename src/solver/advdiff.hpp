// An explicit advection-diffusion solver on an unstructured triangular
// mesh: the "real application" workload class the paper's §2.4 evaluation
// cites (Farhat & Lanteri's compressible-flow solver). Per time step it is
// a gather-scatter over triangles — P1 gradients, upwinded transport, a
// diffusive flux — assembled into nodes, which is exactly the structure the
// placement tool handles; `work` multiplies the per-triangle physics to
// emulate heavier kernels (Navier-Stokes does hundreds of flops per
// element).
#pragma once

#include <vector>

#include "overlap/decompose.hpp"
#include "runtime/world.hpp"

namespace meshpar::solver {

struct AdvDiffParams {
  double dt = 1e-3;
  double kappa = 0.05;   // diffusivity
  double vx = 1.0, vy = 0.5;  // advection velocity
  int steps = 20;
  int work = 1;  // physics weight: inner repetitions of the flux kernel
  int norm_every = 5;  // global norm (reduction) frequency, 0 = never
};

/// Sequential reference. Returns the field after `steps` steps.
std::vector<double> advdiff_sequential(const mesh::Mesh2D& m,
                                       const std::vector<double>& u0,
                                       const AdvDiffParams& p);

/// SPMD execution with the Figure-9-style placement (one overlap update +
/// one optional reduction per step). Entity-layer decompositions only.
std::vector<double> advdiff_spmd(runtime::World& world, const mesh::Mesh2D& m,
                                 const overlap::Decomposition& d,
                                 const std::vector<double>& u0,
                                 const AdvDiffParams& p);

}  // namespace meshpar::solver
