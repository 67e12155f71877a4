// Per-placement communication cost reports (DESIGN.md §13).
//
// The engine ranks placements by an abstract cost; this module grounds the
// ranking in concrete traffic numbers by simulating each placement's
// synchronization points against a real overlap decomposition's
// communication schedule: how many messages and bytes one sweep over the
// subroutine moves, how many of the syncs sit inside the convergence cycle,
// and how far each partitioned loop's iteration domain extends past the
// kernel (the redundant-computation side of the paper's Figure 9/10
// trade-off). Purely static — nothing is executed; the numbers derive from
// the Decomposition alone, so they are exact for the update/assembly
// exchanges and use the runtime's gather-to-0-and-broadcast count
// (2(P-1) messages of one double) for scalar reductions.
#pragma once

#include <string>
#include <vector>

#include "overlap/decompose.hpp"
#include "placement/solution.hpp"

namespace meshpar::placement {

/// Iteration-domain cost of one partitioned loop under a placement.
struct LoopCost {
  std::string loop;      // "do@line:col" of the partitioned loop
  std::string entity;    // "node" or "triangle"
  int layers = 0;        // domain extension: kernel + this many layers
  /// Iterations per sweep summed over all ranks at that extension...
  long long domain_cells = 0;
  /// ...and the kernel-only (no redundancy) floor it is measured against.
  long long kernel_cells = 0;
};

/// Traffic and redundancy of one sweep of a placement over `d`.
struct CostReport {
  long long messages = 0;  // point-to-point messages per sweep
  long long bytes = 0;     // payload bytes per sweep (doubles * 8)
  std::size_t syncs = 0;   // synchronization points in the placement
  std::size_t syncs_in_cycle = 0;  // of which re-execute every iteration
  std::vector<LoopCost> loops;     // one row per partitioned loop
};

/// Simulates `p`'s synchronizations against the communication schedule of
/// `d`. Each overlap update/assembly costs one full exchange
/// (d.exchange_messages() messages, d.exchange_volume() doubles); each
/// scalar reduction costs 2(parts-1) messages of one double.
[[nodiscard]] CostReport simulate_cost(const ProgramModel& model,
                                       const Placement& p,
                                       const overlap::Decomposition& d);

/// The decomposition every SPMD run of `model` executes on: `m`
/// RCB-partitioned into `parts` parts and overlapped by the model's pattern
/// (node boundary, or entity layers to the automaton's halo depth).
[[nodiscard]] overlap::Decomposition decomposition_for(
    const ProgramModel& model, const mesh::Mesh2D& m, int parts);

/// The canonical example decomposition every CLI cost surface uses — the
/// same configuration `mptool verify --dynamic` runs against: a 10x10
/// rectangle mesh through decomposition_for into 3 parts. `mesh_out`
/// (optional) receives the generated mesh.
[[nodiscard]] overlap::Decomposition example_decomposition(
    const ProgramModel& model, mesh::Mesh2D* mesh_out = nullptr);

}  // namespace meshpar::placement
