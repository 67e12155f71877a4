#include "placement/simulate.hpp"

#include <sstream>

#include "placement/solution.hpp"

namespace meshpar::placement {

SimulationResult simulate_check(const Engine& engine,
                                const Assignment& assignment) {
  const ProgramModel& model = engine.model();
  const lang::Subroutine& sub = model.sub();
  const FlowGraph& fg = engine.fg();
  SimulationResult result;
  const auto& autom = model.autom();

  if (assignment.state_of.size() != fg.occs().size()) {
    result.violations.push_back("assignment size does not match the graph");
    return result;
  }

  for (const Occurrence& o : fg.occs()) {
    int s = assignment.state_of[o.id];
    if (s < 0 || s >= static_cast<int>(autom.states().size())) {
      result.violations.push_back(o.describe(sub) + ": state out of range");
      continue;
    }
    if (autom.state(s).entity != o.shape) {
      result.violations.push_back(o.describe(sub) + ": state " +
                                  autom.state(s).name +
                                  " has the wrong entity kind");
    }
    if (o.fixed_state && *o.fixed_state != s) {
      result.violations.push_back(
          o.describe(sub) + ": required state " +
          autom.state(*o.fixed_state).name + " but found " +
          autom.state(s).name);
    }
  }

  for (const FlowArrow& a : fg.arrows()) {
    if (!engine.transition_for(assignment, a)) {
      std::ostringstream os;
      os << fg.occ(a.src).describe(sub) << " ["
         << autom.state(assignment.state_of[a.src]).name << "] -> "
         << fg.occ(a.dst).describe(sub) << " ["
         << autom.state(assignment.state_of[a.dst]).name
         << "]: no legal " << automaton::to_string(a.kind);
      if (a.kind == automaton::ArrowKind::kValue)
        os << "/" << automaton::to_string(a.vclass);
      os << " transition";
      result.violations.push_back(os.str());
    }
  }

  if (result.ok()) {
    // Realizability: domains must be derivable and updates placeable.
    MaterializeFailure failure = MaterializeFailure::kNone;
    if (!materialize(engine, assignment, &failure)) {
      result.violations.push_back(
          std::string("states are transition-consistent but not "
                      "realizable: ") +
          to_string(failure));
    }
  }
  return result;
}

SimulationResult simulate_check(const ProgramModel& model,
                                const FlowGraph& fg,
                                const Assignment& assignment) {
  return simulate_check(Engine(model, fg), assignment);
}

}  // namespace meshpar::placement
