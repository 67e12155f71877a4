// Parsed command-line options for one `mptool` invocation. Shared by the
// per-subcommand handler files (cmd_*.cpp); parse_args lives in
// options.cpp and consults the command registry (registry.hpp) for
// positional arity and per-command flag validation, so an unknown or
// misplaced flag is a usage error (exit 2) instead of a silent no-op.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace meshpar::placement {
struct ToolOptions;
}

namespace meshpar::cli {

struct Options {
  std::string command;
  std::string program_path;
  std::string spec_path;
  std::string pattern_name;
  std::string manifest_path;         // batch: the manifest JSON
  bool all = false;
  bool dot = false;
  bool json = false;
  bool dynamic = false;
  int emit = -1;
  bool k_best = false;               // --k-best: streaming bounded ranking
  std::size_t max_solutions = 0;
  long long budget = 0;              // --budget: engine assignment cap
  int jobs = 1;                      // --jobs: engine / batch worker threads
  unsigned long long seed = 1;       // --seed: soak campaign seed
  int faults = 100;                  // --faults: soak campaign size
  std::size_t max_errors = 0;        // --max-errors: stored-findings cap
  bool werror = false;               // --werror: promote lint advice
  bool optimize = false;             // --optimize: place runs the optimizer
  bool no_dynamic = false;           // --no-dynamic: opt skips the SPMD proof
  bool recover = false;              // --recover: healing soak campaign
  bool help = false;                 // --help: print usage, exit 0
  std::string trace_path;            // --trace: Chrome trace-event output
  std::vector<std::string> seen_flags;  // canonical names, parse order
  std::string parse_error;

  /// The engine/tool options this invocation implies (what the service's
  /// placement cache is keyed on).
  [[nodiscard]] placement::ToolOptions tool_options() const;

  /// Content-addressed memo key for this invocation's fully rendered
  /// result: digest(content key of the input pair, Service::options_key of
  /// tool_options(), the serialization of every other semantic flag). The
  /// tool-options part normalizes `jobs` away unless the run can truncate;
  /// --trace never enters the key.
  [[nodiscard]] std::string cache_key(std::string_view content_key) const;
};

Options parse_args(const std::vector<std::string>& args);

}  // namespace meshpar::cli
