// Per-subcommand handlers, one translation unit each (cmd_*.cpp). Every
// handler obeys the registry's exit-code contract (registry.hpp): 0
// success, 1 findings-or-failure, 2 build-or-usage error.
#pragma once

#include <iosfwd>
#include <string>

#include "cli/registry.hpp"

namespace meshpar::cli {

int cmd_place(Context& ctx);      // cmd_place.cpp
int cmd_opt(Context& ctx);        // cmd_opt.cpp
int cmd_check(Context& ctx);      // cmd_inspect.cpp
int cmd_deps(Context& ctx);       // cmd_inspect.cpp
int cmd_fission(Context& ctx);    // cmd_inspect.cpp
int cmd_automaton(Context& ctx);  // cmd_inspect.cpp
int cmd_verify(Context& ctx);     // cmd_verify.cpp
int cmd_lint(Context& ctx);       // cmd_lint.cpp
int cmd_soak(Context& ctx);       // cmd_soak.cpp
int cmd_profile(Context& ctx);    // cmd_profile.cpp
int cmd_batch(Context& ctx);      // cmd_batch.cpp

/// Runs one parsed invocation end to end against `service`: fetches what
/// the command needs (compile-only or compile + enumerate, both cached),
/// reports build errors with exit 2, exits 1 for a placement command on a
/// rejected program or an empty placement set, and calls the handler.
/// Shared by run_driver and the batch executor, which is how a batch entry
/// and a direct invocation can never disagree.
int dispatch_command(const Options& opts, const std::string& program_text,
                     const std::string& spec_text, service::Service& service,
                     std::ostream& out, std::ostream& err);

}  // namespace meshpar::cli
