// The command registry: one table describing every `mptool` subcommand —
// name, positional synopsis, accepted flags, what it needs fetched from
// the service, and its handler. The usage text (`--help` and every parse
// error) is GENERATED from this table plus the flag-description table, so
// a subcommand or flag that exists but is missing from the help output is
// impossible by construction; the driver test walks the registry to pin
// that.
//
// Exit-code contract, uniform across every subcommand (pinned by the
// driver test matrix):
//   0  success — the command ran and found nothing wrong;
//   1  findings or pipeline failure — the inputs built, but the command's
//      check failed (rejected applicability, verifier/lint findings, a
//      failed optimization certificate, an unhealed soak fault, no
//      placement, a batch entry that exited 1);
//   2  build or usage error — the invocation itself is unusable: unknown
//      command or flag, malformed flag value, a flag the subcommand does
//      not accept, unreadable input files, a program/spec that does not
//      build, a malformed batch manifest, or a placement index that does
//      not exist.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace meshpar::placement {
struct Compiled;
}
namespace meshpar::service {
class Service;
struct PlacementSet;
}

namespace meshpar::cli {

struct Options;

/// What the dispatcher fetches from the service before the handler runs.
enum class Needs {
  kNone,       // automaton, batch: no program/spec pipeline
  kFrontEnd,   // check, deps, fission: model + applicability only
  kPlacements, // place, opt, verify, lint, soak, profile: + enumeration
};

/// Everything a subcommand handler receives.
struct Context {
  const Options& opts;
  const std::string& program_text;
  const std::string& spec_text;
  service::Service& service;
  /// Set for Needs::kFrontEnd and up; model is non-null (build errors exit
  /// 2 before any handler runs).
  std::shared_ptr<const placement::Compiled> compiled;
  /// Set for Needs::kPlacements; the program passed the applicability
  /// check and the set is non-empty (dispatch_command exits 1 otherwise).
  std::shared_ptr<const service::PlacementSet> placements;
  std::ostream& out;
  std::ostream& err;
};

using Handler = int (*)(Context&);

struct CommandSpec {
  const char* name;
  const char* synopsis;  // positional part, e.g. "<program.f> <spec.txt>"
  std::vector<const char*> flags;  // accepted flag names (validated)
  Needs needs;
  Handler handler;
};

struct FlagSpec {
  const char* name;     // "--emit"
  const char* metavar;  // "N" ("" for boolean flags)
  const char* help;     // one-line description
};

[[nodiscard]] const std::vector<CommandSpec>& registry();
[[nodiscard]] const std::vector<FlagSpec>& flag_specs();
[[nodiscard]] const CommandSpec* find_command(std::string_view name);

/// The usage text, generated from the registry and flag tables. Printed by
/// `--help` and after every parse error.
[[nodiscard]] std::string usage_text();

}  // namespace meshpar::cli
