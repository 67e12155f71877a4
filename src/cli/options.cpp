#include "cli/options.hpp"

#include <algorithm>

#include "cli/registry.hpp"
#include "placement/tool.hpp"
#include "service/key.hpp"
#include "service/service.hpp"
#include "support/numeric.hpp"
#include "support/strings.hpp"

namespace meshpar::cli {

Options parse_args(const std::vector<std::string>& args) {
  Options o;
  std::vector<std::string> positional;
  // Checked numeric-flag parsing: every value goes through parse_number,
  // which rejects non-numeric tokens, trailing garbage ("2x") and values
  // out of the target type's range — with a usage error naming the flag,
  // instead of the uncaught std::stoi exceptions this replaced.
  std::size_t i = 0;
  auto numeric = [&](const char* flag, const char* what, auto* out) {
    if (i + 1 >= args.size()) {
      o.parse_error = std::string(flag) + " needs " + what;
      return false;
    }
    const std::string& v = args[++i];
    auto parsed = parse_number<std::decay_t<decltype(*out)>>(v);
    if (!parsed) {
      o.parse_error = std::string(flag) + ": invalid numeric value '" + v +
                      "' (expected " + what + ")";
      return false;
    }
    *out = *parsed;
    return true;
  };
  auto seen = [&](const char* flag) { o.seen_flags.emplace_back(flag); };
  for (; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--all") {
      o.all = true;
      seen("--all");
    } else if (a == "--dot") {
      o.dot = true;
      seen("--dot");
    } else if (a == "--json") {
      o.json = true;
      seen("--json");
    } else if (a == "--dynamic") {
      o.dynamic = true;
      seen("--dynamic");
    } else if (a == "--emit") {
      if (!numeric("--emit", "a placement number", &o.emit)) return o;
      seen("--emit");
    } else if (a == "--max") {
      if (!numeric("--max", "a solution count", &o.max_solutions)) return o;
      seen("--max");
    } else if (a == "--k-best") {
      if (!numeric("--k-best", "a placement count (0 = all)",
                   &o.max_solutions))
        return o;
      o.k_best = true;
      seen("--k-best");
    } else if (a == "--budget") {
      if (!numeric("--budget", "an assignment count", &o.budget)) return o;
      seen("--budget");
    } else if (a == "--jobs") {
      if (!numeric("--jobs", "a thread count", &o.jobs)) return o;
      if (o.jobs < 0) {
        o.parse_error = "--jobs needs a thread count >= 0 (0 = all cores)";
        return o;
      }
      seen("--jobs");
    } else if (a == "--seed") {
      if (!numeric("--seed", "a number", &o.seed)) return o;
      seen("--seed");
    } else if (a == "--faults") {
      if (!numeric("--faults", "a count", &o.faults)) return o;
      seen("--faults");
    } else if (a == "--max-errors") {
      if (!numeric("--max-errors", "a finding count", &o.max_errors))
        return o;
      seen("--max-errors");
    } else if (a == "--trace") {
      if (i + 1 >= args.size()) {
        o.parse_error = "--trace needs an output file path";
        return o;
      }
      o.trace_path = args[++i];
      seen("--trace");
    } else if (a == "--werror") {
      o.werror = true;
      seen("--werror");
    } else if (a == "--optimize") {
      o.optimize = true;
      seen("--optimize");
    } else if (a == "--no-dynamic") {
      o.no_dynamic = true;
      seen("--no-dynamic");
    } else if (a == "--recover") {
      o.recover = true;
      seen("--recover");
    } else if (a == "--help" || a == "-h") {
      o.help = true;
      return o;
    } else if (starts_with(a, "--")) {
      o.parse_error = "unknown flag '" + a + "'";
      return o;
    } else {
      positional.push_back(a);
    }
  }
  if (positional.empty()) {
    o.parse_error = "missing command (";
    for (const CommandSpec& c : registry()) {
      if (&c != &registry().front()) o.parse_error += " | ";
      o.parse_error += c.name;
    }
    o.parse_error += ")";
    return o;
  }
  o.command = positional[0];
  const CommandSpec* spec = find_command(o.command);
  if (!spec) {
    o.parse_error = "unknown command '" + o.command + "'";
    return o;
  }
  // Per-command flag validation: a flag that exists but is not in this
  // command's registry row is a usage error, not a silent no-op.
  for (const std::string& f : o.seen_flags) {
    if (std::find_if(spec->flags.begin(), spec->flags.end(),
                     [&](const char* s) { return f == s; }) ==
        spec->flags.end()) {
      o.parse_error =
          "'" + o.command + "' does not accept " + f + " (see --help)";
      return o;
    }
  }
  if (o.command == "automaton") {
    if (positional.size() != 2) {
      o.parse_error = "usage: mptool automaton <pattern-name>";
      return o;
    }
    o.pattern_name = positional[1];
    return o;
  }
  if (o.command == "batch") {
    if (positional.size() != 2) {
      o.parse_error = "usage: mptool batch <manifest.json>";
      return o;
    }
    o.manifest_path = positional[1];
    return o;
  }
  if (positional.size() != 3) {
    o.parse_error = "usage: mptool " + o.command + " <program> <spec>";
    return o;
  }
  o.program_path = positional[1];
  o.spec_path = positional[2];
  return o;
}

placement::ToolOptions Options::tool_options() const {
  placement::ToolOptions topt;
  topt.engine.max_solutions = max_solutions;
  topt.engine.max_assignments = budget;
  topt.engine.jobs = jobs == 0 ? -1 : jobs;  // 0: all hardware threads
  topt.k_best = k_best;
  return topt;
}

std::string Options::cache_key(std::string_view content_key) const {
  // Everything that can change rendered bytes enters the key. The engine
  // part, including when `jobs` matters, is Service::options_key's; only
  // the flags that are not tool options are serialized here. --trace
  // writes a side file and never affects stdout/stderr.
  const std::string flags =
      command + ";all=" + (all ? "1" : "0") + ";dot=" + (dot ? "1" : "0") +
      ";json=" + (json ? "1" : "0") + ";dyn=" + (dynamic ? "1" : "0") +
      ";emit=" + std::to_string(emit) + ";seed=" + std::to_string(seed) +
      ";faults=" + std::to_string(faults) +
      ";maxerr=" + std::to_string(max_errors) +
      ";werror=" + (werror ? "1" : "0") +
      ";optimize=" + (optimize ? "1" : "0") +
      ";nodyn=" + (no_dynamic ? "1" : "0") +
      ";recover=" + (recover ? "1" : "0") + ";pattern=" + pattern_name;
  return service::digest(
      {content_key, service::Service::options_key(tool_options()), flags});
}

}  // namespace meshpar::cli
