// The driver's thin core: parse -> fetch what the command needs from the
// service -> dispatch to the registry handler. Subcommand logic lives in
// the cmd_*.cpp files; the table that binds names, flags and handlers is
// registry.cpp.
#include "cli/driver.hpp"

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "cli/handlers.hpp"
#include "cli/options.hpp"
#include "cli/registry.hpp"
#include "placement/tool.hpp"
#include "service/service.hpp"
#include "support/trace.hpp"

namespace meshpar::cli {

int dispatch_command(const Options& opts, const std::string& program_text,
                     const std::string& spec_text, service::Service& service,
                     std::ostream& out, std::ostream& err) {
  const CommandSpec* spec = find_command(opts.command);
  if (!spec) {  // unreachable after parse_args, kept as a hard stop
    err << "unknown command '" << opts.command << "'\n";
    return 2;
  }
  Context ctx{opts, program_text, spec_text, service, {}, {}, out, err};
  if (spec->needs == Needs::kFrontEnd) {
    ctx.compiled = service.compile(program_text, spec_text);
  } else if (spec->needs == Needs::kPlacements) {
    ctx.placements =
        service.placements(program_text, spec_text, opts.tool_options());
    ctx.compiled = ctx.placements->compiled;
  }
  if (spec->needs != Needs::kNone && !ctx.compiled->model) {
    err << ctx.compiled->diags.str();
    return 2;
  }
  // The one gate of the placement commands: the program must pass the
  // applicability check, and the search must have found a placement.
  if (spec->needs == Needs::kPlacements) {
    if (!ctx.compiled->applicability.ok()) {
      err << "applicability check failed; run 'mptool check' for details\n";
      return 1;
    }
    if (ctx.placements->placements.empty()) {
      err << "no placement maps this program onto the chosen overlap "
             "automaton\n";
      return 1;
    }
  }
  return spec->handler(ctx);
}

DriverResult run_driver(const std::vector<std::string>& args,
                        const std::string& program_text,
                        const std::string& spec_text,
                        service::Service* service) {
  DriverResult result;
  std::ostringstream out, err;
  Options o = parse_args(args);
  // --trace: install a process-global tracer for the whole dispatch (the
  // placement engine, the SPMD runtime, the overlap layer and the service
  // cache all feed it), then serialize to Chrome trace-event JSON on the
  // way out.
  std::optional<trace::Tracer> tracer;
  std::optional<trace::ScopedInstall> trace_guard;
  if (!o.trace_path.empty() && o.parse_error.empty() && !o.help) {
    tracer.emplace();
    trace_guard.emplace(&*tracer);
  }
  if (o.help) {
    out << usage_text();
    result.exit_code = 0;
  } else if (!o.parse_error.empty()) {
    err << o.parse_error << "\n";
    result.exit_code = 2;
  } else {
    std::optional<service::Service> local;
    if (!service) local.emplace();
    result.exit_code = dispatch_command(
        o, program_text, spec_text, service ? *service : *local, out, err);
  }
  if (tracer) {
    trace_guard.reset();
    std::ofstream tf(o.trace_path, std::ios::binary);
    if (!tf) {
      err << "cannot open trace file '" << o.trace_path << "'\n";
      result.exit_code = 2;
    } else {
      tf << tracer->chrome_json();
    }
  }
  result.output = out.str();
  result.error = err.str();
  return result;
}

int run_main(int argc, const char* const* argv, std::ostream& out,
             std::ostream& err) {
  std::vector<std::string> args(argv + 1, argv + argc);
  Options o = parse_args(args);
  if (!o.parse_error.empty()) {
    err << o.parse_error << "\n\n" << usage_text();
    return 2;
  }
  std::string program_text, spec_text;
  if (!o.program_path.empty()) {
    std::ifstream pf(o.program_path), sf(o.spec_path);
    if (!pf) {
      err << "cannot open program file '" << o.program_path << "'\n";
      return 2;
    }
    if (!sf) {
      err << "cannot open spec file '" << o.spec_path << "'\n";
      return 2;
    }
    std::ostringstream ps, ss;
    ps << pf.rdbuf();
    ss << sf.rdbuf();
    program_text = ps.str();
    spec_text = ss.str();
  }
  DriverResult r = run_driver(args, program_text, spec_text);
  out << r.output;
  err << r.error;
  return r.exit_code;
}

}  // namespace meshpar::cli
