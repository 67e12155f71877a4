// The correctness oracle behind `failed` and the modeled-traffic metrics.
#include "analysis/lint.hpp"
#include "cli/driver.hpp"
#include "cli/options.hpp"
#include "e2e.hpp"
#include "placement/simulate.hpp"
#include "placement/tool.hpp"
#include "placement/verify.hpp"
#include "support/json_reader.hpp"

namespace meshpar::bench {

namespace {

/// The error count a JSON report states: a top-level "errors" (batch) or
/// "summary"."errors" (diagnostics reports); 0 when it states none (place,
/// opt, soak).
double reported_errors(const JsonValue& doc) {
  if (const JsonValue* e = doc.find("errors"); e && e->is_number())
    return e->as_number();
  if (const JsonValue* s = doc.find("summary"))
    if (const JsonValue* e = s->find("errors"); e && e->is_number())
      return e->as_number();
  return 0;
}

std::string string_field(const JsonValue& v, const char* key) {
  const JsonValue* f = v.find(key);
  return f && f->is_string() ? f->as_string() : std::string();
}

double number_field(const JsonValue* v, const char* key) {
  const JsonValue* f = v ? v->find(key) : nullptr;
  return f && f->is_number() ? f->as_number() : 0;
}

/// Batch-only checks: no entry failed, and every entry whose command has a
/// golden printed it byte for byte.
std::string check_batch(const Call& c, const JsonValue& doc) {
  if (number_field(&doc, "failed") != 0) return "a batch entry failed";
  const JsonValue* entries = doc.find("entries");
  if (!entries || !entries->is_array()) return "batch report has no entries";
  for (const JsonValue& e : entries->items()) {
    const std::string name = string_field(e, "name");
    if (number_field(&e, "exit") != 0) return "entry " + name + " exited non-zero";
    auto g = c.entry_goldens.find(string_field(e, "command"));
    if (g != c.entry_goldens.end() && string_field(e, "output") != g->second)
      return "entry " + name + " differs from its golden";
  }
  return "";
}

}  // namespace

std::string Oracle::check(const Call& c, const CallOutput& o) {
  const std::string what = describe(c) + ": ";
  if (o.exit_code != 0)
    return what + "exit " + std::to_string(o.exit_code) + " " +
           o.err.substr(0, o.err.find('\n'));
  if (!c.golden.empty())
    return o.out == c.golden ? "" : what + "output differs from its golden";
  std::string error;
  const std::optional<JsonValue> doc = json_parse(o.out, &error);
  if (!doc) return what + "invalid JSON: " + error;
  if (reported_errors(*doc) != 0) return what + "reports errors";
  if (c.batch)
    if (std::string why = check_batch(c, *doc); !why.empty()) return what + why;
  auto [first, fresh] = first_.try_emplace(describe(c), o.out);
  if (!fresh && first->second != o.out)
    return what + "output differs from an earlier repeat";
  return "";
}

Modeled modeled_traffic(const Call& c, const std::string& out) {
  Modeled m;
  const std::optional<JsonValue> doc = json_parse(out);
  if (!doc) return m;
  if (c.batch) {
    const JsonValue* entries = doc->find("entries");
    if (!entries) return m;
    for (const JsonValue& e : entries->items()) {
      Call entry;
      entry.args = {string_field(e, "command")};
      const Modeled em = modeled_traffic(entry, string_field(e, "output"));
      m.msgs += em.msgs;
      m.bytes += em.bytes;
    }
    return m;
  }
  const std::string& command = c.args.at(0);
  const JsonValue* best = nullptr;
  if (command == "place") {
    const JsonValue* report = doc->find("report");
    if (report && report->is_array() && !report->items().empty())
      best = &report->items()[0];
  } else if (command == "opt") {
    best = doc->find("optimized");
  }
  m.msgs = static_cast<long long>(number_field(best, "messages"));
  m.bytes = static_cast<long long>(number_field(best, "bytes"));
  return m;
}

std::string placement_pass(const Workload& w) {
  if (!w.synthetic) return "";
  for (const Call& c : w.calls) {
    const std::string what = describe(c) + ": ";
    const cli::Options o = cli::parse_args(c.args);
    const placement::Compiled comp =
        placement::compile_frontend(c.program, c.spec);
    if (!comp.ok()) return what + "the front end rejected the program";
    const placement::EnumerationResult e = placement::enumerate_placements(
        *comp.model, *comp.fg, o.tool_options());
    const cli::DriverResult r = cli::run_driver(c.args, c.program, c.spec);
    const std::optional<JsonValue> doc = json_parse(r.output);
    if (e.placements.empty() || !doc ||
        number_field(&*doc, "placements") !=
            static_cast<double>(e.placements.size()))
      return what + "the request's placements differ from the library's";
    const placement::Engine engine(*comp.model, *comp.fg);
    for (std::size_t i = 0; i < e.placements.size(); ++i) {
      const placement::Placement& p = e.placements[i];
      const std::string id = what + "placement #" + std::to_string(i) + " ";
      if (!placement::verify_placement(*comp.model, *comp.fg, p).ok())
        return id + "fails verify_placement";
      if (!placement::simulate_check(engine, p.assignment).ok())
        return id + "fails simulate_check";
      if (!analysis::lint_placement(*comp.model, p).clean())
        return id + "does not lint clean";
    }
    if (o.jobs > 1) {
      std::vector<std::string> seq = c.args;
      for (std::size_t i = 0; i + 1 < seq.size(); ++i)
        if (seq[i] == "--jobs") seq[i + 1] = "1";
      if (cli::run_driver(seq, c.program, c.spec).output != r.output)
        return what + "output differs from --jobs 1";
    }
  }
  return "";
}

}  // namespace meshpar::bench
