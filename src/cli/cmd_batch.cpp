// `mptool batch <manifest.json>`: runs many mptool invocations through one
// shared placement service. The manifest is an object with an "entries"
// array; each entry is {"name": optional, "args": [<a full mptool argv,
// e.g. "place", "prog.f", "spec.txt", "--k-best", "4">]}. File paths are
// resolved relative to the manifest's directory.
//
// Entries execute concurrently on a support::ThreadPool (--jobs N workers,
// 0 = all cores), but the report is BYTE-IDENTICAL for every --jobs value:
//
//   * outputs are aggregated in manifest order, never completion order;
//   * a sequential pre-pass keys every entry (digest of its inputs plus the
//     subcommand and normalized flags) and marks each repeat of an earlier
//     key as "cached". Only the first entry of each key runs; after the
//     pool drains, every repeat copies that entry's result. The "results"
//     counters are therefore misses = distinct keys, hits = repeats;
//   * the compile and placements levels coalesce concurrent requests (the
//     first requester computes, the rest block), so their counters depend
//     only on the SET of distinct keys, not on scheduling. The service
//     never evicts, so this holds for a manifest of any size.
//
// Exit: 0 = every entry succeeded; 1 = some entry exited 1; 2 = malformed
// or unreadable manifest, or some entry was itself a usage/build error.
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "cli/handlers.hpp"
#include "cli/options.hpp"
#include "service/key.hpp"
#include "service/service.hpp"
#include "support/json.hpp"
#include "support/json_reader.hpp"
#include "support/pool.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace meshpar::cli {

namespace {

/// What one entry printed and how it exited.
struct ActionResult {
  int exit_code = 0;
  std::string output;  // stdout
  std::string error;   // stderr
};

struct BatchEntry {
  std::string name;
  Options opts;
  std::string program_text;
  std::string spec_text;
  std::string key;                    // see Options::cache_key
  const BatchEntry* first = nullptr;  // earlier entry with the same key
  bool done = false;                  // load_entry already set `result`
  ActionResult result;
};

bool read_file(const std::filesystem::path& p, std::string* out) {
  std::ifstream f(p, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

/// Parses and validates one manifest entry; on any defect fills `result`
/// with a usage error (exit 2) and marks the entry done.
BatchEntry load_entry(const JsonValue& v, std::size_t index,
                      const std::filesystem::path& base) {
  BatchEntry e;
  e.name = "#" + std::to_string(index);
  auto fail = [&](const std::string& msg) {
    e.done = true;
    e.result = {2, "", e.name + ": " + msg + "\n"};
    return e;
  };
  if (!v.is_object()) return fail("entry is not an object");
  if (const JsonValue* n = v.find("name")) {
    if (!n->is_string()) return fail("\"name\" is not a string");
    e.name = n->as_string();
  }
  const JsonValue* args = v.find("args");
  if (!args || !args->is_array())
    return fail("entry has no \"args\" array");
  std::vector<std::string> argv;
  for (const JsonValue& a : args->items()) {
    if (!a.is_string()) return fail("\"args\" holds a non-string");
    argv.push_back(a.as_string());
  }
  e.opts = parse_args(argv);
  if (e.opts.help) return fail("--help is not a batch action");
  if (!e.opts.parse_error.empty()) return fail(e.opts.parse_error);
  if (e.opts.command == "batch") return fail("batch cannot nest");
  if (!e.opts.trace_path.empty())
    return fail("batch entries may not use --trace");
  auto load = [&](const std::string& rel, const char* what,
                  std::string* text) {
    if (rel.empty()) return true;
    const std::filesystem::path p = base / rel;
    if (!read_file(p, text))
      return fail("cannot open " + std::string(what) + " file '" +
                  p.string() + "'"),
             false;
    return true;
  };
  if (!load(e.opts.program_path, "program", &e.program_text)) return e;
  if (!load(e.opts.spec_path, "spec", &e.spec_text)) return e;
  return e;
}

void cache_level_json(std::ostream& out, const char* name,
                      const service::LevelStats& s) {
  out << "\"" << name << "\":{\"hits\":" << s.hits
      << ",\"misses\":" << s.misses << "}";
}

}  // namespace

int cmd_batch(Context& ctx) {
  const Options& o = ctx.opts;
  std::ostream& out = ctx.out;
  std::ostream& err = ctx.err;

  std::string manifest_text;
  if (!read_file(o.manifest_path, &manifest_text)) {
    err << "cannot open manifest '" << o.manifest_path << "'\n";
    return 2;
  }
  std::string parse_error;
  std::optional<JsonValue> doc = json_parse(manifest_text, &parse_error);
  if (!doc) {
    err << "malformed manifest '" << o.manifest_path << "': " << parse_error
        << "\n";
    return 2;
  }
  const JsonValue* entries_v = doc->find("entries");
  if (!entries_v || !entries_v->is_array()) {
    err << "malformed manifest '" << o.manifest_path
        << "': expected an object with an \"entries\" array\n";
    return 2;
  }

  const std::filesystem::path base =
      std::filesystem::path(o.manifest_path).parent_path();
  std::vector<BatchEntry> entries;
  entries.reserve(entries_v->items().size());
  for (std::size_t i = 0; i < entries_v->items().size(); ++i)
    entries.push_back(load_entry(entries_v->items()[i], i, base));

  // Sequential pre-pass: key every entry and point each repeat at the
  // first entry of its key before any concurrency starts.
  std::map<std::string, const BatchEntry*> firsts;
  service::LevelStats d_results;
  for (BatchEntry& e : entries) {
    if (e.done) continue;
    e.key = e.opts.cache_key(
        service::Service::content_key(e.program_text, e.spec_text));
    auto [it, inserted] = firsts.emplace(e.key, &e);
    if (inserted) {
      ++d_results.misses;
    } else {
      e.first = it->second;
      ++d_results.hits;
    }
  }

  const service::CacheStats before = ctx.service.stats();
  {
    support::ThreadPool pool(support::ThreadPool::clamp_jobs(
        o.jobs == 0 ? -1 : o.jobs));
    for (BatchEntry& e : entries) {
      if (e.done || e.first) continue;
      pool.submit([&e, &ctx] {
        trace::Span span("service/action", "service");
        span.arg("key", service::short_key(e.key));
        std::ostringstream eo, ee;
        const int code = dispatch_command(e.opts, e.program_text,
                                          e.spec_text, ctx.service, eo, ee);
        e.result = {code, eo.str(), ee.str()};
        span.arg("exit", code);
      });
    }
    pool.wait();
  }
  for (BatchEntry& e : entries) {
    if (!e.first) continue;
    e.result = e.first->result;
    if (trace::active())
      trace::current()->instant(
          "service/hit", "service",
          {{"level", "result"}, {"key", service::short_key(e.key)}});
  }
  const service::CacheStats after = ctx.service.stats();
  auto delta = [&](const service::LevelStats& a,
                   const service::LevelStats& b) {
    return service::LevelStats{a.hits - b.hits, a.misses - b.misses};
  };
  const service::LevelStats d_compile = delta(after.compile, before.compile);
  const service::LevelStats d_place =
      delta(after.placements, before.placements);

  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t errors = 0;
  int exit_code = 0;
  for (const BatchEntry& e : entries) {
    if (e.result.exit_code == 0)
      ++ok;
    else if (e.result.exit_code == 1)
      ++failed;
    else
      ++errors;
    exit_code = std::max(exit_code, e.result.exit_code == 0 ? 0
                                    : e.result.exit_code == 1 ? 1
                                                              : 2);
  }

  if (o.json) {
    out << "{\"entries\":[";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const BatchEntry& e = entries[i];
      if (i) out << ",";
      out << "{\"name\":\"" << json_escape(e.name) << "\",\"command\":\""
          << json_escape(e.opts.command) << "\",\"exit\":"
          << e.result.exit_code << ",\"cached\":"
          << (e.first ? "true" : "false") << ",\"output\":\""
          << json_escape(e.result.output) << "\",\"error\":\""
          << json_escape(e.result.error) << "\"}";
    }
    out << "],\"ok\":" << ok << ",\"failed\":" << failed
        << ",\"errors\":" << errors << ",\"cache\":{";
    cache_level_json(out, "compile", d_compile);
    out << ",";
    cache_level_json(out, "placements", d_place);
    out << ",";
    cache_level_json(out, "results", d_results);
    out << "}}\n";
    return exit_code;
  }

  out << "batch: " << entries.size() << " entries\n\n";
  TextTable t({"#", "name", "command", "exit", "status", "cached"});
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BatchEntry& e = entries[i];
    t.add_row({TextTable::num(i), e.name, e.opts.command,
               TextTable::num(static_cast<long long>(e.result.exit_code)),
               e.result.exit_code == 0   ? "ok"
               : e.result.exit_code == 1 ? "FAIL"
                                         : "ERROR",
               e.first ? "yes" : "no"});
  }
  out << t.str() << "\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BatchEntry& e = entries[i];
    out << "---- entry #" << i << ": " << e.name << " ----\n"
        << e.result.output;
    if (!e.result.error.empty())
      err << "entry #" << i << " (" << e.name << ") stderr:\n"
          << e.result.error;
  }
  out << "BATCH: " << ok << " ok, " << failed << " failed, " << errors
      << " errors; cache: " << (d_compile.hits + d_place.hits + d_results.hits)
      << " hits, "
      << (d_compile.misses + d_place.misses + d_results.misses)
      << " misses\n";
  return exit_code;
}

}  // namespace meshpar::cli
