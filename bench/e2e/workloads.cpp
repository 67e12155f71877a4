// The four workloads (README.md, "Workloads") and how a call runs.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cli/driver.hpp"
#include "e2e.hpp"
#include "lang/corpus.hpp"

namespace meshpar::bench {

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read '" + p.string() + "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

CallOutput run_call(const Call& c) {
  if (c.batch) {
    std::vector<const char*> argv{"mptool"};
    for (const std::string& a : c.args) argv.push_back(a.c_str());
    std::ostringstream out, err;
    const int code =
        cli::run_main(static_cast<int>(argv.size()), argv.data(), out, err);
    return {code, out.str(), err.str()};
  }
  cli::DriverResult r = cli::run_driver(c.args, c.program, c.spec);
  return {r.exit_code, std::move(r.output), std::move(r.error)};
}

std::string describe(const Call& c) {
  std::string s;
  for (const std::string& a : c.args) s += (s.empty() ? "" : " ") + a;
  return s;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "examples-cli", "frontend-scale", "search-exhaustive", "exec-batch"};
  return kNames;
}

Workload make_workload(const std::string& name, const std::string& root) {
  const fs::path data = fs::path(root) / "examples" / "data";
  const fs::path goldens = fs::path(root) / "tests" / "data";
  Workload w;
  w.name = name;
  if (name == "examples-cli") {
    for (const std::string ex : {"testt", "coupled"}) {
      const std::string f = (data / (ex + ".f")).string();
      const std::string s = (data / (ex + ".spec")).string();
      const std::string program = read_file(f);
      const std::string spec = read_file(s);
      auto call = [&](std::vector<std::string> args, std::string golden) {
        w.calls.push_back({std::move(args), program, spec, std::move(golden),
                           {}, false});
      };
      call({"place", f, s, "--k-best", "4", "--json"},
           read_file(goldens / ("place_kbest_" + ex + ".json")));
      call({"lint", f, s, "--json"}, "");
      call({"opt", f, s, "--json"},
           read_file(goldens / ("opt_" + ex + ".json")));
      call({"verify", f, s, "--json"}, "");
    }
  } else if (name == "frontend-scale") {
    w.synthetic = true;
    w.calls.push_back({{"place", "synthetic24.f", "synthetic24.spec", "--json",
                        "--max", "16"},
                       lang::synthetic_source(24),
                       lang::synthetic_spec(24),
                       "",
                       {},
                       false});
  } else if (name == "search-exhaustive") {
    w.synthetic = true;
    w.calls.push_back({{"place", "synthetic9.f", "synthetic9.spec", "--json",
                        "--k-best", "16", "--jobs", "2"},
                       lang::synthetic_source(9),
                       lang::synthetic_spec(9),
                       "",
                       {},
                       false});
  } else if (name == "exec-batch") {
    Call c;
    c.batch = true;
    c.args = {"batch",
              (fs::path(root) / "bench" / "e2e" / "exec_manifest.json")
                  .string(),
              "--jobs", "1", "--json"};
    // The manifest's soak and opt entries repeat invocations the goldens
    // pin, so their outputs inside the report must match byte for byte.
    c.entry_goldens["soak"] = read_file(goldens / "soak_recover_golden.json");
    c.entry_goldens["opt"] = read_file(goldens / "opt_coupled.json");
    read_file(c.args[1]);  // fail in set-up, not in the first request
    w.calls.push_back(std::move(c));
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<std::size_t> request_order(const Workload& w, Rng& rng) {
  std::vector<std::size_t> order(w.calls.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);
  return order;
}

}  // namespace meshpar::bench
