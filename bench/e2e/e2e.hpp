// Shared declarations of the end-to-end benchmark (see README.md): the
// workloads and the calls they make, the correctness oracle, and the traced
// layer-by-layer replay.
#pragma once

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace meshpar::bench {

/// One mptool invocation as the bench issues it. A batch goes through
/// cli::run_main, which reads the manifest and the files it names exactly
/// like the binary does; every other command goes through cli::run_driver
/// on preloaded texts with a fresh service, like a separate mptool process.
struct Call {
  std::vector<std::string> args;  // argv without the program name
  std::string program;            // run_driver inputs (unused by batch)
  std::string spec;
  /// Expected stdout when a tests/data golden pins this exact invocation.
  std::string golden;
  /// Batch only: expected entry output per entry command, from the same
  /// goldens.
  std::map<std::string, std::string> entry_goldens;
  bool batch = false;
};

struct CallOutput {
  int exit_code = 0;
  std::string out;
  std::string err;
};

CallOutput run_call(const Call& c);

/// Space-joined argv, the identity of a call in messages and maps.
std::string describe(const Call& c);

/// The whole file; throws std::runtime_error when it cannot be read.
std::string read_file(const std::filesystem::path& p);

struct Workload {
  std::string name;
  std::vector<Call> calls;  // one request makes every call once
  bool synthetic = false;   // the oracle's placement pass applies
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds a workload's inputs from the repository at `root`. Throws
/// std::runtime_error for an unknown name or an unreadable input file.
Workload make_workload(const std::string& name, const std::string& root);

/// The order in which one request makes the workload's calls, drawn from
/// `rng`.
std::vector<std::size_t> request_order(const Workload& w, Rng& rng);

/// Checks outputs (README.md, "Correctness oracle"): exit 0; byte-equal to
/// the golden where one pins the invocation; otherwise JSON that parses,
/// reports no errors and equals every earlier output of the same call.
class Oracle {
 public:
  /// Empty when `o` passes, else why it failed.
  std::string check(const Call& c, const CallOutput& o);

 private:
  std::map<std::string, std::string> first_;  // describe(call) -> output
};

/// Modeled traffic per sweep of placement #0 read from a `place --json` or
/// `opt --json` output (for opt, the optimized placement), summed over the
/// place and opt entries of a batch report; zero for other commands.
struct Modeled {
  long long msgs = 0;
  long long bytes = 0;
};
Modeled modeled_traffic(const Call& c, const std::string& out);

/// The once-per-workload untimed pass over a synthetic workload: every
/// placement a request returns is accepted by verify_placement and
/// simulate_check and lints clean, and a multi-job request prints the same
/// bytes at --jobs 1. Empty when it passes, else why not.
std::string placement_pass(const Workload& w);

/// Spans of the traced run, kept in memory and written at exit as Chrome
/// trace-event JSON.
class Recorder {
 public:
  enum class Kind {
    kLayer,    // one replayed layer call; these sum to the replay time
    kProbe,    // a re-run of part of a layer call, for its breakdown
    kRequest,  // the real run_driver / run_main call of a request
  };
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
    int request = -1;
    Kind kind = Kind::kLayer;
  };

  Recorder() : epoch_(std::chrono::steady_clock::now()) {}

  int open(std::string name, int request, Kind kind);
  void close(int id);
  void set_parent(int id, int parent);
  /// Drops every span from index `size` on (a discarded measurement).
  void truncate(std::size_t size);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration_ms(int id) const;
  /// Duration minus the durations of the span's children.
  [[nodiscard]] double self_ms(int id) const;
  [[nodiscard]] std::string chrome_json() const;

 private:
  [[nodiscard]] double now_us() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<double> child_ms_;
};

/// Replays requests as the sequence of public layer calls the commands
/// make, timing each call into a Recorder span named after its metric.
class LayerReplay {
 public:
  explicit LayerReplay(Recorder& rec) : rec_(rec) {}

  /// Replays the calls of one request in `order`, adding per-request counts
  /// (IR sizes, engine statistics, findings, runtime traffic) to `counts`.
  /// Empty when every call replayed, else why one did not.
  std::string request(const Workload& w, const std::vector<std::size_t>& order,
                      int request, std::map<std::string, double>& counts);

  /// Times the parts of ProgramModel::build (parse, spec, cfg, defuse,
  /// depgraph, reaching, patterns) as probe spans, on every input the last
  /// request() compiled. Run after the request's real call, the first part
  /// starts as cold as the replayed model build did.
  void breakdown(int request);

 private:
  Recorder& rec_;
  std::vector<std::pair<std::string, std::string>> pending_;  // program, spec
  /// Distinct placements of a k-best enumeration, computed untimed once per
  /// (input, options).
  std::map<std::string, std::size_t> distinct_;

  friend class CallReplay;
};

}  // namespace meshpar::bench
