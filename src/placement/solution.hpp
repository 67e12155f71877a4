// Materializing an engine assignment into a concrete SPMD transformation:
//
//   * iteration domains — from M_n: for each partitioned loop, whether it
//     iterates kernel entities only or also overlap layers (§4: "from M_n we
//     shall get the precise iteration domain of each partitioned loop");
//   * synchronization points — from M_a: every Update transition demands a
//     communication "somewhere between the extremities of the
//     data-dependence"; we compute, for each group of Update arrows on the
//     same variable, the program points that cut every definition-to-use
//     path, and pick a minimal covering set (greedy, latest-point-first,
//     which groups communications the way Figure 9 does);
//   * a cost estimate used to rank the alternative solutions the paper
//     leaves "to the user".
//
// Everything about an assignment that materialization consults twice or
// more is assignment-independent: the candidate sync points, which of them
// cut a given def-use pair, the write occurrences feeding each loop's
// domain requirement, and the in-cycle classification of statements. A
// MaterializeCache hoists all of it out of the per-assignment path, which
// is what makes streaming k-best ranking over ~10^5 raw solutions
// practical (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "placement/engine.hpp"

namespace meshpar::placement {

struct SyncPoint {
  automaton::CommAction action = automaton::CommAction::kUpdateCopy;
  std::string var;
  /// The sync is inserted immediately before this statement; nullptr means
  /// at the very end of the subroutine.
  const lang::Stmt* before = nullptr;
  /// True when `before` lies inside a cycle (the sync executes every
  /// iteration of the outer convergence loop).
  bool in_cycle = false;
  /// Message-vectorization group (opt::optimize_placement): syncs sharing a
  /// nonnegative fuse_group, the same `before` point and the same action are
  /// exchanged as ONE aggregated message per schedule edge — the payloads
  /// ride together, so the per-message cost is paid once per group. -1 (the
  /// engine's output) means unfused. Orthogonal to placement identity:
  /// key(), the verifier and the lint pass all ignore it.
  int fuse_group = -1;
};

struct LoopDomain {
  const lang::Stmt* loop = nullptr;
  /// 0 = kernel/owned entities only; k >= 1 = kernel plus k overlap layers
  /// (for the node-boundary pattern, 1 simply means "all local entities").
  int layers = 0;
};

struct Placement {
  Assignment assignment;
  std::vector<SyncPoint> syncs;
  std::vector<LoopDomain> domains;
  double cost = 0.0;

  /// Canonical key over (syncs, domains): assignments that differ only in
  /// unobservable internal states collapse to the same placement.
  [[nodiscard]] std::string key() const;

  [[nodiscard]] int domain_layers(const lang::Stmt& loop) const;
  [[nodiscard]] std::size_t sync_locations() const;
  [[nodiscard]] std::size_t syncs_in_cycle() const;
};

/// Why an assignment failed to materialize into a placement.
enum class MaterializeFailure {
  kNone,
  /// A partitioned loop received conflicting (or out-of-range) iteration-
  /// domain requirements from the chosen states.
  kDomainConflict,
  /// Some arrow's endpoint states admit no engine-legal transition (the
  /// assignment is inconsistent, or names a filtered transition).
  kNoTransition,
  /// An Update's definition-to-use paths cannot all be cut by program
  /// points outside the partitioned loops.
  kUncuttableUpdate,
};
[[nodiscard]] const char* to_string(MaterializeFailure f);

/// Assignment-independent materialization tables for one engine: the
/// candidate sync points (program order, end of subroutine last) with
/// their in-cycle classification, per true-dependence arrow its comm
/// action per (source, destination) state pair and the bitset of
/// candidates cutting every def-to-use path, and the per-loop domain-
/// requirement rows. Construction costs about one materialization;
/// afterwards cost_of is a table walk plus one greedy bitset cover per
/// (variable, action) group, and build turns its result into a Placement.
/// Immutable after construction, so concurrent calls with distinct
/// Scratch objects are safe.
class MaterializeCache {
 public:
  /// Per-caller working memory: cost_of derives an assignment's domain
  /// layers and chosen syncs into it, build reads them back. Once warm, a
  /// Scratch reused across calls makes cost_of allocation-free.
  class Scratch {
    friend class MaterializeCache;
    std::vector<int> layers;  // per partitioned loop, in loops_ order
    /// Chosen syncs as (group, candidate index), groups in (variable,
    /// action) order and each group's picks in greedy order.
    std::vector<std::pair<int, int>> chosen;
    /// (group, true-arrow index) of every Update arrow, sorted.
    std::vector<std::pair<int, int>> updates;
    std::vector<int> counts;    // per candidate, greedy cover tallies
    std::vector<char> covered;  // per member of the current group
  };

  explicit MaterializeCache(const Engine& engine);

  /// Derives the assignment's iteration domains and sync points into
  /// `scratch` and returns the placement's cost, or nullopt when the
  /// assignment does not materialize (the out-param reports why; reasons
  /// are checked in the order domain conflict, missing transition,
  /// uncuttable update).
  [[nodiscard]] std::optional<double> cost_of(
      const Assignment& assignment, Scratch& scratch,
      MaterializeFailure* failure = nullptr) const;

  /// The placement that cost_of last derived into `scratch` for
  /// `assignment`, with cost `cost`.
  [[nodiscard]] Placement build(const Assignment& assignment,
                                const Scratch& scratch, double cost) const;

  /// cost_of + build with a local scratch (see the materialize() free
  /// function for the semantics).
  [[nodiscard]] std::optional<Placement> run(
      const Assignment& assignment,
      MaterializeFailure* failure = nullptr) const;

 private:
  /// One state-dependent domain requirement: the loop needs
  /// halo_depth - level(state of occ) + adjust layers.
  struct DomainReq {
    int occ = -1;
    int adjust = 0;
  };
  struct LoopInfo {
    const lang::Stmt* loop = nullptr;
    /// Merged assignment-independent requirements (reductions, the
    /// node-boundary pattern's fixed domains); unset when none apply.
    std::optional<int> fixed;
    bool conflict = false;  // the static requirements alone already clash
    std::vector<DomainReq> reqs;
    bool in_cycle = false;  // the loop re-executes (convergence cycle)
  };
  /// A candidate sync point; `before` == nullptr is the end of the
  /// subroutine.
  struct Candidate {
    const lang::Stmt* before = nullptr;
    int rank = 0;  // statement id; the end of the subroutine is 1 << 30
    bool in_cycle = false;
  };
  struct TrueArrow {
    int src = -1;  // occurrence ids
    int dst = -1;
    int var = -1;  // name rank of the variable (Subroutine::name_rank)
    /// Offset of this arrow's cut bitset (cut_words_ words) in cuts_, and
    /// of its ns x ns action table in actions_.
    std::size_t cut_at = 0;
    std::size_t act_at = 0;
    bool cuttable = false;  // the cut set is nonempty
  };
  static constexpr std::uint8_t kNoAction = 255;
  /// Sync groups are numbered variable * kActions + action, which ascends
  /// in (variable name, action) order.
  static constexpr int kActions = 4;

  /// Greedy minimal cover of one group's def-use pairs, the run
  /// scratch.updates[begin, end), appending the picks as (group,
  /// candidate) to scratch.chosen.
  bool cover(std::size_t begin, std::size_t end, Scratch& scratch) const;

  int depth_ = 0;
  int nstates_ = 0;
  std::vector<int> level_;  // state id -> coherence level
  std::vector<LoopInfo> loops_;
  std::vector<Candidate> cands_;
  const lang::Subroutine* sub_ = nullptr;
  std::vector<TrueArrow> true_arrows_;
  std::size_t cut_words_ = 0;
  std::vector<std::uint64_t> cuts_;
  std::vector<std::uint8_t> actions_;
};

/// Materializes one assignment. Returns nullopt if the assignment is not
/// realizable: conflicting domain requirements inside one loop, an arrow
/// whose endpoint states admit no engine-legal transition, or an Update
/// whose def-use paths cannot all be cut outside partitioned loops (the
/// optional out-param reports which). Transition lookup goes through
/// `engine` so a reported M_a can never name a transition the search
/// itself deemed unhostable.
std::optional<Placement> materialize(const Engine& engine,
                                     const Assignment& assignment,
                                     MaterializeFailure* failure = nullptr);

/// Materializes, deduplicates and ranks a batch of assignments (cheapest
/// first).
std::vector<Placement> materialize_all(
    const Engine& engine, const std::vector<Assignment>& assignments);

struct KBestResult {
  /// The k cheapest distinct placements (all of them when k = 0), ordered
  /// by (cost, key) — the same order materialize_all produces.
  std::vector<Placement> placements;
  /// Engine statistics of the streaming enumeration; kept_peak reports the
  /// peak number of simultaneously retained placements.
  EngineStats stats;
  /// Placements built: raw solutions that materialized and were not
  /// rejected on cost alone by a full subtree book. Jobs-independent.
  std::size_t built = 0;
};

/// Bounded-memory enumerate-and-rank (DESIGN.md §10): streams every raw
/// solution through a per-subtree book of the k best distinct placements
/// (k = options.max_solutions; 0 = unbounded), costing each one first and
/// building its Placement only when that cost can still enter the book,
/// and folding each book into a
/// shared accumulator as its subtree finishes. For every jobs value the
/// result equals materialize_all over the full enumeration, truncated to
/// k — same placements, same representatives, same order — while peak
/// retained placements stay bounded by (jobs + 1) × k instead of the raw
/// solution count.
KBestResult enumerate_k_best(const Engine& engine,
                             const EngineOptions& options);

/// The communication-method name used in the generated annotations:
/// "overlap-som" (Figure 1 copy update), "assemble-som" (Figure 2
/// assembly), "+ reduction".
[[nodiscard]] const char* method_name(automaton::CommAction action);

}  // namespace meshpar::placement
