#include "placement/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "support/pool.hpp"
#include "support/trace.hpp"

namespace meshpar::placement {

const char* to_string(TruncationReason r) {
  switch (r) {
    case TruncationReason::kNone: return "none";
    case TruncationReason::kMaxSolutions: return "solution cap reached";
    case TruncationReason::kMaxAssignments:
      return "assignment budget exhausted";
  }
  return "?";
}

using automaton::ArrowKind;
using automaton::OverlapTransition;

Engine::Engine(const ProgramModel& model, const FlowGraph& fg)
    : model_(model), fg_(fg) {
  const auto& autom = model.autom();
  // The legal relations are 64-bit masks over state ids. Every predefined
  // automaton has well under 64 states (the deep-halo generator adds ~2
  // states per halo layer); reject outliers loudly rather than corrupt the
  // search.
  if (autom.states().size() > 64)
    throw std::length_error("overlap automaton exceeds 64 states");

  domain_.resize(fg.occs().size());
  for (const Occurrence& o : fg.occs()) {
    if (o.fixed_state) {
      domain_[o.id] = {*o.fixed_state};
      continue;
    }
    // All states of the occurrence's shape, coherent first so that the
    // first solutions found are the cheap ones.
    std::vector<int> d;
    for (std::size_t i = 0; i < autom.states().size(); ++i)
      if (autom.states()[i].entity == o.shape) d.push_back(static_cast<int>(i));
    std::sort(d.begin(), d.end(), [&](int a, int b) {
      return autom.states()[a].level < autom.states()[b].level;
    });
    domain_[o.id] = std::move(d);
  }

  legal_trans_.resize(fg.arrows().size());
  legal_bits_.resize(fg.arrows().size());
  legal_rbits_.resize(fg.arrows().size());
  const std::size_t nstates = autom.states().size();
  for (const FlowArrow& a : fg.arrows()) {
    // An Update transition inserts a communication between the arrow's
    // endpoints; if both endpoints live inside the same partitioned loop,
    // no program point can host it, so the transition is not available.
    const lang::Stmt* src_stmt = fg.occ(a.src).stmt;
    const lang::Stmt* dst_stmt = fg.occ(a.dst).stmt;
    const lang::Stmt* src_loop =
        src_stmt ? model.enclosing_partitioned(*src_stmt) : nullptr;
    const lang::Stmt* dst_loop =
        dst_stmt ? model.enclosing_partitioned(*dst_stmt) : nullptr;
    const bool update_possible = !(src_loop && src_loop == dst_loop);
    legal_bits_[a.id].assign(nstates, 0);
    legal_rbits_[a.id].assign(nstates, 0);
    for (const auto& t : autom.transitions()) {
      if (t.arrow != a.kind) continue;
      if (a.kind == ArrowKind::kValue && t.vclass != a.vclass) continue;
      if (t.action != automaton::CommAction::kNone && !update_possible)
        continue;
      // Scalar weakening (Sca0 -> Sca1) is only sound into a reduction
      // accumulator: elsewhere the later "+ reduction" update would
      // multiply a replicated value by the processor count.
      if (a.kind == ArrowKind::kTrue && !a.into_accumulator &&
          autom.state(t.from).entity == automaton::EntityKind::kScalar &&
          autom.state(t.from).level == 0 && autom.state(t.to).level > 0)
        continue;
      legal_trans_[a.id].push_back(&t);
      legal_bits_[a.id][t.from] |= std::uint64_t{1} << t.to;
      legal_rbits_[a.id][t.to] |= std::uint64_t{1} << t.from;
    }
  }

  // ---- observable-projection tables (DESIGN.md §10) ----
  // A placement's observable part — sync points, iteration domains, and
  // hence key and cost — is a function of (a) the comm action chosen per
  // true-dependence arrow and (b) the coherence level chosen per write
  // occurrence that derive_domains consults. Everything else about an
  // assignment (states of interior occurrences, non-true arrows) is
  // unobservable. Only arrows/occurrences where the observable component
  // can actually vary enter the tables.
  level_of_.resize(nstates, 0);
  for (std::size_t i = 0; i < nstates; ++i)
    level_of_[i] = static_cast<std::uint8_t>(autom.states()[i].level);

  for (const FlowArrow& a : fg.arrows()) {
    if (a.kind != ArrowKind::kTrue) continue;
    bool mixed = false;
    for (const OverlapTransition* t : legal_trans_[a.id])
      if (t->action != legal_trans_[a.id].front()->action) mixed = true;
    if (!mixed) continue;  // action constant across completions
    detail::ProjArrow pa;
    pa.src = a.src;
    pa.dst = a.dst;
    pa.act_code.assign(nstates * nstates, 255);
    for (const OverlapTransition* t : legal_trans_[a.id])
      pa.act_code[static_cast<std::size_t>(t->from) * nstates + t->to] =
          static_cast<std::uint8_t>(t->action);
    proj_arrows_.push_back(std::move(pa));
  }

  if (autom.pattern() != automaton::PatternKind::kNodeBoundary) {
    // Mirror derive_domains (solution.cpp): the write occurrences whose
    // state level feeds a partitioned loop's iteration-domain requirement.
    std::set<int> occs;
    for (const lang::Stmt* loop : model.partitioned_loops()) {
      for (const lang::Stmt* s : model.cfg().statements()) {
        if (!model.cfg().inside(*s, *loop)) continue;
        const dfg::StmtDefUse& du = model.defuse(*s);
        if (!du.def) continue;
        if (!model.entity_of(du.def->var)) continue;
        const int w = fg.write_occ(*s);
        if (w >= 0) occs.insert(w);
      }
    }
    for (int w : occs) {
      bool mixed = false;
      for (int v : domain_[w])
        if (level_of_[v] != level_of_[domain_[w].front()]) mixed = true;
      if (mixed) proj_occs_.push_back(w);
    }
  }
}

const OverlapTransition* Engine::transition_for(const Assignment& assignment,
                                                const FlowArrow& a) const {
  if (a.id < 0 || static_cast<std::size_t>(a.id) >= legal_trans_.size())
    return nullptr;
  const auto n = static_cast<int>(assignment.state_of.size());
  if (a.src < 0 || a.src >= n || a.dst < 0 || a.dst >= n) return nullptr;
  const int s = assignment.state_of[a.src];
  const int d = assignment.state_of[a.dst];
  for (const OverlapTransition* t : legal_trans_[a.id])
    if (t->from == s && t->to == d) return t;
  return nullptr;
}

std::string Engine::projection_of(const Assignment& a) const {
  std::string out;
  project(a.state_of, out);
  return out;
}

void Engine::project(const std::vector<int>& state_of, std::string& out) const {
  const std::size_t ns = level_of_.size();  // one entry per state
  out.clear();
  for (const detail::ProjArrow& pa : proj_arrows_) {
    const int s = state_of[pa.src];
    const int d = state_of[pa.dst];
    out.push_back(static_cast<char>(
        pa.act_code[static_cast<std::size_t>(s) * ns + d]));
  }
  for (int o : proj_occs_)
    out.push_back(static_cast<char>(level_of_[state_of[o]]));
}

bool Engine::prune(std::vector<std::vector<int>>& dom) const {
  // Mask form of the domains; the fixpoint below is plain AC over the
  // per-arrow bitset relations.
  std::vector<std::uint64_t> m(dom.size(), 0);
  for (std::size_t i = 0; i < dom.size(); ++i)
    for (int v : dom[i]) m[i] |= std::uint64_t{1} << v;

  bool emptied = false;
  bool changed = true;
  while (changed && !emptied) {
    changed = false;
    for (const FlowArrow& a : fg_.arrows()) {
      // Values of dst with no supporting src value, and vice versa.
      std::uint64_t dst_support = 0;
      for (std::uint64_t t = m[a.src]; t; t &= t - 1)
        dst_support |= legal_bits_[a.id][std::countr_zero(t)];
      std::uint64_t nd = m[a.dst] & dst_support;
      if (nd != m[a.dst]) {
        m[a.dst] = nd;
        changed = true;
        if (nd == 0) {
          emptied = true;  // over-constrained: stop looping to fixpoint
          break;
        }
      }
      std::uint64_t src_support = 0;
      for (std::uint64_t t = m[a.dst]; t; t &= t - 1)
        src_support |= legal_rbits_[a.id][std::countr_zero(t)];
      std::uint64_t ns = m[a.src] & src_support;
      if (ns != m[a.src]) {
        m[a.src] = ns;
        changed = true;
        if (ns == 0) {
          emptied = true;
          break;
        }
      }
    }
  }

  // Write back, preserving the canonical (coherent-first) value order.
  for (std::size_t i = 0; i < dom.size(); ++i) {
    auto& d = dom[i];
    d.erase(std::remove_if(d.begin(), d.end(),
                           [&](int v) { return !((m[i] >> v) & 1u); }),
            d.end());
  }
  return !emptied;
}

std::vector<std::vector<int>> Engine::pruned_domains(
    bool* over_constrained) const {
  std::vector<std::vector<int>> dom = domain_;
  bool ok = prune(dom);
  if (over_constrained) *over_constrained = !ok;
  return dom;
}

namespace {

enum class StopCause { kNone, kSolutionCap, kBudget, kCancel, kSinkStop };

/// Immutable per-enumeration search context, shared by every searcher
/// (the prefix enumerator and every subtree searcher).
struct Ctx {
  std::size_t n = 0;
  const EngineOptions* opt = nullptr;
  std::vector<int> order;  // search position -> occurrence id
  std::vector<std::vector<int>> dom;  // per occurrence, canonical order
  struct Edge {
    int arrow;
    int other;        // the opposite endpoint (== var for self-arrows)
    bool var_is_src;  // whether the edge owner is the arrow's source
  };
  std::vector<std::vector<Edge>> edges;  // per occurrence
  const std::vector<std::vector<std::uint64_t>>* bits = nullptr;
  const std::vector<std::vector<std::uint64_t>>* rbits = nullptr;
  /// Shared trial counter for the global assignment budget, drawn on by
  /// every searcher when max_assignments is set.
  std::atomic<long long>* budget_pool = nullptr;
  std::atomic<bool>* cancel = nullptr;
};

/// Depth-first search with bitset forward checking over [base, last] of the
/// variable order, starting from a given (state, live-domain) snapshot.
/// Statistics count exactly the trials/backtracks of the covered depth
/// range, so a split run's totals add up to the sequential run's.
class Searcher {
 public:
  /// `trace_id` labels this searcher's sampled trace counters: the subtree
  /// index, 0 for a single-tree search, -1 for the prefix enumerator. The
  /// label — like the sampling cadence — is a function of the search
  /// structure only, never of `jobs`, so the emitted event set is identical
  /// for every job count (untruncated searches; see DESIGN.md §13).
  Searcher(const Ctx& ctx, std::size_t base, std::size_t last,
           std::vector<int> state, std::vector<std::uint64_t> live,
           int trace_id)
      : ctx_(ctx), base_(base), last_(last), trace_id_(trace_id),
        state_(std::move(state)), live_(std::move(live)) {}

  // Unused budget units return to the shared pool so later (sequential)
  // subtrees can spend them: a sequential walk stops after exactly
  // max_assignments trials, however the work splits into subtrees.
  ~Searcher() {
    if (granted_ > 0)
      ctx_.budget_pool->fetch_sub(granted_, std::memory_order_relaxed);
  }
  Searcher(const Searcher&) = delete;
  Searcher& operator=(const Searcher&) = delete;

  /// Runs the search, invoking on_leaf(state, live) for every consistent
  /// assignment through depth `last_`. on_leaf returns a StopCause to abort
  /// the whole search (kNone to continue).
  template <typename OnLeaf>
  StopCause run(OnLeaf&& on_leaf) {
    return dfs(base_, on_leaf);
  }

  /// Assignments/backtracks for this searcher only; on_leaf may count
  /// skipped duplicate leaves into dominance_pruned.
  EngineStats stats;

 private:
  template <typename OnLeaf>
  StopCause dfs(std::size_t depth, OnLeaf& on_leaf) {  // NOLINT(misc-no-recursion)
    const int var = ctx_.order[depth];
    for (int v : ctx_.dom[var]) {
      // Forward checking already removed values without support from an
      // assigned neighbour; only live values are ever tried.
      if (!((live_[var] >> v) & 1u)) continue;
      if (StopCause c = pre_trial(); c != StopCause::kNone) return c;
      ++stats.assignments;
      state_[var] = v;
      const std::size_t mark = trail_.size();
      bool dead = false;
      for (const Ctx::Edge& e : ctx_.edges[var]) {
        const std::uint64_t allow = e.var_is_src
                                        ? (*ctx_.bits)[e.arrow][v]
                                        : (*ctx_.rbits)[e.arrow][v];
        if (e.other == var) {  // self-arrow: a unary constraint on v
          if (!((allow >> v) & 1u)) {
            dead = true;
            break;
          }
          continue;
        }
        if (state_[e.other] >= 0) continue;  // enforced when it was assigned
        const std::uint64_t narrowed = live_[e.other] & allow;
        if (narrowed == live_[e.other]) continue;
        trail_.emplace_back(e.other, live_[e.other]);
        live_[e.other] = narrowed;
        if (narrowed == 0) {  // wipeout: no value of e.other survives
          dead = true;
          break;
        }
      }
      if (!dead) {
        StopCause c = depth == last_ ? on_leaf(state_, live_)
                                     : dfs(depth + 1, on_leaf);
        if (c != StopCause::kNone) {
          undo(mark);
          state_[var] = -1;
          return c;
        }
      }
      undo(mark);
      state_[var] = -1;
    }
    // This depth is exhausted; count the step back up. The true root of a
    // search (depth 0) has nowhere to step back to, but a subtree's base
    // does: the sequential search would step from here to the prefix level.
    if (depth != base_ || base_ != 0) {
      ++stats.backtracks;
      if (((stats.assignments + stats.backtracks) & 0xff) == 0)
        if (StopCause c = poll(); c != StopCause::kNone) return c;
    }
    return StopCause::kNone;
  }

  StopCause pre_trial() {
    // Cancellation is polled every 256 search *steps* — assignments plus
    // backtracks — so long consistency-failure/backtrack runs cannot
    // outrun a cancel unnoticed.
    const long long steps = stats.assignments + stats.backtracks;
    if ((steps & 0xff) == 0)
      if (StopCause c = poll(); c != StopCause::kNone) return c;
    // Trace sampling is keyed to the step count, never to wall time, so a
    // fixed input yields the same counter events on every run and at every
    // --jobs setting (the search path through one subtree is job-invariant).
    if ((steps & 0xfff) == 0 && steps != 0 && trace::active())
      trace::current()->counter(
          "engine/search", "engine",
          {{"tree", trace_id_},
           {"assignments", stats.assignments},
           {"backtracks", stats.backtracks},
           {"pruned", stats.dominance_pruned}});
    if (ctx_.opt->max_assignments && !reserve_trial())
      return StopCause::kBudget;
    return StopCause::kNone;
  }

  /// Claims one unit of the assignment budget; false when exhausted. Units
  /// are drawn from the shared counter in small batches to keep the atomic
  /// off the hot path; the global total never exceeds max_assignments
  /// (unused batch remainders return in the destructor).
  bool reserve_trial() {
    const long long max = ctx_.opt->max_assignments;
    if (granted_ == 0) {
      constexpr long long kBatch = 64;
      const long long got =
          ctx_.budget_pool->fetch_add(kBatch, std::memory_order_relaxed);
      granted_ = std::clamp(max - got, 0LL, kBatch);
      if (granted_ == 0) return false;
    }
    --granted_;
    return true;
  }

  StopCause poll() const {
    if (ctx_.cancel && ctx_.cancel->load(std::memory_order_relaxed))
      return StopCause::kCancel;
    return StopCause::kNone;
  }

  void undo(std::size_t mark) {
    while (trail_.size() > mark) {
      live_[trail_.back().first] = trail_.back().second;
      trail_.pop_back();
    }
  }

  const Ctx& ctx_;
  const std::size_t base_;
  const std::size_t last_;
  const int trace_id_;
  long long granted_ = 0;
  std::vector<int> state_;
  std::vector<std::uint64_t> live_;
  std::vector<std::pair<int, std::uint64_t>> trail_;
};

void apply_cause(EngineStats& st, StopCause c) {
  switch (c) {
    case StopCause::kSolutionCap:
      st.truncated = true;
      st.reason = TruncationReason::kMaxSolutions;
      break;
    case StopCause::kBudget:
      st.truncated = true;
      st.reason = TruncationReason::kMaxAssignments;
      break;
    case StopCause::kNone:
    case StopCause::kCancel:
    case StopCause::kSinkStop:
      break;
  }
}

}  // namespace

struct Engine::StreamHooks {
  /// Called once with the subtree count before any sink is created (0 when
  /// the search dies during prefix enumeration).
  std::function<void(std::size_t)> plan;
  SinkFactory make;
  SinkDone done;
};

void Engine::search_core(const EngineOptions& options, EngineStats& st,
                         bool first_k, const StreamHooks& hooks) const {
  st = {};
  const std::size_t n = fg_.occs().size();
  std::vector<std::vector<int>> dom = domain_;

  // ---- arc-consistency pruning (the §5.2 reduction) ----
  if (options.prune_domains) {
    if (!prune(dom)) return;  // over-constrained: no mapping exists
    for (const auto& d : dom)
      if (d.size() == 1) ++st.pruned_singletons;
  }
  for (const auto& d : dom)
    if (d.empty()) return;
  if (n == 0) return;

  // ---- search context ----
  // Variable order: occurrences with smaller domains first, ties by id
  // (roughly program order).
  Ctx ctx;
  ctx.n = n;
  ctx.opt = &options;
  ctx.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) ctx.order[i] = static_cast<int>(i);
  std::stable_sort(ctx.order.begin(), ctx.order.end(), [&](int a, int b) {
    return dom[a].size() < dom[b].size();
  });
  ctx.dom = std::move(dom);
  ctx.edges.resize(n);
  for (const FlowArrow& a : fg_.arrows()) {
    ctx.edges[a.src].push_back({a.id, a.dst, /*var_is_src=*/true});
    if (a.dst != a.src)
      ctx.edges[a.dst].push_back({a.id, a.src, /*var_is_src=*/false});
  }
  ctx.bits = &legal_bits_;
  ctx.rbits = &legal_rbits_;

  std::vector<int> state(n, -1);
  std::vector<std::uint64_t> live(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (int v : ctx.dom[i]) live[i] |= std::uint64_t{1} << v;

  const int jobs = options.jobs == 1
                       ? 1
                       : (options.jobs <= 0 ? support::ThreadPool::clamp_jobs(0)
                                            : options.jobs);

  // ---- split-depth selection ----
  // The top k levels of the variable order enumerate the subtree roots;
  // pick the shallowest k whose domain-size product reaches the root
  // target, capped so the root table stays small. Singleton levels (common
  // after pruning) contribute no branching and are skipped over for free.
  // The target is a constant — never a function of `jobs` — so the subtree
  // decomposition, and with it every per-subtree duplicate filter and
  // streaming consumer, observes identical events for every job count.
  std::size_t split = 0;
  if (n >= 2) {
    constexpr std::size_t kWantRoots = 64;
    std::size_t product = 1;
    while (split < n - 1 && product < kWantRoots) {
      const std::size_t sz = ctx.dom[ctx.order[split]].size();
      if (product * sz > 4096) break;
      product *= sz;
      ++split;
    }
    if (product < 2) split = 0;  // no branching: splitting cannot help
  }

  const std::size_t cap = first_k ? options.max_solutions : 0;
  std::atomic<long long> budget_pool{0};
  std::atomic<bool> cancel{false};
  ctx.budget_pool = &budget_pool;

  // Enumerate the consistent prefixes (subtree roots) in canonical order,
  // snapshotting the forward-checked live domains at each; workers resume
  // from the snapshot without redoing prefix work. Without a split the
  // whole search is one subtree rooted at depth 0.
  struct Subtree {
    std::vector<int> state;
    std::vector<std::uint64_t> live;
  };
  std::vector<Subtree> subtrees;
  if (split == 0) {
    subtrees.push_back({std::move(state), std::move(live)});
  } else {
    Searcher prefix(ctx, 0, split - 1, std::move(state), std::move(live),
                    /*trace_id=*/-1);
    StopCause pc = prefix.run(
        [&](const std::vector<int>& ps, const std::vector<std::uint64_t>& pl) {
          subtrees.push_back({ps, pl});
          return StopCause::kNone;
        });
    st.assignments = prefix.stats.assignments;
    st.backtracks = prefix.stats.backtracks;
    if (trace::active())
      trace::current()->instant("engine/prefix", "engine",
                                {{"subtrees", subtrees.size()},
                                 {"assignments", prefix.stats.assignments},
                                 {"backtracks", prefix.stats.backtracks}});
    if (pc != StopCause::kNone) {
      // The budget died during root enumeration; nothing was searched
      // below the prefix levels yet.
      apply_cause(st, pc);
      hooks.plan(0);
      return;
    }
  }
  hooks.plan(subtrees.size());

  struct SubResult {
    EngineStats stats;
    StopCause cause = StopCause::kNone;
    std::size_t accepted = 0;
  };
  std::vector<SubResult> results(subtrees.size());

  auto run_subtree = [&](std::size_t i) {
    SubResult& r = results[i];
    auto sink = hooks.make(i);
    trace::Span span("engine/subtree", "engine");
    Searcher s(ctx, split, n - 1, std::move(subtrees[i].state),
               std::move(subtrees[i].live), static_cast<int>(i));
    // Duplicate filter (DESIGN.md §10): a leaf whose observable projection
    // this subtree already emitted materializes to a placement it already
    // produced, so it is skipped and never uses up a solution cap. Past
    // kSeenCap projections the set stops learning: fewer skips, never a
    // lost placement.
    constexpr std::size_t kSeenCap = std::size_t{1} << 16;
    std::set<std::string> seen;
    std::string proj;
    Assignment local_scratch;
    StopCause c = s.run([&](const std::vector<int>& sol,
                            const std::vector<std::uint64_t>&) {
      project(sol, proj);
      if (seen.size() < kSeenCap ? !seen.insert(proj).second
                                 : seen.count(proj) != 0) {
        ++s.stats.dominance_pruned;
        return StopCause::kNone;
      }
      local_scratch.state_of = sol;
      if (!sink->on_solution(local_scratch)) return StopCause::kSinkStop;
      ++r.accepted;
      if (cap && r.accepted >= cap) return StopCause::kSolutionCap;
      return StopCause::kNone;
    });
    r.stats = s.stats;
    r.cause = c;
    span.arg("tree", static_cast<int>(i));
    span.arg("assignments", s.stats.assignments);
    span.arg("backtracks", s.stats.backtracks);
    span.arg("pruned", s.stats.dominance_pruned);
    span.arg("solutions", r.accepted);
    hooks.done(i, std::move(sink));
  };

  if (jobs > 1 && subtrees.size() > 1) {
    ctx.cancel = &cancel;
    // Ordered-completion bookkeeping (first-k mode): once the contiguous
    // run of finished subtrees starting at 0 already holds max_solutions
    // solutions, every later subtree's output would be truncated away —
    // cancel them.
    std::mutex progress_mu;
    std::vector<char> done_flag(subtrees.size(), 0);
    std::size_t contiguous = 0;
    std::size_t ordered_solutions = 0;
    {
      support::ThreadPool pool(jobs);
      for (std::size_t i = 0; i < subtrees.size(); ++i) {
        pool.submit([&, i] {
          if (cancel.load(std::memory_order_relaxed)) {
            results[i].cause = StopCause::kCancel;
            return;
          }
          run_subtree(i);
          if (first_k && cap &&
              (results[i].cause == StopCause::kNone ||
               results[i].cause == StopCause::kSolutionCap)) {
            std::lock_guard<std::mutex> g(progress_mu);
            done_flag[i] = 1;
            while (contiguous < done_flag.size() && done_flag[contiguous]) {
              ordered_solutions += results[contiguous].accepted;
              ++contiguous;
            }
            if (ordered_solutions >= cap)
              cancel.store(true, std::memory_order_relaxed);
          }
        });
      }
      pool.wait();
    }
  } else {
    for (std::size_t i = 0; i < subtrees.size(); ++i) {
      run_subtree(i);
      if (results[i].cause == StopCause::kBudget)
        break;  // remaining subtrees stay unsearched, like the plain DFS
      if (cap) {
        std::size_t total = 0;
        for (std::size_t j = 0; j <= i; ++j) total += results[j].accepted;
        if (total >= cap) break;  // later output would be truncated away
      }
    }
  }

  // Deterministic merge of statistics in subtree (= canonical) order.
  bool any_budget = false;
  for (const SubResult& r : results) {
    st.assignments += r.stats.assignments;
    st.backtracks += r.stats.backtracks;
    st.dominance_pruned += r.stats.dominance_pruned;
    any_budget |= r.cause == StopCause::kBudget;
  }
  std::size_t total = 0;
  for (const SubResult& r : results) {
    total += r.accepted;
    if (cap && total >= cap) {
      total = cap;
      break;
    }
  }
  st.solutions = total;
  if (cap && total >= cap)
    apply_cause(st, StopCause::kSolutionCap);
  else if (any_budget)
    apply_cause(st, StopCause::kBudget);
}

std::vector<Assignment> Engine::enumerate(const EngineOptions& options,
                                          EngineStats* stats) const {
  EngineStats local_stats;
  EngineStats& st = stats ? *stats : local_stats;

  // Per-subtree collector; the ordered concatenation below reproduces the
  // canonical sequential solution list.
  class Collector : public SubtreeSink {
   public:
    explicit Collector(std::vector<Assignment>* out) : out_(out) {}
    bool on_solution(const Assignment& a) override {
      out_->push_back(a);
      return true;
    }

   private:
    std::vector<Assignment>* out_;
  };

  std::vector<std::vector<Assignment>> slots;
  StreamHooks hooks;
  hooks.plan = [&](std::size_t subtree_count) { slots.resize(subtree_count); };
  hooks.make = [&](std::size_t i) { return std::make_unique<Collector>(&slots[i]); };
  hooks.done = [](std::size_t, std::unique_ptr<SubtreeSink>) {};
  search_core(options, st, /*first_k=*/true, hooks);

  std::vector<Assignment> out;
  for (auto& slot : slots) {
    for (Assignment& a : slot) {
      if (options.max_solutions && out.size() >= options.max_solutions) break;
      out.push_back(std::move(a));
    }
    if (options.max_solutions && out.size() >= options.max_solutions) break;
  }
  return out;
}

void Engine::enumerate_stream(const EngineOptions& options, EngineStats* stats,
                              const SinkFactory& make_sink,
                              const SinkDone& done) const {
  EngineStats local_stats;
  EngineStats& st = stats ? *stats : local_stats;
  StreamHooks hooks;
  hooks.plan = [](std::size_t) {};
  hooks.make = make_sink;
  hooks.done = done ? done
                    : SinkDone([](std::size_t, std::unique_ptr<SubtreeSink>) {});
  search_core(options, st, /*first_k=*/false, hooks);
}

}  // namespace meshpar::placement
