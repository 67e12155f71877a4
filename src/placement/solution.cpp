#include "placement/solution.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

namespace meshpar::placement {

using automaton::CommAction;
using dfg::AccessShape;
using dfg::NodeId;
using lang::Stmt;

const char* method_name(CommAction action) {
  switch (action) {
    case CommAction::kUpdateCopy: return "overlap-som";
    case CommAction::kAssembleAdd: return "assemble-som";
    case CommAction::kReduceScalar: return "+ reduction";
    case CommAction::kNone: return "none";
  }
  return "?";
}

const char* to_string(MaterializeFailure f) {
  switch (f) {
    case MaterializeFailure::kNone: return "none";
    case MaterializeFailure::kDomainConflict:
      return "conflicting iteration-domain requirements";
    case MaterializeFailure::kNoTransition:
      return "no legal transition for some dependence arrow";
    case MaterializeFailure::kUncuttableUpdate:
      return "an update's def-use paths cannot all be cut";
  }
  return "?";
}

std::string Placement::key() const {
  std::vector<std::string> parts;
  for (const auto& s : syncs) {
    std::ostringstream os;
    os << "S:" << static_cast<int>(s.action) << ":" << s.var << ":"
       << (s.before ? s.before->id : -1);
    parts.push_back(os.str());
  }
  for (const auto& d : domains) {
    std::ostringstream os;
    os << "D:" << d.loop->id << ":" << d.layers;
    parts.push_back(os.str());
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const auto& p : parts) {
    out += p;
    out += ";";
  }
  return out;
}

int Placement::domain_layers(const Stmt& loop) const {
  for (const auto& d : domains)
    if (d.loop == &loop) return d.layers;
  return 0;
}

std::size_t Placement::sync_locations() const {
  std::set<const Stmt*> locs;
  for (const auto& s : syncs) locs.insert(s.before);
  return locs.size();
}

std::size_t Placement::syncs_in_cycle() const {
  std::size_t n = 0;
  for (const auto& s : syncs)
    if (s.in_cycle) ++n;
  return n;
}

MaterializeCache::MaterializeCache(const Engine& engine) : eng_(engine) {
  const ProgramModel& m = engine.model();
  const FlowGraph& fg = engine.fg();
  const auto& autom = m.autom();
  depth_ = autom.halo_depth();
  const bool node_boundary =
      autom.pattern() == automaton::PatternKind::kNodeBoundary;

  // ---- per-loop domain-requirement rows (mirrors the require() protocol
  // the uncached derive_domains applied statement by statement; merging the
  // assignment-independent requirements up front is order-insensitive
  // because require() only tests all-equal-and-in-range) ----
  for (const Stmt* loop : m.partitioned_loops()) {
    LoopInfo li;
    li.loop = loop;
    auto require_static = [&](int k) {
      if (k < 0 || k > depth_) {
        li.conflict = true;
        return;
      }
      if (!li.fixed)
        li.fixed = k;
      else if (*li.fixed != k)
        li.conflict = true;
    };
    for (const Stmt* s : m.cfg().statements()) {
      if (!m.cfg().inside(*s, *loop)) continue;
      const dfg::StmtDefUse& du = m.defuse(*s);
      if (!du.def) continue;
      // Reductions iterate owned/kernel entities only, whatever else the
      // loop does.
      if (const dfg::Reduction* r = m.patterns().reduction_at(*s)) {
        if (r->loop == loop) require_static(0);
      }
      if (!m.spec().entity_of(du.def->var)) continue;  // temps: no constraint
      const int w = fg.write_occ(*s);
      if (w < 0) continue;
      if (node_boundary) {
        // Node-boundary overlap: there is no halo to skip — every
        // non-reduction loop runs over all local entities. A level-1
        // elementwise write is the legal initialization of an assembly
        // (each duplicate holds a partial).
        require_static(1);
        continue;
      }
      const bool elementwise = du.def->shape == AccessShape::kElementwise &&
                               du.def->index_loop == loop;
      li.reqs.push_back({w, elementwise ? 0 : 1});
    }
    li.in_cycle =
        m.cfg().reaches(m.cfg().node_of(*loop), m.cfg().node_of(*loop));
    loops_.push_back(std::move(li));
  }

  // ---- candidate sync points and per-arrow cut sets ----
  // Candidates: statements outside every partitioned loop, plus the
  // pseudo-point "end of subroutine" (nullptr).
  std::vector<const Stmt*> candidates;
  for (const Stmt* s : m.cfg().statements())
    if (!m.enclosing_partitioned(*s)) candidates.push_back(s);
  cycle_of_[nullptr] = false;
  for (const Stmt* s : candidates)
    cycle_of_[s] = m.cfg().reaches(m.cfg().node_of(*s), m.cfg().node_of(*s));

  auto endpoint = [&](const Occurrence& o, bool is_src) {
    if (o.stmt) return m.cfg().node_of(*o.stmt);
    return is_src ? dfg::kEntry : dfg::kExit;
  };
  // True iff inserting a sync right before `t` intercepts every def-to-use
  // path of the pair; the end-of-subroutine point only intercepts flows
  // into the exit.
  auto intercepts = [&](const Stmt* t, NodeId src, NodeId dst) {
    if (t == nullptr) return dst == dfg::kExit;
    const NodeId tn = m.cfg().node_of(*t);
    if (tn == src) return false;  // before the definition itself
    return !m.cfg().reaches(src, dst, tn);
  };
  for (const FlowArrow& a : fg.arrows()) {
    if (a.kind != automaton::ArrowKind::kTrue) continue;
    TrueArrow ta;
    ta.arrow = &a;
    const NodeId src = endpoint(fg.occ(a.src), /*is_src=*/true);
    const NodeId dst = endpoint(fg.occ(a.dst), /*is_src=*/false);
    for (const Stmt* t : candidates)
      if (intercepts(t, src, dst)) ta.cuts.push_back(t);
    if (intercepts(nullptr, src, dst)) ta.cuts.push_back(nullptr);
    true_arrows_.push_back(std::move(ta));
  }
}

/// Greedy minimal cover, preferring the latest point in program order —
/// this merges communications toward their uses, the grouping the paper's
/// Figure 9 solution exhibits. `sets` holds one precomputed cut set per
/// def-use pair.
bool MaterializeCache::cover(
    const std::vector<const std::vector<const Stmt*>*>& sets,
    std::vector<const Stmt*>& chosen) const {
  for (const auto* c : sets)
    if (c->empty()) return false;
  std::vector<bool> covered(sets.size(), false);
  while (true) {
    std::size_t remaining = 0;
    for (bool b : covered)
      if (!b) ++remaining;
    if (remaining == 0) break;
    // Pick the candidate covering the most uncovered pairs; ties go to the
    // latest statement (nullptr = very end counts as latest). Statement
    // ids make the (count, rank) order strict, so the scan order over the
    // candidate set cannot influence the winner.
    const Stmt* best = nullptr;
    std::size_t best_count = 0;
    int best_rank = -2;
    std::set<const Stmt*> all;
    for (std::size_t i = 0; i < sets.size(); ++i)
      if (!covered[i])
        for (const Stmt* t : *sets[i]) all.insert(t);
    for (const Stmt* t : all) {
      std::size_t count = 0;
      for (std::size_t i = 0; i < sets.size(); ++i) {
        if (covered[i]) continue;
        if (std::find(sets[i]->begin(), sets[i]->end(), t) != sets[i]->end())
          ++count;
      }
      const int rank = t ? t->id : 1 << 30;  // end-of-program is last
      if (count > best_count || (count == best_count && rank > best_rank)) {
        best = t;
        best_count = count;
        best_rank = rank;
      }
    }
    if (best_count == 0) return false;
    chosen.push_back(best);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (covered[i]) continue;
      if (std::find(sets[i]->begin(), sets[i]->end(), best) !=
          sets[i]->end())
        covered[i] = true;
    }
  }
  return true;
}

std::optional<Placement> MaterializeCache::run(
    const Assignment& asg, MaterializeFailure* failure) const {
  auto fail = [&](MaterializeFailure f) {
    if (failure) *failure = f;
    return std::nullopt;
  };
  if (failure) *failure = MaterializeFailure::kNone;
  const auto& autom = eng_.model().autom();

  Placement p;
  p.assignment = asg;

  // ---- iteration domains from M_n ----
  for (const LoopInfo& li : loops_) {
    std::optional<int> layers = li.fixed;
    bool conflict = li.conflict;
    for (const DomainReq& r : li.reqs) {
      const int level = autom.state(asg.state_of[r.occ]).level;
      const int k = depth_ - level + r.adjust;
      if (k < 0 || k > depth_) {
        conflict = true;
      } else if (!layers) {
        layers = k;
      } else if (*layers != k) {
        conflict = true;
      }
    }
    if (conflict) return fail(MaterializeFailure::kDomainConflict);
    p.domains.push_back({li.loop, layers.value_or(0)});
  }

  // ---- sync points from M_a: group Update arrows by (variable, action),
  // cover each group's def-use pairs with the cached cut sets ----
  std::map<std::pair<std::string, int>,
           std::vector<const std::vector<const Stmt*>*>>
      groups;
  for (const TrueArrow& ta : true_arrows_) {
    // Engine-filtered lookup: an Update both of whose endpoints sit in one
    // partitioned loop is unhostable and must not surface here.
    const automaton::OverlapTransition* t =
        eng_.transition_for(asg, *ta.arrow);
    if (!t) return fail(MaterializeFailure::kNoTransition);
    if (t->action == CommAction::kNone) continue;
    groups[{ta.arrow->var, static_cast<int>(t->action)}].push_back(&ta.cuts);
  }
  for (const auto& [key, sets] : groups) {
    std::vector<const Stmt*> chosen;
    if (!cover(sets, chosen))
      return fail(MaterializeFailure::kUncuttableUpdate);
    for (const Stmt* at : chosen) {
      SyncPoint sp;
      sp.action = static_cast<CommAction>(key.second);
      sp.var = key.first;
      sp.before = at;
      sp.in_cycle = cycle_of_.at(at);
      p.syncs.push_back(sp);
    }
  }
  std::sort(p.syncs.begin(), p.syncs.end(),
            [](const SyncPoint& a, const SyncPoint& b) {
              const int ar = a.before ? a.before->id : 1 << 30;
              const int br = b.before ? b.before->id : 1 << 30;
              if (ar != br) return ar < br;
              return a.var < b.var;
            });

  // ---- cost ----
  double cost = 0.0;
  // Communication startup per distinct location; a location inside the
  // convergence loop pays every time step.
  std::set<const Stmt*> locs_cycle, locs_once;
  for (const auto& s : p.syncs)
    (s.in_cycle ? locs_cycle : locs_once).insert(s.before);
  cost += 10.0 * static_cast<double>(locs_cycle.size());
  cost += 1.0 * static_cast<double>(locs_once.size());
  // Message volume per sync.
  for (const auto& s : p.syncs) cost += s.in_cycle ? 2.0 : 0.5;
  // Redundant computation on overlap layers.
  for (std::size_t i = 0; i < p.domains.size(); ++i)
    cost += 0.4 * p.domains[i].layers * (loops_[i].in_cycle ? 1.0 : 0.3);
  p.cost = cost;
  return p;
}

std::optional<Placement> materialize(const Engine& engine,
                                     const Assignment& assignment,
                                     MaterializeFailure* failure) {
  return MaterializeCache(engine).run(assignment, failure);
}

std::vector<Placement> materialize_all(
    const Engine& engine, const std::vector<Assignment>& assignments) {
  const MaterializeCache cache(engine);
  std::vector<Placement> out;
  std::set<std::string> seen;
  for (const Assignment& a : assignments) {
    auto p = cache.run(a);
    if (!p) continue;
    if (!seen.insert(p->key()).second) continue;
    out.push_back(std::move(*p));
  }
  std::sort(out.begin(), out.end(),
            [](const Placement& a, const Placement& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              return a.key() < b.key();
            });
  return out;
}

// ---- streaming k-best ranking (DESIGN.md §10) ----

namespace {

/// Book entries are keyed by (cost, placement key) — for placements the
/// key determines the cost, so the map simultaneously ranks and
/// deduplicates. The tag records where the placement's raw solution sits
/// in the canonical enumeration order ((subtree, sequence-within-subtree)
/// is exactly that order), so folding books in any completion order still
/// keeps the representative materialize_all would have kept: the first
/// raw solution of the key.
using BookKey = std::pair<double, std::string>;
struct TaggedPlacement {
  Placement placement;
  std::size_t subtree = 0;
  std::size_t seq = 0;
};
using Book = std::map<BookKey, TaggedPlacement>;

struct KBestShared {
  const MaterializeCache* cache = nullptr;
  std::size_t k = 0;  // 0 = unbounded

  std::mutex mu;
  Book global;  // folded subtree books, trimmed to k

  std::atomic<std::size_t> kept_now{0};  // live entries, all books + global
  std::atomic<std::size_t> kept_peak{0};

  void bump_peak() {
    std::size_t v = kept_now.load(std::memory_order_relaxed);
    std::size_t p = kept_peak.load(std::memory_order_relaxed);
    while (v > p && !kept_peak.compare_exchange_weak(
                        p, v, std::memory_order_relaxed)) {
    }
  }

  /// Folds a finished subtree's book into the accumulator. Runs on the
  /// finishing worker's thread; the mutex serializes folds only — the
  /// searches never block each other.
  void fold(Book&& book) {
    const std::lock_guard<std::mutex> g(mu);
    kept_now.fetch_sub(book.size(), std::memory_order_relaxed);
    const std::size_t before = global.size();
    for (auto& [key, tagged] : book) {
      auto [it, fresh] = global.try_emplace(key);
      if (fresh ||
          std::pair(tagged.subtree, tagged.seq) <
              std::pair(it->second.subtree, it->second.seq)) {
        it->second = std::move(tagged);
      }
    }
    while (k && global.size() > k) global.erase(std::prev(global.end()));
    kept_now.fetch_add(global.size() - before, std::memory_order_relaxed);
    bump_peak();
  }
};

class KBestSink final : public Engine::SubtreeSink {
 public:
  KBestSink(KBestShared& shared, std::size_t subtree)
      : sh_(shared), subtree_(subtree) {}

  bool on_solution(const Assignment& a) override {
    const std::size_t seq = seq_++;
    std::optional<Placement> p = sh_.cache->run(a);
    if (!p) return true;
    BookKey key{p->cost, p->key()};
    // An existing entry necessarily has a smaller seq — it stays.
    if (book_.count(key) != 0) return true;
    if (sh_.k && book_.size() >= sh_.k) {
      if (!(key < book_.rbegin()->first))
        return true;  // cannot enter this subtree's top-k
      // Evict before inserting so the book never exceeds k entries and
      // kept_peak stays an honest (jobs + 1) * k bound.
      book_.erase(std::prev(book_.end()));
      sh_.kept_now.fetch_sub(1, std::memory_order_relaxed);
    }
    book_.emplace(std::move(key),
                  TaggedPlacement{std::move(*p), subtree_, seq});
    sh_.kept_now.fetch_add(1, std::memory_order_relaxed);
    sh_.bump_peak();
    return true;
  }

  Book take_book() { return std::move(book_); }

 private:
  KBestShared& sh_;
  const std::size_t subtree_;
  std::size_t seq_ = 0;
  Book book_;
};

}  // namespace

KBestResult enumerate_k_best(const Engine& engine,
                             const EngineOptions& options) {
  KBestResult out;
  const MaterializeCache cache(engine);
  KBestShared shared;
  shared.cache = &cache;
  shared.k = options.max_solutions;

  engine.enumerate_stream(
      options, &out.stats,
      [&](std::size_t subtree) {
        return std::make_unique<KBestSink>(shared, subtree);
      },
      [&](std::size_t, std::unique_ptr<Engine::SubtreeSink> sink) {
        shared.fold(static_cast<KBestSink*>(sink.get())->take_book());
      });

  out.stats.kept_peak = shared.kept_peak.load(std::memory_order_relaxed);
  out.placements.reserve(shared.global.size());
  for (auto& [key, tagged] : shared.global)
    out.placements.push_back(std::move(tagged.placement));
  return out;
}

}  // namespace meshpar::placement
