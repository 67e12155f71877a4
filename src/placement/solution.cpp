#include "placement/solution.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <memory>
#include <mutex>
#include <set>
#include <string_view>
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
  // One part per sync ("S:<action>:<var>:<before id, -1 = end>") and per
  // domain ("D:<loop id>:<layers>"), appended into one buffer, then sorted
  // and joined with ';'.
  std::string text;
  text.reserve(24 * (syncs.size() + domains.size()));
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  spans.reserve(syncs.size() + domains.size());
  auto num = [&text](int v) {
    char buf[16];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    text.append(buf, res.ptr);
  };
  for (const auto& s : syncs) {
    const std::size_t at = text.size();
    text += "S:";
    num(static_cast<int>(s.action));
    text += ':';
    text += s.var;
    text += ':';
    num(s.before ? s.before->id : -1);
    spans.emplace_back(at, text.size() - at);
  }
  for (const auto& d : domains) {
    const std::size_t at = text.size();
    text += "D:";
    num(d.loop->id);
    text += ':';
    num(d.layers);
    spans.emplace_back(at, text.size() - at);
  }
  std::vector<std::string_view> parts;
  parts.reserve(spans.size());
  for (const auto& [at, len] : spans) parts.emplace_back(text.data() + at, len);
  std::sort(parts.begin(), parts.end());
  std::string out;
  out.reserve(text.size() + parts.size());
  for (std::string_view part : parts) {
    out += part;
    out += ';';
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

MaterializeCache::MaterializeCache(const Engine& engine) {
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
      if (!m.entity_of(du.def->var)) continue;  // temps: no constraint
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

  // ---- candidate sync points, in program order with the pseudo-point
  // "end of subroutine" (nullptr) last: statements outside every
  // partitioned loop ----
  for (const Stmt* s : m.cfg().statements()) {
    if (m.enclosing_partitioned(*s)) continue;
    const NodeId n = m.cfg().node_of(*s);
    cands_.push_back({s, s->id, m.cfg().reaches(n, n)});
  }
  cands_.push_back({nullptr, 1 << 30, false});
  cut_words_ = (cands_.size() + 63) / 64;

  nstates_ = static_cast<int>(autom.states().size());
  for (const auto& st : autom.states()) level_.push_back(st.level);

  // ---- per true-dependence arrow: variable name rank, cut bitset and
  // action table. Variables are numbered by name rank so that group ids
  // (variable, action) ascend in the order syncs are emitted. ----
  sub_ = &m.sub();

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
  const auto ns = static_cast<std::size_t>(nstates_);
  for (const FlowArrow& a : fg.arrows()) {
    if (a.kind != automaton::ArrowKind::kTrue) continue;
    TrueArrow ta;
    ta.src = a.src;
    ta.dst = a.dst;
    ta.var = sub_->name_rank[static_cast<std::size_t>(a.var)];
    const NodeId src = endpoint(fg.occ(a.src), /*is_src=*/true);
    const NodeId dst = endpoint(fg.occ(a.dst), /*is_src=*/false);
    ta.cut_at = cuts_.size();
    cuts_.resize(cuts_.size() + cut_words_, 0);
    for (std::size_t c = 0; c < cands_.size(); ++c) {
      if (!intercepts(cands_[c].before, src, dst)) continue;
      cuts_[ta.cut_at + c / 64] |= std::uint64_t{1} << (c % 64);
      ta.cuttable = true;
    }
    // The engine-filtered relation: an Update both of whose endpoints sit
    // in one partitioned loop is unhostable and never appears here. The
    // first legal transition of a pair wins, as in transition_for.
    ta.act_at = actions_.size();
    actions_.resize(actions_.size() + ns * ns, kNoAction);
    for (const automaton::OverlapTransition* t :
         engine.legal_transitions(a.id)) {
      std::uint8_t& code =
          actions_[ta.act_at + static_cast<std::size_t>(t->from) * ns +
                   static_cast<std::size_t>(t->to)];
      if (code == kNoAction) code = static_cast<std::uint8_t>(t->action);
    }
    true_arrows_.push_back(ta);
  }
}

/// Greedy minimal cover, preferring the latest point in program order —
/// this merges communications toward their uses, the grouping the paper's
/// Figure 9 solution exhibits. The group is scratch.updates[begin, end):
/// true arrows of one (variable, action), each with its cut bitset.
bool MaterializeCache::cover(std::size_t begin, std::size_t end,
                             Scratch& sc) const {
  const int group = sc.updates[begin].first;
  auto arrow = [&](std::size_t j) -> const TrueArrow& {
    return true_arrows_[static_cast<std::size_t>(sc.updates[begin + j].second)];
  };
  const std::size_t members = end - begin;
  for (std::size_t j = 0; j < members; ++j)
    if (!arrow(j).cuttable) return false;
  sc.covered.assign(members, 0);
  sc.counts.resize(cands_.size());
  std::size_t remaining = members;
  while (remaining != 0) {
    std::fill(sc.counts.begin(), sc.counts.end(), 0);
    for (std::size_t j = 0; j < members; ++j) {
      if (sc.covered[j]) continue;
      const std::uint64_t* bits = &cuts_[arrow(j).cut_at];
      for (std::size_t w = 0; w < cut_words_; ++w)
        for (std::uint64_t b = bits[w]; b != 0; b &= b - 1)
          ++sc.counts[w * 64 + static_cast<std::size_t>(std::countr_zero(b))];
    }
    // Pick the candidate covering the most uncovered pairs; ties go to the
    // latest statement (the end of the subroutine counts as latest).
    // Statement ids make the (count, rank) order strict, so the scan order
    // over the candidates cannot influence the winner.
    int best = -1;
    int best_count = 0;
    int best_rank = -2;
    for (std::size_t c = 0; c < cands_.size(); ++c) {
      const int count = sc.counts[c];
      if (count == 0) continue;
      if (count > best_count ||
          (count == best_count && cands_[c].rank > best_rank)) {
        best = static_cast<int>(c);
        best_count = count;
        best_rank = cands_[c].rank;
      }
    }
    if (best < 0) return false;
    sc.chosen.emplace_back(group, best);
    const std::size_t word = static_cast<std::size_t>(best) / 64;
    const std::uint64_t bit = std::uint64_t{1} << (best % 64);
    for (std::size_t j = 0; j < members; ++j) {
      if (sc.covered[j]) continue;
      if (cuts_[arrow(j).cut_at + word] & bit) {
        sc.covered[j] = 1;
        --remaining;
      }
    }
  }
  return true;
}

std::optional<double> MaterializeCache::cost_of(
    const Assignment& asg, Scratch& sc, MaterializeFailure* failure) const {
  auto fail = [&](MaterializeFailure f) {
    if (failure) *failure = f;
    return std::nullopt;
  };
  if (failure) *failure = MaterializeFailure::kNone;

  // ---- iteration domains from M_n ----
  sc.layers.clear();
  for (const LoopInfo& li : loops_) {
    std::optional<int> layers = li.fixed;
    bool conflict = li.conflict;
    for (const DomainReq& r : li.reqs) {
      const int level = level_[static_cast<std::size_t>(
          asg.state_of[static_cast<std::size_t>(r.occ)])];
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
    sc.layers.push_back(layers.value_or(0));
  }

  // ---- sync points from M_a: group Update arrows by (variable, action),
  // cover each group's def-use pairs with the cached cut sets ----
  sc.updates.clear();
  const std::size_t n = asg.state_of.size();
  const auto ns = static_cast<std::size_t>(nstates_);
  for (std::size_t i = 0; i < true_arrows_.size(); ++i) {
    const TrueArrow& ta = true_arrows_[i];
    if (static_cast<std::size_t>(ta.src) >= n ||
        static_cast<std::size_t>(ta.dst) >= n)
      return fail(MaterializeFailure::kNoTransition);
    const int s = asg.state_of[static_cast<std::size_t>(ta.src)];
    const int d = asg.state_of[static_cast<std::size_t>(ta.dst)];
    if (s < 0 || s >= nstates_ || d < 0 || d >= nstates_)
      return fail(MaterializeFailure::kNoTransition);
    const std::uint8_t action =
        actions_[ta.act_at + static_cast<std::size_t>(s) * ns +
                 static_cast<std::size_t>(d)];
    if (action == kNoAction) return fail(MaterializeFailure::kNoTransition);
    if (action == static_cast<std::uint8_t>(CommAction::kNone)) continue;
    sc.updates.emplace_back(ta.var * kActions + action, static_cast<int>(i));
  }
  std::sort(sc.updates.begin(), sc.updates.end());
  sc.chosen.clear();
  for (std::size_t begin = 0, end = 0; begin < sc.updates.size();
       begin = end) {
    while (end < sc.updates.size() &&
           sc.updates[end].first == sc.updates[begin].first)
      ++end;
    if (!cover(begin, end, sc))
      return fail(MaterializeFailure::kUncuttableUpdate);
  }

  // ---- cost ----
  // Communication startup per distinct location; a location inside the
  // convergence loop pays every time step. Message volume per sync. Every
  // term so far is a multiple of 0.5, so the sum is exact in any order.
  sc.counts.assign(cands_.size(), 0);  // reused: location already counted
  std::size_t locs_cycle = 0;
  std::size_t locs_once = 0;
  double volume = 0.0;
  for (const auto& [group, c] : sc.chosen) {
    const Candidate& cand = cands_[static_cast<std::size_t>(c)];
    volume += cand.in_cycle ? 2.0 : 0.5;
    if (std::exchange(sc.counts[static_cast<std::size_t>(c)], 1) != 0)
      continue;
    ++(cand.in_cycle ? locs_cycle : locs_once);
  }
  double cost = 0.0;
  cost += 10.0 * static_cast<double>(locs_cycle);
  cost += 1.0 * static_cast<double>(locs_once);
  cost += volume;
  // Redundant computation on overlap layers.
  for (std::size_t i = 0; i < loops_.size(); ++i)
    cost += 0.4 * sc.layers[i] * (loops_[i].in_cycle ? 1.0 : 0.3);
  return cost;
}

Placement MaterializeCache::build(const Assignment& asg, const Scratch& sc,
                                  double cost) const {
  Placement p;
  p.assignment = asg;
  p.cost = cost;
  p.domains.reserve(loops_.size());
  for (std::size_t i = 0; i < loops_.size(); ++i)
    p.domains.push_back({loops_[i].loop, sc.layers[i]});
  // Syncs by (location rank, variable). Variable indices order like the
  // names, and the input order is the (variable, action) group order, so
  // this sorts exactly as sorting the SyncPoints by (rank, var) would.
  std::vector<std::pair<int, int>> order = sc.chosen;
  std::sort(order.begin(), order.end(),
            [&](const std::pair<int, int>& a, const std::pair<int, int>& b) {
              const int ar = cands_[static_cast<std::size_t>(a.second)].rank;
              const int br = cands_[static_cast<std::size_t>(b.second)].rank;
              if (ar != br) return ar < br;
              return a.first / kActions < b.first / kActions;
            });
  p.syncs.reserve(order.size());
  for (const auto& [group, c] : order) {
    const Candidate& cand = cands_[static_cast<std::size_t>(c)];
    SyncPoint sp;
    sp.action = static_cast<CommAction>(group % kActions);
    sp.var = sub_->symbols[static_cast<std::size_t>(
        sub_->by_name[static_cast<std::size_t>(group / kActions)])];
    sp.before = cand.before;
    sp.in_cycle = cand.in_cycle;
    p.syncs.push_back(std::move(sp));
  }
  return p;
}

std::optional<Placement> MaterializeCache::run(
    const Assignment& asg, MaterializeFailure* failure) const {
  Scratch sc;
  const std::optional<double> cost = cost_of(asg, sc, failure);
  if (!cost) return std::nullopt;
  return build(asg, sc, *cost);
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
  std::atomic<std::size_t> built{0};  // placements built, all sinks

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
    const std::optional<double> cost = sh_.cache->cost_of(a, scratch_);
    if (!cost) return true;
    // Cost first: a full book whose worst entry is strictly cheaper can
    // take no key at this cost, so skip building the placement. Ties and
    // cheaper costs go through the full (cost, key) logic below.
    if (sh_.k && book_.size() >= sh_.k &&
        *cost > book_.rbegin()->first.first)
      return true;
    Placement p = sh_.cache->build(a, scratch_, *cost);
    ++built_;
    BookKey key{p.cost, p.key()};
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
                  TaggedPlacement{std::move(p), subtree_, seq});
    sh_.kept_now.fetch_add(1, std::memory_order_relaxed);
    sh_.bump_peak();
    return true;
  }

  Book take_book() { return std::move(book_); }
  [[nodiscard]] std::size_t built() const { return built_; }

 private:
  KBestShared& sh_;
  const std::size_t subtree_;
  std::size_t seq_ = 0;
  std::size_t built_ = 0;
  MaterializeCache::Scratch scratch_;
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
        auto* book = static_cast<KBestSink*>(sink.get());
        shared.built.fetch_add(book->built(), std::memory_order_relaxed);
        shared.fold(book->take_book());
      });

  out.stats.kept_peak = shared.kept_peak.load(std::memory_order_relaxed);
  out.built = shared.built.load(std::memory_order_relaxed);
  out.placements.reserve(shared.global.size());
  for (auto& [key, tagged] : shared.global)
    out.placements.push_back(std::move(tagged.placement));
  return out;
}

}  // namespace meshpar::placement
