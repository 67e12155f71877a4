#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "lang/corpus.hpp"
#include "service/cache.hpp"
#include "service/key.hpp"

namespace meshpar::service {
namespace {

// ---------------------------------------------------------------- key.hpp

TEST(Key, DigestIsDeterministicAndPartSensitive) {
  const std::string a = digest({"alpha", "beta"});
  EXPECT_EQ(a, digest({"alpha", "beta"}));
  EXPECT_EQ(a.size(), 32u);
  // Length-prefixing: moving a byte across the part boundary changes the
  // key even though the concatenation is identical.
  EXPECT_NE(digest({"alphab", "eta"}), a);
  EXPECT_NE(digest({"alpha", "betA"}), a);
  EXPECT_NE(digest({""}), digest({"", ""}));
}

TEST(Key, ShortKeyIsAPrefix) {
  const std::string k = digest({"x"});
  EXPECT_EQ(short_key(k), k.substr(0, 8));
}

// -------------------------------------------------------------- cache.hpp

using IntCache = MemoCache<int>;

IntCache::Value make_int(int v) { return std::make_shared<const int>(v); }

TEST(MemoCache, MissThenHit) {
  IntCache cache;
  int computed = 0;
  auto compute = [&] {
    ++computed;
    return make_int(42);
  };
  bool hit = true;
  EXPECT_EQ(*cache.get("k", compute, &hit), 42);
  EXPECT_FALSE(hit);
  EXPECT_EQ(*cache.get("k", compute, &hit), 42);
  EXPECT_TRUE(hit);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(MemoCache, CoalescingCountersAreSchedulingIndependent) {
  // N threads demand the same key concurrently: exactly one computes (one
  // miss), the rest coalesce (N-1 hits) — for every interleaving.
  const int kThreads = 8;
  const int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    IntCache cache;
    std::atomic<int> computed{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&] {
        auto v = cache.get("shared", [&] {
          ++computed;
          return make_int(7);
        });
        EXPECT_EQ(*v, 7);
      });
    for (auto& t : threads) t.join();
    EXPECT_EQ(computed.load(), 1);
    LevelStats s = cache.stats();
    EXPECT_EQ(s.misses, 1);
    EXPECT_EQ(s.hits, kThreads - 1);
  }
}

TEST(MemoCache, ThrowingComputeAbandonsTheSlot) {
  IntCache cache;
  EXPECT_THROW(cache.get("k",
                         []() -> IntCache::Value {
                           throw std::runtime_error("boom");
                         }),
               std::runtime_error);
  // No slot is left behind: the next get computes again and is a miss.
  bool hit = true;
  EXPECT_EQ(*cache.get("k", [] { return make_int(9); }, &hit), 9);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 0);
}

// ------------------------------------------------------------ service.hpp

TEST(Service, CompileHitsOnRepeat) {
  Service svc;
  bool hit = true;
  auto first = svc.compile(lang::testt_source(), lang::testt_spec(), &hit);
  ASSERT_TRUE(first && first->model);
  EXPECT_FALSE(hit);
  auto second = svc.compile(lang::testt_source(), lang::testt_spec(), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());  // the same shared artifact
  CacheStats s = svc.stats();
  EXPECT_EQ(s.compile.hits, 1);
  EXPECT_EQ(s.compile.misses, 1);
}

TEST(Service, PlacementsHitsOnRepeatAndSharesCompile) {
  Service svc;
  placement::ToolOptions opt;
  bool chit = true, phit = true;
  auto a = svc.placements(lang::testt_source(), lang::testt_spec(), opt,
                          &chit, &phit);
  ASSERT_TRUE(a);
  EXPECT_FALSE(chit);
  EXPECT_FALSE(phit);
  EXPECT_FALSE(a->placements.empty());
  auto b = svc.placements(lang::testt_source(), lang::testt_spec(), opt,
                          &chit, &phit);
  EXPECT_TRUE(chit);
  EXPECT_TRUE(phit);
  EXPECT_EQ(a.get(), b.get());
  // The set keeps its front end alive and shared.
  EXPECT_EQ(a->compiled.get(),
            svc.compile(lang::testt_source(), lang::testt_spec()).get());
}

TEST(Service, CachedPlacementsAreByteIdenticalToFresh) {
  // The pinned acceptance property: for both bundled examples, what a warm
  // service returns is exactly what a cold run computes.
  struct Pair {
    std::string source;
    std::string spec;
  };
  for (const Pair& p :
       {Pair{lang::testt_source(), lang::testt_spec()},
        Pair{lang::coupled_source(), lang::coupled_spec()}}) {
    placement::ToolOptions opt;
    opt.k_best = true;
    opt.engine.max_solutions = 4;
    placement::Compiled c = placement::compile_frontend(p.source, p.spec);
    ASSERT_TRUE(c.ok());
    placement::EnumerationResult fresh =
        placement::enumerate_placements(*c.model, *c.fg, opt);
    ASSERT_FALSE(fresh.placements.empty());
    Service svc;
    svc.placements(p.source, p.spec, opt);          // cold: computes
    auto warm = svc.placements(p.source, p.spec, opt);  // warm: cached
    ASSERT_TRUE(warm);
    ASSERT_EQ(warm->placements.size(), fresh.placements.size());
    for (std::size_t i = 0; i < fresh.placements.size(); ++i) {
      EXPECT_EQ(warm->placements[i].cost, fresh.placements[i].cost);
      EXPECT_EQ(warm->placements[i].key(), fresh.placements[i].key());
    }
    EXPECT_EQ(warm->stats.solutions, fresh.stats.solutions);
    EXPECT_EQ(warm->stats.assignments, fresh.stats.assignments);
  }
}

TEST(Service, OptionsKeyNormalizesJobsForUntruncatableRuns) {
  placement::ToolOptions a;
  placement::ToolOptions b;
  a.engine.jobs = 1;
  b.engine.jobs = 8;
  // Unbounded enumeration cannot truncate: jobs cannot change the output,
  // one cache entry. (The engine DEFAULT max_solutions=256 is a cap, so it
  // must be lifted explicitly to reach the jobs-invariant case.)
  a.engine.max_solutions = b.engine.max_solutions = 0;
  EXPECT_EQ(Service::options_key(a), Service::options_key(b));
  // k-best runs are jobs-invariant too, even with a solution cap.
  a.k_best = b.k_best = true;
  a.engine.max_solutions = b.engine.max_solutions = 4;
  EXPECT_EQ(Service::options_key(a), Service::options_key(b));
  // A plain enumeration with a cap truncates: stats depend on scheduling,
  // so each jobs value gets its own entry.
  a.k_best = b.k_best = false;
  EXPECT_NE(Service::options_key(a), Service::options_key(b));
  // An assignment budget truncates as well.
  placement::ToolOptions c = a;
  placement::ToolOptions d = b;
  c.engine.max_solutions = d.engine.max_solutions = 0;
  c.engine.max_assignments = d.engine.max_assignments = 100;
  EXPECT_NE(Service::options_key(c), Service::options_key(d));
}

TEST(Service, RunReportsPerRequestDelta) {
  // Each call reports its own cache activity through the hit out-params,
  // and the service-wide counters move by exactly that much.
  Service svc;
  const std::string src = lang::testt_source();
  const std::string spec = lang::testt_spec();
  const placement::ToolOptions opt{};
  bool chit = true, phit = true;
  auto cold = svc.placements(src, spec, opt, &chit, &phit);
  ASSERT_TRUE(cold && cold->compiled->model);
  EXPECT_FALSE(chit);
  EXPECT_FALSE(phit);
  const CacheStats after_cold = svc.stats();
  EXPECT_EQ(after_cold.compile.misses, 1);
  EXPECT_EQ(after_cold.compile.hits, 0);
  EXPECT_EQ(after_cold.placements.misses, 1);

  auto warm = svc.placements(src, spec, opt, &chit, &phit);
  EXPECT_TRUE(chit);
  EXPECT_TRUE(phit);
  EXPECT_EQ(warm.get(), cold.get());
  const CacheStats after_warm = svc.stats();
  EXPECT_EQ(after_warm.compile.hits - after_cold.compile.hits, 1);
  EXPECT_EQ(after_warm.placements.hits - after_cold.placements.hits, 1);
  EXPECT_EQ(after_warm.misses(), after_cold.misses());

  // The front end alone touches the compile level only.
  auto fe = svc.compile(src, spec, &chit);
  ASSERT_TRUE(fe && fe->model);
  EXPECT_TRUE(chit);
  const CacheStats after_fe = svc.stats();
  EXPECT_EQ(after_fe.compile.hits - after_warm.compile.hits, 1);
  EXPECT_EQ(after_fe.placements.hits, after_warm.placements.hits);
  EXPECT_EQ(after_fe.placements.misses, after_warm.placements.misses);
}

TEST(Service, ConcurrentIdenticalRequestsCoalesce) {
  // The determinism backbone of `mptool batch`: N concurrent identical
  // requests produce exactly one compile and one enumeration, with
  // counters independent of scheduling.
  const int kThreads = 8;
  Service svc;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      auto set = svc.placements(lang::testt_source(), lang::testt_spec(),
                                placement::ToolOptions{});
      if (set->placements.empty()) ++failures;
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  CacheStats s = svc.stats();
  EXPECT_EQ(s.compile.misses, 1);
  EXPECT_EQ(s.compile.hits, kThreads - 1);
  EXPECT_EQ(s.placements.misses, 1);
  EXPECT_EQ(s.placements.hits, kThreads - 1);
}

TEST(Service, BuildErrorsAreCachedToo) {
  Service svc;
  bool hit = true;
  auto bad = svc.compile("this is not fortran\n", lang::testt_spec(), &hit);
  ASSERT_TRUE(bad);
  EXPECT_FALSE(hit);
  EXPECT_FALSE(bad->model);
  EXPECT_FALSE(bad->diags.str().empty());
  auto again = svc.compile("this is not fortran\n", lang::testt_spec(), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(bad.get(), again.get());
}

}  // namespace
}  // namespace meshpar::service
