#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <numeric>

#include "mesh/generators.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/exchange.hpp"

namespace meshpar::runtime {
namespace {

TEST(World, SendRecvRoundTrip) {
  World w(2);
  w.run([](Rank& r) {
    if (r.id() == 0) {
      std::vector<double> v{1.0, 2.0, 3.0};
      r.send(1, 7, v);
      auto back = r.recv(1, 8);
      EXPECT_EQ(back.size(), 1u);
      EXPECT_DOUBLE_EQ(back[0], 6.0);
    } else {
      auto v = r.recv(0, 7);
      double s = std::accumulate(v.begin(), v.end(), 0.0);
      r.send(0, 8, &s, 1);
    }
  });
  EXPECT_EQ(w.total_msgs(), 2);
  EXPECT_EQ(w.total_bytes(), static_cast<long long>(4 * sizeof(double)));
}

TEST(World, MessagesOrderedPerTag) {
  World w(2);
  w.run([](Rank& r) {
    if (r.id() == 0) {
      for (double v = 0; v < 5; ++v) r.send(1, 1, &v, 1);
    } else {
      for (double v = 0; v < 5; ++v) {
        auto m = r.recv(0, 1);
        EXPECT_DOUBLE_EQ(m[0], v);
      }
    }
  });
}

TEST(World, AllreduceSum) {
  for (int p : {1, 2, 5, 8}) {
    World w(p);
    w.run([p](Rank& r) {
      double total = r.allreduce_sum(r.id() + 1.0);
      EXPECT_DOUBLE_EQ(total, p * (p + 1) / 2.0);
    });
  }
}

TEST(World, AllreduceMax) {
  World w(6);
  w.run([](Rank& r) {
    double m = r.allreduce_max(static_cast<double>((r.id() * 7) % 5));
    EXPECT_DOUBLE_EQ(m, 4.0);
  });
}

TEST(World, BarrierSynchronizes) {
  World w(4);
  std::atomic<int> before{0}, after{0};
  w.run([&](Rank& r) {
    ++before;
    r.barrier();
    EXPECT_EQ(before.load(), 4);
    ++after;
    r.barrier();
    EXPECT_EQ(after.load(), 4);
  });
}

TEST(World, CountersPerRank) {
  World w(3);
  w.run([](Rank& r) {
    r.add_flops(100.0 * (r.id() + 1));
    if (r.id() == 0) {
      double v = 1.0;
      r.send(1, 2, &v, 1);
    }
    if (r.id() == 1) r.recv(0, 2);
  });
  EXPECT_DOUBLE_EQ(w.counters()[2].flops, 300.0);
  EXPECT_EQ(w.counters()[0].msgs_sent, 1);
  EXPECT_EQ(w.counters()[1].msgs_sent, 0);
  EXPECT_DOUBLE_EQ(w.max_flops(), 300.0);
}

TEST(Exchanger, UpdateMakesOverlapCoherent) {
  auto m = mesh::rectangle(8, 8);
  auto p = partition::partition_nodes(m, 3, partition::Algorithm::kRcb);
  auto d = overlap::decompose_entity_layer(m, p);
  ASSERT_TRUE(overlap::validate(m, d).empty());

  World w(3);
  w.run([&](Rank& r) {
    const auto& sub = d.subs[r.id()];
    // Field = global node id on kernel nodes, garbage on overlap.
    std::vector<double> f(sub.local.num_nodes(), -1.0);
    for (int l = 0; l < sub.num_kernel_nodes; ++l) f[l] = sub.node_l2g[l];
    Exchanger ex(d, r.id());
    ex.update(r, f);
    for (int l = 0; l < sub.local.num_nodes(); ++l)
      EXPECT_DOUBLE_EQ(f[l], sub.node_l2g[l]);
  });
}

TEST(Exchanger, AssembleSumsAllPartials) {
  auto m = mesh::rectangle(8, 8);
  auto p = partition::partition_nodes(m, 4, partition::Algorithm::kRcb);
  auto d = overlap::decompose_node_boundary(m, p);
  ASSERT_TRUE(overlap::validate(m, d).empty());

  // Count how many parts hold each global node.
  std::vector<double> holders(m.num_nodes(), 0.0);
  for (const auto& sub : d.subs)
    for (int g : sub.node_l2g) holders[g] += 1.0;

  World w(4);
  w.run([&](Rank& r) {
    const auto& sub = d.subs[r.id()];
    std::vector<double> f(sub.local.num_nodes(), 1.0);  // each partial = 1
    Exchanger ex(d, r.id());
    ex.assemble(r, f);
    for (int l = 0; l < sub.local.num_nodes(); ++l)
      EXPECT_DOUBLE_EQ(f[l], holders[sub.node_l2g[l]])
          << "node " << sub.node_l2g[l];
  });
}

TEST(Exchanger, UpdateVolumeMatchesPlan) {
  auto m = mesh::rectangle(10, 10);
  auto p = partition::partition_nodes(m, 4, partition::Algorithm::kRcb);
  auto d = overlap::decompose_entity_layer(m, p);
  World w(4);
  w.run([&](Rank& r) {
    const auto& sub = d.subs[r.id()];
    std::vector<double> f(sub.local.num_nodes(), 0.0);
    Exchanger ex(d, r.id());
    ex.update(r, f);
  });
  EXPECT_EQ(w.total_msgs(), d.exchange_messages());
  EXPECT_EQ(w.total_bytes(),
            d.exchange_volume() * static_cast<long long>(sizeof(double)));
}

TEST(Exchanger, FusedExchangeMatchesPerFieldExchanges) {
  // A fused exchange carries every field's payload in one message per
  // schedule edge. Each field must come out bitwise as if exchanged alone
  // (same peer order, so assembly sums associate identically).
  auto m = mesh::rectangle(9, 7);
  auto p = partition::partition_nodes(m, 4, partition::Algorithm::kRcb);
  for (const bool assemble : {true, false}) {
    SCOPED_TRACE(assemble ? "assemble, node-boundary" : "update, entity-layer");
    const overlap::Decomposition d = assemble
                                         ? overlap::decompose_node_boundary(m, p)
                                         : overlap::decompose_entity_layer(m, p);
    const int parts = d.parts();
    // Non-dyadic, rank-dependent values: a different summation order or a
    // missed overlap copy shows in the bits.
    auto initial = [&](int rank, int field) {
      const auto& sub = d.subs[rank];
      std::vector<double> f(sub.node_l2g.size());
      for (std::size_t l = 0; l < f.size(); ++l)
        f[l] = 0.1 * (field + 1) + sub.node_l2g[l] / 3.0 + rank * 0.7;
      return f;
    };
    using Fields = std::array<std::vector<double>, 2>;
    std::vector<Fields> fused(parts), single(parts);
    World wf(parts);
    wf.run([&](Rank& r) {
      Fields& fs = fused[r.id()];
      fs = {initial(r.id(), 0), initial(r.id(), 1)};
      const Exchanger ex(d, r.id());
      std::vector<double>* both[] = {&fs[0], &fs[1]};
      ex.exchange(r, both,
                  assemble ? Exchanger::Combine::kAdd
                           : Exchanger::Combine::kCopy);
    });
    World ws(parts);
    ws.run([&](Rank& r) {
      Fields& fs = single[r.id()];
      fs = {initial(r.id(), 0), initial(r.id(), 1)};
      const Exchanger ex(d, r.id());
      for (std::vector<double>& f : fs) {
        if (assemble)
          ex.assemble(r, f);
        else
          ex.update(r, f);
      }
    });
    for (int rank = 0; rank < parts; ++rank)
      for (int f = 0; f < 2; ++f) {
        const std::vector<double>& a = fused[rank][f];
        const std::vector<double>& b = single[rank][f];
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
                  0)
            << "rank " << rank << ", field " << f;
      }
    EXPECT_GT(wf.total_msgs(), 0);
    EXPECT_EQ(2 * wf.total_msgs(), ws.total_msgs());
    EXPECT_EQ(wf.total_bytes(), ws.total_bytes());
  }
}

TEST(World, AllreduceProd) {
  World w(4);
  w.run([](Rank& r) {
    double total = r.allreduce_prod(r.id() + 1.0);
    EXPECT_DOUBLE_EQ(total, 24.0);
  });
}

TEST(World, ReuseResetsCountersAndMailboxes) {
  World w(2);
  w.run([](Rank& r) {
    if (r.id() == 0) {
      double v = 1.0;
      r.send(1, 5, &v, 1);
    } else {
      r.recv(0, 5);
    }
  });
  EXPECT_EQ(w.total_msgs(), 1);
  w.run([](Rank& r) { r.barrier(); });
  EXPECT_EQ(w.total_msgs(), 0);  // counters of the LAST run only
}

TEST(World, ManyRanksOnOneCore) {
  World w(32);
  w.run([](Rank& r) {
    double total = r.allreduce_sum(1.0);
    EXPECT_DOUBLE_EQ(total, 32.0);
    r.barrier();
  });
}

TEST(Exchanger, SinglePartIsANoOp) {
  auto m = mesh::rectangle(4, 4);
  auto p = partition::partition_nodes(m, 1, partition::Algorithm::kRcb);
  auto d = overlap::decompose_entity_layer(m, p);
  World w(1);
  w.run([&](Rank& r) {
    std::vector<double> f(d.subs[0].local.num_nodes(), 3.0);
    Exchanger ex(d, 0);
    ex.update(r, f);
    ex.assemble(r, f);
    for (double v : f) EXPECT_DOUBLE_EQ(v, 3.0);
  });
  EXPECT_EQ(w.total_msgs(), 0);
}

TEST(CostModel, MonotoneInWork) {
  MachineModel mm = MachineModel::mpp1994();
  Counters light{10, 1000, 1e6}, heavy{10, 1000, 2e6};
  EXPECT_LT(mm.rank_time(light), mm.rank_time(heavy));
  Counters chatty{100, 1000, 1e6};
  EXPECT_LT(mm.rank_time(light), mm.rank_time(chatty));
}

TEST(CostModel, ParallelTimeIsSlowestRank) {
  MachineModel mm = MachineModel::mpp1994();
  std::vector<Counters> ranks{{0, 0, 1e6}, {0, 0, 3e6}, {0, 0, 2e6}};
  EXPECT_DOUBLE_EQ(mm.time(ranks), mm.rank_time(ranks[1]));
}

}  // namespace
}  // namespace meshpar::runtime
