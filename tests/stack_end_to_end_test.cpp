// End-to-end tests of the full TO stack (VStoTO over both VS back ends) in
// failure-free executions: totally ordered delivery everywhere, VS- and
// TO-level trace safety, and basic timeliness.

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "harness/world.hpp"

namespace vsg {
namespace {

using harness::Backend;
using harness::World;
using harness::WorldConfig;

WorldConfig base_config(Backend backend, int n, std::uint64_t seed) {
  WorldConfig cfg;
  cfg.n = n;
  cfg.backend = backend;
  cfg.seed = seed;
  return cfg;
}

class StackEndToEnd : public ::testing::TestWithParam<Backend> {};

TEST_P(StackEndToEnd, SingleValueReachesEveryone) {
  World world(base_config(GetParam(), 3, 7));
  world.bcast_at(sim::msec(50), 0, "hello");
  world.run_until(sim::sec(3));

  EXPECT_TRUE(world.check_vs_safety().empty());
  EXPECT_TRUE(world.check_to_safety().empty());
  for (ProcId p = 0; p < 3; ++p) {
    const auto& got = world.stack().process(p).delivered();
    ASSERT_EQ(got.size(), 1u) << "at processor " << p;
    EXPECT_EQ(got[0].first, 0);
    EXPECT_EQ(got[0].second, "hello");
  }
}

TEST_P(StackEndToEnd, ManySendersTotalOrder) {
  World world(base_config(GetParam(), 5, 11));
  const auto traffic =
      harness::steady_traffic({0, 1, 2, 3, 4}, 10, sim::msec(50), sim::msec(20));
  traffic.apply(world);
  world.run_until(sim::sec(10));

  const auto to_violations = world.check_to_safety();
  EXPECT_TRUE(to_violations.empty()) << (to_violations.empty() ? "" : to_violations.front());
  const auto vs_violations = world.check_vs_safety();
  EXPECT_TRUE(vs_violations.empty()) << (vs_violations.empty() ? "" : vs_violations.front());

  // Everyone delivers all 50 values, in the same order.
  const auto& reference = world.stack().process(0).delivered();
  ASSERT_EQ(reference.size(), 50u);
  for (ProcId p = 1; p < 5; ++p)
    EXPECT_EQ(world.stack().process(p).delivered(), reference) << "at processor " << p;
}

TEST_P(StackEndToEnd, PerSenderFifoRespected) {
  World world(base_config(GetParam(), 3, 13));
  for (int k = 0; k < 20; ++k)
    world.bcast_at(sim::msec(10 + k), 1, "m" + std::to_string(k));
  world.run_until(sim::sec(5));

  const auto& got = world.stack().process(2).delivered();
  ASSERT_EQ(got.size(), 20u);
  for (int k = 0; k < 20; ++k)
    EXPECT_EQ(got[static_cast<std::size_t>(k)].second, "m" + std::to_string(k));
}

TEST_P(StackEndToEnd, BackToBackBurstsKeepOrder) {
  World world(base_config(GetParam(), 4, 17));
  for (ProcId p = 0; p < 4; ++p)
    for (int k = 0; k < 5; ++k)
      world.bcast_at(sim::msec(100), p, "b" + std::to_string(p) + "." + std::to_string(k));
  world.run_until(sim::sec(5));

  EXPECT_TRUE(world.check_to_safety().empty());
  const auto& reference = world.stack().process(0).delivered();
  EXPECT_EQ(reference.size(), 20u);
  for (ProcId p = 1; p < 4; ++p)
    EXPECT_EQ(world.stack().process(p).delivered(), reference);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, StackEndToEnd,
                         ::testing::Values(Backend::kSpec, Backend::kTokenRing),
                         [](const auto& info) {
                           return info.param == Backend::kSpec ? "SpecVS" : "TokenRing";
                         });

TEST(StackLateJoiner, ProcessorsOutsideP0JoinAndDeliver) {
  WorldConfig cfg = base_config(Backend::kTokenRing, 4, 23);
  cfg.n0 = 3;  // processor 3 starts outside the group
  World world(cfg);
  world.bcast_at(sim::sec(2), 0, "after-join");
  world.run_until(sim::sec(6));

  EXPECT_TRUE(world.check_vs_safety().empty());
  EXPECT_TRUE(world.check_to_safety().empty());
  // Once probing merges 3 into the group, it receives values confirmed
  // afterwards.
  const auto& got = world.stack().process(3).delivered();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].second, "after-join");
}

// The proof's buildorder history stays off the value path: a labelled
// message copies nothing, and each view exit snapshots at most the order
// then held. So over a fault-free run the labels copied into buildorder are
// bounded by views installed x the order depth, with no timing involved; a
// per-message copy would be quadratic in the values ordered.
TEST(StackHistory, BuildorderSnapshotsStayLinearInViewsTimesOrder) {
  WorldConfig cfg = base_config(Backend::kTokenRing, 4, 29);
  cfg.n0 = 3;  // processor 3 joins once values flow: g0 exits with a nonempty order
  World world(cfg);
  harness::steady_traffic({0, 1, 2, 3}, 200, sim::msec(1), sim::msec(10)).apply(world);
  world.run_until(sim::sec(5));
  EXPECT_TRUE(world.check_to_safety().empty());

  const auto& m = world.metrics();
  const std::uint64_t copied = m.find_counter("to.history_snapshot_labels")->value();
  const std::uint64_t views = m.find_counter("ring.views_installed")->value();
  const std::int64_t depth = m.find_gauge("to.order_depth")->value();
  ASSERT_GE(depth, 4 * 200) << "every value ordered somewhere";
  EXPECT_GT(copied, 0u) << "leaving g0 snapshots the order built in it";
  EXPECT_LE(copied, views * static_cast<std::uint64_t>(depth))
      << views << " views, order depth " << depth;
  for (ProcId p = 0; p < world.n(); ++p) {
    const auto& st = world.stack().process(p).state();
    ASSERT_TRUE(st.current.has_value());
    EXPECT_EQ(st.buildorder.count(st.current->id), 0u)
        << "buildorder[p, current] is order itself, never a stored copy (p" << p << ")";
  }
}

}  // namespace
}  // namespace vsg
