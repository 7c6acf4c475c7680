// Digest/delta state exchange end to end (docs/WIRE.md, "Digest/delta
// state exchange"): a digest/delta world runs the two-phase protocol —
// digest broadcast, then one delta against the meet of all digests — and
// must deliver exactly what the Figure 8 full-summary world delivers on the
// same seed and the same v3 frames, while moving an order of magnitude
// fewer exchange bytes through crash/rejoin churn.

#include <gtest/gtest.h>

#include <map>

#include "harness/world.hpp"

namespace vsg {
namespace {

using harness::Backend;
using harness::World;
using harness::WorldConfig;

constexpr auto kFull = vstoto::ExchangeMode::kFullSummary;
constexpr auto kDelta = vstoto::ExchangeMode::kDigestDelta;

WorldConfig config(vstoto::ExchangeMode exchange, std::uint64_t seed) {
  WorldConfig cfg;
  cfg.n = 4;
  cfg.backend = Backend::kTokenRing;
  cfg.exchange = exchange;
  cfg.seed = seed;
  return cfg;
}

// Crash/rejoin churn with steady traffic; returns the world for counter and
// delivery inspection.
void churn(World& world) {
  const int n = world.n();
  for (sim::Time t = sim::msec(200); t < sim::sec(6); t += sim::msec(150))
    for (ProcId p = 0; p < n; ++p) world.bcast_at(t, p, "m" + std::to_string(t / 1000));
  int cycle = 0;
  for (sim::Time t = sim::sec(1); t < sim::sec(5); t += sim::msec(1200)) {
    const ProcId victim = 1 + static_cast<ProcId>(cycle++ % (n - 1));
    world.proc_status_at(t, victim, sim::Status::kBad);
    world.proc_status_at(t + sim::msec(800), victim, sim::Status::kGood);
  }
  world.run_until(sim::sec(12));
}

TEST(DeltaExchange, ExchangeFieldSelectsTheMode) {
  EXPECT_EQ(WorldConfig{}.exchange, kDelta);  // the ring default
  World full(config(kFull, 5));
  World delta(config(kDelta, 5));
  EXPECT_EQ(full.stack().process(0).exchange_mode(), kFull);
  EXPECT_EQ(delta.stack().process(0).exchange_mode(), kDelta);
}

TEST(DeltaExchange, SpecBackendStaysFullSummary) {
  WorldConfig cfg;
  cfg.backend = Backend::kSpec;
  World world(cfg);  // exchange keeps its digest/delta default, ignored here
  EXPECT_EQ(world.stack().process(0).exchange_mode(), kFull);
}

TEST(DeltaExchange, SameDeliveriesThroughCrashRejoinChurn) {
  World full(config(kFull, 91));
  World delta(config(kDelta, 91));
  churn(full);
  churn(delta);

  // Identical client outcome at quiescence: every processor delivered the
  // same multiset of (origin, value) pairs under both exchange protocols.
  // (The chosen total order may differ — establishment lands a couple of
  // token laps later in delta mode — so compare content, not order.)
  for (ProcId p = 0; p < full.n(); ++p) {
    auto full_d = full.stack().process(p).delivered();
    auto delta_d = delta.stack().process(p).delivered();
    std::map<std::pair<ProcId, core::Value>, int> a, b;
    for (const auto& d : full_d) ++a[d];
    for (const auto& d : delta_d) ++b[d];
    EXPECT_EQ(a, b) << "processor " << p;
  }
  EXPECT_TRUE(full.check_to_safety().empty());
  EXPECT_TRUE(delta.check_to_safety().empty());
}

// "V3" names the digest/delta exchange, which shipped with the delta layout.
TEST(DeltaExchange, DigestAndDeltaCountersMoveOnlyUnderV3) {
  World full(config(kFull, 91));
  World delta(config(kDelta, 91));
  churn(full);
  churn(delta);

  const auto count = [](const World& w, const std::string& name) -> std::uint64_t {
    const auto* c = w.metrics().find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  EXPECT_GT(count(full, "to.summaries_sent"), 0u);
  EXPECT_EQ(count(full, "to.digests_sent"), 0u);
  EXPECT_EQ(count(full, "to.deltas_sent"), 0u);

  EXPECT_EQ(count(delta, "to.summaries_sent"), 0u);
  EXPECT_GT(count(delta, "to.digests_sent"), 0u);
  EXPECT_GT(count(delta, "to.deltas_sent"), 0u);
  // One delta per member per completed collection; digests outnumber them.
  EXPECT_GE(count(delta, "to.digests_sent"), count(delta, "to.deltas_sent"));

  // The membership layer's payload census agrees with the process counters.
  EXPECT_GT(count(full, "ring.state_exchange_bytes.summary"), 0u);
  EXPECT_EQ(count(full, "ring.state_exchange_bytes.digest"), 0u);
  EXPECT_EQ(count(delta, "ring.state_exchange_bytes.summary"), 0u);
  EXPECT_GT(count(delta, "ring.state_exchange_bytes.digest"), 0u);
  EXPECT_GT(count(delta, "ring.state_exchange_bytes.delta"), 0u);
}

TEST(DeltaExchange, ExchangeBytesDropByAnOrderOfMagnitude) {
  World full(config(kFull, 91));
  World delta(config(kDelta, 91));
  churn(full);
  churn(delta);
  const auto* bc = full.metrics().find_counter("ring.state_exchange_bytes");
  const auto* ac = delta.metrics().find_counter("ring.state_exchange_bytes");
  ASSERT_NE(bc, nullptr);
  ASSERT_NE(ac, nullptr);
  const std::uint64_t before = bc->value();
  const std::uint64_t after = ac->value();
  ASSERT_GT(after, 0u);
  EXPECT_GE(before / after, 5u)
      << "summaries grow with history, digests/deltas do not: " << before << " vs " << after;
}

}  // namespace
}  // namespace vsg
