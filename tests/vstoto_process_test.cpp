// VStoTO_p unit tests: each transition of Figures 9-10 exercised against a
// hand-driven fake VS service, including the state-exchange recovery paths.

#include <gtest/gtest.h>

#include <memory>

#include "sim/simulator.hpp"
#include "to/stack.hpp"
#include "trace/recorder.hpp"
#include "vstoto/process.hpp"

namespace vsg::vstoto {
namespace {

// A VS service the test drives by hand: records gpsnd calls per processor.
class FakeVS final : public vs::Service {
 public:
  explicit FakeVS(int n) : n_(n), clients_(static_cast<std::size_t>(n), nullptr) {}
  int size() const override { return n_; }
  void attach(ProcId p, vs::Client& c) override {
    clients_[static_cast<std::size_t>(p)] = &c;
  }
  void gpsnd(ProcId p, vs::Payload m) override {
    sent[static_cast<std::size_t>(p)].push_back(std::move(m));
  }
  // Deliver message m (as sent by src) to q.
  void deliver(ProcId src, ProcId q, const vs::Payload& m) {
    clients_[static_cast<std::size_t>(q)]->on_gprcv(src, m);
  }
  void deliver_all(ProcId src, const vs::Payload& m, const std::set<ProcId>& members) {
    for (ProcId q : members) deliver(src, q, m);
  }
  void make_safe(ProcId src, const vs::Payload& m, const std::set<ProcId>& members) {
    for (ProcId q : members) clients_[static_cast<std::size_t>(q)]->on_safe(src, m);
  }
  void newview(const core::View& v) {
    for (ProcId q : v.members) clients_[static_cast<std::size_t>(q)]->on_newview(v);
  }

  std::vector<std::vector<vs::Payload>> sent{8};

 private:
  int n_;
  std::vector<vs::Client*> clients_;
};

struct Fixture {
  sim::Simulator sim;
  trace::Recorder recorder{sim};
  FakeVS fake{3};
  std::vector<std::unique_ptr<Process>> procs;

  explicit Fixture(int n0 = 3) {
    for (ProcId p = 0; p < 3; ++p) {
      procs.push_back(
          std::make_unique<Process>(p, n0, core::majorities(3), fake, recorder));
      fake.attach(p, *procs[static_cast<std::size_t>(p)]);
    }
  }
  Process& at(ProcId p) { return *procs[static_cast<std::size_t>(p)]; }
};

TEST(Process, InitialStateInP0) {
  Fixture f;
  const auto& st = f.at(0).state();
  ASSERT_TRUE(st.current.has_value());
  EXPECT_EQ(st.current->id, core::ViewId::initial());
  EXPECT_EQ(st.status, PStatus::kNormal);
  EXPECT_EQ(st.highprimary, std::optional<core::ViewId>(core::ViewId::initial()));
  EXPECT_TRUE(f.at(0).primary()) << "P0 = all three is a majority";
}

TEST(Process, InitialStateOutsideP0) {
  Fixture f(/*n0=*/2);
  const auto& st = f.at(2).state();
  EXPECT_FALSE(st.current.has_value());
  EXPECT_FALSE(st.highprimary.has_value());
  EXPECT_FALSE(f.at(2).primary());
}

TEST(Process, BcastLabelsAndSends) {
  Fixture f;
  f.at(0).bcast("hello");
  // label consumed the delay entry, gpsnd shipped the labeled value.
  const auto& st = f.at(0).state();
  EXPECT_TRUE(st.delay.empty());
  EXPECT_TRUE(st.buffer.empty());
  EXPECT_EQ(st.nextseqno, 2u);
  EXPECT_EQ(st.content.size(), 1u);
  ASSERT_EQ(f.fake.sent[0].size(), 1u);
  const auto msg = decode_message(f.fake.sent[0][0]);
  ASSERT_TRUE(msg.has_value());
  const auto& lv = std::get<LabeledValue>(*msg);
  EXPECT_EQ(lv.value, "hello");
  EXPECT_EQ(lv.label.origin, 0);
  EXPECT_EQ(lv.label.seqno, 1u);
}

TEST(Process, BcastWithNoViewStaysInDelay) {
  Fixture f(/*n0=*/2);
  f.at(2).bcast("stuck");
  EXPECT_EQ(f.at(2).state().delay.size(), 1u);
  EXPECT_TRUE(f.fake.sent[2].empty());
}

TEST(Process, PrimaryDeliveryPathConfirmsOnSafe) {
  Fixture f;
  f.at(0).bcast("v");
  const auto payload = f.fake.sent[0][0];
  f.fake.deliver_all(0, payload, {0, 1, 2});
  // Delivered into order everywhere, but not yet confirmed.
  for (ProcId p = 0; p < 3; ++p) {
    EXPECT_EQ(f.at(p).state().order.size(), 1u);
    EXPECT_TRUE(f.at(p).delivered().empty());
  }
  f.fake.make_safe(0, payload, {0, 1, 2});
  for (ProcId p = 0; p < 3; ++p) {
    EXPECT_EQ(f.at(p).state().nextconfirm, 2u);
    ASSERT_EQ(f.at(p).delivered().size(), 1u);
    EXPECT_EQ(f.at(p).delivered()[0].second, "v");
  }
}

TEST(Process, NonPrimaryRecordsContentButDoesNotOrder) {
  Fixture f;
  // Move 0 and 1 into a minority view {0,1}... of majorities(3), {0,1} IS a
  // majority; use {0} to get a real non-primary.
  const core::View v{core::ViewId{1, 0}, {0}};
  f.fake.newview(v);
  // Establish the singleton view: deliver 0's own summary back.
  ASSERT_EQ(f.fake.sent[0].size(), 1u);
  f.fake.deliver(0, 0, f.fake.sent[0][0]);
  EXPECT_EQ(f.at(0).state().status, PStatus::kNormal);
  EXPECT_FALSE(f.at(0).primary());

  f.at(0).bcast("lonely");
  ASSERT_EQ(f.fake.sent[0].size(), 2u);
  f.fake.deliver(0, 0, f.fake.sent[0][1]);
  EXPECT_EQ(f.at(0).state().content.size(), 1u);
  EXPECT_TRUE(f.at(0).state().order.empty()) << "non-primary must not extend order";
  f.at(0).on_safe(0, f.fake.sent[0][1]);
  EXPECT_TRUE(f.at(0).state().safe_labels.empty()) << "non-primary ignores safe";
  EXPECT_TRUE(f.at(0).delivered().empty());
}

TEST(Process, NewviewResetsPerViewState) {
  Fixture f;
  f.at(0).bcast("a");
  const core::View v{core::ViewId{1, 0}, {0, 1}};
  f.fake.newview(v);
  const auto& st = f.at(0).state();
  EXPECT_EQ(st.status, PStatus::kCollect) << "summary sent immediately, now collecting";
  EXPECT_TRUE(st.buffer.empty());
  EXPECT_TRUE(st.gotstate.empty());
  EXPECT_TRUE(st.safe_labels.empty());
  EXPECT_EQ(st.nextseqno, 1u);
  EXPECT_EQ(st.current->id, v.id);
  // The state-exchange summary went out and carries the old content.
  const auto msg = decode_message(f.fake.sent[0].back());
  ASSERT_TRUE(msg.has_value());
  const auto& x = std::get<core::Summary>(*msg);
  EXPECT_EQ(x.con.size(), 1u);
  EXPECT_EQ(x.high, std::optional<core::ViewId>(core::ViewId::initial()));
}

TEST(Process, EstablishmentAdoptsFullorderInPrimary) {
  Fixture f;
  // 0 has an unconfirmed labeled value from the initial view.
  f.at(0).bcast("z");
  const auto zmsg = f.fake.sent[0][0];
  f.fake.deliver(0, 0, zmsg);  // only 0 saw it

  const core::View v{core::ViewId{1, 0}, {0, 1, 2}};
  f.fake.newview(v);
  // Exchange all three summaries.
  for (ProcId p = 0; p < 3; ++p) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    for (ProcId q = 0; q < 3; ++q) f.fake.deliver(p, q, summary);
  }
  for (ProcId p = 0; p < 3; ++p) {
    const auto& st = f.at(p).state();
    EXPECT_EQ(st.status, PStatus::kNormal);
    ASSERT_EQ(st.order.size(), 1u) << "fullorder picked up the known label";
    EXPECT_EQ(st.highprimary, std::optional<core::ViewId>(v.id));
    EXPECT_TRUE(st.established.count(v.id)) << "history variable set";
  }
  // Safe exchange completes -> the label becomes safe -> confirm -> deliver.
  for (ProcId p = 0; p < 3; ++p) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    f.fake.make_safe(p, summary, {0, 1, 2});
  }
  for (ProcId p = 0; p < 3; ++p) {
    ASSERT_EQ(f.at(p).delivered().size(), 1u) << "at " << p;
    EXPECT_EQ(f.at(p).delivered()[0].second, "z");
  }
}

TEST(Process, NonPrimaryEstablishmentAdoptsShortorder) {
  Fixture f;
  const core::View v{core::ViewId{1, 0}, {0}};
  f.fake.newview(v);
  f.fake.deliver(0, 0, f.fake.sent[0][0]);
  const auto& st = f.at(0).state();
  EXPECT_EQ(st.status, PStatus::kNormal);
  // highprimary = maxprimary(gotstate) = g0 (from its own summary).
  EXPECT_EQ(st.highprimary, std::optional<core::ViewId>(core::ViewId::initial()));
}

TEST(Process, UndecodablePayloadIgnored) {
  Fixture f;
  f.at(0).on_gprcv(1, util::Bytes{0xFF, 0x00});
  f.at(0).on_safe(1, util::Bytes{});
  EXPECT_TRUE(f.at(0).state().content.empty());
}

TEST(Process, DuplicateOrderGuard) {
  // Deliver the same labeled value twice (which VS itself would never do):
  // content is a set, and the order must not grow twice.
  Fixture f;
  f.at(0).bcast("v");
  const auto payload = f.fake.sent[0][0];
  f.fake.deliver(0, 1, payload);
  f.fake.deliver(0, 1, payload);
  EXPECT_EQ(f.at(1).state().order.size(), 1u);
  EXPECT_EQ(f.at(1).state().content.size(), 1u);
}

TEST(Process, LocalSummaryReflectsState) {
  Fixture f;
  f.at(0).bcast("v");
  const auto x = f.at(0).local_summary();
  EXPECT_EQ(x.con.size(), 1u);
  EXPECT_EQ(x.next, 1u);
  EXPECT_EQ(x.high, std::optional<core::ViewId>(core::ViewId::initial()));
}

// A full succession of primaries, driven by hand: the representative
// choice must favor the member with the freshest primary history, and the
// confirmed prefix must survive every reconfiguration (the heart of
// Lemmas 6.13/6.18 at unit level).
TEST(Process, PrimarySuccessionPreservesConfirmedPrefixAndPicksFreshRep) {
  Fixture f;
  // Round 1: initial primary view {0,1,2} confirms value "a" from 0.
  f.at(0).bcast("a");
  const auto a_msg = f.fake.sent[0][0];
  f.fake.deliver_all(0, a_msg, {0, 1, 2});
  f.fake.make_safe(0, a_msg, {0, 1, 2});
  for (ProcId p = 0; p < 3; ++p) ASSERT_EQ(f.at(p).delivered().size(), 1u);

  // Round 2: {0,1} forms (still a majority of 3 => primary). 2 is cut off.
  const core::View v2{core::ViewId{1, 0}, {0, 1}};
  f.fake.newview(v2);
  for (ProcId p : {0, 1}) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    f.fake.deliver(p, 0, summary);
    f.fake.deliver(p, 1, summary);
  }
  EXPECT_EQ(f.at(0).state().highprimary, std::optional<core::ViewId>(v2.id));
  // New value "b" confirmed inside v2.
  f.at(1).bcast("b");
  const auto b_msg = f.fake.sent[1].back();
  f.fake.deliver(1, 0, b_msg);
  f.fake.deliver(1, 1, b_msg);
  f.fake.make_safe(1, b_msg, {0, 1});
  ASSERT_EQ(f.at(0).delivered().size(), 2u);
  EXPECT_EQ(f.at(0).delivered()[1].second, "b");
  // 2 is oblivious: still in the initial view with highprimary g0.
  EXPECT_EQ(f.at(2).state().highprimary,
            std::optional<core::ViewId>(core::ViewId::initial()));

  // Round 3: full merge {0,1,2}. The representative must come from {0,1}
  // (their highprimary v2.id beats 2's g0), so "b" keeps its place and 2
  // catches up on delivery.
  const core::View v3{core::ViewId{2, 0}, {0, 1, 2}};
  f.fake.newview(v3);
  for (ProcId p = 0; p < 3; ++p) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    for (ProcId q = 0; q < 3; ++q) f.fake.deliver(p, q, summary);
  }
  for (ProcId p = 0; p < 3; ++p) {
    const auto& st = f.at(p).state();
    EXPECT_EQ(st.status, PStatus::kNormal);
    ASSERT_EQ(st.order.size(), 2u) << "confirmed prefix [a, b] survives";
    EXPECT_EQ(st.highprimary, std::optional<core::ViewId>(v3.id));
  }
  for (ProcId p = 0; p < 3; ++p) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    f.fake.make_safe(p, summary, {0, 1, 2});
  }
  ASSERT_EQ(f.at(2).delivered().size(), 2u) << "2 recovered the full history";
  EXPECT_EQ(f.at(2).delivered()[0].second, "a");
  EXPECT_EQ(f.at(2).delivered()[1].second, "b");
}

// The stale-minority case: a non-primary member accumulates *tentative*
// state that a later primary must order after everything confirmed.
TEST(Process, StaleTentativeOrderLosesToFresherPrimary) {
  Fixture f;
  // 2 gets isolated into a singleton (non-primary) view and receives a
  // labeled value that only it knows (tentative, never ordered).
  const core::View lone{core::ViewId{1, 2}, {2}};
  f.fake.newview(lone);
  f.fake.deliver(2, 2, f.fake.sent[2].back());  // establish the singleton
  f.at(2).bcast("stale");
  const auto stale_msg = f.fake.sent[2].back();
  f.fake.deliver(2, 2, stale_msg);
  EXPECT_TRUE(f.at(2).state().order.empty()) << "non-primary: content only";

  // Meanwhile {0,1} confirms "fresh" in a primary view.
  const core::View duo{core::ViewId{2, 0}, {0, 1}};
  f.fake.newview(duo);
  for (ProcId p : {0, 1}) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    f.fake.deliver(p, 0, summary);
    f.fake.deliver(p, 1, summary);
  }
  f.at(0).bcast("fresh");
  const auto fresh_msg = f.fake.sent[0].back();
  f.fake.deliver(0, 0, fresh_msg);
  f.fake.deliver(0, 1, fresh_msg);
  f.fake.make_safe(0, fresh_msg, {0, 1});

  // Merge: fullorder = rep's order ("fresh") then remaining labels — 2's
  // "stale" value enters the order after it.
  const core::View all{core::ViewId{3, 0}, {0, 1, 2}};
  f.fake.newview(all);
  for (ProcId p = 0; p < 3; ++p) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    for (ProcId q = 0; q < 3; ++q) f.fake.deliver(p, q, summary);
  }
  for (ProcId p = 0; p < 3; ++p) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    f.fake.make_safe(p, summary, {0, 1, 2});
  }
  for (ProcId p = 0; p < 3; ++p) {
    ASSERT_EQ(f.at(p).delivered().size(), 2u) << "at " << p;
    EXPECT_EQ(f.at(p).delivered()[0].second, "fresh") << "confirmed history first";
    EXPECT_EQ(f.at(p).delivered()[1].second, "stale");
  }
}

// buildorder[p, g] is order as of p's exit from g: no copy is kept while p
// is in g (there buildorder[p, g] is order itself), one snapshot is taken at
// newview, and a view in which order never changed gets none.
TEST(Process, BuildorderIsSnapshottedOnceAtViewExit) {
  Fixture f;
  obs::MetricsRegistry registry;
  ProcessObs obs;
  obs.history_snapshot_labels = &registry.counter("to.history_snapshot_labels");
  f.at(0).bind_metrics(obs);
  const auto& st = f.at(0).state();
  EXPECT_TRUE(st.order_changed_in_view) << "buildorder[p, g0] = {} = order";
  EXPECT_TRUE(st.buildorder.empty());

  // g0 -> v1: the initial view's (empty) entry becomes a snapshot.
  const core::View v1{core::ViewId{1, 0}, {0, 1, 2}};
  f.fake.newview(v1);
  ASSERT_EQ(st.buildorder.size(), 1u);
  EXPECT_TRUE(st.buildorder.at(core::ViewId::initial()).empty());
  EXPECT_FALSE(st.order_changed_in_view);
  for (ProcId p = 0; p < 3; ++p) {
    const auto summary = f.fake.sent[static_cast<std::size_t>(p)].back();
    for (ProcId q = 0; q < 3; ++q) f.fake.deliver(p, q, summary);
  }
  EXPECT_TRUE(st.order_changed_in_view) << "establishment assigned order";
  for (const char* a : {"a", "b", "c"}) {
    f.at(0).bcast(a);
    f.fake.deliver_all(0, f.fake.sent[0].back(), {0, 1, 2});
  }
  ASSERT_EQ(st.order.size(), 3u);
  EXPECT_EQ(st.buildorder.count(v1.id), 0u) << "no per-message copy while in v1";
  const auto order_at_exit = st.order;

  // v1 -> v2 (a singleton, never established): v1's snapshot is order at exit.
  const core::View v2{core::ViewId{2, 0}, {0}};
  f.fake.newview(v2);
  ASSERT_EQ(st.buildorder.count(v1.id), 1u);
  EXPECT_EQ(st.buildorder.at(v1.id), order_at_exit);

  // v2 -> v3: order never changed in v2, so v2 gets no snapshot.
  const core::View v3{core::ViewId{3, 0}, {0, 1, 2}};
  f.fake.newview(v3);
  EXPECT_EQ(st.buildorder.count(v2.id), 0u);
  EXPECT_EQ(st.buildorder.size(), 2u);
  EXPECT_EQ(registry.counter("to.history_snapshot_labels").value(), order_at_exit.size())
      << "labels copied: 0 at g0's exit, |order| at v1's, none at v2's";
}

TEST(Process, DeliveryCallbackFires) {
  Fixture f;
  std::vector<std::string> seen;
  f.at(2).set_delivery([&](ProcId origin, const core::Value& a) {
    EXPECT_EQ(origin, 0);
    seen.push_back(a);
  });
  f.at(0).bcast("cb");
  const auto payload = f.fake.sent[0][0];
  f.fake.deliver_all(0, payload, {0, 1, 2});
  f.fake.make_safe(0, payload, {0, 1, 2});
  EXPECT_EQ(seen, std::vector<std::string>{"cb"});
}

}  // namespace
}  // namespace vsg::vstoto
