// Membership/token packet round trips and defensive decoding.

#include <gtest/gtest.h>

#include "membership/messages.hpp"
#include "util/rng.hpp"

namespace vsg::membership {
namespace {

TEST(Messages, CallRoundTrip) {
  const Call c{core::ViewId{7, 2}};
  const auto back = decode_packet(encode_packet(Packet{c}));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<Call>(*back).gid, c.gid);
}

TEST(Messages, CallReplyRoundTrip) {
  const CallReply r{core::ViewId{9, 0}};
  const auto back = decode_packet(encode_packet(Packet{r}));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<CallReply>(*back).gid, r.gid);
}

TEST(Messages, ViewAnnounceRoundTrip) {
  const ViewAnnounce a{core::View{core::ViewId{3, 1}, {0, 1, 3}}};
  const auto back = decode_packet(encode_packet(Packet{a}));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<ViewAnnounce>(*back).view, a.view);
}

TEST(Messages, TokenRoundTrip) {
  Token t;
  t.gid = core::ViewId{5, 0};
  t.lap = 42;
  t.base = 7;
  t.entries = {{0, util::Bytes{1, 2}}, {2, util::Bytes{}}, {1, util::Bytes{9}}};
  t.delivered = {{0, 9}, {1, 8}, {2, 10}};
  const auto back = decode_packet(encode_packet(Packet{t}));
  ASSERT_TRUE(back.has_value());
  const auto& got = std::get<Token>(*back);
  EXPECT_EQ(got.gid, t.gid);
  EXPECT_EQ(got.lap, t.lap);
  EXPECT_EQ(got.base, t.base);
  EXPECT_EQ(got.entries, t.entries);
  EXPECT_EQ(got.delivered, t.delivered);
}

TEST(Messages, EmptyTokenRoundTrip) {
  Token t;
  t.gid = core::ViewId{1, 0};
  const auto back = decode_packet(encode_packet(Packet{t}));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::get<Token>(*back).entries.empty());
}

TEST(Messages, ProbeRoundTripWithAndWithoutView) {
  const Probe with{core::ViewId{4, 3}};
  auto back = decode_packet(encode_packet(Packet{with}));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<Probe>(*back).gid, with.gid);

  const Probe without{std::nullopt};
  back = decode_packet(encode_packet(Packet{without}));
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(std::get<Probe>(*back).gid.has_value());
}

TEST(Messages, MeasuredSizeIsExactForEveryPacketType) {
  Token t;
  t.gid = core::ViewId{5, 0};
  t.entries = {{0, util::Bytes{1, 2, 3}}, {1, util::Bytes{}}};
  t.delivered = {{0, 2}, {1, 1}};
  const std::vector<Packet> packets{
      Packet{Call{core::ViewId{7, 2}}},
      Packet{CallReply{core::ViewId{9, 0}}},
      Packet{ViewAnnounce{core::View{core::ViewId{3, 1}, {0, 1, 3}}}},
      Packet{t},
      Packet{Probe{core::ViewId{4, 3}}},
      Packet{Probe{std::nullopt}},
  };
  // encode_packet reserves exactly this much, so the encode is a single
  // allocation (Serde.MeasuredReserveCostsExactlyOneAllocation pins the
  // Encoder side of that claim).
  for (const auto& p : packets)
    EXPECT_EQ(encode_packet(p).size(), encoded_packet_size(p)) << "tag index " << p.index();
}

TEST(Messages, WarmEntriesCacheReencodesIdentically) {
  Token t;
  t.gid = core::ViewId{5, 1};
  t.lap = 3;
  t.entries = {{0, util::Bytes{1, 2, 3}}, {2, util::Bytes{4}}};
  t.delivered = {{0, 1}, {2, 2}};
  const Packet pkt{t};
  const auto cold = encode_packet(pkt);  // warms the segment cache
  ASSERT_FALSE(std::get<Token>(pkt).entries_segs.empty());
  ASSERT_FALSE(std::get<Token>(pkt).entries_segs.front().wire.empty());
  WireEncodeStats stats;
  const auto warm = encode_packet(pkt, &stats);  // splices the cached section
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(stats.entries_spliced, 2u);
  EXPECT_EQ(stats.entries_rebuilt, 0u);
  EXPECT_EQ(encoded_packet_size(pkt), warm.size());
}

TEST(Messages, DecodedTokenEntriesAreSlicesOfThePacket) {
  Token t;
  t.gid = core::ViewId{2, 0};
  t.entries = {{0, util::Bytes{1, 2, 3}}, {1, util::Bytes{4, 5}}};
  const auto packet = encode_packet(Packet{t});
  const auto back = decode_packet(packet);
  ASSERT_TRUE(back.has_value());
  const auto& got = std::get<Token>(*back);
  for (const auto& [src, payload] : got.entries)
    EXPECT_EQ(payload.id(), packet.id()) << "entry from " << src << " must share storage";
  // Decoding also warms the segment cache with packet slices.
  ASSERT_FALSE(got.entries_segs.empty());
  for (const auto& seg : got.entries_segs) EXPECT_EQ(seg.wire.id(), packet.id());
}

TEST(Messages, UnknownTagRejected) {
  EXPECT_FALSE(decode_packet(util::Bytes{0x42}).has_value());
  EXPECT_FALSE(decode_packet(util::Bytes{}).has_value());
}

TEST(Messages, TruncatedPacketRejected) {
  auto bytes = encode_packet(Packet{Call{core::ViewId{7, 2}}}).to_bytes();
  bytes.pop_back();
  EXPECT_FALSE(decode_packet(bytes).has_value());
}

TEST(Messages, TrailingGarbageRejected) {
  auto bytes = encode_packet(Packet{Probe{std::nullopt}}).to_bytes();
  bytes.push_back(0x01);
  EXPECT_FALSE(decode_packet(bytes).has_value());
}

TEST(Messages, SingleByteCorruptionAlwaysDetected) {
  Token t;
  t.gid = core::ViewId{5, 0};
  t.entries = {{0, util::Bytes{1, 2, 3}}, {1, util::Bytes{4}}};
  t.delivered = {{0, 2}, {1, 1}};
  const auto bytes = encode_packet(Packet{t}).to_bytes();
  // Flip every byte position in turn: the checksum must reject each
  // mutation (payload corruption must never produce a different valid
  // packet).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto mutated = bytes;
    mutated[i] ^= 0x5A;
    EXPECT_FALSE(decode_packet(mutated).has_value()) << "byte " << i;
  }
}

class PacketFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketFuzz, RandomBytesNeverCrash) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    util::Bytes buf;
    const auto len = rng.below(64);
    for (std::uint64_t k = 0; k < len; ++k)
      buf.push_back(static_cast<std::uint8_t>(rng.next()));
    (void)decode_packet(buf);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace vsg::membership
