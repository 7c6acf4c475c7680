// The Codec API (core/codec.hpp): one Codec<T> per wire type, one switch
// over its layouts. Pins (a) round trips under every layout a type has,
// with exact size accounting, (b) the fixed-width VSTOTO payload bytes the
// pinned fingerprints hash, byte for byte, through the core::encode shims,
// (c) golden v3 bytes so the compact layout cannot drift silently, and (d)
// the v3-smaller claim.

#include <gtest/gtest.h>

#include "core/codec.hpp"
#include "core/summary.hpp"
#include "util/serde.hpp"

namespace vsg::wire {
namespace {

constexpr std::initializer_list<Version> all_versions = {Version::kFixedWidth, Version::kV3};

core::Label lab(std::uint64_t epoch, std::uint32_t seqno, ProcId origin) {
  return core::Label{core::ViewId{epoch, 0}, seqno, origin};
}

core::Summary sample_summary() {
  core::Summary x;
  for (std::uint32_t s = 1; s <= 6; ++s) {
    x.con.emplace(lab(3, s, 0), "value-" + std::to_string(s));
    x.ord.push_back(lab(3, s, 0));
  }
  x.con.emplace(lab(3, 1, 2), "other");
  x.next = 4;
  x.high = core::ViewId{3, 1};
  return x;
}

template <typename T>
void roundtrip(const T& v, std::initializer_list<Version> layouts = all_versions) {
  for (const Version w : layouts) {
    util::Encoder e;
    Codec<T>::encode(e, v, w);
    EXPECT_EQ(e.size(), Codec<T>::size(v, w)) << to_string(w);
    util::Decoder d(e.bytes());
    EXPECT_EQ(Codec<T>::decode(d, w), v) << to_string(w);
    EXPECT_TRUE(d.complete()) << to_string(w);
  }
}

TEST(Codec, ViewIdRoundTripsUnderEveryVersion) {
  roundtrip(core::ViewId{0, 0});
  roundtrip(core::ViewId{5, 2});
  roundtrip(core::ViewId{std::uint64_t{1} << 40, 31});
}

TEST(Codec, ViewRoundTripsUnderEveryVersion) {
  // Views travel only in frames: v3 is their one layout.
  roundtrip(core::View{core::ViewId{7, 1}, {0, 1, 2, 5}}, {Version::kV3});
  roundtrip(core::View{core::ViewId{}, {}}, {Version::kV3});
}

TEST(Codec, LabelRoundTripsUnderEveryVersion) {
  roundtrip(lab(0, 1, 0));
  roundtrip(lab(300, 2, 3));
  roundtrip(core::Label{core::ViewId{std::uint64_t{1} << 33, 4}, 1 << 20, 30});
}

TEST(Codec, SummaryRoundTripsUnderEveryVersion) {
  roundtrip(core::Summary{});
  roundtrip(sample_summary());
}

TEST(Codec, DigestAndDeltaRoundTripUnderV3) {
  const core::SummaryDigest g = core::digest(sample_summary());
  util::Encoder e;
  Codec<core::SummaryDigest>::encode(e, g, Version::kV3);
  EXPECT_EQ(e.size(), Codec<core::SummaryDigest>::size(g, Version::kV3));
  util::Decoder d(e.bytes());
  EXPECT_EQ(Codec<core::SummaryDigest>::decode(d, Version::kV3), g);
  EXPECT_TRUE(d.complete());

  const core::SummaryDelta dl = core::delta(sample_summary(), core::SummaryDigest{});
  util::Encoder e2;
  Codec<core::SummaryDelta>::encode(e2, dl, Version::kV3);
  EXPECT_EQ(e2.size(), Codec<core::SummaryDelta>::size(dl, Version::kV3));
  util::Decoder d2(e2.bytes());
  EXPECT_EQ(Codec<core::SummaryDelta>::decode(d2, Version::kV3), dl);
  EXPECT_TRUE(d2.complete());
}

TEST(Codec, PayloadShimsMatchFixedWidthBytes) {
  // Labeled values and full summaries ride the ring in the fixed-width
  // payload body layout, and the pinned campaign fingerprint hashes those
  // bytes: the core::encode shims must equal the kFixedWidth codec, and a
  // label's bytes are pinned outright (u64 epoch | u32 viewid origin |
  // u32 seqno | u32 origin, little-endian).
  const core::Label l{core::ViewId{0x0102, 3}, 4, 5};
  util::Encoder label;
  core::encode(label, l);
  EXPECT_EQ(label.bytes(), (util::Bytes{0x02, 0x01, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0,
                                        4, 0, 0, 0, 5, 0, 0, 0}));
  EXPECT_EQ(label.size(), core::encoded_size(l));
  util::Decoder dl(label.bytes());
  EXPECT_EQ(core::decode_label(dl), l);
  EXPECT_TRUE(dl.complete());

  const core::Summary x = sample_summary();
  util::Encoder shim;
  core::encode(shim, x);
  util::Encoder fixed;
  Codec<core::Summary>::encode(fixed, x, Version::kFixedWidth);
  EXPECT_EQ(shim.bytes(), fixed.bytes());
  EXPECT_EQ(core::encoded_size(x), Codec<core::Summary>::size(x, Version::kFixedWidth));

  util::Decoder d(shim.bytes());
  EXPECT_EQ(core::decode_summary(d), x);
  EXPECT_TRUE(d.complete());
}

TEST(Codec, GoldenV3Bytes) {
  // Hand-assembled expected bytes; a layout change must show up here as a
  // deliberate golden update, never as silent drift (see docs/WIRE.md).
  util::Encoder ev;
  Codec<core::ViewId>::encode(ev, core::ViewId{5, 2}, Version::kV3);
  EXPECT_EQ(ev.bytes(), (util::Bytes{0x05, 0x02}));

  // Label (epoch 300, id.origin 1, seqno 2, origin 3) from a fresh chain.
  // The chain's initial predecessor is a default Label (seqno 1), so the
  // deltas are 300, 1, 1, 3 — zigzagged 600, 2, 2, 6; 600 = 0xD8 0x04 in
  // LEB128.
  util::Encoder el;
  Codec<core::Label>::encode(el, core::Label{core::ViewId{300, 1}, 2, 3}, Version::kV3);
  EXPECT_EQ(el.bytes(), (util::Bytes{0xD8, 0x04, 0x02, 0x02, 0x06}));
}

TEST(Codec, ChainedLabelsCostOneOrTwoBytesEach) {
  // The delta-coding claim: consecutive labels of one stream differ only in
  // seqno, so each label after the first costs 4 svarints of mostly zero.
  std::vector<core::Label> run;
  for (std::uint32_t s = 1; s <= 100; ++s) run.push_back(lab(9, s, 2));
  LabelChain chain;
  std::size_t total = 0;
  for (const auto& l : run) total += chain.size(l);
  // First label pays for the epoch; the other 99 are 4 one-byte svarints.
  EXPECT_LE(total, 5 + 99 * 4u);
  // The fixed-width layout spends 20 bytes per label, unconditionally.
  EXPECT_EQ(Codec<core::Label>::size(run[0], Version::kFixedWidth) * run.size(), 2000u);
}

TEST(Codec, V3SummariesAreSmallerThanFixedWidth) {
  const core::Summary x = sample_summary();
  EXPECT_LT(Codec<core::Summary>::size(x, Version::kV3),
            Codec<core::Summary>::size(x, Version::kFixedWidth) / 2);
  // And the digest is far smaller still than either.
  const core::SummaryDigest g = core::digest(x);
  EXPECT_LT(Codec<core::SummaryDigest>::size(g, Version::kV3),
            Codec<core::Summary>::size(x, Version::kV3) / 2);
}

TEST(Codec, TruncatedV3InputSetsNotOk) {
  const core::Summary x = sample_summary();
  util::Encoder e;
  Codec<core::Summary>::encode(e, x, Version::kV3);
  for (std::size_t keep = 0; keep < e.size(); keep += 3) {
    util::Bytes cut(e.bytes().begin(),
                    e.bytes().begin() + static_cast<std::ptrdiff_t>(keep));
    util::Decoder d(cut);
    (void)Codec<core::Summary>::decode(d, Version::kV3);
    EXPECT_FALSE(d.complete()) << keep;
  }
}

}  // namespace
}  // namespace vsg::wire

// The core::ViewId / core::View serde round trips, through the codec that
// carries them (the fixed-width ViewId inside full summaries, v3 in frames).
namespace vsg::core {
namespace {

template <typename T>
T roundtrip_v3(const T& v) {
  util::Encoder e;
  wire::Codec<T>::encode(e, v, wire::Version::kV3);
  const auto buf = e.take();
  util::Decoder d(buf);
  const T back = wire::Codec<T>::decode(d, wire::Version::kV3);
  EXPECT_TRUE(d.complete());
  return back;
}

TEST(ViewId, SerdeRoundTrip) {
  EXPECT_EQ(roundtrip_v3(ViewId{77, 5}), (ViewId{77, 5}));
  util::Encoder e;
  wire::Codec<ViewId>::encode(e, ViewId{77, 5}, wire::Version::kFixedWidth);
  EXPECT_EQ(e.bytes(), (util::Bytes{77, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0}));
}

TEST(View, SerdeRoundTrip) {
  const View v{ViewId{9, 1}, {0, 2, 4}};
  EXPECT_EQ(roundtrip_v3(v), v);
}

}  // namespace
}  // namespace vsg::core
