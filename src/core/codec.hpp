#pragma once

// The wire codec API (docs/WIRE.md).
//
// Codec<T> is the single switch point for the byte layout of one wire type:
// each specialization provides the (size, encode, decode) triple for every
// layout the type has. Two layouts exist:
//
//   kV3        — the frame layout (frame version byte 3, the only one this
//                build sends or accepts): LEB128 counters and lengths,
//                zigzag svarint deltas for label/viewid components (labels
//                in a list are delta-coded against their predecessor). The
//                9-byte frame header itself stays fixed-width so the
//                checksum can be back-patched in place.
//   kFixedWidth — fixed-width little-endian fields. Never a frame version:
//                it is the VSTOTO payload body layout of labeled values and
//                full summaries (core::encode / decode_label /
//                decode_summary), kept byte for byte because the pinned
//                fingerprints hash those bytes.
//
// Codec sizes are exact: Codec<T>::size(x, w) equals the bytes encode
// produces, so a measured Encoder::reserve still costs one allocation.
//
// The namespace is vsg::wire (not core or membership): layouts cross every
// layer, and membership reopens it to specialize Codec for its frame header.

#include <cstdint>
#include <optional>
#include <string>

#include "core/label.hpp"
#include "core/summary.hpp"
#include "core/types.hpp"
#include "util/serde.hpp"

namespace vsg::wire {

/// A byte layout (docs/WIRE.md). kV3 is the frame layout and its value is
/// the frame version byte; kFixedWidth is the VSTOTO payload body layout
/// and never appears as a frame version (2 is its historical number: the
/// retired v2 frames carried the same fixed-width bodies).
enum class Version : std::uint8_t { kFixedWidth = 2, kV3 = 3 };

const char* to_string(Version w) noexcept;

/// VSTOTO payload tags (the byte below the frame layer; docs/WIRE.md,
/// "VSTOTO payload layer"). Hoisted here because the membership layer peeks
/// at them — without decoding — to classify state-exchange bytes for the
/// ring.state_exchange_bytes.{summary,digest,delta} counters.
inline constexpr std::uint8_t kPayloadValue = 1;
inline constexpr std::uint8_t kPayloadSummary = 2;
inline constexpr std::uint8_t kPayloadDigest = 3;
inline constexpr std::uint8_t kPayloadDelta = 4;

/// The versioned codec for one wire type. Specializations provide:
///   static std::size_t size(const T& x, Version w);    // exact
///   static void encode(util::Encoder& e, const T& x, Version w);
///   static T decode(util::Decoder& d, Version w);      // defensive: d.ok()
/// decode never throws; callers check the decoder's ok()/complete() once
/// per message (the outcome-API wrappers in each layer do this).
template <typename T>
struct Codec;

/// Outcome of a non-throwing decode: engaged value or a reject reason
/// (membership::decode_packet_ex, vstoto::decode_message_ex).
template <typename T>
struct DecodeOutcome {
  std::optional<T> value;
  std::string error;
  bool ok() const noexcept { return value.has_value(); }
};

template <>
struct Codec<core::ViewId> {
  static std::size_t size(const core::ViewId& g, Version w);
  static void encode(util::Encoder& e, const core::ViewId& g, Version w);
  static core::ViewId decode(util::Decoder& d, Version w);
};

/// Views travel only in frames (ViewAnnounce), so View has the kV3 layout
/// alone; `w` must be kV3.
template <>
struct Codec<core::View> {
  static std::size_t size(const core::View& v, Version w);
  static void encode(util::Encoder& e, const core::View& v, Version w);
  static core::View decode(util::Decoder& d, Version w);
};

template <>
struct Codec<core::Label> {
  static std::size_t size(const core::Label& l, Version w);
  static void encode(util::Encoder& e, const core::Label& l, Version w);
  static core::Label decode(util::Decoder& d, Version w);
};

template <>
struct Codec<core::Summary> {
  static std::size_t size(const core::Summary& x, Version w);
  static void encode(util::Encoder& e, const core::Summary& x, Version w);
  static core::Summary decode(util::Decoder& d, Version w);
};

/// Digest and delta payloads exist only in the digest/delta exchange; their
/// layout is varint-coded whatever `w` says (there is no fixed-width one).
template <>
struct Codec<core::SummaryDigest> {
  static std::size_t size(const core::SummaryDigest& g, Version w);
  static void encode(util::Encoder& e, const core::SummaryDigest& g, Version w);
  static core::SummaryDigest decode(util::Decoder& d, Version w);
};

template <>
struct Codec<core::SummaryDelta> {
  static std::size_t size(const core::SummaryDelta& dl, Version w);
  static void encode(util::Encoder& e, const core::SummaryDelta& dl, Version w);
  static core::SummaryDelta decode(util::Decoder& d, Version w);
};

/// Delta-coded label lists (kV3): each label is four zigzag svarints relative
/// to its predecessor (epoch, viewid origin, seqno, origin), starting from
/// the all-zero label. Exposed for the token/summary codecs and the mirror
/// property tests.
struct LabelChain {
  core::Label prev;
  std::size_t size(const core::Label& l) noexcept;
  void encode(util::Encoder& e, const core::Label& l);
  core::Label decode(util::Decoder& d);
};

}  // namespace vsg::wire
