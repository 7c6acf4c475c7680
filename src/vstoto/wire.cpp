#include "vstoto/wire.hpp"

namespace vsg::vstoto {

namespace {

// Digest and delta payloads exist only in the digest/delta exchange and
// have no fixed-width layout, so their bodies are always varint-coded
// (wire::Version::kV3). Labeled values and full summaries keep the
// fixed-width payload body layout (core::encode).
constexpr wire::Version kCompactBody = wire::Version::kV3;

}  // namespace

std::size_t encoded_message_size(const Message& m) {
  if (const auto* lv = std::get_if<LabeledValue>(&m))
    return 1 + core::encoded_size(lv->label) + 4 + lv->value.size();
  if (const auto* x = std::get_if<core::Summary>(&m))
    return 1 + core::encoded_size(*x);
  if (const auto* g = std::get_if<core::SummaryDigest>(&m))
    return 1 + wire::Codec<core::SummaryDigest>::size(*g, kCompactBody);
  return 1 + wire::Codec<core::SummaryDelta>::size(
                 std::get<core::SummaryDelta>(m), kCompactBody);
}

util::Buffer encode_message(const Message& m) {
  util::Encoder e;
  e.reserve(encoded_message_size(m));
  if (const auto* lv = std::get_if<LabeledValue>(&m)) {
    e.u8(kTagLabeledValue);
    core::encode(e, lv->label);
    e.str(lv->value);
  } else if (const auto* x = std::get_if<core::Summary>(&m)) {
    e.u8(kTagSummary);
    core::encode(e, *x);
  } else if (const auto* g = std::get_if<core::SummaryDigest>(&m)) {
    e.u8(kTagDigest);
    wire::Codec<core::SummaryDigest>::encode(e, *g, kCompactBody);
  } else {
    e.u8(kTagDelta);
    wire::Codec<core::SummaryDelta>::encode(
        e, std::get<core::SummaryDelta>(m), kCompactBody);
  }
  return e.finish();
}

wire::DecodeOutcome<Message> decode_message_ex(util::BufferView bytes) {
  // util::unchecked_decode() re-enables the historical accept-anything bug
  // (truncated input decodes as a zero-filled message) for chaos-oracle demos.
  const bool strict = !util::unchecked_decode();
  wire::DecodeOutcome<Message> out;
  if (bytes.empty()) {
    out.error = "empty VSTOTO payload";
    return out;
  }
  util::Decoder d(bytes);
  const std::uint8_t tag = d.u8();
  switch (tag) {
    case kTagLabeledValue: {
      LabeledValue lv;
      lv.label = core::decode_label(d);
      lv.value = d.str();
      if (strict && !d.complete()) {
        out.error = "truncated or oversized labeled-value payload";
        return out;
      }
      out.value = Message{std::move(lv)};
      return out;
    }
    case kTagSummary: {
      core::Summary x = core::decode_summary(d);
      if (strict && !d.complete()) {
        out.error = "truncated or oversized summary payload";
        return out;
      }
      out.value = Message{std::move(x)};
      return out;
    }
    case kTagDigest: {
      core::SummaryDigest g =
          wire::Codec<core::SummaryDigest>::decode(d, kCompactBody);
      if (strict && !d.complete()) {
        out.error = "truncated or oversized digest payload";
        return out;
      }
      out.value = Message{std::move(g)};
      return out;
    }
    case kTagDelta: {
      core::SummaryDelta dl =
          wire::Codec<core::SummaryDelta>::decode(d, kCompactBody);
      if (strict && !d.complete()) {
        out.error = "truncated or oversized delta payload";
        return out;
      }
      out.value = Message{std::move(dl)};
      return out;
    }
    default:
      out.error = "unknown VSTOTO payload tag " + std::to_string(tag) +
                  " (known tags 1..4; see docs/WIRE.md)";
      return out;
  }
}

std::optional<Message> decode_message(util::BufferView bytes) {
  return std::move(decode_message_ex(bytes).value);
}

std::shared_ptr<const Message> DecodeCache::decode(const util::Buffer& payload) {
  // Identity-keyed caching is only sound for real shared storage (id != 0),
  // and only while strict decoding is on — the chaos injection changes what
  // the same bytes decode to, so a warm cache would mask the injected bug.
  const bool cacheable = payload.id() != 0 && !util::unchecked_decode();
  const Key key{payload.id(), payload.storage_offset(), payload.size()};
  if (cacheable) {
    const auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      ++hits_;
      return it->second;
    }
  }
  ++misses_;
  auto decoded = decode_message_ex(payload.view());
  if (!decoded.ok()) return nullptr;  // malformed: not cached
  auto msg = std::make_shared<const Message>(std::move(*decoded.value));
  if (cacheable) {
    if (order_.size() >= capacity_ && !order_.empty()) {
      by_key_.erase(order_.front());
      order_.pop_front();
    }
    by_key_.emplace(key, msg);
    order_.push_back(key);
  }
  return msg;
}

}  // namespace vsg::vstoto
