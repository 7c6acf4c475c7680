#pragma once

// Labels (Figure 8): L = G x N x P with selectors id, seqno, origin,
// ordered lexicographically. Each client value submitted in a view gets a
// system-wide unique label; the VStoTO total order is an order on labels.

#include <compare>
#include <cstdint>
#include <string>

#include "core/types.hpp"
#include "util/serde.hpp"

namespace vsg::core {

struct Label {
  ViewId id;               // viewid at the origin when the value arrived
  std::uint32_t seqno = 1;  // per-(processor, view) sequence number, from 1
  ProcId origin = 0;

  auto operator<=>(const Label&) const = default;
};

std::string to_string(const Label& l);

/// A label in the VSTOTO payload body layout: wire::Codec<Label> under
/// wire::Version::kFixedWidth (docs/WIRE.md, "VSTOTO payload layer").
void encode(util::Encoder& e, const Label& l);
Label decode_label(util::Decoder& d);

/// Exact size of encode(e, l): viewid + seqno + origin.
constexpr std::size_t encoded_size(const Label&) noexcept { return 12 + 4 + 4; }

}  // namespace vsg::core
