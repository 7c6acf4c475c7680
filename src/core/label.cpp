#include "core/label.hpp"

#include <sstream>

#include "core/codec.hpp"

namespace vsg::core {

std::string to_string(const Label& l) {
  std::ostringstream os;
  os << "<" << to_string(l.id) << "#" << l.seqno << "@" << l.origin << ">";
  return os.str();
}

// The VSTOTO payload body layout of a label (core/codec.hpp).

void encode(util::Encoder& e, const Label& l) {
  wire::Codec<Label>::encode(e, l, wire::Version::kFixedWidth);
}

Label decode_label(util::Decoder& d) {
  return wire::Codec<Label>::decode(d, wire::Version::kFixedWidth);
}

}  // namespace vsg::core
