#include "core/types.hpp"

#include <sstream>


namespace vsg::core {

std::string to_string(const ViewId& g) {
  std::ostringstream os;
  os << "g(" << g.epoch << "." << g.origin << ")";
  return os.str();
}

std::string to_string(const std::set<ProcId>& s) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (ProcId p : s) {
    if (!first) os << ",";
    os << p;
    first = false;
  }
  os << "}";
  return os.str();
}

std::string to_string(const View& v) {
  return to_string(v.id) + to_string(v.members);
}

View initial_view(int n0) {
  View v;
  v.id = ViewId::initial();
  for (ProcId p = 0; p < n0; ++p) v.members.insert(p);
  return v;
}

}  // namespace vsg::core
