#pragma once

// Domain types from the paper (Section 4): view identifiers, views, values.
//
// G, the totally ordered set of view identifiers, is realized as
// (epoch, origin) pairs ordered lexicographically — exactly the scheme the
// paper suggests for the Cristian-Schmuck implementation ("viewids have a
// procid as low-order part and a stable epoch as high-order part"), which
// also gives system-wide uniqueness. The initial identifier g0 = (0, 0) is
// minimal.

#include <compare>
#include <cstdint>
#include <set>
#include <string>

#include "util/types.hpp"

namespace vsg::core {

/// A client data value (the paper's set A). Opaque application payload.
using Value = std::string;

/// View identifier; element of the totally ordered set G.
struct ViewId {
  std::uint64_t epoch = 0;
  ProcId origin = 0;

  auto operator<=>(const ViewId&) const = default;

  /// The paper's g0: the minimal identifier, carried by the initial view.
  static constexpr ViewId initial() noexcept { return ViewId{0, 0}; }
};

/// A view: identifier plus membership set (the paper's `views = G x P(P)`).
struct View {
  ViewId id;
  std::set<ProcId> members;

  bool operator==(const View&) const = default;
  bool contains(ProcId p) const { return members.count(p) != 0; }
};

std::string to_string(const ViewId& g);
std::string to_string(const View& v);
std::string to_string(const std::set<ProcId>& s);

/// The distinguished initial view v0 = (g0, P0). P0 = {0..n0-1}: the first
/// n0 processors form the group at time zero; the rest start with view
/// undefined (the paper's hybrid initial-view rule, Section 1 item 3).
View initial_view(int n0);

}  // namespace vsg::core
