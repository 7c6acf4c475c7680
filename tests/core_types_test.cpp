// ViewId / View: total order, initial view (serde round trips live in
// core_codec_test.cpp, beside the codec that carries them).

#include <gtest/gtest.h>

#include "core/types.hpp"

namespace vsg::core {
namespace {

TEST(ViewId, LexicographicOrder) {
  EXPECT_LT((ViewId{1, 0}), (ViewId{2, 0}));
  EXPECT_LT((ViewId{1, 2}), (ViewId{2, 0})) << "epoch dominates";
  EXPECT_LT((ViewId{1, 0}), (ViewId{1, 1})) << "origin breaks ties";
  EXPECT_EQ((ViewId{3, 2}), (ViewId{3, 2}));
}

TEST(ViewId, InitialIsMinimal) {
  const ViewId g0 = ViewId::initial();
  EXPECT_LE(g0, (ViewId{0, 0}));
  EXPECT_LT(g0, (ViewId{0, 1}));
  EXPECT_LT(g0, (ViewId{1, 0}));
}

TEST(View, ContainsChecksMembership) {
  View v{ViewId{1, 0}, {1, 3, 5}};
  EXPECT_TRUE(v.contains(3));
  EXPECT_FALSE(v.contains(2));
}

TEST(View, InitialViewHasFirstN0Processors) {
  const View v0 = initial_view(3);
  EXPECT_EQ(v0.id, ViewId::initial());
  EXPECT_EQ(v0.members, (std::set<ProcId>{0, 1, 2}));
}

TEST(View, EqualityIsStructural) {
  View a{ViewId{1, 0}, {0, 1}};
  View b{ViewId{1, 0}, {0, 1}};
  View c{ViewId{1, 0}, {0, 2}};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ToString, HumanReadableForms) {
  EXPECT_EQ(to_string(ViewId{2, 1}), "g(2.1)");
  EXPECT_EQ(to_string(std::set<ProcId>{0, 2}), "{0,2}");
  EXPECT_EQ(to_string(View{ViewId{2, 1}, {0, 2}}), "g(2.1){0,2}");
}

}  // namespace
}  // namespace vsg::core
