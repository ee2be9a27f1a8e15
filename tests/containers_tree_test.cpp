//===- tests/containers_tree_test.cpp - RbTree/AvlTree tests --------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "containers/AvlTree.h"
#include "containers/RbTree.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace brainy;
using namespace brainy::ds;

//===----------------------------------------------------------------------===//
// Shared typed tests
//===----------------------------------------------------------------------===//

template <typename TreeT> class TreeTest : public ::testing::Test {};

using TreeTypes = ::testing::Types<RbTree, AvlTree>;
TYPED_TEST_SUITE(TreeTest, TreeTypes);

TYPED_TEST(TreeTest, InsertFindErase) {
  TypeParam T;
  EXPECT_TRUE(T.insert(5).Found);
  EXPECT_TRUE(T.insert(3).Found);
  EXPECT_TRUE(T.insert(8).Found);
  EXPECT_FALSE(T.insert(5).Found); // duplicate rejected
  EXPECT_EQ(T.size(), 3u);
  EXPECT_TRUE(T.find(3).Found);
  EXPECT_FALSE(T.find(4).Found);
  EXPECT_TRUE(T.erase(3).Found);
  EXPECT_FALSE(T.erase(3).Found);
  EXPECT_EQ(T.size(), 2u);
  EXPECT_TRUE(T.checkInvariants());
}

TYPED_TEST(TreeTest, SortedIteration) {
  TypeParam T;
  for (Key K : {9, 1, 8, 2, 7, 3})
    T.insert(K);
  Key Expected[] = {1, 2, 3, 7, 8, 9};
  for (unsigned I = 0; I != 6; ++I)
    EXPECT_EQ(T.at(I), Expected[I]);
}

TYPED_TEST(TreeTest, EraseAtRemovesInOrderPosition) {
  TypeParam T;
  for (Key K : {10, 20, 30, 40})
    T.insert(K);
  EXPECT_TRUE(T.eraseAt(1).Found); // removes 20
  EXPECT_FALSE(T.find(20).Found);
  EXPECT_TRUE(T.find(30).Found);
  EXPECT_FALSE(T.eraseAt(9).Found);
  EXPECT_TRUE(T.checkInvariants());
}

TYPED_TEST(TreeTest, FindCostBoundedByHeight) {
  TypeParam T;
  Rng R(3);
  for (int I = 0; I != 1024; ++I)
    T.insert(static_cast<Key>(R.nextBelow(1u << 28)));
  uint64_t H = T.height();
  OpResult Miss = T.find(-1);
  EXPECT_LE(Miss.Cost, H);
  EXPECT_GE(H, 10u); // log2(1024)
}

TYPED_TEST(TreeTest, RandomChurnKeepsInvariants) {
  TypeParam T;
  std::set<Key> Ref;
  Rng R(99);
  for (int I = 0; I != 6000; ++I) {
    Key K = static_cast<Key>(R.nextBelow(500));
    if (R.nextBool(0.5)) {
      OpResult Res = T.insert(K);
      bool RefInserted = Ref.insert(K).second;
      ASSERT_EQ(Res.Found, RefInserted);
    } else {
      OpResult Res = T.erase(K);
      ASSERT_EQ(Res.Found, Ref.erase(K) == 1);
    }
    ASSERT_EQ(T.size(), Ref.size());
    if (I % 500 == 0) {
      ASSERT_TRUE(T.checkInvariants());
    }
  }
  ASSERT_TRUE(T.checkInvariants());
  // Full content check.
  uint64_t I = 0;
  for (Key K : Ref)
    ASSERT_EQ(T.at(I++), K);
}

TYPED_TEST(TreeTest, IterateVisitsSortedAndWraps) {
  TypeParam T;
  for (Key K : {4, 2, 6})
    T.insert(K);
  // One pass + wrap: 2,4,6,2.
  EXPECT_EQ(T.iterate(3).Cost, 3u);
  EXPECT_EQ(T.iterate(1).Cost, 1u);
  EXPECT_TRUE(T.checkInvariants());
}

TYPED_TEST(TreeTest, ClearEmptiesAndReleases) {
  TypeParam T(32);
  for (Key K = 0; K != 50; ++K)
    T.insert(K);
  EXPECT_GT(T.simLiveBytes(), 0u);
  T.clear();
  EXPECT_EQ(T.size(), 0u);
  EXPECT_EQ(T.simLiveBytes(), 0u);
  EXPECT_TRUE(T.insert(1).Found);
}

TYPED_TEST(TreeTest, SortedInsertionStaysBalanced) {
  TypeParam T;
  for (Key K = 0; K != 4096; ++K)
    T.insert(K);
  EXPECT_TRUE(T.checkInvariants());
  // Both trees guarantee O(log n) height; RB allows ~2x log2, AVL ~1.44x.
  EXPECT_LE(T.height(), 26u);
  EXPECT_EQ(T.size(), 4096u);
}

//===----------------------------------------------------------------------===//
// Structure-specific expectations
//===----------------------------------------------------------------------===//

TEST(TreeContrastTest, AvlIsTighterOnSortedInsertion) {
  RbTree RB;
  AvlTree AVL;
  for (Key K = 0; K != 4096; ++K) {
    RB.insert(K);
    AVL.insert(K);
  }
  // AVL height is the information-theoretic minimum + ~1; RB is looser.
  EXPECT_LE(AVL.height(), 13u);
  EXPECT_GT(RB.height(), AVL.height());
}

TEST(TreeContrastTest, AvlNodesAreLeaner) {
  RbTree RB(8);
  AvlTree AVL(8);
  for (Key K = 0; K != 100; ++K) {
    RB.insert(K);
    AVL.insert(K);
  }
  // Compact AVL layout vs the four-word red-black node base.
  EXPECT_LT(AVL.simLiveBytes(), RB.simLiveBytes());
}

class TreeSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TreeSeedSweep, EraseAtAgreesWithReference) {
  RbTree RB;
  AvlTree AVL;
  std::set<Key> Ref;
  Rng R(GetParam());
  for (int I = 0; I != 300; ++I) {
    Key K = static_cast<Key>(R.nextBelow(10000));
    RB.insert(K);
    AVL.insert(K);
    Ref.insert(K);
  }
  while (!Ref.empty()) {
    uint64_t Pos = R.nextBelow(Ref.size());
    auto It = Ref.begin();
    std::advance(It, Pos);
    Key Expected = *It;
    ASSERT_EQ(RB.at(Pos), Expected);
    ASSERT_EQ(AVL.at(Pos), Expected);
    ASSERT_TRUE(RB.eraseAt(Pos).Found);
    ASSERT_TRUE(AVL.eraseAt(Pos).Found);
    Ref.erase(It);
    ASSERT_TRUE(RB.checkInvariants());
    ASSERT_TRUE(AVL.checkInvariants());
  }
  EXPECT_TRUE(RB.empty());
  EXPECT_TRUE(AVL.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeSeedSweep,
                         ::testing::Values(11, 22, 33, 44, 55));
