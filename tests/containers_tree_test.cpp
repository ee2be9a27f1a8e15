//===- tests/containers_tree_test.cpp - RbTree/AvlTree/SplayTree tests ----===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "containers/AvlTree.h"
#include "containers/RbTree.h"
#include "containers/SplayTree.h"
#include "machine/MachineModel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <string>

using namespace brainy;
using namespace brainy::ds;

//===----------------------------------------------------------------------===//
// Shared typed tests
//===----------------------------------------------------------------------===//

template <typename TreeT> class TreeTest : public ::testing::Test {};

using TreeTypes = ::testing::Types<RbTree, AvlTree, SplayTree>;
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
  // One full pass touches one node per key.
  EXPECT_EQ(T.iterate(6).Cost, 6u);
}

TYPED_TEST(TreeTest, EraseAtRemovesInOrderPosition) {
  TypeParam T(32);
  for (Key K : {10, 20, 30, 40})
    T.insert(K);
  EXPECT_TRUE(T.eraseAt(1).Found); // removes 20
  EXPECT_FALSE(T.find(20).Found);
  EXPECT_TRUE(T.find(30).Found);
  EXPECT_FALSE(T.eraseAt(9).Found);
  EXPECT_TRUE(T.checkInvariants());
  T.clear();
  EXPECT_EQ(T.size(), 0u);
  EXPECT_EQ(T.simLiveBytes(), 0u);
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
    switch (R.nextBelow(3)) {
    case 0:
      ASSERT_EQ(T.insert(K).Found, Ref.insert(K).second);
      break;
    case 1:
      ASSERT_EQ(T.erase(K).Found, Ref.erase(K) == 1);
      break;
    default:
      ASSERT_EQ(T.find(K).Found, Ref.count(K) == 1);
      break;
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

namespace {

/// What one tree charges for playTreeScript on a core2 MachineModel.
struct TreePin {
  HardwareCounters Want;
  const char *Cycles; ///< MachineModel::cycles() as %a text
  uint64_t PeakBytes;
  uint64_t Cost; ///< summed OpResult::Cost
};

template <typename TreeT> TreePin treePin();

// Recorded while each tree still carried its own copy of the descent,
// the successor walks and the node plumbing. The shared core must emit
// every touch, branch, work charge, allocation and free in the same
// order, so any change here changes every set/map/avl bundle.
template <> TreePin treePin<RbTree>() {
  return {{.Instructions = 1158410, .L1Accesses = 368409, .L1Misses = 46374,
           .L2Accesses = 46374, .L2Misses = 2, .Branches = 399590,
           .BranchMispredicts = 184950, .Allocations = 1934, .Frees = 1934},
          "0x1.257dce000907bp+22", /*PeakBytes=*/42960, /*Cost=*/201140};
}

template <> TreePin treePin<AvlTree>() {
  return {{.Instructions = 1218382, .L1Accesses = 365152, .L1Misses = 418,
           .L2Accesses = 418, .L2Misses = 418, .Branches = 399788,
           .BranchMispredicts = 183573, .Allocations = 1934, .Frees = 1934},
          "0x1.0f128399a0548p+22", /*PeakBytes=*/28640, /*Cost=*/201258};
}

template <> TreePin treePin<SplayTree>() {
  return {{.Instructions = 1773713, .L1Accesses = 519103, .L1Misses = 49429,
           .L2Accesses = 49429, .L2Misses = 2, .Branches = 431918,
           .BranchMispredicts = 203908, .Allocations = 1934, .Frees = 1934},
          "0x1.61a43b6674a6p+22", /*PeakBytes=*/42960, /*Cost=*/214153};
}

/// One seeded script over every tree operation: duplicate inserts, find
/// hits and misses, erases of present and absent keys (hundreds of them,
/// so two-child nodes among them), eraseAt in and out of range, iterate
/// across many wraps, and erases of the key under the iteration cursor.
/// A std::set mirrors the keys and follows the cursor by key: every tree
/// moves its cursor to the erased key's successor. Returns the summed
/// cost.
template <typename TreeT> uint64_t playTreeScript(TreeT &T) {
  Rng R(2011);
  std::set<Key> Ref;
  std::optional<Key> At; // next key iterate visits; none = restart
  uint64_t Cost = 0;
  auto Forget = [&](Key K) {
    if (At == K) {
      auto Next = Ref.upper_bound(K);
      At = Next == Ref.end() ? std::nullopt : std::optional<Key>(*Next);
    }
    Ref.erase(K);
  };
  auto Insert = [&](Key K) {
    Cost += T.insert(K).Cost;
    Ref.insert(K);
  };
  auto Erase = [&](Key K) {
    Cost += T.erase(K).Cost;
    Forget(K);
  };
  auto Present = [&] { return T.at(R.nextBelow(T.size())); };

  for (int I = 0; I != 1000; ++I)
    Insert(static_cast<Key>(R.nextBelow(4000)));
  for (int I = 0; I != 4000; ++I) {
    switch (R.nextBelow(12)) {
    case 0:
    case 1:
    case 2:
    case 3:
      Insert(static_cast<Key>(R.nextBelow(4000)));
      break;
    case 4:
      if (!Ref.empty())
        Insert(Present()); // duplicate
      break;
    case 5:
      if (!Ref.empty())
        Cost += T.find(Present()).Cost; // hit
      break;
    case 6: // mostly misses
      Cost += T.find(static_cast<Key>(R.nextBelow(8000))).Cost;
      break;
    case 7:
      Erase(static_cast<Key>(R.nextBelow(4000)));
      break;
    case 8:
      if (!Ref.empty())
        Erase(Present());
      break;
    case 9: {
      uint64_t Pos = R.nextBelow(T.size() + 4); // a few past the end
      if (Pos < T.size()) {
        Key K = T.at(Pos);
        Cost += T.eraseAt(Pos).Cost;
        Forget(K);
      } else {
        Cost += T.eraseAt(Pos).Cost;
      }
      break;
    }
    default: {
      uint64_t Steps = 1 + R.nextBelow(48);
      Cost += T.iterate(Steps).Cost;
      for (uint64_t S = 0; S != Steps && !Ref.empty(); ++S) {
        auto Next = Ref.upper_bound(At ? *At : *Ref.begin());
        At = Next == Ref.end() ? std::nullopt : std::optional<Key>(*Next);
      }
      if (At && R.nextBool(0.5))
        Erase(*At); // the node under the cursor
      break;
    }
    }
  }
  EXPECT_EQ(T.size(), Ref.size());
  EXPECT_TRUE(T.checkInvariants());
  T.clear();
  return Cost;
}

std::string hexDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

} // namespace

TYPED_TEST(TreeTest, EventStreamIsPinned) {
  MachineModel Model(MachineConfig::core2());
  // 16-byte elements make red-black and splay nodes 48 bytes, so some
  // nodes straddle a cache block and a wider touch shows in the counts.
  TypeParam T(16, &Model);
  uint64_t Cost = playTreeScript(T);
  TreePin Pin = treePin<TypeParam>();
  HardwareCounters Got = Model.counters();
  EXPECT_EQ(Got.Instructions, Pin.Want.Instructions);
  EXPECT_EQ(Got.L1Accesses, Pin.Want.L1Accesses);
  EXPECT_EQ(Got.L1Misses, Pin.Want.L1Misses);
  EXPECT_EQ(Got.L2Accesses, Pin.Want.L2Accesses);
  EXPECT_EQ(Got.L2Misses, Pin.Want.L2Misses);
  EXPECT_EQ(Got.Branches, Pin.Want.Branches);
  EXPECT_EQ(Got.BranchMispredicts, Pin.Want.BranchMispredicts);
  EXPECT_EQ(Got.Allocations, Pin.Want.Allocations);
  EXPECT_EQ(Got.Frees, Pin.Want.Frees);
  EXPECT_EQ(hexDouble(Got.Cycles), Pin.Cycles);
  EXPECT_EQ(hexDouble(Model.cycles()), Pin.Cycles);
  EXPECT_EQ(T.simPeakBytes(), Pin.PeakBytes);
  EXPECT_EQ(Cost, Pin.Cost);
}

//===----------------------------------------------------------------------===//
// Structure-specific expectations
//===----------------------------------------------------------------------===//

template <typename TreeT> class BalancedTreeTest : public ::testing::Test {};

// A splay tree has no height bound: sorted inserts leave it a path.
using BalancedTreeTypes = ::testing::Types<RbTree, AvlTree>;
TYPED_TEST_SUITE(BalancedTreeTest, BalancedTreeTypes);

TYPED_TEST(BalancedTreeTest, SortedInsertionStaysBalanced) {
  TypeParam T;
  for (Key K = 0; K != 4096; ++K)
    T.insert(K);
  EXPECT_TRUE(T.checkInvariants());
  // Both trees guarantee O(log n) height; RB allows ~2x log2, AVL ~1.44x.
  EXPECT_LE(T.height(), 26u);
  EXPECT_EQ(T.size(), 4096u);
}

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
  SplayTree Splay;
  std::set<Key> Ref;
  Rng R(GetParam());
  for (int I = 0; I != 300; ++I) {
    Key K = static_cast<Key>(R.nextBelow(10000));
    RB.insert(K);
    AVL.insert(K);
    Splay.insert(K);
    Ref.insert(K);
  }
  while (!Ref.empty()) {
    uint64_t Pos = R.nextBelow(Ref.size());
    auto It = Ref.begin();
    std::advance(It, Pos);
    Key Expected = *It;
    ASSERT_EQ(RB.at(Pos), Expected);
    ASSERT_EQ(AVL.at(Pos), Expected);
    ASSERT_EQ(Splay.at(Pos), Expected);
    ASSERT_TRUE(RB.eraseAt(Pos).Found);
    ASSERT_TRUE(AVL.eraseAt(Pos).Found);
    ASSERT_TRUE(Splay.eraseAt(Pos).Found);
    Ref.erase(It);
    ASSERT_TRUE(RB.checkInvariants());
    ASSERT_TRUE(AVL.checkInvariants());
    ASSERT_TRUE(Splay.checkInvariants());
  }
  EXPECT_TRUE(RB.empty());
  EXPECT_TRUE(AVL.empty());
  EXPECT_TRUE(Splay.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeSeedSweep,
                         ::testing::Values(11, 22, 33, 44, 55));
