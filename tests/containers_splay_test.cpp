//===- tests/containers_splay_test.cpp - SplayTree-only tests -------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "containers/RbTree.h"
#include "containers/SplayTree.h"
#include "machine/MachineModel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <vector>

using namespace brainy;
using namespace brainy::ds;

TEST(SplayTreeTest, AccessSplaysToRoot) {
  SplayTree T;
  for (Key K = 0; K != 100; ++K)
    T.insert(K);
  T.find(17);
  EXPECT_EQ(T.rootKey(), 17);
  T.find(93);
  EXPECT_EQ(T.rootKey(), 93);
  // A missed search splays the closest node on the path.
  T.find(1000);
  EXPECT_EQ(T.rootKey(), 99);
}

TEST(SplayTreeTest, RepeatedAccessBecomesCheap) {
  SplayTree T;
  Rng R(5);
  for (int I = 0; I != 2000; ++I)
    T.insert(static_cast<Key>(R.nextBelow(1u << 28)));
  Key Hot = T.at(1000);
  T.find(Hot);
  // Once splayed to the root, the next lookup touches exactly one node.
  OpResult Again = T.find(Hot);
  EXPECT_TRUE(Again.Found);
  EXPECT_EQ(Again.Cost, 1u);
}

TEST(SplayTreeTest, SkewNarrowsTheGapToRedBlack) {
  // The paper's Section 1 motivation claims splay trees beat red-black
  // trees on real-world (temporally skewed) data. In this machine model
  // the balanced tree keeps an edge (splay rotations are charged like
  // ordinary touches), but the self-adjusting property must show:
  // skewed access improves splay far more than it improves red-black,
  // monotonically narrowing the gap. See bench/ext_splay_tree and
  // EXPERIMENTS.md for the full comparison.
  auto Measure = [](auto &Tree, double HotRate, MachineModel &Model) {
    Rng R(9);
    std::vector<Key> Keys;
    for (int I = 0; I != 4000; ++I) {
      Key K = static_cast<Key>(R.nextBelow(1u << 28));
      Keys.push_back(K);
      Tree.insert(K);
    }
    Model.reset();
    for (int I = 0; I != 20000; ++I) {
      Key K = R.nextBool(HotRate) ? Keys[R.nextBelow(16)]
                                  : Keys[R.nextBelow(Keys.size())];
      Tree.find(K);
    }
    return Model.cycles();
  };
  MachineConfig Machine = MachineConfig::core2();
  double Ratio[2];
  int Idx = 0;
  for (double Hot : {0.0, 0.99}) {
    MachineModel SplayModel(Machine), RbModel(Machine);
    SplayTree Splay(8, &SplayModel);
    RbTree RB(8, &RbModel);
    double SplayCycles = Measure(Splay, Hot, SplayModel);
    double RbCycles = Measure(RB, Hot, RbModel);
    Ratio[Idx++] = SplayCycles / RbCycles;
  }
  // Under skew the splay/rb ratio must shrink substantially.
  EXPECT_LT(Ratio[1], Ratio[0] * 0.75);
}

TEST(SplayTreeTest, CursorSurvivesErase) {
  SplayTree T;
  for (Key K : {1, 2, 3, 4, 5})
    T.insert(K);
  T.iterate(2); // cursor now points at 3
  T.erase(3);
  OpResult R = T.iterate(1);
  EXPECT_TRUE(R.Found);
  EXPECT_TRUE(T.checkInvariants());
}

TEST(SplayTreeTest, LeanNodeFootprint) {
  SplayTree Splay(8);
  RbTree RB(8);
  for (Key K = 0; K != 64; ++K) {
    Splay.insert(K);
    RB.insert(K);
  }
  EXPECT_LT(Splay.simLiveBytes(), RB.simLiveBytes());
}
