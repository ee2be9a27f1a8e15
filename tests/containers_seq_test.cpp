//===- tests/containers_seq_test.cpp - Vector/List/Deque tests ------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "adt/Container.h"
#include "containers/Deque.h"
#include "containers/List.h"
#include "containers/Vector.h"
#include "machine/MachineModel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

using namespace brainy;
using namespace brainy::ds;

//===----------------------------------------------------------------------===//
// Vector
//===----------------------------------------------------------------------===//

TEST(VectorTest, PushAndAccess) {
  Vector V;
  for (Key K : {3, 1, 4, 1, 5})
    V.pushBack(K);
  EXPECT_EQ(V.size(), 5u);
  EXPECT_EQ(V.at(0), 3);
  EXPECT_EQ(V.at(4), 5);
}

TEST(VectorTest, PushFrontShiftsEverything) {
  Vector V;
  V.pushBack(1);
  V.pushBack(2);
  OpResult R = V.pushFront(0);
  EXPECT_TRUE(R.Found);
  EXPECT_EQ(R.Cost, 2u); // two elements shifted
  EXPECT_EQ(V.at(0), 0);
  EXPECT_EQ(V.at(2), 2);
}

TEST(VectorTest, InsertAtClampsAndShifts) {
  Vector V;
  for (Key K : {10, 20, 30})
    V.pushBack(K);
  V.insertAt(1, 15);
  EXPECT_EQ(V.at(1), 15);
  EXPECT_EQ(V.at(3), 30);
  V.insertAt(99, 40); // clamped to the tail
  EXPECT_EQ(V.at(4), 40);
}

TEST(VectorTest, FindCostIsElementsTouched) {
  Vector V;
  for (Key K = 0; K != 10; ++K)
    V.pushBack(K);
  OpResult Hit = V.find(4);
  EXPECT_TRUE(Hit.Found);
  EXPECT_EQ(Hit.Cost, 5u); // touched 0..4
  OpResult Miss = V.find(99);
  EXPECT_FALSE(Miss.Found);
  EXPECT_EQ(Miss.Cost, 10u); // full scan
}

TEST(VectorTest, EraseValueSearchesThenShifts) {
  Vector V;
  for (Key K : {7, 8, 9, 10})
    V.pushBack(K);
  OpResult R = V.eraseValue(8);
  EXPECT_TRUE(R.Found);
  EXPECT_EQ(R.Cost, 2u + 2u); // scan(7,8) + shift(9,10)
  EXPECT_EQ(V.size(), 3u);
  EXPECT_EQ(V.at(1), 9);
  EXPECT_FALSE(V.eraseValue(8).Found);
}

TEST(VectorTest, EraseAtOutOfRange) {
  Vector V;
  V.pushBack(1);
  EXPECT_FALSE(V.eraseAt(1).Found);
  EXPECT_TRUE(V.eraseAt(0).Found);
  EXPECT_TRUE(V.empty());
}

TEST(VectorTest, ResizeCountGrowsLogarithmically) {
  Vector V;
  for (Key K = 0; K != 1000; ++K)
    V.pushBack(K);
  // Initial capacity 8, doubling: 8,16,...,1024 -> 8 growths.
  EXPECT_EQ(V.resizeCount(), 8u);
}

TEST(VectorTest, IterateWrapsAndCounts) {
  Vector V;
  for (Key K : {1, 2, 3})
    V.pushBack(K);
  OpResult R = V.iterate(7);
  EXPECT_TRUE(R.Found);
  EXPECT_EQ(R.Cost, 7u);
  EXPECT_FALSE(Vector().iterate(3).Found);
}

TEST(VectorTest, ClearReleasesSimMemory) {
  Vector V(64);
  for (Key K = 0; K != 100; ++K)
    V.pushBack(K);
  EXPECT_GT(V.simLiveBytes(), 0u);
  V.clear();
  EXPECT_EQ(V.simLiveBytes(), 0u);
  EXPECT_EQ(V.size(), 0u);
  V.pushBack(5); // usable after clear
  EXPECT_EQ(V.at(0), 5);
}

TEST(VectorTest, ResizeBranchFiresOnGrowth) {
  MachineModel M(MachineConfig::core2());
  Vector V(8, &M);
  for (Key K = 0; K != 9; ++K)
    V.pushBack(K); // grows at 0 (cap 8 alloc) and at 8
  HardwareCounters C = M.counters();
  EXPECT_GT(C.Branches, 0u);
  EXPECT_GT(C.Allocations, 0u);
}

//===----------------------------------------------------------------------===//
// List
//===----------------------------------------------------------------------===//

TEST(ListTest, PushBothEnds) {
  List L;
  L.pushBack(2);
  L.pushFront(1);
  L.pushBack(3);
  EXPECT_EQ(L.size(), 3u);
  EXPECT_EQ(L.at(0), 1);
  EXPECT_EQ(L.at(1), 2);
  EXPECT_EQ(L.at(2), 3);
}

TEST(ListTest, ConstantTimeEndInsertion) {
  List L;
  for (Key K = 0; K != 100; ++K) {
    OpResult R = L.pushBack(K);
    EXPECT_EQ(R.Cost, 0u);
  }
}

TEST(ListTest, InsertAtWalks) {
  List L;
  for (Key K : {1, 2, 4})
    L.pushBack(K);
  OpResult R = L.insertAt(2, 3);
  EXPECT_EQ(R.Cost, 2u); // walked two nodes
  EXPECT_EQ(L.at(2), 3);
  L.insertAt(99, 5); // clamps to tail
  EXPECT_EQ(L.at(4), 5);
}

TEST(ListTest, EraseValueAndMisses) {
  List L;
  for (Key K : {5, 6, 7})
    L.pushBack(K);
  OpResult R = L.eraseValue(6);
  EXPECT_TRUE(R.Found);
  EXPECT_EQ(R.Cost, 2u);
  EXPECT_EQ(L.size(), 2u);
  EXPECT_FALSE(L.eraseValue(42).Found);
  EXPECT_EQ(L.at(1), 7);
}

TEST(ListTest, EraseAtBoundaries) {
  List L;
  for (Key K : {1, 2, 3})
    L.pushBack(K);
  EXPECT_TRUE(L.eraseAt(0).Found);
  EXPECT_EQ(L.at(0), 2);
  EXPECT_TRUE(L.eraseAt(1).Found);
  EXPECT_EQ(L.size(), 1u);
  EXPECT_FALSE(L.eraseAt(5).Found);
}

TEST(ListTest, IterateWrapsAcrossEnd) {
  List L;
  for (Key K : {1, 2})
    L.pushBack(K);
  EXPECT_EQ(L.iterate(5).Cost, 5u);
}

TEST(ListTest, CursorSurvivesErase) {
  List L;
  for (Key K : {1, 2, 3, 4})
    L.pushBack(K);
  L.iterate(2);          // cursor now at node 3
  L.eraseValue(3);       // erase the node under the cursor
  OpResult R = L.iterate(1);
  EXPECT_TRUE(R.Found);  // no crash, cursor moved on
  EXPECT_EQ(L.size(), 3u);
}

TEST(ListTest, SimMemoryPerNode) {
  List L(48); // elem 48 -> node 64 simulated bytes
  L.pushBack(1);
  L.pushBack(2);
  EXPECT_EQ(L.simLiveBytes(), 2u * 64);
  L.clear();
  EXPECT_EQ(L.simLiveBytes(), 0u);
}

//===----------------------------------------------------------------------===//
// Deque
//===----------------------------------------------------------------------===//

TEST(DequeTest, PushBothEndsO1) {
  Deque D;
  D.pushBack(2);
  OpResult R = D.pushFront(1);
  EXPECT_LE(R.Cost, 0u + 8); // no shifting (only a possible resize copy)
  D.pushBack(3);
  EXPECT_EQ(D.at(0), 1);
  EXPECT_EQ(D.at(1), 2);
  EXPECT_EQ(D.at(2), 3);
}

TEST(DequeTest, InsertShiftsTowardNearerEnd) {
  Deque D;
  for (Key K = 0; K != 10; ++K)
    D.pushBack(K);
  OpResult NearFront = D.insertAt(1, 100);
  EXPECT_EQ(NearFront.Cost, 1u);
  OpResult NearBack = D.insertAt(10, 200);
  EXPECT_EQ(NearBack.Cost, 1u);
  EXPECT_EQ(D.at(1), 100);
  EXPECT_EQ(D.at(10), 200);
}

TEST(DequeTest, MirrorsStdDequeUnderRandomOps) {
  Deque D;
  std::deque<Key> Ref;
  Rng R(77);
  for (int I = 0; I != 4000; ++I) {
    switch (R.nextBelow(6)) {
    case 0: {
      Key K = static_cast<Key>(R.nextBelow(1000));
      D.pushBack(K);
      Ref.push_back(K);
      break;
    }
    case 1: {
      Key K = static_cast<Key>(R.nextBelow(1000));
      D.pushFront(K);
      Ref.push_front(K);
      break;
    }
    case 2: {
      uint64_t Pos = R.nextBelow(Ref.size() + 1);
      Key K = static_cast<Key>(R.nextBelow(1000));
      D.insertAt(Pos, K);
      Ref.insert(Ref.begin() + static_cast<ptrdiff_t>(Pos), K);
      break;
    }
    case 3:
      if (!Ref.empty()) {
        uint64_t Pos = R.nextBelow(Ref.size());
        D.eraseAt(Pos);
        Ref.erase(Ref.begin() + static_cast<ptrdiff_t>(Pos));
      }
      break;
    case 4: {
      Key K = static_cast<Key>(R.nextBelow(1000));
      bool Mine = D.find(K).Found;
      bool Theirs = false;
      for (Key V : Ref)
        if (V == K) {
          Theirs = true;
          break;
        }
      ASSERT_EQ(Mine, Theirs);
      break;
    }
    default: {
      Key K = static_cast<Key>(R.nextBelow(1000));
      OpResult Mine = D.eraseValue(K);
      auto It = std::find(Ref.begin(), Ref.end(), K);
      ASSERT_EQ(Mine.Found, It != Ref.end());
      if (It != Ref.end())
        Ref.erase(It);
      break;
    }
    }
    ASSERT_EQ(D.size(), Ref.size());
  }
  for (size_t I = 0; I != Ref.size(); ++I)
    ASSERT_EQ(D.at(I), Ref[I]);
}

TEST(DequeTest, ResizePreservesOrder) {
  Deque D;
  for (Key K = 0; K != 5; ++K)
    D.pushFront(K);
  for (Key K = 0; K != 100; ++K)
    D.pushBack(1000 + K);
  EXPECT_GT(D.resizeCount(), 0u);
  EXPECT_EQ(D.at(0), 4);
  EXPECT_EQ(D.at(4), 0);
  EXPECT_EQ(D.at(5), 1000);
  EXPECT_EQ(D.at(104), 1099);
}

//===----------------------------------------------------------------------===//
// Cross-sequence property tests
//===----------------------------------------------------------------------===//

class SequenceEquivalence : public ::testing::TestWithParam<uint64_t> {};

/// Vector, List, and Deque must implement identical sequence semantics:
/// drive all three with the same operation tape and compare contents.
TEST_P(SequenceEquivalence, SameTapeSameContents) {
  uint64_t Seed = GetParam();
  Vector V;
  List L;
  Deque D;
  Rng R(Seed);
  for (int I = 0; I != 1500; ++I) {
    uint64_t Choice = R.nextBelow(6);
    Key K = static_cast<Key>(R.nextBelow(200));
    uint64_t Pos = R.nextBelow(V.size() + 1);
    switch (Choice) {
    case 0:
      V.pushBack(K);
      L.pushBack(K);
      D.pushBack(K);
      break;
    case 1:
      V.pushFront(K);
      L.pushFront(K);
      D.pushFront(K);
      break;
    case 2:
      V.insertAt(Pos, K);
      L.insertAt(Pos, K);
      D.insertAt(Pos, K);
      break;
    case 3: {
      OpResult A = V.eraseValue(K);
      OpResult B = L.eraseValue(K);
      OpResult C = D.eraseValue(K);
      ASSERT_EQ(A.Found, B.Found);
      ASSERT_EQ(A.Found, C.Found);
      break;
    }
    case 4:
      if (V.size()) {
        uint64_t P2 = Pos % V.size();
        V.eraseAt(P2);
        L.eraseAt(P2);
        D.eraseAt(P2);
      }
      break;
    default: {
      OpResult A = V.find(K);
      OpResult B = L.find(K);
      OpResult C = D.find(K);
      ASSERT_EQ(A.Found, B.Found);
      ASSERT_EQ(A.Found, C.Found);
      // Linear search from the front touches the same count everywhere.
      ASSERT_EQ(A.Cost, B.Cost);
      ASSERT_EQ(A.Cost, C.Cost);
      break;
    }
    }
    ASSERT_EQ(V.size(), L.size());
    ASSERT_EQ(V.size(), D.size());
  }
  for (uint64_t I = 0; I != V.size(); ++I) {
    ASSERT_EQ(V.at(I), L.at(I));
    ASSERT_EQ(V.at(I), D.at(I));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequenceEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

class ElementSizeSweep : public ::testing::TestWithParam<uint32_t> {};

/// Simulated memory must scale with the configured element size while the
/// semantics stay identical.
TEST_P(ElementSizeSweep, VectorFootprintScales) {
  uint32_t Elem = GetParam();
  Vector V(Elem);
  for (Key K = 0; K != 64; ++K)
    V.pushBack(K);
  EXPECT_GE(V.simLiveBytes(), 64u * V.elementBytes());
  EXPECT_EQ(V.elementBytes(), Elem < 8 ? 8u : Elem);
  EXPECT_EQ(V.find(63).Cost, 64u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ElementSizeSweep,
                         ::testing::Values(4, 8, 16, 32, 64, 128, 256));

//===----------------------------------------------------------------------===//
// Pinned event streams
//===----------------------------------------------------------------------===//

namespace {

/// What one container kind charges for playScript on a core2 MachineModel.
struct SeqPin {
  HardwareCounters Want;
  const char *Cycles; ///< MachineModel::cycles() as %a text
  uint64_t PeakBytes;
  uint64_t Resizes;
  uint64_t Cost; ///< summed OpResult::Cost
};

// Recorded while Vector and Deque each carried their own copy of the array
// plumbing, and List and HashTable one search loop per caller. The event
// order is part of each container's output: the cache and branch models
// are stateful, so moving one touch, branch, work charge, allocation or
// free changes these numbers and every bundle that races the kind.
SeqPin seqPin(DsKind Kind) {
  switch (Kind) {
  case DsKind::Vector:
    return {{.Instructions = 3438662, .L1Accesses = 1437683, .L1Misses = 510,
             .L2Accesses = 510, .L2Misses = 504, .Branches = 999190,
             .BranchMispredicts = 1409, .Allocations = 12, .Frees = 12},
            "0x1.a6d74f334af54p+21", /*PeakBytes=*/49152, /*Resizes=*/12,
            /*Cost=*/998807};
  case DsKind::List:
    return {{.Instructions = 3200454, .L1Accesses = 823603, .L1Misses = 4266,
             .L2Accesses = 4266, .L2Misses = 95, .Branches = 1357282,
             .BranchMispredicts = 1754, .Allocations = 1422, .Frees = 1422},
            "0x1.90014a666b6ddp+21", /*PeakBytes=*/35744, /*Resizes=*/0,
            /*Cost=*/819766};
  case DsKind::Deque:
    return {{.Instructions = 2871761, .L1Accesses = 810907, .L1Misses = 570,
             .L2Accesses = 570, .L2Misses = 562, .Branches = 685612,
             .BranchMispredicts = 1257, .Allocations = 12, .Frees = 12},
            "0x1.1abf4399a260ep+21", /*PeakBytes=*/49152, /*Resizes=*/12,
            /*Cost=*/685419};
  case DsKind::HashSet:
  default:
    return {{.Instructions = 407039, .L1Accesses = 180841, .L1Misses = 536,
             .L2Accesses = 536, .L2Misses = 536, .Branches = 45616,
             .BranchMispredicts = 2882, .Allocations = 893, .Frees = 893},
            "0x1.62ea51999c0b2p+19", /*PeakBytes=*/28672, /*Resizes=*/6,
            /*Cost=*/70740};
  }
}

/// One seeded script over every interface call: growth through several
/// resizes, pushFront, insertAt near the front, the middle and the back
/// (so a deque shifts both sides), eraseAt on both halves and past the
/// end, erase and find of keys likely present ([0, 1024)) and never present
/// ([4096, 8192)), iterate across many wraps, then clear and a little
/// regrowth for the destructor to free. Returns the summed cost.
uint64_t playScript(Container &C) {
  Rng R(2011);
  uint64_t Cost = 0;
  auto Present = [&] { return static_cast<Key>(R.nextBelow(1024)); };
  auto Absent = [&] { return static_cast<Key>(4096 + R.nextBelow(4096)); };
  for (int I = 0; I != 300; ++I)
    Cost += C.insert(Present()).Cost;
  for (int I = 0; I != 3000; ++I) {
    uint64_t Size = C.size();
    switch (R.nextBelow(16)) {
    case 0:
    case 1:
      Cost += C.insert(Present()).Cost;
      break;
    case 2:
      Cost += C.pushFront(Present()).Cost;
      break;
    case 3:
      Cost += C.insertAt(R.nextBelow(4), Present()).Cost;
      break;
    case 4:
      Cost += C.insertAt(Size / 2 + R.nextBelow(3), Present()).Cost;
      break;
    case 5: // the back, and now and then past it
      Cost += C.insertAt(Size + 2 - R.nextBelow(6), Present()).Cost;
      break;
    case 6:
      Cost += C.eraseAt(R.nextBelow(Size + 4)).Cost;
      break;
    case 7:
      Cost += C.erase(Present()).Cost;
      break;
    case 8:
      Cost += C.erase(Absent()).Cost;
      break;
    case 9:
    case 10:
      Cost += C.find(Present()).Cost;
      break;
    case 11:
      Cost += C.find(Absent()).Cost;
      break;
    default:
      Cost += C.iterate(1 + R.nextBelow(64)).Cost;
      break;
    }
  }
  C.clear();
  EXPECT_EQ(C.size(), 0u);
  for (int I = 0; I != 20; ++I)
    Cost += C.insert(Present()).Cost;
  return Cost;
}

std::string hexDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

class SeqPinTest : public ::testing::TestWithParam<DsKind> {};

} // namespace

TEST_P(SeqPinTest, EventStreamIsPinned) {
  MachineModel Model(MachineConfig::core2());
  // 16-byte elements: list and hash nodes grow to 32 and 24 bytes, and an
  // array copy moves two elements per cache block.
  std::unique_ptr<Container> C = makeContainer(GetParam(), 16, &Model);
  uint64_t Cost = playScript(*C);
  uint64_t PeakBytes = C->simPeakBytes();
  uint64_t Resizes = C->resizeCount();
  C.reset(); // the destructor's free is part of the stream
  SeqPin Pin = seqPin(GetParam());
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
  EXPECT_EQ(PeakBytes, Pin.PeakBytes);
  EXPECT_EQ(Resizes, Pin.Resizes);
  EXPECT_EQ(Cost, Pin.Cost);
}

INSTANTIATE_TEST_SUITE_P(Kinds, SeqPinTest,
                         ::testing::Values(DsKind::Vector, DsKind::List,
                                           DsKind::Deque, DsKind::HashSet),
                         [](const ::testing::TestParamInfo<DsKind> &Info) {
                           return std::string(dsKindName(Info.param));
                         });
