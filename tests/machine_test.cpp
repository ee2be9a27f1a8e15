//===- tests/machine_test.cpp - microarchitecture simulator tests ---------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "machine/BranchPredictor.h"
#include "machine/CacheSim.h"
#include "machine/MachineModel.h"
#include "machine/SimAllocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <list>
#include <string>
#include <vector>

using namespace brainy;

//===----------------------------------------------------------------------===//
// SimAllocator
//===----------------------------------------------------------------------===//

TEST(SimAllocatorTest, AddressesAreAlignedAndDisjoint) {
  SimAllocator A(0x1000);
  uint64_t P1 = A.allocate(24);
  uint64_t P2 = A.allocate(24);
  EXPECT_EQ(P1 % 16, 0u);
  EXPECT_EQ(P2 % 16, 0u);
  EXPECT_GE(P2, P1 + 24);
}

TEST(SimAllocatorTest, FreeListReuseIsLifo) {
  SimAllocator A;
  uint64_t P1 = A.allocate(32);
  uint64_t P2 = A.allocate(32);
  A.release(P1, 32);
  A.release(P2, 32);
  EXPECT_EQ(A.allocate(32), P2); // most recently freed first
  EXPECT_EQ(A.allocate(32), P1);
}

TEST(SimAllocatorTest, DistinctSizeClassesDoNotMix) {
  SimAllocator A;
  uint64_t P1 = A.allocate(16);
  A.release(P1, 16);
  uint64_t P2 = A.allocate(48);
  EXPECT_NE(P1, P2);
}

TEST(SimAllocatorTest, LiveAndPeakTracking) {
  SimAllocator A;
  uint64_t P1 = A.allocate(16);
  uint64_t P2 = A.allocate(16);
  EXPECT_EQ(A.liveBytes(), 32u);
  EXPECT_EQ(A.peakBytes(), 32u);
  A.release(P1, 16);
  EXPECT_EQ(A.liveBytes(), 16u);
  EXPECT_EQ(A.peakBytes(), 32u);
  A.release(P2, 16);
  EXPECT_EQ(A.liveBytes(), 0u);
  EXPECT_EQ(A.allocationCount(), 2u);
}

TEST(SimAllocatorTest, SizesRoundUpTo16) {
  SimAllocator A;
  A.allocate(1);
  EXPECT_EQ(A.liveBytes(), 16u);
}

//===----------------------------------------------------------------------===//
// CacheSim
//===----------------------------------------------------------------------===//

TEST(CacheSimTest, ColdMissThenHit) {
  CacheSim C(CacheGeometry{1024, 2, 64});
  EXPECT_FALSE(C.access(0x100));
  EXPECT_TRUE(C.access(0x100));
  EXPECT_TRUE(C.access(0x13f)); // same 64B block
  EXPECT_EQ(C.misses(), 1u);
  EXPECT_EQ(C.hits(), 2u);
}

TEST(CacheSimTest, LruEvictionWithinSet) {
  // 2-way, 64B blocks, 1024B total -> 8 sets. Three blocks mapping to the
  // same set exceed the ways and evict the least recently used.
  CacheSim C(CacheGeometry{1024, 2, 64});
  uint64_t SetStride = 8 * 64;
  uint64_t A = 0, B = SetStride, D = 2 * SetStride;
  C.access(A);
  C.access(B);
  C.access(A);      // A most recent
  C.access(D);      // evicts B
  EXPECT_TRUE(C.access(A));
  EXPECT_FALSE(C.access(B)); // was evicted
}

TEST(CacheSimTest, CapacityBehaviour) {
  CacheSim C(CacheGeometry{32 * 1024, 8, 64});
  // A working set the size of the cache stays resident.
  for (int Round = 0; Round != 3; ++Round)
    for (uint64_t Addr = 0; Addr < 32 * 1024; Addr += 64)
      C.access(Addr);
  double Rate = C.missRate();
  EXPECT_LT(Rate, 0.34); // only the cold round misses
  // A working set 8x the cache thrashes.
  C.reset();
  for (int Round = 0; Round != 3; ++Round)
    for (uint64_t Addr = 0; Addr < 256 * 1024; Addr += 64)
      C.access(Addr);
  EXPECT_GT(C.missRate(), 0.99);
}

TEST(CacheSimTest, AccessRangeCountsSpannedBlocks) {
  CacheSim C(CacheGeometry{1024, 2, 64});
  EXPECT_EQ(C.accessRange(60, 8), 2u); // spans two blocks, both cold
  EXPECT_EQ(C.accessRange(60, 8), 0u); // both warm now
  EXPECT_EQ(C.accessRange(200, 0), 1u); // zero bytes touch one block
}

TEST(CacheSimTest, FillWarmsWithoutCounting) {
  CacheSim C(CacheGeometry{1024, 2, 64});
  C.fill(0x400);
  EXPECT_EQ(C.accesses(), 0u);
  EXPECT_TRUE(C.access(0x400));
  EXPECT_EQ(C.hits(), 1u);
}

TEST(CacheSimTest, ResetClearsContents) {
  CacheSim C(CacheGeometry{1024, 2, 64});
  C.access(0x40);
  C.reset();
  EXPECT_EQ(C.accesses(), 0u);
  EXPECT_FALSE(C.access(0x40));
}

TEST(CacheSimTest, OneSetCacheKeepsAdjacentBlocksApart) {
  // 2 ways of 64 B in 128 B is one set, so every block maps to it and
  // blocks 0 and 1 differ only in their lowest bit: a tag that drops the
  // set bits cannot tell them apart.
  CacheSim C(CacheGeometry{128, 2, 64});
  EXPECT_FALSE(C.access(0));
  EXPECT_FALSE(C.access(64));
  EXPECT_TRUE(C.access(0));
  EXPECT_TRUE(C.access(64));
  EXPECT_FALSE(C.access(128)); // evicts block 0, the LRU one
  EXPECT_TRUE(C.access(64));
  EXPECT_TRUE(C.access(128));
  EXPECT_FALSE(C.access(0));
  EXPECT_EQ(C.hits(), 4u);
  EXPECT_EQ(C.misses(), 4u);
}

namespace {

/// Naive true LRU: per set, a list of block numbers, most recent first.
/// Also records how deep each hit was found and how often a full set
/// evicted, so the test can check that its stream covers both.
class ReferenceLru {
public:
  explicit ReferenceLru(const CacheGeometry &G)
      : BlockBytes(G.BlockBytes), Ways(G.Associativity), Sets(G.numSets()),
        HitsAtDepth(G.Associativity, 0) {}

  /// Looks \p Addr's block up and makes it the most recent; a miss on a
  /// full set evicts the least recent. \returns true on hit.
  bool touch(uint64_t Addr) {
    uint64_t Block = Addr / BlockBytes;
    std::list<uint64_t> &Set = Sets[Block % Sets.size()];
    auto It = std::find(Set.begin(), Set.end(), Block);
    bool Hit = It != Set.end();
    if (Hit) {
      ++HitsAtDepth[std::distance(Set.begin(), It)];
      Set.erase(It);
    } else if (Set.size() == Ways) {
      Set.pop_back();
      ++Evictions;
    }
    Set.push_front(Block);
    return Hit;
  }

  bool access(uint64_t Addr) {
    bool Hit = touch(Addr);
    ++(Hit ? Hits : Misses);
    return Hit;
  }

  void reset() {
    for (std::list<uint64_t> &Set : Sets)
      Set.clear();
    Hits = Misses = 0;
  }

  uint64_t BlockBytes;
  size_t Ways;
  std::vector<std::list<uint64_t>> Sets;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  std::vector<uint64_t> HitsAtDepth;
  uint64_t Evictions = 0;
};

} // namespace

TEST(CacheSimTest, MatchesNaiveLruReference) {
  const CacheGeometry Geometries[] = {
      {128, 2, 64},              // 1 set x 2 ways
      {1024, 2, 64},             // 8 sets x 2 ways
      {1024, 16, 64},            // 1 set x 16 ways
      MachineConfig::core2().L1, // 64 sets x 8 ways
      MachineConfig::core2().L2, // 4096 sets x 16 ways
      MachineConfig::atom().L2,  // 1024 sets x 8 ways
  };
  for (const CacheGeometry &G : Geometries) {
    SCOPED_TRACE(testing::Message() << G.SizeBytes << " B, "
                                    << G.Associativity << " ways");
    CacheSim C(G);
    ReferenceLru Ref(G);
    // Addresses span 3x the cache, so full sets evict; a quarter of the
    // touches revisit one of the last 64 addresses, so hits also land
    // near the head of their set, not only at random depths.
    uint64_t Span = 3 * G.SizeBytes;
    uint64_t NumBlocks = G.SizeBytes / G.BlockBytes;
    uint64_t Ops = std::max<uint64_t>(20000, 8 * NumBlocks);
    uint64_t Recent[64] = {};
    uint64_t Lcg = 7 + G.SizeBytes + G.Associativity;
    unsigned Resets = 0;
    for (uint64_t I = 0; I != Ops; ++I) {
      Lcg = Lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      uint64_t R = Lcg >> 11;
      if (R % (Ops / 3) == 0) {
        C.reset();
        Ref.reset();
        ++Resets;
        continue;
      }
      uint64_t Addr = R % 4 == 0 ? Recent[(R >> 4) % 64] : (R >> 10) % Span;
      Recent[I % 64] = Addr;
      if ((R >> 2) % 4 == 0) {
        C.fill(Addr);
        Ref.touch(Addr);
        continue;
      }
      ASSERT_EQ(C.access(Addr), Ref.access(Addr)) << "op " << I;
    }
    EXPECT_EQ(C.hits(), Ref.Hits);
    EXPECT_EQ(C.misses(), Ref.Misses);
    // The stream reached every depth of a set, evicted, and reset.
    for (size_t D = 0; D != Ref.HitsAtDepth.size(); ++D)
      EXPECT_GT(Ref.HitsAtDepth[D], 0u) << "no hit at depth " << D;
    EXPECT_GT(Ref.Evictions, 0u);
    EXPECT_GT(Resets, 0u);
  }
}

//===----------------------------------------------------------------------===//
// BranchPredictor
//===----------------------------------------------------------------------===//

TEST(BranchPredictorTest, LearnsBiasedBranch) {
  BranchPredictor P;
  // Warm up: always taken.
  for (int I = 0; I != 10; ++I)
    P.observe(BranchSite::ListWalkLoop, true);
  uint64_t Before = P.mispredicts();
  for (int I = 0; I != 100; ++I)
    P.observe(BranchSite::ListWalkLoop, true);
  EXPECT_EQ(P.mispredicts(), Before); // fully predicted
}

TEST(BranchPredictorTest, RareTakenBranchMispredicts) {
  // The paper's key signal: a rarely-taken branch (vector's resize check)
  // mispredicts on each taken resolution (Figure 6).
  BranchPredictor P;
  unsigned TakenMisses = 0;
  for (int I = 0; I != 1000; ++I) {
    bool Taken = I % 100 == 99;
    bool Wrong = P.observe(BranchSite::VectorResizeCheck, Taken);
    if (Taken && Wrong)
      ++TakenMisses;
  }
  EXPECT_EQ(TakenMisses, 10u); // every rare taken is a miss
  EXPECT_LT(P.mispredictRate(), 0.05);
}

TEST(BranchPredictorTest, AlternatingDithers) {
  BranchPredictor P;
  for (int I = 0; I != 1000; ++I)
    P.observe(BranchSite::TreeCompareLeft, I % 2 == 0);
  EXPECT_GT(P.mispredictRate(), 0.4);
}

TEST(BranchPredictorTest, PerSiteCountsAndReset) {
  BranchPredictor P;
  P.observe(BranchSite::SearchHit, true); // weakly-NT start -> mispredict
  EXPECT_EQ(P.mispredictsAt(BranchSite::SearchHit), 1u);
  EXPECT_EQ(P.mispredictsAt(BranchSite::ListWalkLoop), 0u);
  P.reset();
  EXPECT_EQ(P.branches(), 0u);
  EXPECT_EQ(P.mispredictsAt(BranchSite::SearchHit), 0u);
}

//===----------------------------------------------------------------------===//
// MachineModel
//===----------------------------------------------------------------------===//

TEST(MachineModelTest, InstructionCycleAccounting) {
  MachineConfig Cfg;
  Cfg.BaseCpi = 2.0;
  MachineModel M(Cfg);
  M.onInstructions(10);
  EXPECT_DOUBLE_EQ(M.cycles(), 20.0);
  EXPECT_EQ(M.counters().Instructions, 10u);
}

TEST(MachineModelTest, MissHierarchyCosts) {
  MachineConfig Cfg;
  Cfg.L1HitCycles = 3;
  Cfg.L2HitCycles = 10;
  Cfg.MemoryCycles = 100;
  Cfg.MissExposure = 1.0;
  Cfg.PrefetchDepth = 0;
  MachineModel M(Cfg);
  M.onAccess(0x1000, 8); // cold: L1+L2 miss -> memory
  EXPECT_DOUBLE_EQ(M.cycles(), 3 + 10 + 100);
  double After = M.cycles();
  M.onAccess(0x2000, 8); // different block, not sequential: full miss again
  EXPECT_DOUBLE_EQ(M.cycles() - After, 113);
  After = M.cycles();
  M.onAccess(0x1000, 8); // L1 hit now (non-streaming: far block)
  EXPECT_DOUBLE_EQ(M.cycles() - After, 3);
}

TEST(MachineModelTest, SequentialScanIsPrefetchedAndStreamed) {
  MachineConfig Cfg = MachineConfig::core2();
  MachineModel Seq(Cfg), Rand(Cfg);
  // 512 KB scan: sequential should be far cheaper than random touches.
  for (uint64_t I = 0; I != 8192; ++I)
    Seq.onAccess(I * 64, 8);
  uint64_t Lcg = 12345;
  for (uint64_t I = 0; I != 8192; ++I) {
    Lcg = Lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    Rand.onAccess((Lcg >> 20) % (512 * 1024), 8);
  }
  EXPECT_LT(Seq.cycles() * 5, Rand.cycles());
}

TEST(MachineModelTest, MispredictPenaltyCharged) {
  MachineConfig Cfg;
  Cfg.BaseCpi = 0;
  Cfg.MispredictPenalty = 50;
  MachineModel M(Cfg);
  // Weakly-not-taken start: first taken mispredicts.
  M.onBranch(BranchSite::SearchHit, true);
  EXPECT_DOUBLE_EQ(M.cycles(), 50.0);
}

TEST(MachineModelTest, AllocCostsAndCounters) {
  MachineConfig Cfg;
  Cfg.BaseCpi = 1.0;
  Cfg.AllocInstructions = 80;
  Cfg.FreeInstructions = 50;
  MachineModel M(Cfg);
  M.onAlloc(64);
  M.onFree(64);
  HardwareCounters C = M.counters();
  EXPECT_EQ(C.Allocations, 1u);
  EXPECT_EQ(C.Frees, 1u);
  EXPECT_DOUBLE_EQ(C.Cycles, 130.0);
}

TEST(MachineModelTest, ResetZeroesEverything) {
  MachineModel M(MachineConfig::core2());
  M.onAccess(0x10, 8);
  M.onBranch(BranchSite::SearchHit, true);
  M.onInstructions(5);
  M.reset();
  HardwareCounters C = M.counters();
  EXPECT_EQ(C.Instructions, 0u);
  EXPECT_EQ(C.L1Accesses, 0u);
  EXPECT_EQ(C.Branches, 0u);
  EXPECT_DOUBLE_EQ(C.Cycles, 0.0);
}

TEST(MachineModelTest, PresetsMatchPaperFigure7) {
  MachineConfig C2 = MachineConfig::core2();
  MachineConfig AT = MachineConfig::atom();
  EXPECT_EQ(C2.L1.SizeBytes, 32u * 1024);
  EXPECT_EQ(C2.L2.SizeBytes, 4u * 1024 * 1024);
  EXPECT_EQ(AT.L2.SizeBytes, 512u * 1024);
  EXPECT_DOUBLE_EQ(C2.ClockGhz, 2.4);
  EXPECT_DOUBLE_EQ(AT.ClockGhz, 1.6);
  // The in-order Atom exposes misses fully; the OoO Core2 overlaps them.
  EXPECT_GT(AT.MissExposure, C2.MissExposure);
}

TEST(MachineModelTest, ArchitecturesRankWorkloadsDifferently) {
  // A pointer-chase-heavy vs a compute-heavy event mix should cost
  // differently relative to each other on the two presets.
  auto RunChase = [](const MachineConfig &Cfg) {
    MachineModel M(Cfg);
    uint64_t Lcg = 1;
    for (int I = 0; I != 20000; ++I) {
      Lcg = Lcg * 6364136223846793005ULL + 1;
      M.onAccess((Lcg >> 16) % (2 * 1024 * 1024), 8);
    }
    return M.cycles();
  };
  auto RunCompute = [](const MachineConfig &Cfg) {
    MachineModel M(Cfg);
    M.onInstructions(400000);
    return M.cycles();
  };
  MachineConfig C2 = MachineConfig::core2(), AT = MachineConfig::atom();
  double RatioChase = RunChase(AT) / RunChase(C2);
  double RatioCompute = RunCompute(AT) / RunCompute(C2);
  EXPECT_GT(RatioChase, 1.0);
  EXPECT_GT(RatioCompute, 1.0);
  EXPECT_NE(RatioChase, RatioCompute);
}

TEST(MachineModelTest, SecondsUsesClock) {
  MachineConfig Cfg;
  Cfg.ClockGhz = 2.0;
  MachineModel M(Cfg);
  M.onInstructions(2000000000ULL); // 2e9 instr * 1.0 CPI = 2e9 cycles
  EXPECT_NEAR(M.seconds(), 1.0, 1e-9);
}

//===----------------------------------------------------------------------===//
// Pinned simulator output (DESIGN.md §12)
//===----------------------------------------------------------------------===//

namespace {

/// Plays a deterministic mixed event sequence into \p M. The mix crosses
/// every path of the access step: long same-block runs (the MRU fast
/// path), runs broken by branches and instruction bursts, sequential scans
/// (prefetch fills), random touches, and alloc/free traffic.
void playMixedStream(MachineModel &M) {
  uint64_t Lcg = 42;
  for (int Round = 0; Round != 64; ++Round) {
    // Repeated touches of one block, in varying run lengths.
    uint64_t Base = 0x100000 + Round * 4096;
    for (int I = 0; I != (Round % 7) + 1; ++I)
      M.onAccess(Base + (I % 8) * 4, 4);
    // A branch mid-run interrupts the run without changing LastBlock.
    M.onBranch(BranchSite::SearchHit, (Round & 3) != 0);
    for (int I = 0; I != 5; ++I)
      M.onAccess(Base + 16, 8);
    // Sequential scan: prefetch + streaming-hit classification.
    for (int I = 0; I != 32; ++I)
      M.onAccess(0x400000 + Round * 2048 + I * 64, 8);
    M.onInstructions(Round * 3 + 1);
    // Random far touches: miss hierarchy + LRU victim churn.
    for (int I = 0; I != 8; ++I) {
      Lcg = Lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      M.onAccess((Lcg >> 16) % (8 * 1024 * 1024), 8);
    }
    M.onAlloc(64 + Round);
    if (Round & 1)
      M.onFree(64 + Round - 1);
    // Straddling access: first/last bytes in different blocks.
    M.onAccess(0x200000 + Round * 64 + 60, 16);
  }
}

std::string hexDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

} // namespace

TEST(MachineModelTest, MixedStreamCountersArePinned) {
  // What the simulator charges for the mixed stream, recorded when the
  // containers still reached it through an encoded event buffer (whose
  // batch drain that commit's suite proved bit-identical to these entry
  // points). Training has charged exactly these counts all along, so any
  // change here changes every bundle. Cycles are compared as %a text:
  // bit-identical, not approximately equal.
  struct Pinned {
    MachineConfig Cfg;
    HardwareCounters Want;
    const char *Cycles;
  };
  auto Counts = [](uint64_t L1Misses, uint64_t L2Misses) {
    HardwareCounters C;
    C.Instructions = 12896;
    C.L1Accesses = 3319;
    C.L1Misses = L1Misses;
    C.L2Accesses = L1Misses;
    C.L2Misses = L2Misses;
    C.Branches = 64;
    C.BranchMispredicts = 17;
    C.Allocations = 64;
    C.Frees = 32;
    return C;
  };
  const Pinned Cases[] = {
      {MachineConfig::core2(), Counts(631, 627), "0x1.66ae33333332bp+16"},
      {MachineConfig::atom(), Counts(695, 691), "0x1.f0641999999a3p+16"},
  };
  for (const Pinned &P : Cases) {
    MachineModel M(P.Cfg);
    playMixedStream(M);
    HardwareCounters Got = M.counters();
    const std::string &Name = P.Cfg.Name;
    EXPECT_EQ(Got.Instructions, P.Want.Instructions) << Name;
    EXPECT_EQ(Got.L1Accesses, P.Want.L1Accesses) << Name;
    EXPECT_EQ(Got.L1Misses, P.Want.L1Misses) << Name;
    EXPECT_EQ(Got.L2Accesses, P.Want.L2Accesses) << Name;
    EXPECT_EQ(Got.L2Misses, P.Want.L2Misses) << Name;
    EXPECT_EQ(Got.Branches, P.Want.Branches) << Name;
    EXPECT_EQ(Got.BranchMispredicts, P.Want.BranchMispredicts) << Name;
    EXPECT_EQ(Got.Allocations, P.Want.Allocations) << Name;
    EXPECT_EQ(Got.Frees, P.Want.Frees) << Name;
    EXPECT_EQ(hexDouble(Got.Cycles), P.Cycles) << Name;
    EXPECT_EQ(hexDouble(M.cycles()), P.Cycles) << Name;
  }
}
