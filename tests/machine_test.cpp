//===- tests/machine_test.cpp - microarchitecture simulator tests ---------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "machine/BranchPredictor.h"
#include "machine/CacheSim.h"
#include "machine/EventBuffer.h"
#include "machine/MachineModel.h"
#include "machine/SimAllocator.h"

#include <gtest/gtest.h>

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
// Encoded event stream (DESIGN.md §12)
//===----------------------------------------------------------------------===//

namespace {

/// Plays a deterministic mixed event sequence into \p M, either through
/// the per-event entry points or through its event buffer. The mix is chosen
/// to cross every onBatch path: long same-block runs (the coalesced MRU
/// fast path), runs broken by branches and instruction bursts, sequential
/// scans (prefetch fills), random touches, and alloc/free traffic.
template <typename AccessFn, typename BranchFn, typename InstrFn,
          typename AllocFn, typename FreeFn>
void playMixedStream(AccessFn Access, BranchFn Branch, InstrFn Instr,
                     AllocFn Alloc, FreeFn Free) {
  uint64_t Lcg = 42;
  for (int Round = 0; Round != 64; ++Round) {
    // Repeated touches of one block — coalescable, in varying run lengths.
    uint64_t Base = 0x100000 + Round * 4096;
    for (int I = 0; I != (Round % 7) + 1; ++I)
      Access(Base + (I % 8) * 4, 4);
    // A branch mid-run ends one coalesced run without changing LastBlock.
    Branch(BranchSite::SearchHit, (Round & 3) != 0);
    for (int I = 0; I != 5; ++I)
      Access(Base + 16, 8);
    // Sequential scan: prefetch + streaming-hit classification.
    for (int I = 0; I != 32; ++I)
      Access(0x400000 + Round * 2048 + I * 64, 8);
    Instr(Round * 3 + 1);
    // Random far touches: miss hierarchy + LRU victim churn.
    for (int I = 0; I != 8; ++I) {
      Lcg = Lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      Access((Lcg >> 16) % (8 * 1024 * 1024), 8);
    }
    Alloc(64 + Round);
    if (Round & 1)
      Free(64 + Round - 1);
    // Straddling access: first/last bytes in different blocks.
    Access(0x200000 + Round * 64 + 60, 16);
  }
}

} // namespace

TEST(EventStreamTest, BatchedDeliveryIsBitIdenticalToDirectCalls) {
  for (const MachineConfig &Cfg :
       {MachineConfig::core2(), MachineConfig::atom()}) {
    MachineModel Direct(Cfg), Batched(Cfg);
    playMixedStream(
        [&](uint64_t A, uint32_t B) { Direct.onAccess(A, B); },
        [&](BranchSite S, bool T) { Direct.onBranch(S, T); },
        [&](uint64_t N) { Direct.onInstructions(N); },
        [&](uint64_t B) { Direct.onAlloc(B); },
        [&](uint64_t B) { Direct.onFree(B); });

    EventBuffer *Buf = Batched.eventBuffer();
    ASSERT_NE(Buf, nullptr);
    playMixedStream(
        [&](uint64_t A, uint32_t B) { Buf->access(A, B); },
        [&](BranchSite S, bool T) { Buf->branch(S, T); },
        [&](uint64_t N) { Buf->instructions(N); },
        [&](uint64_t B) { Buf->alloc(B); },
        [&](uint64_t B) { Buf->free(B); });
    Batched.flushEvents();

    // Bit-identical, not approximately equal: the batch drain (including
    // the coalesced repeat-run path) must replay the exact arithmetic of
    // the per-event calls.
    HardwareCounters D = Direct.counters(), B = Batched.counters();
    EXPECT_EQ(D.Cycles, B.Cycles) << Cfg.Name;
    EXPECT_EQ(D.Instructions, B.Instructions) << Cfg.Name;
    EXPECT_EQ(D.L1Accesses, B.L1Accesses) << Cfg.Name;
    EXPECT_EQ(D.L1Misses, B.L1Misses) << Cfg.Name;
    EXPECT_EQ(D.L2Accesses, B.L2Accesses) << Cfg.Name;
    EXPECT_EQ(D.L2Misses, B.L2Misses) << Cfg.Name;
    EXPECT_EQ(D.Branches, B.Branches) << Cfg.Name;
    EXPECT_EQ(D.BranchMispredicts, B.BranchMispredicts) << Cfg.Name;
    EXPECT_EQ(D.Allocations, B.Allocations) << Cfg.Name;
    EXPECT_EQ(D.Frees, B.Frees) << Cfg.Name;
    EXPECT_EQ(Direct.cycles(), Batched.cycles()) << Cfg.Name;
  }
}

TEST(EventStreamTest, InterleavedDirectAndBufferedCallsStayOrdered) {
  // A direct per-event call must observe everything buffered before it:
  // the per-event entry points drain the pending buffer first.
  MachineConfig Cfg = MachineConfig::core2();
  MachineModel Direct(Cfg), Mixed(Cfg);
  for (int I = 0; I != 1000; ++I) {
    Direct.onAccess(0x1000 + (I % 16) * 64, 8);
    Direct.onBranch(BranchSite::SearchHit, I & 1);
  }
  EventBuffer *Buf = Mixed.eventBuffer();
  for (int I = 0; I != 1000; ++I) {
    if (I % 3 == 0)
      Mixed.onAccess(0x1000 + (I % 16) * 64, 8);
    else
      Buf->access(0x1000 + (I % 16) * 64, 8);
    // Direct call with records pending: must drain, then step.
    Mixed.onBranch(BranchSite::SearchHit, I & 1);
  }
  Mixed.flushEvents();
  EXPECT_EQ(Direct.cycles(), Mixed.cycles());
  EXPECT_EQ(Direct.counters().BranchMispredicts, Mixed.counters().BranchMispredicts);
}

TEST(EventStreamTest, BufferAutoFlushesWhenFull) {
  // More events than CapacityWords: appends must self-flush, and nothing
  // may be dropped or reordered across the flush boundary.
  MachineConfig Cfg = MachineConfig::core2();
  MachineModel Direct(Cfg), Batched(Cfg);
  EventBuffer *Buf = Batched.eventBuffer();
  const int N = 3 * static_cast<int>(EventBuffer::CapacityWords);
  for (int I = 0; I != N; ++I) {
    Direct.onAccess(0x8000 + (I % 512) * 64, 8);
    Buf->access(0x8000 + (I % 512) * 64, 8);
  }
  Batched.flushEvents();
  EXPECT_EQ(Direct.cycles(), Batched.cycles());
  EXPECT_EQ(Direct.counters().L1Misses, Batched.counters().L1Misses);
}
