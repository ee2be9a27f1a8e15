//===- tests/invariants_test.cpp - Crc32 vectors + fault determinism ------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Two pillars the robustness layer (DESIGN.md §8) stands on, pinned by
// external references:
//
//  * support/Crc32 must match the published reflected CRC-32 (IEEE 802.3,
//    polynomial 0xEDB88320) — the bundle checksum is only diagnosable by
//    external tools if the algorithm is exactly the standard one.
//  * FaultInjector probe decisions must be a pure function of
//    (site seed, key, salt): same decision for every call order, thread
//    count, and repetition. This is what makes a fault run bit-identical
//    to the matching ExcludeSeeds run at any job count.
//
//===----------------------------------------------------------------------===//

#include "support/Crc32.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace brainy;

//===----------------------------------------------------------------------===//
// Crc32 against published test vectors
//===----------------------------------------------------------------------===//

TEST(Crc32Vectors, PublishedReferenceValues) {
  // The standard CRC-32 check value ("123456789" -> 0xCBF43926) plus the
  // classic string vectors shared by zlib/PNG implementations.
  EXPECT_EQ(crc32(std::string()), 0x00000000u);
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(std::string("abc")), 0x352441C2u);
  EXPECT_EQ(crc32(std::string("message digest")), 0x20159D7Fu);
  EXPECT_EQ(crc32(std::string("abcdefghijklmnopqrstuvwxyz")), 0x4C2750BDu);
  EXPECT_EQ(crc32(std::string(
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                "0123456789")),
            0x1FC2E6D2u);
}

TEST(Crc32Vectors, AllZerosAndAllOnes) {
  // 32 zero bytes and 32 0xFF bytes, cross-checked against zlib's crc32().
  std::string Zeros(32, '\0');
  std::string Ones(32, '\xff');
  EXPECT_EQ(crc32(Zeros), 0x190A55ADu);
  EXPECT_EQ(crc32(Ones), 0xFF6CAB0Bu);
}

TEST(Crc32Vectors, SeedChainsIncrementalUpdates) {
  // Feeding a buffer in pieces, seeding each call with the previous
  // result, must equal the one-shot checksum (the zlib update contract
  // Brainy's bundle writer relies on).
  std::string Text = "The quick brown fox jumps over the lazy dog";
  uint32_t OneShot = crc32(Text);
  for (size_t Split = 0; Split <= Text.size(); ++Split) {
    uint32_t Partial = crc32(Text.substr(0, Split));
    EXPECT_EQ(crc32(Text.substr(Split), Partial), OneShot)
        << "split at " << Split;
  }
}

TEST(Crc32Vectors, RawPointerAndStringOverloadsAgree) {
  std::string Text = "brainy-bundle v2";
  EXPECT_EQ(crc32(Text), crc32(Text.data(), Text.size()));
}

//===----------------------------------------------------------------------===//
// FaultInjector probe determinism
//===----------------------------------------------------------------------===//

namespace {

/// Decision table for keys [0, NumKeys) x salts [0, NumSalts).
std::vector<char> probeAll(FaultInjector &Injector, uint64_t NumKeys,
                           uint64_t NumSalts) {
  std::vector<char> Out(NumKeys * NumSalts);
  for (uint64_t Key = 0; Key != NumKeys; ++Key)
    for (uint64_t Salt = 0; Salt != NumSalts; ++Salt)
      Out[Key * NumSalts + Salt] =
          Injector.shouldFail(FaultSite::Eval, Key, Salt) ? 1 : 0;
  return Out;
}

} // namespace

TEST(FaultInjectorDeterminism, SameTripleSameDecisionAcrossReconfigure) {
  FaultInjector Injector;
  ASSERT_FALSE(Injector.configure("eval:0.3:42"));
  std::vector<char> First = probeAll(Injector, 64, 4);
  uint64_t FirstCount = Injector.injectedCount(FaultSite::Eval);

  // Re-arm from scratch: the decision table is a pure function of the
  // spec, not of injector history.
  ASSERT_FALSE(Injector.configure("eval:0.3:42"));
  EXPECT_EQ(probeAll(Injector, 64, 4), First);
  EXPECT_EQ(Injector.injectedCount(FaultSite::Eval), FirstCount);

  // Roughly the configured rate actually fires (sanity that the table is
  // not degenerate all-pass / all-fail).
  EXPECT_GT(FirstCount, 0u);
  EXPECT_LT(FirstCount, 64u * 4u);
}

TEST(FaultInjectorDeterminism, ProbeOrderDoesNotChangeDecisions) {
  FaultInjector Injector;
  ASSERT_FALSE(Injector.configure("eval:0.5:7"));
  std::vector<char> Forward = probeAll(Injector, 128, 2);

  ASSERT_FALSE(Injector.configure("eval:0.5:7"));
  std::vector<char> Reversed(Forward.size());
  for (uint64_t Key = 128; Key-- != 0;)
    for (uint64_t Salt = 2; Salt-- != 0;)
      Reversed[Key * 2 + Salt] =
          Injector.shouldFail(FaultSite::Eval, Key, Salt) ? 1 : 0;
  EXPECT_EQ(Reversed, Forward);
}

TEST(FaultInjectorDeterminism, SameDecisionsAtEveryJobCount) {
  // The training-pipeline shape: keys fanned out over worker threads.
  // Every job count must produce the identical decision table, and hence
  // the identical set of surviving seeds.
  constexpr uint64_t NumKeys = 256;
  constexpr uint64_t NumSalts = 3;

  FaultInjector Reference;
  ASSERT_FALSE(Reference.configure("eval:0.25:1234"));
  std::vector<char> Serial = probeAll(Reference, NumKeys, NumSalts);

  for (unsigned Jobs : {2u, 4u, 8u}) {
    FaultInjector Injector;
    ASSERT_FALSE(Injector.configure("eval:0.25:1234"));
    std::vector<char> Parallel(NumKeys * NumSalts);
    ThreadPool Pool(Jobs - 1);
    Pool.parallelFor(0, NumKeys, [&](size_t Key) {
      for (uint64_t Salt = 0; Salt != NumSalts; ++Salt)
        Parallel[Key * NumSalts + Salt] =
            Injector.shouldFail(FaultSite::Eval, Key, Salt) ? 1 : 0;
    });
    EXPECT_EQ(Parallel, Serial) << "jobs=" << Jobs;
    EXPECT_EQ(Injector.injectedCount(FaultSite::Eval),
              Reference.injectedCount(FaultSite::Eval))
        << "jobs=" << Jobs;
  }
}

TEST(FaultInjectorDeterminism, SitesAreIndependentStreams) {
  FaultInjector Injector;
  ASSERT_FALSE(Injector.configure("eval:0.5:9,io:0.5:9"));
  // Same rate and seed on two sites: decisions may coincide per-key only
  // by chance; the streams must not be systematically identical when the
  // site seeds differ.
  ASSERT_FALSE(Injector.configure("eval:0.5:9,io:0.5:10"));
  unsigned Differences = 0;
  for (uint64_t Key = 0; Key != 256; ++Key) {
    bool E = Injector.shouldFail(FaultSite::Eval, Key);
    bool I = Injector.shouldFail(FaultSite::FileIo, Key);
    Differences += E != I;
  }
  EXPECT_GT(Differences, 0u);
}

TEST(FaultInjectorDeterminism, ZeroRateNeverFiresFullRateAlwaysFires) {
  FaultInjector Injector;
  ASSERT_FALSE(Injector.configure("eval:0:5"));
  for (uint64_t Key = 0; Key != 64; ++Key)
    EXPECT_FALSE(Injector.shouldFail(FaultSite::Eval, Key));
  ASSERT_FALSE(Injector.configure("eval:1:5"));
  for (uint64_t Key = 0; Key != 64; ++Key)
    EXPECT_TRUE(Injector.shouldFail(FaultSite::Eval, Key));
}
