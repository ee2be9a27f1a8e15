//===- tests/measurement_store_test.cpp - Persistent measurements ---------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// The on-disk MeasurementCache (DESIGN.md §12):
//
//  * brainy-mcache files round-trip bit-exactly (%a cycle values, and
//    which of them are lower bounds) and re-serialise byte-identically;
//    v1 files load with every value exact;
//  * folding exact values and bounds gives the same entry in every order;
//  * the config fingerprint rejects measurements recorded under different
//    generator or machine parameters;
//  * corruption, truncation at every offset, and injected I/O faults all
//    degrade to recompute — a bad cache file never changes a result and
//    never half-restores;
//  * a warm `Brainy::train` rerun is byte-identical to the cold run, hits
//    the cache for every Phase I measurement, and stays identical when the
//    job count changes.
//
//===----------------------------------------------------------------------===//

#include "core/Brainy.h"
#include "core/MeasurementStore.h"
#include "core/TrainingFramework.h"
#include "support/FaultInjector.h"
#include "support/FramedFile.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace brainy;

namespace {

struct FaultGuard {
  explicit FaultGuard(const std::string &Spec) {
    Error E = FaultInjector::instance().configure(Spec);
    EXPECT_FALSE(E) << E.message();
  }
  ~FaultGuard() { FaultInjector::instance().clear(); }
};

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + "brainy_mstore_" + Name;
}

TrainOptions tinyOptions() {
  TrainOptions Opts;
  Opts.TargetPerDs = 3;
  Opts.MaxSeeds = 200;
  Opts.GenConfig.TotalInterfCalls = 120;
  Opts.GenConfig.MaxInitialSize = 200;
  Opts.Net.Epochs = 10;
  Opts.Jobs = 1;
  return Opts;
}

/// Fills \p Cache with awkward cycle values: fractions whose decimal
/// rendering would round, and huge magnitudes — exactly what %a must carry
/// through unchanged. (In place: the cache owns a mutex, so it cannot be
/// returned by value.)
void populateCache(MeasurementCache &Cache) {
  CycleRecord A;
  A.Seed = 3;
  A.Mask = (1u << 0) | (1u << 4);
  A.Cycles[0] = 70223698.0;
  A.Cycles[4] = 0.1 + 0.2; // not exactly 0.3 — must survive bit-for-bit
  Cache.restoreRecord(A);
  CycleRecord B;
  B.Seed = 90000000001ull;
  B.Mask = (1u << 2) | (1u << 7);
  B.BoundMask = 1u << 7; // a lower bound from a run the race stopped
  B.Cycles[2] = 1.5e18;
  B.Cycles[7] = 1.0 / 3.0;
  Cache.restoreRecord(B);
}

void expectSameRecords(const MeasurementCache &A, const MeasurementCache &B) {
  std::vector<CycleRecord> RA = A.records();
  std::vector<CycleRecord> RB = B.records();
  ASSERT_EQ(RA.size(), RB.size());
  for (size_t I = 0; I != RA.size(); ++I) {
    EXPECT_EQ(RA[I].Seed, RB[I].Seed);
    EXPECT_EQ(RA[I].Mask, RB[I].Mask);
    EXPECT_EQ(RA[I].BoundMask, RB[I].BoundMask);
    for (unsigned K = 0; K != NumDsKinds; ++K)
      if (RA[I].Mask & (1u << K)) {
        EXPECT_EQ(RA[I].Cycles[K], RB[I].Cycles[K])
            << "seed " << RA[I].Seed << " kind " << K;
      }
  }
}

//===----------------------------------------------------------------------===//
// Fingerprint
//===----------------------------------------------------------------------===//

TEST(MeasurementStoreTest, FingerprintSeesEveryRelevantKnob) {
  AppConfig Gen;
  MachineConfig MC = MachineConfig::core2();
  uint64_t Base = measurementFingerprint(Gen, MC);
  EXPECT_EQ(Base, measurementFingerprint(Gen, MC)) << "not deterministic";

  AppConfig Gen2 = Gen;
  Gen2.TotalInterfCalls += 1;
  EXPECT_NE(Base, measurementFingerprint(Gen2, MC));

  AppConfig Gen3 = Gen;
  Gen3.OpDropProb += 0.001;
  EXPECT_NE(Base, measurementFingerprint(Gen3, MC));

  MachineConfig MC2 = MC;
  MC2.L1.SizeBytes *= 2;
  EXPECT_NE(Base, measurementFingerprint(Gen, MC2));

  MachineConfig MC3 = MC;
  MC3.StreamHitCycles += 0.25;
  EXPECT_NE(Base, measurementFingerprint(Gen, MC3));

  EXPECT_NE(measurementFingerprint(Gen, MachineConfig::core2()),
            measurementFingerprint(Gen, MachineConfig::atom()));
}

//===----------------------------------------------------------------------===//
// Round trip
//===----------------------------------------------------------------------===//

TEST(MeasurementStoreTest, SaveLoadRoundTripsBitExactly) {
  AppConfig Gen;
  MachineConfig MC = MachineConfig::core2();
  MeasurementCache Cache;
  populateCache(Cache);
  std::string Path = tmpPath("roundtrip.txt");

  Error E = saveMeasurements(Path, Cache, Gen, MC);
  ASSERT_FALSE(E) << E.message();

  MeasurementCache Loaded;
  Expected<size_t> Count = loadMeasurements(Path, Loaded, Gen, MC);
  ASSERT_TRUE(static_cast<bool>(Count)) << Count.error().message();
  EXPECT_EQ(*Count, 2u);
  expectSameRecords(Cache, Loaded);

  // Restored records are not fresh measurements.
  EXPECT_EQ(Loaded.freshMeasurements(), 0u);

  // Serialise → parse → serialise is byte-identical: the save format has
  // one spelling per cache, so warm reruns rewrite the file bit-for-bit.
  EXPECT_EQ(measurementsToString(Cache, Gen, MC),
            measurementsToString(Loaded, Gen, MC));
  std::remove(Path.c_str());
}

TEST(MeasurementStoreTest, VersionOneFilesLoadExactAndSaveAsVersionTwo) {
  AppConfig Gen;
  MachineConfig MC = MachineConfig::core2();
  // A v1 record line is `<seed> <mask> <cycles...>`: no bound mask.
  std::string V1 =
      frame("brainy-mcache", "v1",
            {{"machine", MC.Name},
             {"fingerprint",
              fingerprintField(measurementFingerprint(Gen, MC))},
             {"records", "2"}},
            "3 17 0x1.0be1d48p+26 0x1.3333333333334p-2\n"
            "9 4 0x1.4d0p+10\n");
  MeasurementCache Cache;
  Expected<size_t> Count = parseMeasurements(V1, Cache, Gen, MC);
  ASSERT_TRUE(static_cast<bool>(Count)) << Count.error().message();
  EXPECT_EQ(*Count, 2u);
  std::vector<CycleRecord> Records = Cache.records();
  ASSERT_EQ(Records.size(), 2u);
  EXPECT_EQ(Records[0].Mask, 17u);
  EXPECT_EQ(Records[0].Cycles[0], 70223698.0);
  EXPECT_EQ(Records[0].Cycles[4], 0.1 + 0.2);
  EXPECT_EQ(Records[1].Cycles[2], 1332.0);
  for (const CycleRecord &R : Records)
    EXPECT_EQ(R.BoundMask, 0u) << "seed " << R.Seed;

  std::string Saved = measurementsToString(Cache, Gen, MC);
  EXPECT_EQ(Saved.rfind("brainy-mcache v2\n", 0), 0u);
  MeasurementCache Again;
  ASSERT_TRUE(static_cast<bool>(parseMeasurements(Saved, Again, Gen, MC)));
  expectSameRecords(Cache, Again);
}

TEST(MeasurementStoreTest, FoldGivesTheSameEntryInEveryOrder) {
  // One (seed, kind) met as two bounds and the exact value, and another
  // kind only as bounds: exact beats bound, the larger bound beats the
  // smaller, whatever the order.
  std::vector<CycleRecord> Parts(4);
  for (CycleRecord &R : Parts)
    R.Seed = 5;
  Parts[0].Mask = Parts[0].BoundMask = (1u << 1) | (1u << 6);
  Parts[0].Cycles[1] = 100;
  Parts[0].Cycles[6] = 40;
  Parts[1].Mask = Parts[1].BoundMask = 1u << 1;
  Parts[1].Cycles[1] = 130;
  Parts[2].Mask = 1u << 1; // exact
  Parts[2].Cycles[1] = 150;
  Parts[3].Mask = Parts[3].BoundMask = 1u << 6;
  Parts[3].Cycles[6] = 55;

  std::vector<size_t> Order = {0, 1, 2, 3};
  unsigned Orders = 0;
  do {
    MeasurementCache Cache;
    for (size_t I : Order)
      Cache.restoreRecord(Parts[I]);
    std::vector<CycleRecord> Records = Cache.records();
    ASSERT_EQ(Records.size(), 1u);
    EXPECT_EQ(Records[0].Mask, (1u << 1) | (1u << 6));
    EXPECT_EQ(Records[0].BoundMask, 1u << 6);
    EXPECT_EQ(Records[0].Cycles[1], 150);
    EXPECT_EQ(Records[0].Cycles[6], 55);
    ++Orders;
  } while (std::next_permutation(Order.begin(), Order.end()));
  EXPECT_EQ(Orders, 24u);
}

TEST(MeasurementStoreTest, MergeCountsFreshButRestoreDoesNot) {
  MeasurementCache Cache;
  CycleRecord R;
  R.Seed = 11;
  R.Mask = (1u << 1) | (1u << 3);
  R.Cycles[1] = 2.0;
  R.Cycles[3] = 4.0;
  Cache.restoreRecord(R);
  EXPECT_EQ(Cache.freshMeasurements(), 0u);

  // Re-merging the restored bits learns nothing; one new bit counts once.
  Cache.mergeRecord(R);
  EXPECT_EQ(Cache.freshMeasurements(), 0u);
  CycleRecord R2 = R;
  R2.Mask = (1u << 1) | (1u << 5);
  R2.Cycles[5] = 8.0;
  Cache.mergeRecord(R2);
  EXPECT_EQ(Cache.freshMeasurements(), 1u);
  EXPECT_EQ(Cache.stoppedEarly(), 0u);

  // A new bound counts as fresh and stopped early; a smaller bound
  // changes nothing; the exact value replacing it is fresh again.
  CycleRecord Bound;
  Bound.Seed = 11;
  Bound.Mask = Bound.BoundMask = 1u << 7;
  Bound.Cycles[7] = 30.0;
  Cache.mergeRecord(Bound);
  EXPECT_EQ(Cache.freshMeasurements(), 2u);
  EXPECT_EQ(Cache.stoppedEarly(), 1u);
  Bound.Cycles[7] = 20.0;
  Cache.mergeRecord(Bound);
  EXPECT_EQ(Cache.freshMeasurements(), 2u);
  Bound.BoundMask = 0;
  Bound.Cycles[7] = 45.0;
  Cache.mergeRecord(Bound);
  EXPECT_EQ(Cache.freshMeasurements(), 3u);
  EXPECT_EQ(Cache.stoppedEarly(), 1u);
}

//===----------------------------------------------------------------------===//
// Failure paths: every bad file degrades to recompute
//===----------------------------------------------------------------------===//

TEST(MeasurementStoreTest, MissingFileIsPlainIoError) {
  AppConfig Gen;
  MachineConfig MC = MachineConfig::core2();
  MeasurementCache Cache;
  Expected<size_t> Count =
      loadMeasurements(tmpPath("does_not_exist.txt"), Cache, Gen, MC);
  ASSERT_FALSE(static_cast<bool>(Count));
  EXPECT_EQ(Count.error().code(), ErrCode::IoError);
  EXPECT_EQ(Cache.seeds(), 0u);
}

TEST(MeasurementStoreTest, RejectsEveryHeaderAndPayloadCorruption) {
  AppConfig Gen;
  MachineConfig MC = MachineConfig::core2();
  MeasurementCache Seeded;
  populateCache(Seeded);
  std::string Good = measurementsToString(Seeded, Gen, MC);

  auto ParseInto = [&](const std::string &Text, const AppConfig &G,
                       const MachineConfig &M) {
    MeasurementCache Cache;
    Expected<size_t> Count = parseMeasurements(Text, Cache, G, M);
    EXPECT_EQ(Cache.seeds(), 0u) << "failed parse touched the cache";
    return Count;
  };

  auto CodeOf = [&](const std::string &Text) {
    Expected<size_t> Count = ParseInto(Text, Gen, MC);
    EXPECT_FALSE(static_cast<bool>(Count));
    return Count ? ErrCode::Ok : Count.error().code();
  };

  EXPECT_EQ(CodeOf(""), ErrCode::Truncated);
  EXPECT_EQ(CodeOf("brainy-bundle v2\n"), ErrCode::BadMagic);
  std::string BadVersion = Good;
  BadVersion.replace(BadVersion.find("v2"), 2, "v9");
  EXPECT_EQ(CodeOf(BadVersion), ErrCode::BadVersion);

  // Payload byte flip → checksum.
  std::string Flipped = Good;
  Flipped[Flipped.size() - 2] ^= 0x20;
  EXPECT_EQ(CodeOf(Flipped), ErrCode::BadChecksum);

  // Trailing garbage after the declared payload.
  EXPECT_EQ(CodeOf(Good + "extra\n"), ErrCode::BadFormat);

  // Well-framed records whose masks name no kind, or a bound outside the
  // mask.
  std::string Fingerprint = fingerprintField(measurementFingerprint(Gen, MC));
  for (const char *Line : {"3 0 0\n", "3 1 2 0x1p+0\n"})
    EXPECT_EQ(CodeOf(frame("brainy-mcache", "v2",
                           {{"machine", MC.Name},
                            {"fingerprint", Fingerprint},
                            {"records", "1"}},
                           Line)),
              ErrCode::BadFormat)
        << Line;

  // Wrong machine and wrong generator config are distinct rejections.
  Expected<size_t> Wrong =
      ParseInto(Good, Gen, MachineConfig::atom());
  ASSERT_FALSE(static_cast<bool>(Wrong));
  EXPECT_EQ(Wrong.error().code(), ErrCode::MachineMismatch);
  AppConfig Gen2 = Gen;
  Gen2.TotalInterfCalls += 1;
  Expected<size_t> Stale = ParseInto(Good, Gen2, MC);
  ASSERT_FALSE(static_cast<bool>(Stale));
  EXPECT_EQ(Stale.error().code(), ErrCode::TagMismatch);
}

TEST(MeasurementStoreTest, TruncationAtEveryOffsetNeverHalfRestores) {
  AppConfig Gen;
  MachineConfig MC = MachineConfig::core2();
  MeasurementCache Seeded;
  populateCache(Seeded);
  std::string Good = measurementsToString(Seeded, Gen, MC);
  for (size_t Len = 0; Len != Good.size(); ++Len) {
    MeasurementCache Cache;
    Expected<size_t> Count =
        parseMeasurements(Good.substr(0, Len), Cache, Gen, MC);
    EXPECT_FALSE(static_cast<bool>(Count)) << "prefix of " << Len
                                           << " bytes parsed";
    EXPECT_EQ(Cache.seeds(), 0u) << "prefix of " << Len
                                 << " bytes half-restored";
  }
}

TEST(MeasurementStoreTest, InjectedIoFaultsFailSaveAndLoadCleanly) {
  AppConfig Gen;
  MachineConfig MC = MachineConfig::core2();
  MeasurementCache Cache;
  populateCache(Cache);
  std::string Path = tmpPath("faulted.txt");
  std::remove(Path.c_str());

  {
    FaultGuard Guard("io:1:7");
    Error E = saveMeasurements(Path, Cache, Gen, MC);
    ASSERT_TRUE(static_cast<bool>(E));
    EXPECT_EQ(E.code(), ErrCode::FaultInjected);
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    EXPECT_EQ(F, nullptr) << "failed save left a file behind";
    if (F)
      std::fclose(F);

    MeasurementCache Loaded;
    Expected<size_t> Count = loadMeasurements(Path, Loaded, Gen, MC);
    ASSERT_FALSE(static_cast<bool>(Count));
    EXPECT_EQ(Count.error().code(), ErrCode::FaultInjected);
    EXPECT_EQ(Loaded.seeds(), 0u);
  }

  // Injector cleared: the same calls succeed.
  ASSERT_FALSE(saveMeasurements(Path, Cache, Gen, MC));
  MeasurementCache Loaded;
  ASSERT_TRUE(static_cast<bool>(loadMeasurements(Path, Loaded, Gen, MC)));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Warm training runs
//===----------------------------------------------------------------------===//

TEST(MeasurementStoreTest, WarmTrainIsByteIdenticalAndFullyCached) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = tmpPath("warm_cache.txt");
  std::remove(Path.c_str());

  TrainOptions Opts = tinyOptions();
  Opts.MeasurementCacheFile = Path;
  std::string Cold = Brainy::train(Opts, MC).toString();

  // The warm framework restores the cold run's measurements and then
  // answers every Phase I lookup from them: zero fresh measurements.
  {
    TrainingFramework Warm(Opts, MC);
    EXPECT_GT(Warm.loadedMeasurements(), 0u);
    Warm.phaseOneAll();
    EXPECT_EQ(Warm.measurements().freshMeasurements(), 0u);
  }

  // Warm retrain: byte-identical bundle.
  EXPECT_EQ(Brainy::train(Opts, MC).toString(), Cold);

  // Warm retrain under a different job count: still byte-identical.
  TrainOptions Parallel = Opts;
  Parallel.Jobs = 3;
  EXPECT_EQ(Brainy::train(Parallel, MC).toString(), Cold);
  std::remove(Path.c_str());
}

TEST(MeasurementStoreTest, CorruptCacheFileFallsBackToRecompute) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = tmpPath("corrupt_cache.txt");

  TrainOptions Opts = tinyOptions();
  Opts.MeasurementCacheFile = Path;
  std::string Cold = Brainy::train(Opts, MC).toString();

  // Corrupt the file on disk: the warm run must detect it (checksum),
  // recompute everything, produce the identical bundle, and rewrite a
  // valid cache.
  {
    std::FILE *F = std::fopen(Path.c_str(), "rb+");
    ASSERT_NE(F, nullptr);
    std::fseek(F, -3, SEEK_END);
    std::fputc('!', F);
    std::fclose(F);
  }
  {
    TrainingFramework Corrupted(Opts, MC);
    EXPECT_EQ(Corrupted.loadedMeasurements(), 0u);
  }
  EXPECT_EQ(Brainy::train(Opts, MC).toString(), Cold);

  // The rewrite healed the file: the next run is warm again.
  {
    TrainingFramework Healed(Opts, MC);
    EXPECT_GT(Healed.loadedMeasurements(), 0u);
  }

  // An injected read fault degrades the same way — recompute, same bundle.
  {
    FaultGuard Guard("io:1:3");
    EXPECT_EQ(Brainy::train(Opts, MC).toString(), Cold);
  }
  std::remove(Path.c_str());
}

} // namespace
