//===- tests/robustness_test.cpp - Failure-path coverage ------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Exercises the failure model of DESIGN.md §8: the error taxonomy, the
// deterministic fault injector, hardened bundle/trainset parsing (byte
// flips, truncation at every offset), atomic save, retry/skip semantics in
// Phase I, and graceful recommend degradation.
//
//===----------------------------------------------------------------------===//

#include "core/Brainy.h"
#include "core/TrainingFramework.h"
#include "profile/TraceFile.h"
#include "support/Config.h"
#include "support/Crc32.h"
#include "support/FaultInjector.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <set>
#include <string>
#include <vector>

using namespace brainy;

namespace {

/// Every test that arms the process-wide injector scopes it with this so a
/// failure cannot leak faults into later tests.
struct FaultGuard {
  explicit FaultGuard(const std::string &Spec) {
    Error E = FaultInjector::instance().configure(Spec);
    EXPECT_FALSE(E) << E.message();
  }
  ~FaultGuard() { FaultInjector::instance().clear(); }
};

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + "brainy_robust_" + Name;
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

//===----------------------------------------------------------------------===//
// Error / Expected
//===----------------------------------------------------------------------===//

TEST(ErrorTest, MessageAndPrefix) {
  Error Ok;
  EXPECT_FALSE(Ok);
  EXPECT_EQ(Ok.code(), ErrCode::Ok);

  Error E(ErrCode::BadChecksum, "payload crc 0 want 1");
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(E.message(), "bad-checksum: payload crc 0 want 1");
  EXPECT_EQ(E.withPrefix("bundle 'x'").message(),
            "bad-checksum: bundle 'x': payload crc 0 want 1");
}

TEST(ErrorTest, ExpectedHoldsValueOrError) {
  Expected<int> V(42);
  ASSERT_TRUE(static_cast<bool>(V));
  EXPECT_EQ(*V, 42);
  EXPECT_EQ(V.valueOr(7), 42);

  Expected<int> E(Error(ErrCode::Truncated, "short"));
  ASSERT_FALSE(static_cast<bool>(E));
  EXPECT_EQ(E.error().code(), ErrCode::Truncated);
  EXPECT_EQ(E.valueOr(7), 7);
}

TEST(ErrorTest, Crc32KnownVector) {
  // The standard CRC-32 check value.
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_NE(crc32(std::string("123456788")), crc32(std::string("123456789")));
}

//===----------------------------------------------------------------------===//
// FaultInjector
//===----------------------------------------------------------------------===//

TEST(FaultInjectorTest, SpecParsing) {
  FaultInjector &FI = FaultInjector::instance();
  EXPECT_FALSE(FI.configure("eval:0.5:7"));
  EXPECT_TRUE(FI.enabled(FaultSite::Eval));
  EXPECT_FALSE(FI.enabled(FaultSite::FileIo));

  EXPECT_FALSE(FI.configure("io:1:1,eval:0:2,cache:0.25:3"));
  EXPECT_TRUE(FI.enabled(FaultSite::FileIo));
  EXPECT_TRUE(FI.enabled(FaultSite::CacheLookup));

  EXPECT_TRUE(static_cast<bool>(FI.configure("bogus:0.5:1")));
  EXPECT_TRUE(static_cast<bool>(FI.configure("eval:1.5:1")));
  EXPECT_TRUE(static_cast<bool>(FI.configure("eval:0.5")));
  // A failed configure leaves everything disarmed.
  EXPECT_FALSE(FI.enabled(FaultSite::Eval));
  FI.clear();
}

TEST(FaultInjectorTest, DecisionsAreDeterministic) {
  FaultGuard Guard("eval:0.5:99");
  FaultInjector &FI = FaultInjector::instance();
  std::vector<bool> First, Second;
  for (uint64_t Key = 0; Key != 256; ++Key)
    First.push_back(FI.shouldFail(FaultSite::Eval, Key, 0));
  for (uint64_t Key = 0; Key != 256; ++Key)
    Second.push_back(FI.shouldFail(FaultSite::Eval, Key, 0));
  EXPECT_EQ(First, Second);
  // Roughly half the keys should fail at rate 0.5.
  size_t Fails = 0;
  for (bool B : First)
    Fails += B;
  EXPECT_GT(Fails, 64u);
  EXPECT_LT(Fails, 192u);
  // The salt distinguishes probes under the same key.
  bool SaltMatters = false;
  for (uint64_t Key = 0; Key != 64 && !SaltMatters; ++Key)
    SaltMatters = FI.shouldFail(FaultSite::Eval, Key, 0) !=
                  FI.shouldFail(FaultSite::Eval, Key, 1);
  EXPECT_TRUE(SaltMatters);
}

TEST(FaultInjectorTest, RateZeroAndOne) {
  FaultGuard Guard("eval:0:1,io:1:1");
  FaultInjector &FI = FaultInjector::instance();
  for (uint64_t Key = 1; Key != 64; ++Key) {
    EXPECT_FALSE(FI.shouldFail(FaultSite::Eval, Key));
    EXPECT_TRUE(FI.shouldFail(FaultSite::FileIo, Key));
  }
  EXPECT_EQ(FI.injectedCount(FaultSite::Eval), 0u);
  EXPECT_EQ(FI.injectedCount(FaultSite::FileIo), 63u);
}

//===----------------------------------------------------------------------===//
// Config numeric parsing
//===----------------------------------------------------------------------===//

TEST(ConfigRobustnessTest, RangeErrorsNameKeyAndLine) {
  Config C = Config::fromString("big = 99999999999999999999999999\n"
                                "junk = 12abc\n");
  EXPECT_EQ(C.getInt("big", 7), 7);
  EXPECT_EQ(C.getInt("junk", 9), 9);
  ASSERT_GE(C.errors().size(), 2u);
  bool SawRange = false, SawJunk = false;
  for (const std::string &E : C.errors()) {
    if (E.find("out-of-range") != std::string::npos &&
        E.find("'big'") != std::string::npos &&
        E.find("line 1") != std::string::npos)
      SawRange = true;
    if (E.find("invalid-value") != std::string::npos &&
        E.find("'junk'") != std::string::npos &&
        E.find("line 2") != std::string::npos)
      SawJunk = true;
  }
  EXPECT_TRUE(SawRange);
  EXPECT_TRUE(SawJunk);
}

TEST(ConfigRobustnessTest, DoubleTrailingJunkSurfaces) {
  Config C = Config::fromString("rate = 0.5x\n");
  EXPECT_DOUBLE_EQ(C.getDouble("rate", 2.0), 2.0);
  ASSERT_FALSE(C.errors().empty());
  EXPECT_NE(C.errors().front().find("'rate'"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Bundle hardening
//===----------------------------------------------------------------------===//

TEST(BundleRobustnessTest, TruncationRejectedAtEveryOffset) {
  Brainy B;
  std::string Text = B.toString();
  ASSERT_GT(Text.size(), 64u);
  for (size_t Len = 0; Len != Text.size(); ++Len) {
    Brainy Out;
    Error E = Brainy::parse(Text.substr(0, Len), Out);
    ASSERT_TRUE(static_cast<bool>(E)) << "prefix of " << Len << " parsed";
    EXPECT_FALSE(E.message().empty());
  }
  // The full text round-trips.
  Brainy Out;
  EXPECT_FALSE(Brainy::parse(Text, Out));
}

TEST(BundleRobustnessTest, ByteFlipRejectedAtEveryOffset) {
  Brainy B;
  std::string Text = B.toString();
  for (size_t I = 0; I != Text.size(); ++I) {
    std::string Bad = Text;
    Bad[I] ^= 0x01;
    Brainy Out;
    Error E = Brainy::parse(Bad, Out);
    EXPECT_TRUE(static_cast<bool>(E))
        << "flip at offset " << I << " ('" << Text[I] << "') parsed";
  }
}

TEST(BundleRobustnessTest, ErrorCodesAreDiagnosable) {
  Brainy B;
  std::string Text = B.toString();
  Brainy Out;

  EXPECT_EQ(Brainy::parse("", Out).code(), ErrCode::Truncated);
  EXPECT_EQ(Brainy::parse("not-a-bundle v2\n", Out).code(),
            ErrCode::BadMagic);
  EXPECT_EQ(Brainy::parse("brainy-bundle v1\n", Out).code(),
            ErrCode::BadVersion);

  // Corrupt one payload byte: the CRC catches it before model parsing.
  std::string Bad = Text;
  Bad[Bad.size() - 2] ^= 0x40;
  EXPECT_EQ(Brainy::parse(Bad, Out).code(), ErrCode::BadChecksum);

  // Trailing garbage past the declared payload size.
  EXPECT_EQ(Brainy::parse(Text + "extra", Out).code(), ErrCode::BadFormat);
}

TEST(BundleRobustnessTest, FailedLoadNeverChangesRecommendations) {
  std::string Path = tmpPath("truncated.txt");
  Brainy B;
  ASSERT_FALSE(B.save(Path));
  std::string Text = B.toString();
  for (size_t Len : {size_t(0), Text.size() / 3, Text.size() - 1}) {
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::fwrite(Text.data(), 1, Len, F);
    std::fclose(F);

    Expected<Brainy> L = Brainy::load(Path);
    ASSERT_FALSE(static_cast<bool>(L)) << "truncated at " << Len;
    EXPECT_FALSE(L.error().message().empty());

    // A failed load hands back no advisor, so the one a caller keeps in
    // place is untouched and every recommendation stays "keep the
    // original".
    Brainy Out;
    if (L)
      Out = std::move(*L);
    FeatureVector Fv{};
    for (unsigned M = 0; M != NumModelKinds; ++M) {
      auto Kind = static_cast<ModelKind>(M);
      EXPECT_EQ(Out.recommendWith(Kind, Fv, modelIsOrderOblivious(Kind)),
                modelOriginal(Kind));
    }
  }
  std::remove(Path.c_str());
}

TEST(BundleRobustnessTest, AtomicSavePreservesPriorBundle) {
  std::string Path = tmpPath("atomic.txt");
  Brainy B;
  ASSERT_FALSE(B.save(Path));
  std::string Before = B.toString();

  {
    // Every file-I/O probe fails: the save must report the injected fault
    // and must not disturb the existing bundle or leave a temp file.
    FaultGuard Guard("io:1:3");
    Error E = B.save(Path);
    ASSERT_TRUE(static_cast<bool>(E));
    EXPECT_EQ(E.code(), ErrCode::FaultInjected);
    // load is also fault-gated while armed.
    EXPECT_FALSE(static_cast<bool>(Brainy::load(Path)));
  }
  std::FILE *Tmp = std::fopen((Path + ".tmp").c_str(), "rb");
  EXPECT_EQ(Tmp, nullptr);
  if (Tmp)
    std::fclose(Tmp);

  Expected<Brainy> After = Brainy::load(Path);
  ASSERT_TRUE(static_cast<bool>(After)) << After.error().message();
  EXPECT_EQ(After->toString(), Before);
  std::remove(Path.c_str());
}

TEST(BundleRobustnessTest, TrainOrLoadRetrainsOverCorruptBundle) {
  std::string Path = tmpPath("corrupt.txt");
  {
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::fputs("brainy-bundle v2\ngarbage", F);
    std::fclose(F);
  }
  TrainOptions Opts = tinyOptions();
  Opts.TargetPerDs = 2;
  Opts.MaxSeeds = 80;
  Brainy B = Brainy::trainOrLoad(Opts, MachineConfig::core2(), Path, "tiny");
  EXPECT_EQ(B.machineName(), "core2");
  EXPECT_EQ(B.tag(), "tiny");
  // The corrupt file was replaced with a freshly saved valid bundle.
  Expected<Brainy> Reloaded = Brainy::load(Path, "core2", "tiny");
  ASSERT_TRUE(static_cast<bool>(Reloaded)) << Reloaded.error().message();
  EXPECT_EQ(Reloaded->toString(), B.toString());
  std::remove(Path.c_str());
}

TEST(BundleRobustnessTest, MachineAndTagValidated) {
  std::string Path = tmpPath("mismatch.txt");
  TrainOptions Opts = tinyOptions();
  Opts.TargetPerDs = 2;
  Opts.MaxSeeds = 80;
  Brainy B = Brainy::trainOrLoad(Opts, MachineConfig::core2(), Path, "t1");
  EXPECT_EQ(Brainy::load(Path, "atom", "t1").error().code(),
            ErrCode::MachineMismatch);
  EXPECT_EQ(Brainy::load(Path, "core2", "t2").error().code(),
            ErrCode::TagMismatch);
  EXPECT_TRUE(static_cast<bool>(Brainy::load(Path, "core2", "t1")));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Graceful recommend degradation
//===----------------------------------------------------------------------===//

TEST(RecommendDegradationTest, UntrainedModelKeepsOriginalAndCounts) {
  Brainy B;
  FeatureVector Fv{};
  EXPECT_EQ(B.fallbackCount(), 0u);
  EXPECT_EQ(B.recommendWith(ModelKind::Set, Fv, false), DsKind::Set);
  EXPECT_EQ(B.recommendWith(ModelKind::Vector, Fv, false), DsKind::Vector);
  EXPECT_EQ(B.fallbackCount(), 2u);
}

TEST(RecommendDegradationTest, StrictModeThrowsModelUnavailable) {
  Brainy B;
  B.setStrict(true);
  FeatureVector Fv{};
  try {
    B.recommendWith(ModelKind::Map, Fv, false);
    FAIL() << "strict recommend on an untrained model did not throw";
  } catch (const ErrorException &E) {
    EXPECT_EQ(E.error().code(), ErrCode::ModelUnavailable);
  }
  EXPECT_EQ(B.fallbackCount(), 1u);
}

//===----------------------------------------------------------------------===//
// Trainset hardening
//===----------------------------------------------------------------------===//

TEST(TrainsetRobustnessTest, MalformedSeedFieldRejected) {
  std::vector<TrainExample> Out;
  // Junk between the tabs must not silently parse as a seed.
  EXPECT_FALSE(trainingSetFromString("vector\t12junk\t0\n", Out));
  EXPECT_FALSE(trainingSetFromString("vector\t\t0\n", Out));
  EXPECT_TRUE(Out.empty());
}

TEST(TrainsetRobustnessTest, WriteIsFaultGatedAndAtomic) {
  std::string Path = tmpPath("trainset.tsv");
  std::vector<TrainExample> Examples(1);
  Examples[0].Seed = 5;
  Examples[0].BestDs = DsKind::Vector;
  {
    FaultGuard Guard("io:1:4");
    EXPECT_FALSE(writeTrainingSet(Path, Examples));
  }
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_EQ(F, nullptr) << "fault-gated write still created the file";
  if (F)
    std::fclose(F);
  EXPECT_TRUE(writeTrainingSet(Path, Examples));
  std::vector<TrainExample> Back;
  EXPECT_TRUE(readTrainingSet(Path, Back));
  ASSERT_EQ(Back.size(), 1u);
  EXPECT_EQ(Back[0].Seed, 5u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Fault-isolating Phase I
//===----------------------------------------------------------------------===//

using ResultArray = std::array<PhaseOneResult, NumModelKinds>;

void expectSameResults(const ResultArray &A, const ResultArray &B) {
  for (unsigned M = 0; M != NumModelKinds; ++M) {
    EXPECT_EQ(A[M].SeedsScanned, B[M].SeedsScanned) << "family " << M;
    EXPECT_EQ(A[M].MarginRejects, B[M].MarginRejects) << "family " << M;
    EXPECT_EQ(A[M].SkippedSeeds, B[M].SkippedSeeds) << "family " << M;
    ASSERT_EQ(A[M].SeedDsPairs.size(), B[M].SeedDsPairs.size())
        << "family " << M;
    for (size_t I = 0; I != A[M].SeedDsPairs.size(); ++I) {
      EXPECT_EQ(A[M].SeedDsPairs[I].Seed, B[M].SeedDsPairs[I].Seed);
      EXPECT_EQ(A[M].SeedDsPairs[I].BestDs, B[M].SeedDsPairs[I].BestDs);
    }
  }
}

TEST(FaultyTrainingTest, SkippedSeedsAreRecordedAndSurvivorsUnperturbed) {
  // With retries exhausted instantly (EvalRetries=0) and a 30% eval fault
  // rate, a healthy fraction of seeds is skipped.
  TrainOptions Opts = tinyOptions();
  Opts.EvalRetries = 0;
  MachineConfig MC = MachineConfig::core2();

  ResultArray Faulty;
  {
    FaultGuard Guard("eval:0.3:7");
    TrainingFramework FW(Opts, MC);
    Faulty = FW.phaseOneAll();
  }
  std::set<uint64_t> Skipped;
  for (unsigned M = 0; M != NumModelKinds; ++M)
    Skipped.insert(Faulty[M].SkippedSeeds.begin(),
                   Faulty[M].SkippedSeeds.end());
  ASSERT_FALSE(Skipped.empty()) << "fault rate produced no skips";

  // The acceptance property: a no-fault run excluding exactly the skipped
  // seeds reproduces the fault run bit-for-bit — surviving (seed, bestDS)
  // pairs, counters, and the skip records themselves.
  TrainOptions ExcludeOpts = Opts;
  ExcludeOpts.ExcludeSeeds = Skipped;
  TrainingFramework Clean(ExcludeOpts, MC);
  expectSameResults(Faulty, Clean.phaseOneAll());
}

TEST(FaultyTrainingTest, FaultRunIdenticalAcrossJobs) {
  TrainOptions Serial = tinyOptions();
  Serial.EvalRetries = 0;
  TrainOptions Parallel = Serial;
  Parallel.Jobs = 3;
  MachineConfig MC = MachineConfig::core2();

  FaultGuard Guard("eval:0.25:11");
  TrainingFramework A(Serial, MC);
  TrainingFramework B(Parallel, MC);
  ASSERT_EQ(B.jobs(), 3u);
  expectSameResults(A.phaseOneAll(), B.phaseOneAll());
}

TEST(FaultyTrainingTest, RetriesRecoverTransientFaults) {
  // At rate r with k attempts the per-(seed, attempt) decisions are
  // independent, so generous retries recover almost every seed; with the
  // tiny scan and rate 0.25, 4 attempts make skips vanishingly rare.
  TrainOptions Opts = tinyOptions();
  Opts.EvalRetries = 3;
  Opts.MaxSeeds = 60;
  MachineConfig MC = MachineConfig::core2();

  FaultGuard Guard("eval:0.25:13");
  TrainingFramework FW(Opts, MC);
  ResultArray R = FW.phaseOneAll();
  size_t TotalSkips = 0;
  for (unsigned M = 0; M != NumModelKinds; ++M)
    TotalSkips += R[M].SkippedSeeds.size();
  EXPECT_EQ(TotalSkips, 0u);
  EXPECT_GT(FaultInjector::instance().injectedCount(FaultSite::Eval), 0u);
}

TEST(FaultyTrainingTest, PhaseTwoDropsFailedExamplesOnly) {
  TrainOptions Opts = tinyOptions();
  Opts.EvalRetries = 0;
  MachineConfig MC = MachineConfig::core2();
  TrainingFramework FW(Opts, MC);
  PhaseOneResult P1 = FW.phaseOne(ModelKind::VectorOO);
  ASSERT_FALSE(P1.SeedDsPairs.empty());

  std::vector<TrainExample> Clean = FW.phaseTwo(ModelKind::VectorOO, P1);
  std::vector<TrainExample> Faulty;
  {
    FaultGuard Guard("eval:0.4:17");
    Faulty = FW.phaseTwo(ModelKind::VectorOO, P1);
  }
  EXPECT_LT(Faulty.size(), Clean.size());
  // Survivors keep the recorded order and identical features: dropping an
  // example never perturbs its neighbours.
  size_t CI = 0;
  for (const TrainExample &Ex : Faulty) {
    while (CI != Clean.size() && Clean[CI].Seed != Ex.Seed)
      ++CI;
    ASSERT_NE(CI, Clean.size()) << "survivor not in clean run order";
    EXPECT_EQ(Ex.BestDs, Clean[CI].BestDs);
    EXPECT_EQ(Ex.Features.Values, Clean[CI].Features.Values);
    ++CI;
  }
}

TEST(FaultyTrainingTest, CacheFaultsRemeasureWithoutChangingResults) {
  // A cache fault models a corrupt entry detected on a shared-map hit:
  // the key is remeasured. Measurements are pure, so results match a
  // fault-free run exactly.
  MeasurementCache Cache;
  unsigned Measured = 0;
  auto Measure = [&] {
    ++Measured;
    RunOutcome Run;
    Run.Cycles = 42.0;
    return Run;
  };
  {
    MeasurementCache::Shard S = Cache.shard();
    EXPECT_DOUBLE_EQ(S.cyclesOf(1, DsKind::Vector, nullptr, Measure), 42.0);
    Cache.merge(std::move(S));
  }
  EXPECT_EQ(Measured, 1u);
  {
    FaultGuard Guard("cache:1:5");
    MeasurementCache::Shard S = Cache.shard();
    EXPECT_DOUBLE_EQ(S.cyclesOf(1, DsKind::Vector, nullptr, Measure), 42.0);
    Cache.merge(std::move(S));
    EXPECT_EQ(Measured, 2u) << "corrupt hit was not remeasured";
  }
  // Disarmed again: the (identical) remeasured value serves hits.
  MeasurementCache::Shard S = Cache.shard();
  EXPECT_DOUBLE_EQ(S.cyclesOf(1, DsKind::Vector, nullptr, Measure), 42.0);
  EXPECT_EQ(Measured, 2u);
}

} // namespace
