//===- tests/resume_test.cpp - Resuming Phase I through its cache ---------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// A killed run resumes through its measurement cache (DESIGN.md §13): the
// ordered merge is a pure function of the seed stream and the measured
// cycle counts, so a rerun with the same cache file replays the merged
// prefix from disk. The contracts:
//
//  * a partial run followed by a full run, both through the cache, merges
//    identically to a run that was never interrupted, at any job count on
//    either side, and the serial resume simulates only what the partial
//    run did not;
//  * each periodic save during the scan is a resume point on its own;
//  * seeds the interrupted run lost to failures come back: a resume
//    without faults equals the fault-free run, and a resume under the
//    same faults equals the uninterrupted faulty run.
//
// Corrupt, mismatched and truncated cache files are measurement_store_test's.
//
//===----------------------------------------------------------------------===//

#include "core/TrainingFramework.h"
#include "support/Error.h"
#include "support/FaultInjector.h"
#include "support/FramedFile.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

using namespace brainy;

namespace {

using ResultArray = std::array<PhaseOneResult, NumModelKinds>;

void expectSameResult(const PhaseOneResult &A, const PhaseOneResult &B,
                      unsigned M) {
  EXPECT_EQ(A.SeedsScanned, B.SeedsScanned) << "family " << M;
  EXPECT_EQ(A.MarginRejects, B.MarginRejects) << "family " << M;
  EXPECT_EQ(A.SkippedSeeds, B.SkippedSeeds) << "family " << M;
  ASSERT_EQ(A.SeedDsPairs.size(), B.SeedDsPairs.size()) << "family " << M;
  for (size_t I = 0; I != A.SeedDsPairs.size(); ++I) {
    EXPECT_EQ(A.SeedDsPairs[I].Seed, B.SeedDsPairs[I].Seed);
    EXPECT_EQ(A.SeedDsPairs[I].BestDs, B.SeedDsPairs[I].BestDs);
  }
}

void expectSameResults(const ResultArray &A, const ResultArray &B) {
  for (unsigned M = 0; M != NumModelKinds; ++M)
    expectSameResult(A[M], B[M], M);
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

/// A path under the test temp directory with no file behind it.
std::string freshPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + Name;
  std::remove(Path.c_str());
  return Path;
}

void copyFile(const std::string &From, const std::string &To) {
  Expected<std::string> Text = readFile(From);
  ASSERT_TRUE(Text) << Text.error().message();
  Error E = writeFileAtomic(To, *Text);
  ASSERT_FALSE(E) << E.message();
}

struct FaultGuard {
  explicit FaultGuard(const std::string &Spec) {
    Error E = FaultInjector::instance().configure(Spec);
    EXPECT_FALSE(E) << E.message();
  }
  ~FaultGuard() { FaultInjector::instance().clear(); }
};

/// Evaluates the window's claims on the calling thread through another
/// framework's tryEvalSeed, into a cache of its own that the window saves.
/// After each claim it looks for the cache file and copies it the moment
/// the first periodic save lands, before the scan goes on.
class SnapshotService : public ChunkEvalService {
public:
  SnapshotService(const TrainingFramework &Evaluator, std::string Path,
                  std::string CopyPath)
      : Evaluator(Evaluator), Path(std::move(Path)),
        CopyPath(std::move(CopyPath)) {}

  unsigned width() const override { return 1; }

  std::vector<SeedEvalResult>
  evalWave(uint64_t, uint64_t, const std::array<bool, NumModelKinds> &)
      override {
    ADD_FAILURE() << "the window drives this service through run()";
    return {};
  }

  void run(PhaseOneWindow &Window) override {
    SeedClaim Claim;
    while (Window.claim(Claim)) {
      std::vector<SeedEvalResult> Slots(
          static_cast<size_t>(Claim.EndSeed - Claim.BeginSeed));
      MeasurementCache::Shard Shard = Cache.shard();
      for (uint64_t Seed = Claim.BeginSeed; Seed != Claim.EndSeed; ++Seed) {
        SeedEvalResult &Slot = Slots[Seed - Claim.BeginSeed];
        Slot.Ok = Evaluator.tryEvalSeed(Seed, Claim.Wanted, Shard,
                                        Slot.Outcomes);
      }
      Cache.merge(std::move(Shard));
      Window.complete(Claim, std::move(Slots));
      if (CopiedAt == 0 && readFile(Path)) {
        copyFile(Path, CopyPath);
        CopiedAt = Claim.EndSeed;
      }
    }
  }

  const MeasurementCache *measurements() const override { return &Cache; }

  /// The seed just past the claim after which the copy was taken, or 0.
  uint64_t CopiedAt = 0;

private:
  const TrainingFramework &Evaluator;
  const std::string Path, CopyPath;
  MeasurementCache Cache;
};

TEST(ResumeTest, PartialRunThenFullRunMatchesUninterrupted) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = freshPath("brainy_resume_jobs.txt");

  TrainingFramework Uninterrupted(tinyOptions(), MC);
  ResultArray Want = Uninterrupted.phaseOneAll();

  // A capped seed budget stands in for a kill. The cache fingerprint
  // covers only the generator and the machine, so the partial run's file
  // serves the full run. 41 is a multiple of no claim size.
  TrainOptions Partial = tinyOptions();
  Partial.Jobs = 3;
  Partial.MaxSeeds = 41;
  Partial.MeasurementCacheFile = Path;
  {
    TrainingFramework PartialRun(Partial, MC);
    (void)PartialRun.phaseOneAll();
  }

  TrainOptions Full = tinyOptions();
  Full.Jobs = 2;
  Full.MeasurementCacheFile = Path;
  TrainingFramework Resumed(Full, MC);
  EXPECT_GT(Resumed.loadedMeasurements(), 0u);
  expectSameResults(Want, Resumed.phaseOneAll());
  std::remove(Path.c_str());
}

TEST(ResumeTest, SerialResumeSimulatesOnlyWhatThePartialRunDidNot) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = freshPath("brainy_resume_serial.txt");

  TrainingFramework Uninterrupted(tinyOptions(), MC);
  PhaseOneStats Stats;
  ResultArray Want = Uninterrupted.phaseOneAll(&Stats);
  ASSERT_GT(Stats.SeedsCommitted, 41u)
      << "the scan must outlast the partial run for this test to mean "
         "anything";

  TrainOptions Partial = tinyOptions();
  Partial.MaxSeeds = 41;
  Partial.MeasurementCacheFile = Path;
  uint64_t PartialFresh = 0;
  {
    TrainingFramework PartialRun(Partial, MC);
    (void)PartialRun.phaseOneAll();
    PartialFresh = PartialRun.measurements().freshMeasurements();
  }
  ASSERT_GT(PartialFresh, 0u);

  // Jobs=1 does not speculate, so the resume asks for exactly the
  // measurements the partial run saved, then for the rest of the scan.
  TrainOptions Full = tinyOptions();
  Full.MeasurementCacheFile = Path;
  TrainingFramework Resumed(Full, MC);
  expectSameResults(Want, Resumed.phaseOneAll());
  EXPECT_EQ(Resumed.measurements().freshMeasurements(),
            Uninterrupted.measurements().freshMeasurements() - PartialFresh);
  std::remove(Path.c_str());
}

TEST(ResumeTest, APeriodicSaveMidScanIsAResumePoint) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = freshPath("brainy_resume_periodic.txt");
  std::string CopyPath = freshPath("brainy_resume_periodic_copy.txt");

  // A scan past the first periodic save: no family can fill at this
  // target, so the budget binds, and tiny apps keep each seed cheap.
  TrainOptions Opts;
  Opts.TargetPerDs = 1u << 20;
  Opts.MaxSeeds = PhaseOneSaveEvery + 3 * PhaseOneChunk;
  Opts.GenConfig.TotalInterfCalls = 24;
  Opts.GenConfig.MaxInitialSize = 16;
  Opts.Jobs = 1;

  // Two local evaluators save their own file on the way, so the periodic
  // save also runs beside a concurrent evaluator.
  TrainOptions Local = Opts;
  Local.Jobs = 2;
  Local.MeasurementCacheFile = freshPath("brainy_resume_periodic_local.txt");
  TrainingFramework Uninterrupted(Local, MC);
  PhaseOneResult Want = Uninterrupted.phaseOne(ModelKind::Vector);
  std::remove(Local.MeasurementCacheFile.c_str());

  TrainingFramework Evaluator(Opts, MC);
  SnapshotService Service(Evaluator, Path, CopyPath);
  TrainOptions Saving = Opts;
  Saving.MeasurementCacheFile = Path;
  Saving.Distribution = &Service;
  size_t Records = 0;
  {
    TrainingFramework FW(Saving, MC);
    expectSameResult(Want, FW.phaseOne(ModelKind::Vector),
                     static_cast<unsigned>(ModelKind::Vector));
    Records = Service.measurements()->seeds();
  }
  ASSERT_EQ(Service.CopiedAt, Opts.FirstSeed + PhaseOneSaveEvery)
      << "the first save did not land PhaseOneSaveEvery seeds in";

  // The copy is the scan as it stood after the first save: a run resumed
  // from it replays those seeds and simulates only the rest.
  TrainOptions Resume = Opts;
  Resume.MeasurementCacheFile = CopyPath;
  TrainingFramework Resumed(Resume, MC);
  EXPECT_GT(Resumed.loadedMeasurements(), 0u);
  EXPECT_LT(Resumed.loadedMeasurements(), Records);
  expectSameResult(Want, Resumed.phaseOne(ModelKind::Vector),
                   static_cast<unsigned>(ModelKind::Vector));
  EXPECT_GT(Resumed.measurements().freshMeasurements(), 0u);
  EXPECT_LT(Resumed.measurements().freshMeasurements(),
            Uninterrupted.measurements().freshMeasurements());
  std::remove(Path.c_str());
  std::remove(CopyPath.c_str());
}

TEST(ResumeTest, SeedsLostByThePartialRunComeBack) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = freshPath("brainy_resume_lost.txt");
  std::string FaultyPath = freshPath("brainy_resume_lost_faulty.txt");
  // Seeds that fail all three attempts are skipped: an eighth of them.
  const std::string Faults = "eval:0.5:5";

  ResultArray Clean = TrainingFramework(tinyOptions(), MC).phaseOneAll();
  ResultArray Faulty;
  {
    FaultGuard Guard(Faults);
    Faulty = TrainingFramework(tinyOptions(), MC).phaseOneAll();
  }

  TrainOptions Partial = tinyOptions();
  Partial.MaxSeeds = 41;
  Partial.MeasurementCacheFile = Path;
  {
    FaultGuard Guard(Faults);
    ResultArray Lossy = TrainingFramework(Partial, MC).phaseOneAll();
    size_t Skipped = 0;
    for (const PhaseOneResult &R : Lossy)
      Skipped += R.SkippedSeeds.size();
    ASSERT_GT(Skipped, 0u) << "the fault spec skipped no seed";
  }
  copyFile(Path, FaultyPath);

  // The cache holds what the partial run measured, not what it lost, so
  // a resume evaluates the lost seeds again.
  TrainOptions Full = tinyOptions();
  Full.MeasurementCacheFile = Path;
  expectSameResults(Clean, TrainingFramework(Full, MC).phaseOneAll());

  // Under the same faults, the same seeds are lost again.
  Full.MeasurementCacheFile = FaultyPath;
  {
    FaultGuard Guard(Faults);
    expectSameResults(Faulty, TrainingFramework(Full, MC).phaseOneAll());
  }
  std::remove(Path.c_str());
  std::remove(FaultyPath.c_str());
}

} // namespace
