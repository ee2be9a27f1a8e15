//===- tests/checkpoint_test.cpp - Resumable Phase I checkpoints ----------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// The checkpoint store's contracts (DESIGN.md §13):
//
//  * `brainy-ckpt v1` round-trips the Phase I merge's entire state — results,
//    next offset, stopped flag — byte-for-byte;
//  * every corruption — bad magic/version/CRC, truncation, machine or
//    fingerprint mismatch, malformed or out-of-order records — rejects
//    the whole file with the right error code;
//  * a framework run that resumes from a partial run's checkpoint merges
//    identically to one that was never interrupted, regardless of the
//    worker width on either side of the restart;
//  * a corrupt or config-mismatched checkpoint cold-starts the run and is
//    then overwritten — it can cost resumability, never correctness.
//
//===----------------------------------------------------------------------===//

#include "core/Checkpoint.h"
#include "core/TrainingFramework.h"
#include "support/Error.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

using namespace brainy;

namespace {

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

/// A checkpoint exercising every record shape: pairs, skips, per-family
/// counters, a non-zero offset, and an asymmetric family distribution.
TrainCheckpoint sampleCheckpoint() {
  TrainCheckpoint Ck;
  Ck.NextOffset = 96;
  Ck.Stopped = false;
  PhaseOneResult &R0 = Ck.Results[0];
  R0.SeedsScanned = 41;
  R0.MarginRejects = 7;
  R0.SeedDsPairs = {{3, DsKind::Vector}, {9, static_cast<DsKind>(2)},
                    {40, static_cast<DsKind>(NumDsKinds - 1)}};
  R0.SkippedSeeds = {17, 18};
  PhaseOneResult &R1 = Ck.Results[1];
  R1.SeedsScanned = 12;
  R1.SeedDsPairs = {{5, static_cast<DsKind>(1)}};
  // Families 2.. stay empty — empty sections must round-trip too.
  return Ck;
}

constexpr uint64_t Fp = 0x1234abcd5678ef09ull;
const char *const MachineName = "core2";

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

std::vector<ModelKind> allModels() {
  std::vector<ModelKind> Models;
  for (unsigned M = 0; M != NumModelKinds; ++M)
    Models.push_back(static_cast<ModelKind>(M));
  return Models;
}

ErrCode parseFailure(const std::string &Text, uint64_t WantFp = Fp,
                     const std::string &Machine = MachineName) {
  Expected<TrainCheckpoint> Ck = parseCheckpoint(Text, WantFp, Machine);
  if (Ck) {
    ADD_FAILURE() << "corrupt checkpoint accepted";
    return ErrCode::InvalidValue;
  }
  return Ck.error().code();
}

//===----------------------------------------------------------------------===//
// Format round-trip
//===----------------------------------------------------------------------===//

TEST(CheckpointFormatTest, RoundTripsEveryField) {
  TrainCheckpoint Ck = sampleCheckpoint();
  std::string Text = checkpointToString(Ck, Fp, MachineName);
  Expected<TrainCheckpoint> Back = parseCheckpoint(Text, Fp, MachineName);
  ASSERT_TRUE(Back) << Back.error().message();
  EXPECT_EQ(Back->NextOffset, 96u);
  EXPECT_FALSE(Back->Stopped);
  expectSameResults(Ck.Results, Back->Results);
  // Serialisation is canonical: re-encoding the parse is byte-identical.
  EXPECT_EQ(checkpointToString(*Back, Fp, MachineName), Text);
}

TEST(CheckpointFormatTest, BytesArePinned) {
  // Files written by earlier builds must keep loading: any change to the
  // layout shows here first.
  EXPECT_EQ(checkpointToString(sampleCheckpoint(), Fp, MachineName),
            "brainy-ckpt v1\n"
            "machine core2\n"
            "fingerprint 1234abcd5678ef09\n"
            "next 96 stopped 0\n"
            "payload 325 crc32 b3c58209\n"
            "family 0 scanned 41 rejects 7 pairs 3 skips 2\n"
            "pair 3 0\n"
            "pair 9 2\n"
            "pair 40 8\n"
            "skip 17\n"
            "skip 18\n"
            "family 1 scanned 12 rejects 0 pairs 1 skips 0\n"
            "pair 5 1\n"
            "family 2 scanned 0 rejects 0 pairs 0 skips 0\n"
            "family 3 scanned 0 rejects 0 pairs 0 skips 0\n"
            "family 4 scanned 0 rejects 0 pairs 0 skips 0\n"
            "family 5 scanned 0 rejects 0 pairs 0 skips 0\n");
}

TEST(CheckpointFormatTest, StoppedFlagRoundTrips) {
  TrainCheckpoint Ck = sampleCheckpoint();
  Ck.Stopped = true;
  Expected<TrainCheckpoint> Back =
      parseCheckpoint(checkpointToString(Ck, Fp, MachineName), Fp,
                      MachineName);
  ASSERT_TRUE(Back) << Back.error().message();
  EXPECT_TRUE(Back->Stopped);
}

TEST(CheckpointFormatTest, SaveThenLoadRoundTrips) {
  std::string Path = ::testing::TempDir() + "brainy_ckpt_roundtrip.txt";
  std::remove(Path.c_str());
  TrainCheckpoint Ck = sampleCheckpoint();
  Error E = saveCheckpoint(Path, Ck, Fp, MachineName);
  ASSERT_FALSE(E) << E.message();
  Expected<TrainCheckpoint> Back = loadCheckpoint(Path, Fp, MachineName);
  ASSERT_TRUE(Back) << Back.error().message();
  EXPECT_EQ(Back->NextOffset, Ck.NextOffset);
  expectSameResults(Ck.Results, Back->Results);
  std::remove(Path.c_str());
}

TEST(CheckpointFormatTest, MissingFileIsPlainIoError) {
  Expected<TrainCheckpoint> Ck = loadCheckpoint(
      ::testing::TempDir() + "brainy_ckpt_nonexistent.txt", Fp, MachineName);
  ASSERT_FALSE(Ck);
  EXPECT_EQ(Ck.error().code(), ErrCode::IoError);
}

//===----------------------------------------------------------------------===//
// Rejection matrix — every corruption refuses the whole file
//===----------------------------------------------------------------------===//

TEST(CheckpointFormatTest, RejectsEveryCorruption) {
  std::string Good = checkpointToString(sampleCheckpoint(), Fp, MachineName);
  ASSERT_TRUE(parseCheckpoint(Good, Fp, MachineName));

  EXPECT_EQ(parseFailure(""), ErrCode::Truncated);
  EXPECT_EQ(parseFailure("brainy-model v2\nsomething"), ErrCode::BadMagic);

  std::string Bad = Good;
  Bad[Bad.find("v1")] = 'v' + 1; // "brainy-ckpt w1"
  EXPECT_EQ(parseFailure(Bad), ErrCode::BadVersion);

  EXPECT_EQ(parseFailure(Good, Fp, "atom"), ErrCode::MachineMismatch);
  EXPECT_EQ(parseFailure(Good, Fp ^ 1), ErrCode::TagMismatch);

  // Truncation anywhere: in the header, at the payload boundary, inside a
  // record list.
  EXPECT_EQ(parseFailure(Good.substr(0, Good.find("machine"))),
            ErrCode::Truncated);
  EXPECT_EQ(parseFailure(Good.substr(0, Good.size() - 10)),
            ErrCode::Truncated);

  // One flipped payload byte fails the CRC before any record is parsed.
  Bad = Good;
  Bad[Bad.find("pair 3")] ^= 0x01;
  EXPECT_EQ(parseFailure(Bad), ErrCode::BadChecksum);

  // Trailing garbage after the declared payload is not ignored.
  EXPECT_EQ(parseFailure(Good + "extra\n"), ErrCode::BadFormat);

  // Structural damage past the CRC needs a re-encoded file: out-of-order
  // pairs, a kind outside the enum, a family header mismatch.
  TrainCheckpoint Disordered = sampleCheckpoint();
  std::swap(Disordered.Results[0].SeedDsPairs[0],
            Disordered.Results[0].SeedDsPairs[2]);
  EXPECT_EQ(parseFailure(checkpointToString(Disordered, Fp, MachineName)),
            ErrCode::BadFormat);

  TrainCheckpoint BadKind = sampleCheckpoint();
  BadKind.Results[0].SeedDsPairs[1].BestDs = static_cast<DsKind>(NumDsKinds);
  EXPECT_EQ(parseFailure(checkpointToString(BadKind, Fp, MachineName)),
            ErrCode::BadFormat);

  TrainCheckpoint BadSkips = sampleCheckpoint();
  BadSkips.Results[0].SkippedSeeds = {18, 17};
  EXPECT_EQ(parseFailure(checkpointToString(BadSkips, Fp, MachineName)),
            ErrCode::BadFormat);
}

TEST(CheckpointFormatTest, FingerprintSeparatesRunConfigurations) {
  TrainOptions Opts = tinyOptions();
  MachineConfig MC = MachineConfig::core2();
  uint64_t Base = checkpointFingerprint(Opts, MC, allModels(), false);

  // MaxSeeds is deliberately NOT fingerprinted: a saved prefix
  // checkpoint is valid for any seed budget (that is what makes a
  // capped partial run a faithful stand-in for a killed full run).
  TrainOptions Budget = Opts;
  Budget.MaxSeeds = 5 * Opts.MaxSeeds;
  EXPECT_EQ(checkpointFingerprint(Budget, MC, allModels(), false), Base);

  // Every knob a merge decision depends on must separate.
  TrainOptions Target = Opts;
  Target.TargetPerDs += 1;
  EXPECT_NE(checkpointFingerprint(Target, MC, allModels(), false), Base);
  TrainOptions Margin = Opts;
  Margin.WinnerMargin *= 2;
  EXPECT_NE(checkpointFingerprint(Margin, MC, allModels(), false), Base);
  TrainOptions Excl = Opts;
  Excl.ExcludeSeeds = {42};
  EXPECT_NE(checkpointFingerprint(Excl, MC, allModels(), false), Base);
  TrainOptions Gen = Opts;
  Gen.GenConfig.TotalInterfCalls += 1;
  EXPECT_NE(checkpointFingerprint(Gen, MC, allModels(), false), Base);
  EXPECT_NE(checkpointFingerprint(Opts, MachineConfig::atom(), allModels(),
                                  false),
            Base);
  // A phaseOne({Model}) run cannot resume a phaseOneAll checkpoint.
  EXPECT_NE(checkpointFingerprint(Opts, MC, {ModelKind::Vector}, true), Base);
}

//===----------------------------------------------------------------------===//
// Framework resumability
//===----------------------------------------------------------------------===//

TEST(CheckpointResumeTest, CheckpointedRunMatchesSerialAndResumesStopped) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = ::testing::TempDir() + "brainy_ckpt_serial.txt";
  std::remove(Path.c_str());

  TrainingFramework Serial(tinyOptions(), MC);
  ResultArray Want = Serial.phaseOneAll();

  // Checkpoint saves happen inside the ordered merge; the results must not
  // move.
  TrainOptions Opts = tinyOptions();
  Opts.CheckpointFile = Path;
  TrainingFramework Checkpointed(Opts, MC);
  expectSameResults(Want, Checkpointed.phaseOneAll());

  // The finished run saved its final prefix: the checkpoint is either
  // Stopped (every family full) or parked at the seed-budget boundary.
  // Either way a rerun restores the results wholesale without consuming
  // a single fresh seed.
  Expected<TrainCheckpoint> Ck = loadCheckpoint(
      Path,
      checkpointFingerprint(Opts, MC, allModels(),
                            /*CountUnmatchedSeeds=*/false),
      MC.Name);
  ASSERT_TRUE(Ck) << Ck.error().message();
  EXPECT_TRUE(Ck->Stopped || Ck->NextOffset == Opts.MaxSeeds)
      << "full run did not commit a final checkpoint";
  TrainingFramework Rerun(Opts, MC);
  expectSameResults(Want, Rerun.phaseOneAll());
  std::remove(Path.c_str());
}

TEST(CheckpointResumeTest, PartialRunResumesToIdenticalResults) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = ::testing::TempDir() + "brainy_ckpt_resume.txt";
  std::remove(Path.c_str());

  TrainingFramework Uninterrupted(tinyOptions(), MC);
  ResultArray Want = Uninterrupted.phaseOneAll();

  // Simulate a mid-run kill: cap MaxSeeds at 32. The fingerprint ignores
  // MaxSeeds, so the saved prefix is a valid resume point for the full
  // budget.
  TrainOptions Partial = tinyOptions();
  Partial.MaxSeeds = 32;
  Partial.CheckpointFile = Path;
  TrainingFramework PartialRun(Partial, MC);
  (void)PartialRun.phaseOneAll();

  TrainOptions Full = tinyOptions();
  Full.CheckpointFile = Path;
  Expected<TrainCheckpoint> Ck = loadCheckpoint(
      Path,
      checkpointFingerprint(Full, MC, allModels(),
                            /*CountUnmatchedSeeds=*/false),
      MC.Name);
  ASSERT_TRUE(Ck) << Ck.error().message();
  ASSERT_EQ(Ck->NextOffset, 32u) << "partial run committed the wrong boundary";

  TrainingFramework Resumed(Full, MC);
  expectSameResults(Want, Resumed.phaseOneAll());
  std::remove(Path.c_str());
}

TEST(CheckpointResumeTest, ParallelPrefixResumesUnderAnotherJobCount) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = ::testing::TempDir() + "brainy_ckpt_jobs.txt";
  std::remove(Path.c_str());

  TrainingFramework Uninterrupted(tinyOptions(), MC);
  ResultArray Want = Uninterrupted.phaseOneAll();

  // A budget that is not a multiple of the save cadence (16 seeds per
  // evaluator): the final save still lands exactly on the budget.
  TrainOptions Partial = tinyOptions();
  Partial.Jobs = 3;
  Partial.MaxSeeds = 41;
  Partial.CheckpointFile = Path;
  TrainingFramework PartialRun(Partial, MC);
  (void)PartialRun.phaseOneAll();
  Expected<TrainCheckpoint> Ck = loadCheckpoint(
      Path,
      checkpointFingerprint(Partial, MC, allModels(),
                            /*CountUnmatchedSeeds=*/false),
      MC.Name);
  ASSERT_TRUE(Ck) << Ck.error().message();
  EXPECT_EQ(Ck->NextOffset, 41u);

  TrainOptions Full = tinyOptions();
  Full.Jobs = 2;
  Full.CheckpointFile = Path;
  TrainingFramework Resumed(Full, MC);
  expectSameResults(Want, Resumed.phaseOneAll());
  std::remove(Path.c_str());
}

TEST(CheckpointResumeTest, CorruptCheckpointColdStartsCleanly) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = ::testing::TempDir() + "brainy_ckpt_corrupt.txt";

  TrainingFramework Serial(tinyOptions(), MC);
  ResultArray Want = Serial.phaseOneAll();

  const char *Corruptions[] = {
      "not a checkpoint at all\n",
      "brainy-ckpt v1\nmachine core2\ntruncated right here",
      "brainy-ckpt v9\nmachine core2\n",
  };
  for (const char *Text : Corruptions) {
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_TRUE(F);
    std::fputs(Text, F);
    std::fclose(F);

    TrainOptions Opts = tinyOptions();
    Opts.CheckpointFile = Path;
    TrainingFramework FW(Opts, MC);
    expectSameResults(Want, FW.phaseOneAll());
  }
  std::remove(Path.c_str());
}

TEST(CheckpointResumeTest, MismatchedConfigCheckpointColdStartsCleanly) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = ::testing::TempDir() + "brainy_ckpt_mismatch.txt";
  std::remove(Path.c_str());

  // Leave behind a checkpoint from a run with a different Phase I
  // threshold — plausible operator error when tuning knobs mid-campaign.
  TrainOptions Other = tinyOptions();
  Other.TargetPerDs = 2;
  Other.CheckpointFile = Path;
  TrainingFramework OtherRun(Other, MC);
  (void)OtherRun.phaseOneAll();

  TrainOptions Opts = tinyOptions();
  Opts.CheckpointFile = Path;
  TrainingFramework Serial(tinyOptions(), MC);
  TrainingFramework FW(Opts, MC);
  expectSameResults(Serial.phaseOneAll(), FW.phaseOneAll());

  // The cold start overwrote the stale file with a matching checkpoint.
  Expected<TrainCheckpoint> Ck = loadCheckpoint(
      Path,
      checkpointFingerprint(Opts, MC, allModels(),
                            /*CountUnmatchedSeeds=*/false),
      MC.Name);
  EXPECT_TRUE(Ck) << Ck.error().message();
  std::remove(Path.c_str());
}

} // namespace
