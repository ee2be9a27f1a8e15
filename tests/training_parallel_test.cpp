//===- tests/training_parallel_test.cpp - Jobs=N determinism --------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// The parallel training pipeline's hard contract: any Jobs value produces
// byte-identical results to the serial run — Phase I pairs and counters,
// Phase II examples, trained models, GA feature selection. Plus unit tests
// for the ThreadPool itself and for Phase I's ordered-commit window.
//
//===----------------------------------------------------------------------===//

#include "core/Brainy.h"
#include "ml/GaSelect.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

using namespace brainy;

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool Pool(3);
  std::vector<std::atomic<int>> Hits(257);
  Pool.parallelFor(0, Hits.size(),
                   [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, ParallelForCoversOffsetRangeOnly) {
  ThreadPool Pool(2);
  std::vector<std::atomic<int>> Hits(100);
  Pool.parallelFor(10, 90, [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), I >= 10 && I < 90 ? 1 : 0) << "index " << I;
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  ThreadPool Pool(3);
  EXPECT_THROW(Pool.parallelFor(0, 64,
                                [](size_t I) {
                                  if (I == 13)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives a throwing job and keeps working.
  std::atomic<int> Count{0};
  Pool.parallelFor(0, 32, [&](size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 32);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I != 64; ++I)
      Pool.submit([&Ran] { Ran.fetch_add(1); });
  }
  EXPECT_EQ(Ran.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool Pool(2);
  std::atomic<int> Inner{0};
  Pool.parallelFor(0, 8, [&](size_t) {
    // Re-entrant use from a worker (or the participating caller) must not
    // deadlock; it runs the nested range to completion.
    Pool.parallelFor(0, 4, [&](size_t) { Inner.fetch_add(1); });
  });
  EXPECT_EQ(Inner.load(), 8 * 4);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsSerially) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.workers(), 0u);
  int Sum = 0; // no atomics needed: everything runs on this thread
  Pool.parallelFor(0, 10, [&](size_t I) { Sum += static_cast<int>(I); });
  EXPECT_EQ(Sum, 45);
}

//===----------------------------------------------------------------------===//
// Parallel training determinism
//===----------------------------------------------------------------------===//

namespace {

TrainOptions parOptions(unsigned Jobs) {
  TrainOptions Opts;
  Opts.TargetPerDs = 6;
  Opts.MaxSeeds = 400;
  Opts.GenConfig.TotalInterfCalls = 200;
  Opts.GenConfig.MaxInitialSize = 500;
  Opts.Net.Epochs = 25;
  Opts.Jobs = Jobs;
  return Opts;
}

void expectSameResult(const PhaseOneResult &Serial,
                      const PhaseOneResult &Parallel) {
  EXPECT_EQ(Serial.SeedsScanned, Parallel.SeedsScanned);
  EXPECT_EQ(Serial.MarginRejects, Parallel.MarginRejects);
  ASSERT_EQ(Serial.SeedDsPairs.size(), Parallel.SeedDsPairs.size());
  for (size_t I = 0; I != Serial.SeedDsPairs.size(); ++I) {
    EXPECT_EQ(Serial.SeedDsPairs[I].Seed, Parallel.SeedDsPairs[I].Seed);
    EXPECT_EQ(Serial.SeedDsPairs[I].BestDs, Parallel.SeedDsPairs[I].BestDs);
  }
}

} // namespace

TEST(TrainingParallelTest, PhaseOneIdenticalAcrossJobs) {
  MachineConfig MC = MachineConfig::core2();
  TrainingFramework Serial(parOptions(1), MC);
  TrainingFramework Parallel(parOptions(4), MC);
  EXPECT_EQ(Serial.jobs(), 1u);
  EXPECT_EQ(Parallel.jobs(), 4u);
  for (ModelKind MK : {ModelKind::VectorOO, ModelKind::Set})
    expectSameResult(Serial.phaseOne(MK), Parallel.phaseOne(MK));
}

TEST(TrainingParallelTest, PhaseOneAllIdenticalAcrossJobs) {
  MachineConfig MC = MachineConfig::core2();
  TrainingFramework Serial(parOptions(1), MC);
  TrainingFramework Parallel(parOptions(4), MC);
  auto SerialAll = Serial.phaseOneAll();
  auto ParallelAll = Parallel.phaseOneAll();
  for (unsigned M = 0; M != NumModelKinds; ++M)
    expectSameResult(SerialAll[M], ParallelAll[M]);
}

TEST(TrainingParallelTest, PhaseTwoIdenticalAcrossJobs) {
  MachineConfig MC = MachineConfig::atom();
  TrainingFramework Serial(parOptions(1), MC);
  TrainingFramework Parallel(parOptions(3), MC);
  ModelKind MK = ModelKind::Vector;
  PhaseOneResult P1 = Serial.phaseOne(MK);
  std::vector<TrainExample> A = Serial.phaseTwo(MK, P1);
  std::vector<TrainExample> B = Parallel.phaseTwo(MK, P1);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Seed, B[I].Seed);
    EXPECT_EQ(A[I].BestDs, B[I].BestDs);
    EXPECT_EQ(A[I].Features.Values, B[I].Features.Values);
  }
}

TEST(TrainingParallelTest, PhaseTwoAllMatchesPerFamilyPhaseTwo) {
  MachineConfig MC = MachineConfig::core2();
  TrainingFramework FW(parOptions(3), MC);
  auto P1 = FW.phaseOneAll();
  auto All = FW.phaseTwoAll(P1);
  for (unsigned M = 0; M != NumModelKinds; ++M) {
    std::vector<TrainExample> One =
        FW.phaseTwo(static_cast<ModelKind>(M), P1[M]);
    ASSERT_EQ(All[M].size(), One.size()) << "family " << M;
    for (size_t I = 0; I != One.size(); ++I) {
      EXPECT_EQ(All[M][I].Seed, One[I].Seed);
      EXPECT_EQ(All[M][I].BestDs, One[I].BestDs);
      EXPECT_EQ(All[M][I].Features.Values, One[I].Features.Values);
    }
  }
}

//===----------------------------------------------------------------------===//
// The ordered-commit window
//===----------------------------------------------------------------------===//

namespace {

/// A single-threaded service that hands the window's claims back in the
/// worst order: it takes a whole window's worth of chunks, evaluates them,
/// and completes them newest first, so every commit but the last finds its
/// predecessor missing.
class ReversingService : public ChunkEvalService {
public:
  ReversingService(const TrainingFramework &Evaluator, unsigned Width)
      : Evaluator(Evaluator), Width(Width) {}

  unsigned width() const override { return Width; }

  std::vector<SeedEvalResult>
  evalWave(uint64_t, uint64_t,
           const std::array<bool, NumModelKinds> &) override {
    ADD_FAILURE() << "the window never needs a wave";
    return {};
  }

  void run(PhaseOneWindow &Window) override {
    MeasurementCache::Shard Shard = Evaluator.measurements().shard();
    for (;;) {
      std::vector<SeedClaim> Claims;
      SeedClaim Claim;
      while (Claims.size() != Window.depth() && Window.claim(Claim))
        Claims.push_back(Claim);
      if (Claims.empty())
        return;
      MaxInFlight = std::max<size_t>(MaxInFlight, Claims.size());
      for (auto It = Claims.rbegin(); It != Claims.rend(); ++It) {
        std::vector<SeedEvalResult> Slots(It->EndSeed - It->BeginSeed);
        for (uint64_t Seed = It->BeginSeed; Seed != It->EndSeed; ++Seed) {
          SeedEvalResult &Slot = Slots[Seed - It->BeginSeed];
          Slot.Ok = Evaluator.tryEvalSeed(Seed, It->Wanted, Shard,
                                          Slot.Outcomes);
        }
        Window.complete(*It, std::move(Slots));
      }
    }
  }

  size_t MaxInFlight = 0;

private:
  const TrainingFramework &Evaluator;
  unsigned Width;
};

} // namespace

TEST(PhaseOneWindowTest, OutOfOrderCompletionMergesInSeedOrder) {
  MachineConfig MC = MachineConfig::core2();
  TrainingFramework Serial(parOptions(1), MC);
  auto Want = Serial.phaseOneAll();

  TrainingFramework Evaluator(parOptions(1), MC);
  ReversingService Service(Evaluator, 3);
  TrainOptions Opts = parOptions(1);
  Opts.Distribution = &Service;
  TrainingFramework FW(Opts, MC);
  PhaseOneStats Stats;
  auto Got = FW.phaseOneAll(&Stats);
  for (unsigned M = 0; M != NumModelKinds; ++M)
    expectSameResult(Want[M], Got[M]);
  // The window admitted two chunks per evaluator, never more.
  EXPECT_EQ(Service.MaxInFlight, 6u);
  EXPECT_GE(Stats.SeedsClaimed, Stats.SeedsCommitted);
  EXPECT_LE(Stats.SeedsClaimed - Stats.SeedsCommitted, 6 * PhaseOneChunk);
}

namespace {

/// A single-family scan that fills up well before its seed cap.
TrainOptions stoppingOptions(unsigned Jobs) {
  TrainOptions Opts = parOptions(Jobs);
  Opts.TargetPerDs = 2;
  return Opts;
}

} // namespace

TEST(PhaseOneWindowTest, SerialScanEvaluatesNothingPastTheStop) {
  MachineConfig MC = MachineConfig::core2();
  TrainingFramework FW(stoppingOptions(1), MC);
  PhaseOneStats Stats;
  FW.phaseOne(ModelKind::Vector, &Stats);
  ASSERT_LT(Stats.SeedsCommitted, stoppingOptions(1).MaxSeeds)
      << "the scan must stop early for this test to mean anything";
  EXPECT_EQ(Stats.SeedsClaimed, Stats.SeedsCommitted);
  EXPECT_EQ(Stats.IdleSeconds, 0.0);
}

TEST(PhaseOneWindowTest, LocalSpeculationEndsAtTheStop) {
  // Local evaluators stop claiming when every family is full, so what they
  // evaluated past the stop is at most what the window held.
  MachineConfig MC = MachineConfig::core2();
  constexpr unsigned Jobs = 4;
  TrainingFramework Serial(stoppingOptions(1), MC);
  TrainingFramework Parallel(stoppingOptions(Jobs), MC);
  PhaseOneResult Want = Serial.phaseOne(ModelKind::Vector);
  PhaseOneStats Stats;
  expectSameResult(Want, Parallel.phaseOne(ModelKind::Vector, &Stats));
  ASSERT_LT(Stats.SeedsCommitted, stoppingOptions(Jobs).MaxSeeds);
  EXPECT_GE(Stats.SeedsClaimed, Stats.SeedsCommitted);
  EXPECT_LE(Stats.SeedsClaimed - Stats.SeedsCommitted,
            PhaseOneLookahead * (Jobs - 1));
}

TEST(PhaseOneWindowTest, StatsCountTheScansOwnSimulations) {
  // Reporting only, but they must describe the scan: the bounded race
  // stops some runs early, and a second scan over the same seeds is
  // answered from the cache.
  MachineConfig MC = MachineConfig::core2();
  TrainingFramework FW(parOptions(1), MC);
  PhaseOneStats First, Again;
  FW.phaseOneAll(&First);
  EXPECT_EQ(First.Simulations, FW.measurements().freshMeasurements());
  EXPECT_EQ(First.StoppedEarly, FW.measurements().stoppedEarly());
  EXPECT_GT(First.StoppedEarly, 0u);
  EXPECT_LT(First.StoppedEarly, First.Simulations);
  FW.phaseOneAll(&Again);
  EXPECT_EQ(Again.Simulations, 0u);
  EXPECT_EQ(Again.StoppedEarly, 0u);
}

TEST(TrainingParallelTest, MeasurementCachePersistsAcrossCalls) {
  MachineConfig MC = MachineConfig::core2();
  TrainingFramework FW(parOptions(4), MC);
  auto All = FW.phaseOneAll();
  size_t CachedSeeds = FW.measurements().seeds();
  EXPECT_GT(CachedSeeds, 0u);
  // A later per-family phaseOne revisits the same seed range: identical
  // pairs, answered from the warm cache.
  PhaseOneResult Single = FW.phaseOne(ModelKind::Map);
  ASSERT_EQ(Single.SeedDsPairs.size(),
            All[static_cast<unsigned>(ModelKind::Map)].SeedDsPairs.size());
  for (size_t I = 0; I != Single.SeedDsPairs.size(); ++I)
    EXPECT_EQ(Single.SeedDsPairs[I].Seed,
              All[static_cast<unsigned>(ModelKind::Map)].SeedDsPairs[I].Seed);
}

TEST(TrainingParallelTest, TrainedBundleIdenticalAcrossJobs) {
  TrainOptions SerialOpts = parOptions(1);
  TrainOptions ParallelOpts = parOptions(4);
  SerialOpts.TargetPerDs = ParallelOpts.TargetPerDs = 5;
  SerialOpts.MaxSeeds = ParallelOpts.MaxSeeds = 300;
  MachineConfig MC = MachineConfig::core2();
  Brainy A = Brainy::train(SerialOpts, MC);
  Brainy B = Brainy::train(ParallelOpts, MC);
  // Whole-bundle text equality covers Phase II examples, normalisation
  // stats, and every trained weight — and therefore every prediction.
  EXPECT_EQ(A.toString(), B.toString());
}

TEST(TrainingParallelTest, GaSelectionIdenticalAcrossJobs) {
  // Small deterministic two-class dataset: class = whether feature 2
  // dominates feature 5; other features are seeded noise.
  Dataset D;
  uint64_t State = 0x9e3779b97f4a7c15ULL;
  auto Next = [&State] {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return static_cast<double>(State % 1000) / 1000.0;
  };
  for (unsigned I = 0; I != 60; ++I) {
    std::vector<double> Row(8);
    for (double &V : Row)
      V = Next();
    D.add(Row, Row[2] > Row[5] ? 1u : 0u);
  }
  GaConfig Serial;
  Serial.Generations = 3;
  Serial.Jobs = 1;
  GaConfig Parallel = Serial;
  Parallel.Jobs = 4;
  GaResult A = selectFeatures(D, Serial);
  GaResult B = selectFeatures(D, Parallel);
  EXPECT_EQ(A.Weights, B.Weights);
  EXPECT_EQ(A.Ranked, B.Ranked);
  EXPECT_DOUBLE_EQ(A.Fitness, B.Fitness);
}
