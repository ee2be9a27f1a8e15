//===- tests/core_test.cpp - Oracle / models / advisor unit tests ---------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "core/Brainy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

using namespace brainy;

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

TEST(OracleTest, PicksMinimumCycles) {
  AppConfig Cfg;
  Cfg.TotalInterfCalls = 300;
  AppSpec Spec = AppSpec::fromSeed(5, Cfg);
  MachineConfig MC = MachineConfig::core2();
  std::vector<DsKind> Candidates = {DsKind::Vector, DsKind::List,
                                    DsKind::Deque};
  RaceResult Race = raceCandidates(Spec, Candidates, MC);
  double BestCycles = Race.cyclesOf(Race.Best);
  for (DsKind Kind : Candidates) {
    EXPECT_GT(Race.cyclesOf(Kind), 0.0);
    EXPECT_LE(BestCycles, Race.cyclesOf(Kind));
  }
  EXPECT_GE(Race.Margin, 0.0);
}

TEST(OracleTest, SingleCandidateHasZeroMargin) {
  AppConfig Cfg;
  Cfg.TotalInterfCalls = 100;
  AppSpec Spec = AppSpec::fromSeed(5, Cfg);
  RaceResult Race =
      raceCandidates(Spec, {DsKind::Vector}, MachineConfig::core2());
  EXPECT_EQ(Race.Best, DsKind::Vector);
  EXPECT_DOUBLE_EQ(Race.Margin, 0.0);
}

TEST(OracleTest, RaceWithAppliesFootnoteTwoRule) {
  const std::vector<DsKind> Kinds = {DsKind::Vector, DsKind::List,
                                     DsKind::Deque};
  auto Race = [&](std::vector<double> Cycles) {
    std::vector<DsKind> Candidates(Kinds.begin(),
                                   Kinds.begin() + Cycles.size());
    std::vector<DsKind> Asked;
    RaceResult R = raceWith(Candidates, [&](DsKind Kind) {
      Asked.push_back(Kind);
      return Cycles[Asked.size() - 1];
    });
    // Each candidate is measured once, in order, and recorded.
    EXPECT_EQ(Asked, Candidates);
    for (size_t I = 0; I != Cycles.size(); ++I)
      EXPECT_EQ(R.cyclesOf(Kinds[I]), Cycles[I]);
    return R;
  };

  RaceResult Tie = Race({100, 80, 80});
  EXPECT_EQ(Tie.Best, DsKind::List); // ties keep the earliest
  EXPECT_EQ(Tie.Margin, 0.0);

  RaceResult Clear = Race({100, 80, 90});
  EXPECT_EQ(Clear.Best, DsKind::List);
  EXPECT_EQ(Clear.Margin, 0.125);

  RaceResult Single = Race({100});
  EXPECT_EQ(Single.Best, DsKind::Vector);
  EXPECT_EQ(Single.Margin, 0.0);

  RaceResult Free = Race({5, 0, 3});
  EXPECT_EQ(Free.Best, DsKind::List);
  EXPECT_EQ(Free.Margin, 0.0);
}

namespace {

/// Races fake full counts uncapped and bounded, and checks what Phase I
/// relies on: the same winner and the same verdict on the margin, with
/// the full race's margin clamped at WinnerMargin. A fake run's partial
/// counts climb in quarters of its full count, and a cap stops it at the
/// first quarter it rules out. \p Asked and \p Caps (when non-null)
/// receive the bounded race's calls.
RaceResult raceBothWays(const std::vector<DsKind> &Candidates,
                        const std::vector<double> &Cycles,
                        double WinnerMargin,
                        std::vector<DsKind> *Asked = nullptr,
                        std::vector<double> *Caps = nullptr) {
  std::array<double, NumDsKinds> Full{};
  for (size_t I = 0; I != Candidates.size(); ++I)
    Full[static_cast<unsigned>(Candidates[I])] = Cycles[I];
  RaceResult Exact = raceWith(Candidates, [&](DsKind Kind) {
    return Full[static_cast<unsigned>(Kind)];
  });
  RaceResult Bounded = raceWith(
      Candidates, WinnerMargin, [&](DsKind Kind, const CycleCap *Cap) {
        if (Asked)
          Asked->push_back(Kind);
        if (Caps)
          Caps->push_back(Cap ? Cap->Best : -1);
        double C = Full[static_cast<unsigned>(Kind)];
        for (double Part : {C / 4, C / 2, C * 3 / 4})
          if (Cap && Cap->rulesOut(Part))
            return Part;
        return C;
      });
  EXPECT_EQ(Bounded.Best, Exact.Best);
  EXPECT_EQ(Bounded.Margin < WinnerMargin, Exact.Margin < WinnerMargin);
  EXPECT_EQ(Bounded.Margin, std::min(Exact.Margin, WinnerMargin));
  return Bounded;
}

} // namespace

TEST(OracleTest, BoundedRaceRacesCheapestFirstUnderTheRunningBest) {
  // The oo-vector family, fastest first from hash_set. Every run after the
  // first is capped at the running best; deque, list and vector stop at
  // their first quarter past 100 by 5%.
  std::vector<DsKind> Asked;
  std::vector<double> Caps;
  RaceResult R = raceBothWays(
      replacementCandidates(DsKind::Vector, /*OrderOblivious=*/true),
      {400, 300, 250, 110, 120, 100}, 0.05, &Asked, &Caps);
  EXPECT_EQ(Asked, (std::vector<DsKind>{DsKind::HashSet, DsKind::Set,
                                        DsKind::AvlSet, DsKind::Deque,
                                        DsKind::List, DsKind::Vector}));
  EXPECT_EQ(Caps, (std::vector<double>{-1, 100, 100, 100, 100, 100}));
  EXPECT_EQ(R.Best, DsKind::HashSet);
  EXPECT_EQ(R.Margin, 0.05); // 0.1, clamped
  EXPECT_EQ(R.cyclesOf(DsKind::Deque), 125);
  EXPECT_EQ(R.cyclesOf(DsKind::List), 150);
  EXPECT_EQ(R.cyclesOf(DsKind::Vector), 200);

  // A bound that sets the second-best gives a margin of at least
  // WinnerMargin, clamped to it: list 100 first, vector stopped at 150.
  RaceResult Bound =
      raceBothWays({DsKind::Vector, DsKind::List}, {200, 100}, 0.05);
  EXPECT_EQ(Bound.Best, DsKind::List);
  EXPECT_EQ(Bound.cyclesOf(DsKind::Vector), 150);
  EXPECT_EQ(Bound.Margin, 0.05);
}

TEST(OracleTest, BoundedRaceEdgeCases) {
  // A tie with the running best at margin 0 is never ruled out (no
  // partial count passes the final one), so the tie stays exact and the
  // earliest kind in Table-1 order wins.
  std::vector<DsKind> Asked;
  RaceResult Tie = raceBothWays({DsKind::Vector, DsKind::List}, {80, 80},
                                /*WinnerMargin=*/0.0, &Asked);
  EXPECT_EQ(Asked, (std::vector<DsKind>{DsKind::List, DsKind::Vector}));
  EXPECT_EQ(Tie.Best, DsKind::Vector);
  EXPECT_EQ(Tie.Margin, 0.0);
  EXPECT_EQ(Tie.cyclesOf(DsKind::Vector), 80);

  // A best of 0 rules out any positive count; the margin stays 0.
  RaceResult Free = raceBothWays({DsKind::Vector, DsKind::List, DsKind::Deque},
                                 {5, 0, 3}, 0.05);
  EXPECT_EQ(Free.Best, DsKind::List);
  EXPECT_EQ(Free.Margin, 0.0);
  EXPECT_EQ(Free.cyclesOf(DsKind::Vector), 1.25);

  // A single candidate is measured once, uncapped.
  std::vector<double> Caps;
  RaceResult Single =
      raceBothWays({DsKind::Vector}, {100}, 0.05, nullptr, &Caps);
  EXPECT_EQ(Caps, (std::vector<double>{-1}));
  EXPECT_EQ(Single.Best, DsKind::Vector);
  EXPECT_EQ(Single.Margin, 0.0);
}

TEST(OracleTest, BoundedRaceMatchesTheFullRaceOnRealRuns) {
  // Phase I's bounded race against the uncapped one on real simulations:
  // seeds 1-300, every family each app matches, both machines.
  AppConfig Cfg;
  Cfg.TotalInterfCalls = 300;
  Cfg.MaxInitialSize = 2000;
  TrainOptions Opts;
  Opts.GenConfig = Cfg;
  const double Margin = Opts.WinnerMargin;
  unsigned Races = 0, Rejects = 0, Stopped = 0;
  for (const MachineConfig &MC :
       {MachineConfig::core2(), MachineConfig::atom()}) {
    TrainingFramework FW(Opts, MC);
    for (uint64_t Seed = 1; Seed <= 300; ++Seed) {
      AppSpec Spec = AppSpec::fromSeed(Seed, Cfg);
      std::array<double, NumDsKinds> Exact;
      Exact.fill(-1);
      auto ExactOf = [&](DsKind Kind) {
        double &C = Exact[static_cast<unsigned>(Kind)];
        if (C < 0)
          C = runApp(Spec, Kind, MC).Cycles;
        return C;
      };
      for (unsigned M = 0; M != NumModelKinds; ++M) {
        auto Model = static_cast<ModelKind>(M);
        if (!FW.specMatchesModel(Seed, Model))
          continue;
        SCOPED_TRACE(MC.Name + " seed " + std::to_string(Seed) + " " +
                     modelKindName(Model));
        std::vector<DsKind> Candidates =
            replacementCandidates(modelOriginal(Model), Spec.OrderOblivious);
        RaceResult Full = raceWith(Candidates, ExactOf);
        RaceResult Bounded = raceWith(
            Candidates, Margin, [&](DsKind Kind, const CycleCap *Cap) {
              RunOutcome Run = runApp(Spec, Kind, MC, nullptr, Cap);
              if (Run.Complete) {
                EXPECT_EQ(Run.Cycles, ExactOf(Kind));
              } else {
                ++Stopped;
                EXPECT_TRUE(Cap && Cap->rulesOut(Run.Cycles));
                EXPECT_LE(Run.Cycles, ExactOf(Kind));
              }
              return Run.Cycles;
            });
        EXPECT_EQ(Bounded.Best, Full.Best);
        EXPECT_EQ(Bounded.Margin < Margin, Full.Margin < Margin);
        EXPECT_EQ(Bounded.Margin, std::min(Full.Margin, Margin));
        ++Races;
        Rejects += Full.Margin < Margin;
      }
    }
  }
  // Not vacuous: runs were stopped, and both verdicts occurred.
  EXPECT_GT(Stopped, Races / 2);
  EXPECT_GT(Rejects, 0u);
  EXPECT_LT(Rejects, Races);
}

TEST(OracleTest, OracleBestHonoursOrderObliviousness) {
  AppConfig Cfg;
  Cfg.TotalInterfCalls = 200;
  MachineConfig MC = MachineConfig::core2();
  for (uint64_t Seed = 0; Seed != 100; ++Seed) {
    AppSpec Spec = AppSpec::fromSeed(Seed, Cfg);
    if (Spec.OrderOblivious)
      continue;
    RaceResult Race = oracleBest(Spec, DsKind::Vector, MC);
    // Order-aware vector app: no associative cycles measured.
    EXPECT_DOUBLE_EQ(Race.cyclesOf(DsKind::HashSet), 0.0);
    EXPECT_GT(Race.cyclesOf(DsKind::Vector), 0.0);
    return;
  }
  FAIL() << "no order-aware seed found";
}

//===----------------------------------------------------------------------===//
// MeasurementCache: exact values and bounds
//===----------------------------------------------------------------------===//

TEST(MeasurementCacheTest, StoredBoundServesOnlyCapsThatRuleItOut) {
  MeasurementCache Cache;
  CycleRecord Rec;
  Rec.Seed = 7;
  Rec.Mask = Rec.BoundMask = 1u << static_cast<unsigned>(DsKind::Vector);
  Rec.Cycles[static_cast<unsigned>(DsKind::Vector)] = 150;
  Cache.restoreRecord(Rec);

  unsigned Runs = 0;
  RunOutcome Next;
  auto Measure = [&] {
    ++Runs;
    return Next;
  };
  MeasurementCache::Shard S = Cache.shard();

  // 150 is 50% past a best of 100: the bound answers without a run.
  CycleCap Loose{100, 0.05};
  EXPECT_EQ(S.cyclesOf(7, DsKind::Vector, &Loose, Measure), 150);
  EXPECT_EQ(Runs, 0u);

  // 150 is within 5% of 145: the kind is re-run under the caller's cap,
  // and the new, larger bound then serves that cap from the shard.
  CycleCap Tight{145, 0.05};
  Next.Cycles = 160;
  Next.Complete = false;
  EXPECT_EQ(S.cyclesOf(7, DsKind::Vector, &Tight, Measure), 160);
  EXPECT_EQ(Runs, 1u);
  EXPECT_EQ(S.cyclesOf(7, DsKind::Vector, &Tight, Measure), 160);
  EXPECT_EQ(Runs, 1u);

  // An uncapped caller needs the exact count; once known it serves every
  // cap.
  Next.Cycles = 170;
  Next.Complete = true;
  EXPECT_EQ(S.cyclesOf(7, DsKind::Vector, nullptr, Measure), 170);
  EXPECT_EQ(Runs, 2u);
  CycleCap Any{169, 0.05};
  EXPECT_EQ(S.cyclesOf(7, DsKind::Vector, &Any, Measure), 170);
  EXPECT_EQ(S.cyclesOf(7, DsKind::Vector, nullptr, Measure), 170);
  EXPECT_EQ(Runs, 2u);
  EXPECT_EQ(Cache.freshMeasurements(), 2u);
  EXPECT_EQ(Cache.stoppedEarly(), 1u);

  // Folded back, the exact value replaces the stored bound.
  Cache.merge(std::move(S));
  std::vector<CycleRecord> Records = Cache.records();
  ASSERT_EQ(Records.size(), 1u);
  EXPECT_EQ(Records[0].BoundMask, 0u);
  EXPECT_EQ(Records[0].Cycles[static_cast<unsigned>(DsKind::Vector)], 170);
}

//===----------------------------------------------------------------------===//
// TrainingFramework
//===----------------------------------------------------------------------===//

namespace {

TrainOptions tinyOptions() {
  TrainOptions Opts;
  Opts.TargetPerDs = 4;
  Opts.MaxSeeds = 250;
  Opts.GenConfig.TotalInterfCalls = 150;
  Opts.GenConfig.MaxInitialSize = 300;
  Opts.Net.Epochs = 15;
  return Opts;
}

} // namespace

TEST(TrainingFrameworkTest, SpecMatchingSplitsFamilies) {
  TrainingFramework FW(tinyOptions(), MachineConfig::core2());
  unsigned VectorApps = 0, VectorOOApps = 0;
  for (uint64_t Seed = 1; Seed != 200; ++Seed) {
    bool Aware = FW.specMatchesModel(Seed, ModelKind::Vector);
    bool OO = FW.specMatchesModel(Seed, ModelKind::VectorOO);
    EXPECT_NE(Aware, OO); // exactly one family owns the app
    EXPECT_TRUE(FW.specMatchesModel(Seed, ModelKind::Set));
    VectorApps += Aware;
    VectorOOApps += OO;
  }
  EXPECT_GT(VectorApps, 0u);
  EXPECT_GT(VectorOOApps, 0u);
}

TEST(TrainingFrameworkTest, PhaseOneRespectsMargin) {
  TrainOptions Opts = tinyOptions();
  Opts.WinnerMargin = 0.05;
  TrainingFramework FW(Opts, MachineConfig::core2());
  PhaseOneResult P1 = FW.phaseOne(ModelKind::Vector);
  EXPECT_FALSE(P1.SeedDsPairs.empty());
  // Every recorded winner must actually win its race by the margin.
  for (const SeedBest &Pair : P1.SeedDsPairs) {
    AppSpec Spec = AppSpec::fromSeed(Pair.Seed, Opts.GenConfig);
    RaceResult Race =
        oracleBest(Spec, DsKind::Vector, MachineConfig::core2());
    EXPECT_EQ(Race.Best, Pair.BestDs);
    EXPECT_GE(Race.Margin, Opts.WinnerMargin);
  }
}

TEST(TrainingFrameworkTest, PhaseOneAllMatchesPerModelPhaseOne) {
  TrainOptions Opts = tinyOptions();
  TrainingFramework FW(Opts, MachineConfig::core2());
  auto All = FW.phaseOneAll();
  for (ModelKind MK : {ModelKind::Vector, ModelKind::Map}) {
    PhaseOneResult Single = FW.phaseOne(MK);
    const PhaseOneResult &Shared = All[static_cast<unsigned>(MK)];
    EXPECT_EQ(Shared.SeedsScanned, Single.SeedsScanned);
    EXPECT_EQ(Shared.MarginRejects, Single.MarginRejects);
    EXPECT_EQ(Shared.SkippedSeeds, Single.SkippedSeeds);
    ASSERT_EQ(Shared.SeedDsPairs.size(), Single.SeedDsPairs.size());
    for (size_t I = 0; I != Single.SeedDsPairs.size(); ++I) {
      EXPECT_EQ(Shared.SeedDsPairs[I].Seed, Single.SeedDsPairs[I].Seed);
      EXPECT_EQ(Shared.SeedDsPairs[I].BestDs, Single.SeedDsPairs[I].BestDs);
    }
  }
}

TEST(TrainingFrameworkTest, PhaseTwoCapsPerClass) {
  TrainOptions Opts = tinyOptions();
  Opts.MaxPerDsPhase2 = 2;
  TrainingFramework FW(Opts, MachineConfig::core2());
  PhaseOneResult P1 = FW.phaseOne(ModelKind::Vector);
  std::vector<TrainExample> Examples = FW.phaseTwo(ModelKind::Vector, P1);
  std::array<unsigned, NumDsKinds> Counts{};
  for (const TrainExample &Ex : Examples)
    ++Counts[static_cast<unsigned>(Ex.BestDs)];
  for (unsigned C : Counts)
    EXPECT_LE(C, 2u);
}

TEST(TrainingFrameworkTest, ExamplesToDatasetLabels) {
  std::vector<TrainExample> Examples(3);
  Examples[0].BestDs = DsKind::Vector;
  Examples[1].BestDs = DsKind::Deque;
  Examples[2].BestDs = DsKind::HashSet; // not in candidate list -> dropped
  std::vector<DsKind> Candidates = {DsKind::Vector, DsKind::List,
                                    DsKind::Deque};
  Dataset D = examplesToDataset(Examples, Candidates);
  ASSERT_EQ(D.size(), 2u);
  EXPECT_EQ(D.Labels[0], 0u);
  EXPECT_EQ(D.Labels[1], 2u);
  EXPECT_EQ(D.dimension(), NumFeatures);
}

//===----------------------------------------------------------------------===//
// BrainyModel
//===----------------------------------------------------------------------===//

namespace {

/// Synthetic, trivially separable examples: find-heavy apps are labelled
/// hash_set; iterate-heavy apps are labelled vector.
std::vector<TrainExample> syntheticExamples(unsigned Count) {
  std::vector<TrainExample> Out;
  for (unsigned I = 0; I != Count; ++I) {
    TrainExample Ex;
    bool FindHeavy = I % 2 == 0;
    Ex.Seed = I;
    Ex.BestDs = FindHeavy ? DsKind::HashSet : DsKind::Vector;
    Ex.Features[FeatureId::FindFrac] = FindHeavy ? 0.9 : 0.05;
    Ex.Features[FeatureId::InsertFrac] = FindHeavy ? 0.1 : 0.95;
    Ex.Features[FeatureId::FindCostAvg] = FindHeavy ? 300 : 2;
    Ex.Features[FeatureId::AvgSizeLog] = 5 + (I % 7) * 0.1;
    Out.push_back(Ex);
  }
  return Out;
}

} // namespace

TEST(BrainyModelTest, LearnsSeparableRule) {
  NetConfig Cfg;
  Cfg.Epochs = 60;
  BrainyModel Model =
      BrainyModel::train(ModelKind::VectorOO, syntheticExamples(60), Cfg);
  ASSERT_TRUE(Model.trained());
  TrainExample FindHeavy = syntheticExamples(2)[0];
  TrainExample InsertHeavy = syntheticExamples(2)[1];
  EXPECT_EQ(Model.predict(FindHeavy.Features, true), DsKind::HashSet);
  EXPECT_EQ(Model.predict(InsertHeavy.Features, true), DsKind::Vector);
  EXPECT_GT(Model.accuracy(syntheticExamples(60), true), 0.95);
}

TEST(BrainyModelTest, UntrainedPredictsOriginal) {
  BrainyModel Model =
      BrainyModel::train(ModelKind::Set, {}, NetConfig());
  EXPECT_FALSE(Model.trained());
  FeatureVector F;
  EXPECT_EQ(Model.predict(F, true), DsKind::Set);
}

TEST(BrainyModelTest, OrderAwareMaskRestrictsSetModel) {
  // Train the Set model to always prefer hash_set, then ask for an
  // order-aware app: hash_set is illegal, so the pick must be in
  // {set, avl_set}.
  std::vector<TrainExample> Examples;
  for (unsigned I = 0; I != 40; ++I) {
    TrainExample Ex;
    Ex.BestDs = DsKind::HashSet;
    Ex.Features[FeatureId::FindFrac] = 0.9;
    Ex.Features[FeatureId::AvgSizeLog] = 4 + (I % 5) * 0.2;
    Examples.push_back(Ex);
  }
  NetConfig Cfg;
  Cfg.Epochs = 40;
  BrainyModel Model = BrainyModel::train(ModelKind::Set, Examples, Cfg);
  FeatureVector Probe = Examples[0].Features;
  EXPECT_EQ(Model.predict(Probe, /*AppOrderOblivious=*/true),
            DsKind::HashSet);
  DsKind Masked = Model.predict(Probe, /*AppOrderOblivious=*/false);
  EXPECT_TRUE(Masked == DsKind::Set || Masked == DsKind::AvlSet);
}

TEST(BrainyModelTest, PersistenceRoundTrip) {
  NetConfig Cfg;
  Cfg.Epochs = 30;
  BrainyModel Model =
      BrainyModel::train(ModelKind::VectorOO, syntheticExamples(40), Cfg);
  BrainyModel Loaded;
  ASSERT_TRUE(BrainyModel::fromString(Model.toString(), Loaded));
  EXPECT_EQ(Loaded.kind(), Model.kind());
  EXPECT_EQ(Loaded.trained(), Model.trained());
  for (const TrainExample &Ex : syntheticExamples(10))
    EXPECT_EQ(Loaded.predict(Ex.Features, true),
              Model.predict(Ex.Features, true));
}

//===----------------------------------------------------------------------===//
// Brainy bundle
//===----------------------------------------------------------------------===//

TEST(BrainyBundleTest, TrainSaveLoadRecommend) {
  TrainOptions Opts = tinyOptions();
  MachineConfig MC = MachineConfig::core2();
  Brainy B = Brainy::train(Opts, MC);
  EXPECT_EQ(B.machineName(), "core2");

  std::string Path = ::testing::TempDir() + "/brainy_bundle_test.txt";
  ASSERT_FALSE(B.save(Path));
  Expected<Brainy> Loaded = Brainy::load(Path);
  ASSERT_TRUE(Loaded) << Loaded.error().message();
  EXPECT_EQ(Loaded->machineName(), "core2");

  // Same predictions after the round trip.
  AppSpec Spec = AppSpec::fromSeed(4242, Opts.GenConfig);
  ProfiledOutcome Out = runAppProfiled(Spec, DsKind::Vector, MC);
  EXPECT_EQ(B.recommend(DsKind::Vector, Out.Sw, Out.Features),
            Loaded->recommend(DsKind::Vector, Out.Sw, Out.Features));
  std::remove(Path.c_str());
}

TEST(BrainyBundleTest, TrainOrLoadUsesCache) {
  TrainOptions Opts = tinyOptions();
  MachineConfig MC = MachineConfig::core2();
  std::string Path = ::testing::TempDir() + "/brainy_cache_test.txt";
  std::remove(Path.c_str());
  Brainy First = Brainy::trainOrLoad(Opts, MC, Path, "tag-a");
  // Second call must load (we can't time it reliably, but it must succeed
  // and agree).
  Brainy Second = Brainy::trainOrLoad(Opts, MC, Path, "tag-a");
  EXPECT_EQ(First.toString(), Second.toString());
  // A different tag forces a retrain (file gets rewritten).
  Brainy Third = Brainy::trainOrLoad(Opts, MC, Path, "tag-b");
  EXPECT_EQ(Third.machineName(), "core2");
  std::remove(Path.c_str());
}

TEST(BrainyBundleTest, RecommendRoutesToModelFamily) {
  Brainy B; // untrained: every model predicts its original
  SoftwareFeatures Sw;
  Sw.FindCount = 10; // order-oblivious profile
  FeatureVector F;
  EXPECT_EQ(B.recommend(DsKind::Vector, Sw, F), DsKind::Vector);
  EXPECT_EQ(B.recommend(DsKind::Map, Sw, F), DsKind::Map);
  Sw.IterateCount = 5; // now order-aware
  EXPECT_EQ(B.recommend(DsKind::List, Sw, F), DsKind::List);
}
