//===- tests/appgen_test.cpp - application generator tests ----------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "appgen/AppRunner.h"

#include <gtest/gtest.h>

using namespace brainy;

//===----------------------------------------------------------------------===//
// AppConfig (Table 2)
//===----------------------------------------------------------------------===//

TEST(AppConfigTest, SampleConfigParses) {
  AppConfig A = AppConfig::fromString(AppConfig::sampleConfigText());
  EXPECT_EQ(A.TotalInterfCalls, 1000u);
  EXPECT_EQ(A.MaxInsertVal, 65536);
  EXPECT_EQ(A.MaxIterCount, 256);
  ASSERT_EQ(A.DataElemSizes.size(), 6u);
  EXPECT_EQ(A.DataElemSizes.front(), 4);
}

TEST(AppConfigTest, MissingKeysKeepDefaults) {
  AppConfig Defaults;
  AppConfig A = AppConfig::fromString("TotalInterfCalls = 42\n");
  EXPECT_EQ(A.TotalInterfCalls, 42u);
  EXPECT_EQ(A.MaxInsertVal, Defaults.MaxInsertVal);
  EXPECT_EQ(A.DataElemSizes, Defaults.DataElemSizes);
}

//===----------------------------------------------------------------------===//
// AppSpec derivation
//===----------------------------------------------------------------------===//

TEST(AppSpecTest, DeterministicFromSeed) {
  AppConfig Cfg;
  AppSpec A = AppSpec::fromSeed(1234, Cfg);
  AppSpec B = AppSpec::fromSeed(1234, Cfg);
  EXPECT_EQ(A.ElemBytes, B.ElemBytes);
  EXPECT_EQ(A.OrderOblivious, B.OrderOblivious);
  EXPECT_EQ(A.InitialSize, B.InitialSize);
  EXPECT_EQ(A.OpWeights, B.OpWeights);
  EXPECT_DOUBLE_EQ(A.HitBias, B.HitBias);
  EXPECT_DOUBLE_EQ(A.FrontBias, B.FrontBias);
}

TEST(AppSpecTest, SeedsVaryBehaviour) {
  AppConfig Cfg;
  unsigned OOCount = 0;
  std::set<uint32_t> ElemSizes;
  for (uint64_t Seed = 0; Seed != 400; ++Seed) {
    AppSpec S = AppSpec::fromSeed(Seed, Cfg);
    OOCount += S.OrderOblivious;
    ElemSizes.insert(S.ElemBytes);
  }
  // About half order-oblivious (config default 0.5).
  EXPECT_GT(OOCount, 120u);
  EXPECT_LT(OOCount, 280u);
  // All configured element sizes appear.
  EXPECT_EQ(ElemSizes.size(), Cfg.DataElemSizes.size());
}

TEST(AppSpecTest, OrderObliviousAppsDropOrderSensitiveOps) {
  AppConfig Cfg;
  for (uint64_t Seed = 0; Seed != 300; ++Seed) {
    AppSpec S = AppSpec::fromSeed(Seed, Cfg);
    if (!S.OrderOblivious)
      continue;
    EXPECT_EQ(S.OpWeights[static_cast<unsigned>(AppOp::InsertAt)], 0.0);
    EXPECT_EQ(S.OpWeights[static_cast<unsigned>(AppOp::EraseAt)], 0.0);
    EXPECT_EQ(S.OpWeights[static_cast<unsigned>(AppOp::Iterate)], 0.0);
  }
}

TEST(AppSpecTest, WeightsNeverAllZero) {
  AppConfig Cfg;
  Cfg.OpDropProb = 0.95; // aggressive dropping
  for (uint64_t Seed = 0; Seed != 200; ++Seed) {
    AppSpec S = AppSpec::fromSeed(Seed, Cfg);
    double Total = 0;
    for (double W : S.OpWeights)
      Total += W;
    EXPECT_GT(Total, 0.0);
  }
}

TEST(AppSpecTest, FrontWindowModeAppears) {
  AppConfig Cfg;
  unsigned WindowApps = 0;
  for (uint64_t Seed = 0; Seed != 400; ++Seed) {
    AppSpec S = AppSpec::fromSeed(Seed, Cfg);
    if (S.HitWindow) {
      ++WindowApps;
      EXPECT_GE(S.HitWindow, 1u);
      EXPECT_LE(S.HitWindow, 4u);
    }
  }
  // Roughly a quarter of apps use FIFO-style front-window hits.
  EXPECT_GT(WindowApps, 60u);
  EXPECT_LT(WindowApps, 140u);
}

TEST(AppSpecTest, FocusedAppsAreCommon) {
  AppConfig Cfg;
  unsigned Focused = 0;
  for (uint64_t Seed = 0; Seed != 400; ++Seed) {
    AppSpec S = AppSpec::fromSeed(Seed, Cfg);
    unsigned NonZero = 0;
    for (double W : S.OpWeights)
      NonZero += W > 0;
    Focused += NonZero <= 2;
  }
  // FocusProb(0.2) plus drop-heavy draws: a solid slice of the space is
  // one-or-two-op dominated, like real applications.
  EXPECT_GT(Focused, 80u);
}

TEST(AppSpecTest, OpNames) {
  EXPECT_STREQ(appOpName(AppOp::Insert), "insert");
  EXPECT_STREQ(appOpName(AppOp::PushFront), "push_front");
  EXPECT_STREQ(appOpName(AppOp::Iterate), "iterate");
}

//===----------------------------------------------------------------------===//
// AppRunner
//===----------------------------------------------------------------------===//

TEST(AppRunnerTest, DeterministicCycles) {
  AppConfig Cfg;
  Cfg.TotalInterfCalls = 300;
  AppSpec Spec = AppSpec::fromSeed(77, Cfg);
  MachineConfig MC = MachineConfig::core2();
  RunOutcome A = runApp(Spec, DsKind::Vector, MC);
  RunOutcome B = runApp(Spec, DsKind::Vector, MC);
  EXPECT_DOUBLE_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.FinalSize, B.FinalSize);
  EXPECT_EQ(A.Hw.Instructions, B.Hw.Instructions);
}

namespace {

/// Records the op tape for cross-kind comparison.
class TapeRecorder final : public OpObserver {
public:
  void onOp(AppOp Op, uint64_t SizeBefore, uint64_t Arg) override {
    (void)SizeBefore;
    Tape.push_back({Op, Arg});
  }
  std::vector<std::pair<AppOp, uint64_t>> Tape;
};

} // namespace

TEST(AppRunnerTest, SameOpTapeAcrossAllKinds) {
  // The paper's requirement: the generated application's behaviour is
  // exactly the same; only the data structure differs.
  AppConfig Cfg;
  Cfg.TotalInterfCalls = 400;
  AppSpec Spec = AppSpec::fromSeed(31, Cfg);
  MachineConfig MC = MachineConfig::core2();

  TapeRecorder Reference;
  runApp(Spec, DsKind::Vector, MC, &Reference);
  for (DsKind Kind : {DsKind::List, DsKind::Deque, DsKind::Set,
                      DsKind::AvlSet, DsKind::HashSet}) {
    TapeRecorder Tape;
    runApp(Spec, Kind, MC, &Tape);
    ASSERT_EQ(Tape.Tape.size(), Reference.Tape.size()) << dsKindName(Kind);
    for (size_t I = 0; I != Tape.Tape.size(); ++I) {
      ASSERT_EQ(Tape.Tape[I].first, Reference.Tape[I].first);
      ASSERT_EQ(Tape.Tape[I].second, Reference.Tape[I].second);
    }
  }
}

TEST(AppRunnerTest, KindsProduceDifferentCycles) {
  AppConfig Cfg;
  Cfg.TotalInterfCalls = 500;
  AppSpec Spec = AppSpec::fromSeed(11, Cfg);
  MachineConfig MC = MachineConfig::core2();
  double V = runApp(Spec, DsKind::Vector, MC).Cycles;
  double H = runApp(Spec, DsKind::HashSet, MC).Cycles;
  EXPECT_NE(V, H);
  EXPECT_GT(V, 0);
  EXPECT_GT(H, 0);
}

TEST(AppRunnerTest, MachinesProduceDifferentCycles) {
  AppConfig Cfg;
  Cfg.TotalInterfCalls = 300;
  AppSpec Spec = AppSpec::fromSeed(13, Cfg);
  double C2 = runApp(Spec, DsKind::List, MachineConfig::core2()).Cycles;
  double AT = runApp(Spec, DsKind::List, MachineConfig::atom()).Cycles;
  EXPECT_NE(C2, AT);
}

TEST(AppRunnerTest, ProfiledRunMatchesSpecShape) {
  AppConfig Cfg;
  Cfg.TotalInterfCalls = 600;
  MachineConfig MC = MachineConfig::core2();
  // Find an order-oblivious spec and check its profile looks OO.
  for (uint64_t Seed = 0;; ++Seed) {
    ASSERT_LT(Seed, 200u);
    AppSpec Spec = AppSpec::fromSeed(Seed, Cfg);
    if (!Spec.OrderOblivious)
      continue;
    ProfiledOutcome Out = runAppProfiled(Spec, DsKind::Vector, MC);
    EXPECT_TRUE(Out.Sw.orderOblivious());
    // Prepopulation inserts are instrumented too: the profile sees the
    // dispatch loop plus InitialSize insertions.
    EXPECT_EQ(Out.Sw.totalCalls(), Cfg.TotalInterfCalls + Spec.InitialSize);
    EXPECT_DOUBLE_EQ(Out.Features[FeatureId::ElemBytesF],
                     static_cast<double>(Spec.ElemBytes));
    break;
  }
}

namespace {

void expectSameRun(const RunOutcome &A, const RunOutcome &B) {
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Hw.Cycles, B.Hw.Cycles);
  EXPECT_EQ(A.Hw.Instructions, B.Hw.Instructions);
  EXPECT_EQ(A.Hw.L1Accesses, B.Hw.L1Accesses);
  EXPECT_EQ(A.Hw.L1Misses, B.Hw.L1Misses);
  EXPECT_EQ(A.Hw.L2Accesses, B.Hw.L2Accesses);
  EXPECT_EQ(A.Hw.L2Misses, B.Hw.L2Misses);
  EXPECT_EQ(A.Hw.Branches, B.Hw.Branches);
  EXPECT_EQ(A.Hw.BranchMispredicts, B.Hw.BranchMispredicts);
  EXPECT_EQ(A.Hw.Allocations, B.Hw.Allocations);
  EXPECT_EQ(A.Hw.Frees, B.Hw.Frees);
  EXPECT_EQ(A.FinalSize, B.FinalSize);
  EXPECT_EQ(A.PeakSimBytes, B.PeakSimBytes);
  EXPECT_EQ(A.Complete, B.Complete);
}

} // namespace

TEST(AppRunnerTest, ProfiledCyclesMatchPlainRun) {
  // Profiling must observe, not perturb: every counter of a profiled run
  // equals the plain run's, on every kind and both machines.
  AppConfig Cfg;
  Cfg.TotalInterfCalls = 300;
  for (const MachineConfig &MC :
       {MachineConfig::core2(), MachineConfig::atom()})
    for (uint64_t Seed : {3, 55, 321, 777}) {
      AppSpec Spec = AppSpec::fromSeed(Seed, Cfg);
      for (unsigned K = 0; K != NumDsKinds; ++K) {
        auto Kind = static_cast<DsKind>(K);
        SCOPED_TRACE(MC.Name + " seed " + std::to_string(Seed) + " " +
                     dsKindName(Kind));
        expectSameRun(runApp(Spec, Kind, MC),
                      runAppProfiled(Spec, Kind, MC).Run);
      }
    }
}

TEST(AppRunnerTest, CapThatNeverFiresChangesNothing) {
  // The tightest cap that cannot fire is the run's own count at margin 0:
  // the count between calls only grows toward the final one, and never
  // passes it. Checking it only reads the model, so every counter matches.
  AppConfig Cfg;
  Cfg.TotalInterfCalls = 300;
  for (const MachineConfig &MC :
       {MachineConfig::core2(), MachineConfig::atom()})
    for (uint64_t Seed : {3, 55, 321, 777}) {
      AppSpec Spec = AppSpec::fromSeed(Seed, Cfg);
      for (unsigned K = 0; K != NumDsKinds; ++K) {
        auto Kind = static_cast<DsKind>(K);
        SCOPED_TRACE(MC.Name + " seed " + std::to_string(Seed) + " " +
                     dsKindName(Kind));
        RunOutcome Plain = runApp(Spec, Kind, MC);
        CycleCap Cap{Plain.Cycles, 0.0};
        RunOutcome Capped = runApp(Spec, Kind, MC, nullptr, &Cap);
        EXPECT_TRUE(Capped.Complete);
        expectSameRun(Plain, Capped);
      }
    }
}

TEST(AppRunnerTest, CapThatFiresStopsAtALowerBound) {
  // Against a best of a quarter of the full count, every run is ruled out
  // part-way: it stops with a count the cap rules out and that is no
  // larger than the full run's.
  AppConfig Cfg;
  for (const MachineConfig &MC :
       {MachineConfig::core2(), MachineConfig::atom()})
    for (uint64_t Seed : {3, 55, 321, 777}) {
      AppSpec Spec = AppSpec::fromSeed(Seed, Cfg);
      for (unsigned K = 0; K != NumDsKinds; ++K) {
        auto Kind = static_cast<DsKind>(K);
        SCOPED_TRACE(MC.Name + " seed " + std::to_string(Seed) + " " +
                     dsKindName(Kind));
        RunOutcome Full = runApp(Spec, Kind, MC);
        CycleCap Cap{Full.Cycles / 4, 0.05};
        RunOutcome Capped = runApp(Spec, Kind, MC, nullptr, &Cap);
        EXPECT_FALSE(Capped.Complete);
        EXPECT_LE(Capped.Cycles, Full.Cycles);
        EXPECT_TRUE(Cap.rulesOut(Capped.Cycles));
        EXPECT_EQ(Capped.Cycles, Capped.Hw.Cycles);
      }
    }
}

TEST(AppRunnerTest, InitialSizePrepopulates) {
  AppConfig Cfg;
  Cfg.TotalInterfCalls = 10;
  for (uint64_t Seed = 0; Seed != 300; ++Seed) {
    AppSpec Spec = AppSpec::fromSeed(Seed, Cfg);
    if (Spec.InitialSize < 100)
      continue;
    RunOutcome Out = runApp(Spec, DsKind::List, MachineConfig::core2());
    // A list keeps every inserted element; at most 10 dispatch erases.
    EXPECT_GE(Out.FinalSize + 10, Spec.InitialSize);
    return;
  }
  FAIL() << "no spec with a large initial population found";
}
