//===- bench/micro_machine.cpp - simulator microbenchmarks ----------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Wall-clock google-benchmark microbenchmarks of the microarchitecture
// simulator, the tree containers' emitters feeding it, and the
// synthetic-application runner: events per second and apps per second
// determine how large a training sweep is affordable.
//
//===----------------------------------------------------------------------===//

#include "adt/Container.h"
#include "appgen/AppRunner.h"
#include "machine/MachineModel.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <memory>

using namespace brainy;

namespace {

void BM_CacheAccessSequential(benchmark::State &State) {
  CacheSim Cache(CacheGeometry{32 * 1024, 8, 64});
  uint64_t Addr = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Cache.access(Addr));
    Addr += 64;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CacheAccessSequential);

void BM_CacheAccessRandom(benchmark::State &State) {
  CacheSim Cache(CacheGeometry{32 * 1024, 8, 64});
  uint64_t Lcg = 1;
  for (auto _ : State) {
    Lcg = Lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    benchmark::DoNotOptimize(Cache.access(Lcg >> 16));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CacheAccessRandom);

void BM_BranchPredictor(benchmark::State &State) {
  BranchPredictor P;
  unsigned I = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        P.observe(BranchSite::TreeCompareLeft, ++I % 3 == 0));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_BranchPredictor);

void BM_MachineModelAccess(benchmark::State &State) {
  // Random 8-byte touches over 8 MB through onAccess, the entry point
  // every container emitter calls: the miss path of the production
  // simulator.
  MachineModel M(MachineConfig::core2());
  uint64_t Lcg = 1;
  for (auto _ : State) {
    Lcg = Lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    M.onAccess((Lcg >> 16) % (8 << 20), 8);
  }
  benchmark::DoNotOptimize(M.cycles());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_MachineModelAccess);

void BM_MachineModelStream(benchmark::State &State) {
  // Sequential 8-byte element reads over a 32 KB window through onAccess,
  // as a contiguous-container scan emits them — the dominant production
  // pattern, and the one the repeat-block fast path targets: 7 of 8
  // accesses re-touch the previous cache block.
  MachineModel M(MachineConfig::core2());
  uint64_t N = 0;
  for (auto _ : State) {
    M.onAccess(0x100000000ULL + (N % 4096) * 8, 8);
    ++N;
  }
  benchmark::DoNotOptimize(M.cycles());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_MachineModelStream);

void BM_MachineModelBlockScan(benchmark::State &State) {
  // 64-byte-stride touches over 1 MB through onAccess on core2, as a scan
  // over elements of 64 B or more emits them: every touch is a new
  // sequential block, so it pays two prefetch fills per level before its
  // L1 lookup. BM_MachineModelStream mostly takes the repeat-block fast
  // path and BM_CacheAccessSequential has no prefetcher, so neither
  // times this path.
  MachineModel M(MachineConfig::core2());
  uint64_t N = 0;
  for (auto _ : State) {
    M.onAccess(0x100000000ULL + (N % 16384) * 64, 8);
    ++N;
  }
  benchmark::DoNotOptimize(M.cycles());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_MachineModelBlockScan);

// The tree kinds' emitters plus the model they feed: Phase I's largest
// simulation entry, which BM_RunProfiledApp times only inside whole apps.
// Keys are drawn from twice the prepopulated count, so a find hits about
// half the time and an insert finds its key absent 30-50% of the time.
constexpr uint64_t TreeKeys = 4096;

std::unique_ptr<Container> prepopulatedTree(DsKind Kind, MachineModel &Model,
                                            Rng &R) {
  std::unique_ptr<Container> C = makeContainer(Kind, 8, &Model);
  while (C->size() != TreeKeys)
    C->insert(static_cast<ds::Key>(R.nextBelow(2 * TreeKeys)));
  return C;
}

void BM_TreeFind(benchmark::State &State, DsKind Kind) {
  MachineModel M(MachineConfig::core2());
  Rng R(7);
  std::unique_ptr<Container> C = prepopulatedTree(Kind, M, R);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        C->find(static_cast<ds::Key>(R.nextBelow(2 * TreeKeys))));
  benchmark::DoNotOptimize(M.cycles());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK_CAPTURE(BM_TreeFind, set, DsKind::Set);
BENCHMARK_CAPTURE(BM_TreeFind, avl_set, DsKind::AvlSet);

void BM_TreeInsert(benchmark::State &State, DsKind Kind) {
  MachineModel M(MachineConfig::core2());
  Rng R(7);
  std::unique_ptr<Container> C;
  uint64_t Left = 0;
  for (auto _ : State) {
    if (Left == 0) {
      // Start again from TreeKeys keys every TreeKeys inserts, so the tree
      // stays under twice that and misses stay common.
      State.PauseTiming();
      C = prepopulatedTree(Kind, M, R);
      Left = TreeKeys;
      State.ResumeTiming();
    }
    --Left;
    benchmark::DoNotOptimize(
        C->insert(static_cast<ds::Key>(R.nextBelow(2 * TreeKeys))));
  }
  benchmark::DoNotOptimize(M.cycles());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK_CAPTURE(BM_TreeInsert, set, DsKind::Set);
BENCHMARK_CAPTURE(BM_TreeInsert, avl_set, DsKind::AvlSet);

void BM_RunSyntheticApp(benchmark::State &State) {
  AppConfig Gen;
  Gen.TotalInterfCalls = 500;
  Gen.MaxInitialSize = 1000;
  MachineConfig Machine = MachineConfig::core2();
  uint64_t Seed = 1;
  for (auto _ : State) {
    AppSpec Spec = AppSpec::fromSeed(Seed++, Gen);
    RunOutcome Out = runApp(Spec, DsKind::Vector, Machine);
    benchmark::DoNotOptimize(Out.Cycles);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RunSyntheticApp);

void BM_RunProfiledApp(benchmark::State &State) {
  AppConfig Gen;
  Gen.TotalInterfCalls = 500;
  Gen.MaxInitialSize = 1000;
  MachineConfig Machine = MachineConfig::core2();
  uint64_t Seed = 1;
  for (auto _ : State) {
    AppSpec Spec = AppSpec::fromSeed(Seed++, Gen);
    ProfiledOutcome Out = runAppProfiled(Spec, DsKind::Set, Machine);
    benchmark::DoNotOptimize(Out.Run.Cycles);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RunProfiledApp);

} // namespace

BENCHMARK_MAIN();
