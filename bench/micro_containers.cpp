//===- bench/micro_containers.cpp - container microbenchmarks -------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Wall-clock google-benchmark microbenchmarks of the container substrate
// itself (no MachineModel attached): the real host-machine cost of the
// from-scratch implementations.
//
//===----------------------------------------------------------------------===//

#include "adt/Container.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

using namespace brainy;

namespace {

void fill(Container &C, int64_t N, Rng &R) {
  for (int64_t I = 0; I != N; ++I)
    C.insert(static_cast<ds::Key>(R.nextBelow(1u << 30)));
}

void BM_Insert(benchmark::State &State, DsKind Kind) {
  for (auto _ : State) {
    State.PauseTiming();
    auto C = makeContainer(Kind);
    Rng R(42);
    State.ResumeTiming();
    fill(*C, State.range(0), R);
    benchmark::DoNotOptimize(C->size());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

void BM_Find(benchmark::State &State, DsKind Kind) {
  auto C = makeContainer(Kind);
  Rng R(42);
  fill(*C, State.range(0), R);
  Rng Q(7);
  for (auto _ : State) {
    auto Result = C->find(static_cast<ds::Key>(Q.nextBelow(1u << 30)));
    benchmark::DoNotOptimize(Result.Found);
  }
  State.SetItemsProcessed(State.iterations());
}

void BM_Iterate(benchmark::State &State, DsKind Kind) {
  auto C = makeContainer(Kind);
  Rng R(42);
  fill(*C, State.range(0), R);
  for (auto _ : State) {
    auto Result = C->iterate(State.range(0));
    benchmark::DoNotOptimize(Result.Cost);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

#define REGISTER(op, kind)                                                   \
  benchmark::RegisterBenchmark("BM_" #op "/" #kind,                         \
                               [](benchmark::State &S) {                     \
                                 BM_##op(S, DsKind::kind);                   \
                               })                                            \
      ->Arg(64)                                                              \
      ->Arg(1024)

} // namespace

int main(int argc, char **argv) {
  REGISTER(Insert, Vector);
  REGISTER(Insert, List);
  REGISTER(Insert, Deque);
  REGISTER(Insert, Set);
  REGISTER(Insert, AvlSet);
  REGISTER(Insert, HashSet);
  REGISTER(Find, Vector);
  REGISTER(Find, Set);
  REGISTER(Find, AvlSet);
  REGISTER(Find, HashSet);
  REGISTER(Iterate, Vector);
  REGISTER(Iterate, List);
  REGISTER(Iterate, Deque);
  REGISTER(Iterate, Set);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
