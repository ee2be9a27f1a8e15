//===- machine/MachineModel.cpp -------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "machine/MachineModel.h"

using namespace brainy;

MachineConfig MachineConfig::core2() {
  MachineConfig Cfg;
  Cfg.Name = "core2";
  Cfg.L1 = CacheGeometry{32 * 1024, 8, 64};
  Cfg.L2 = CacheGeometry{4 * 1024 * 1024, 16, 64};
  Cfg.L1HitCycles = 3;
  Cfg.StreamHitCycles = 1.0;
  Cfg.L2HitCycles = 15;
  Cfg.MemoryCycles = 200;
  // 4-wide out-of-order core: much of a miss overlaps independent work.
  Cfg.MissExposure = 0.6;
  Cfg.PrefetchDepth = 2;
  Cfg.MispredictPenalty = 15;
  Cfg.BaseCpi = 0.45;
  Cfg.ClockGhz = 2.4;
  return Cfg;
}

MachineConfig MachineConfig::atom() {
  MachineConfig Cfg;
  Cfg.Name = "atom";
  Cfg.L1 = CacheGeometry{32 * 1024, 8, 64};
  Cfg.L2 = CacheGeometry{512 * 1024, 8, 64};
  Cfg.L1HitCycles = 3;
  Cfg.StreamHitCycles = 1.5;
  Cfg.L2HitCycles = 18;
  // ~85ns main memory at 1.6 GHz.
  Cfg.MemoryCycles = 136;
  // 2-wide in-order core: misses are fully exposed.
  Cfg.MissExposure = 1.0;
  Cfg.PrefetchDepth = 1;
  Cfg.MispredictPenalty = 11;
  Cfg.BaseCpi = 1.1;
  Cfg.ClockGhz = 1.6;
  return Cfg;
}

MachineModel::MachineModel(MachineConfig Config)
    : Cfg(std::move(Config)), L1(Cfg.L1), L2(Cfg.L2),
      L1BlockShift(L1.blockShift()) {}

HardwareCounters MachineModel::counters() const {
  HardwareCounters C;
  C.Instructions = Instructions;
  C.L1Accesses = L1.accesses();
  C.L1Misses = L1.misses();
  C.L2Accesses = L2.accesses();
  C.L2Misses = L2.misses();
  C.Branches = Predictor.branches();
  C.BranchMispredicts = Predictor.mispredicts();
  C.Allocations = Allocations;
  C.Frees = Frees;
  C.Cycles = Cycles;
  return C;
}

void MachineModel::reset() {
  L1.reset();
  L2.reset();
  Predictor.reset();
  Cycles = 0;
  Instructions = 0;
  Allocations = 0;
  Frees = 0;
  LastBlock = ~0ULL;
}
