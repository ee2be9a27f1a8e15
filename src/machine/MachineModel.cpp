//===- machine/MachineModel.cpp -------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "machine/MachineModel.h"

#include <cassert>

using namespace brainy;

void EventBuffer::flush() {
  if (Size == 0)
    return;
  size_t N = Size;
  Size = 0; // Reset first: the drain must see a quiescent buffer.
  Owner.onBatch(Words.data(), N);
}

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
      L1BlockShift(L1.blockShift()), Events(*this) {}

void MachineModel::onBatch(const uint64_t *Words, size_t Count) {
  // Fused decode + simulate: one switch per record, step functions inlined.
  // Record order is append order, so this charges exactly the cycles the
  // per-event entry points would have.
  for (size_t I = 0; I < Count;) {
    uint64_t W0 = Words[I];
    switch (W0 & event::KindMask) {
    case event::Access: {
      // Run coalescing: a maximal run of consecutive access records that
      // all repeat LastBlock (think memmove loops re-reading one cache
      // line) collapses to O(1) integer effects — touchSlotRun — plus the
      // run's StreamHitCycles charges. The doubles are added one-by-one in
      // record order into a register-local accumulator, so rounding is
      // identical to the per-event path; only the per-event member
      // round-trips disappear. A per-event interface can never see the
      // run; this rewrite exists because the batch representation does.
      if (LastL1Slot != InvalidSlot) {
        uint32_t Shift = L1BlockShift;
        double C = Cycles;
        size_t J = I;
        while (J < Count && (Words[J] & event::KindMask) == event::Access) {
          uint64_t A = Words[J + 1];
          uint32_t B = static_cast<uint32_t>(Words[J] >> event::PayloadShift);
          if (B == 0)
            B = 1;
          if ((A >> Shift) != LastBlock ||
              ((A + B - 1) >> Shift) != LastBlock)
            break;
          C += Cfg.StreamHitCycles;
          J += 2;
        }
        if (J != I) {
          Cycles = C;
          L1.touchSlotRun(LastL1Slot, (J - I) / 2);
          I = J;
          break;
        }
      }
      stepAccess(Words[I + 1],
                 static_cast<uint32_t>(W0 >> event::PayloadShift));
      I += 2;
      break;
    }
    case event::Branch:
      stepBranch(static_cast<BranchSite>(
                     static_cast<uint32_t>(W0 >> event::PayloadShift)),
                 (W0 & event::FlagBit) != 0);
      ++I;
      break;
    case event::Instr:
      stepInstructions(W0 >> event::PayloadShift);
      ++I;
      break;
    case event::Alloc:
      stepAlloc(W0 >> event::PayloadShift);
      ++I;
      break;
    case event::Free:
      stepFree(W0 >> event::PayloadShift);
      ++I;
      break;
    default:
      assert(false && "corrupt event record");
      ++I;
      break;
    }
  }
}

HardwareCounters MachineModel::counters() const {
  drainPending();
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
  drainPending();
  L1.reset();
  L2.reset();
  Predictor.reset();
  Cycles = 0;
  Instructions = 0;
  Allocations = 0;
  Frees = 0;
  LastBlock = ~0ULL;
  LastL1Slot = InvalidSlot;
}
