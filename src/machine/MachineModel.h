//===- machine/MachineModel.h - Cycle-level cost model ---------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MachineModel consumes container runtime events and produces the hardware
/// features the paper collected with PAPI (cycles, L1/L2 misses, branch
/// mispredictions) plus a deterministic cycle count used as "execution
/// time". Two presets reproduce the paper's target systems (Figure 7):
/// an Intel Core2 Q6600-like machine and an Intel Atom N270-like machine.
///
/// The substitution rationale (see DESIGN.md): the paper's selection models
/// key on L1 miss rate, branch misprediction rate, and the element-size /
/// cache-block interaction. A two-level LRU cache + bimodal predictor +
/// latency accounting reproduces all three signals deterministically, and
/// lets the same binary "run" both microarchitectures.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_MACHINE_MACHINEMODEL_H
#define BRAINY_MACHINE_MACHINEMODEL_H

#include "machine/BranchPredictor.h"
#include "machine/CacheSim.h"

#include <string>

namespace brainy {

/// Parameters of one simulated microarchitecture.
struct MachineConfig {
  std::string Name = "generic";
  CacheGeometry L1{32 * 1024, 8, 64};
  CacheGeometry L2{4 * 1024 * 1024, 16, 64};
  /// Cycles charged per access class.
  double L1HitCycles = 3;
  /// Exposed cost of an L1 hit on a streaming pattern (same or next cache
  /// line as the previous access). Address-computable loads pipeline;
  /// pointer chases pay the full load-to-use latency — the fundamental
  /// vector-vs-list asymmetry.
  double StreamHitCycles = 1;
  double L2HitCycles = 15;
  double MemoryCycles = 200;
  /// Fraction of miss latency actually exposed (out-of-order cores overlap
  /// misses with independent work; in-order cores mostly cannot).
  double MissExposure = 1.0;
  /// Blocks of next-line prefetch issued on a sequential access pattern
  /// (0 disables). Models the streaming prefetchers both paper targets
  /// have, which is what makes contiguous scans cheap in practice.
  unsigned PrefetchDepth = 1;
  /// Cycles lost on a conditional-branch misprediction.
  double MispredictPenalty = 15;
  /// Cycles per non-memory instruction (issue-width/ILP proxy).
  double BaseCpi = 1.0;
  /// Instruction cost of allocator calls.
  double AllocInstructions = 80;
  double FreeInstructions = 50;
  /// Clock rate, only for converting cycles to (nominal) seconds in reports.
  double ClockGhz = 1.0;

  /// Intel Core2 Q6600-like preset: 4-wide out-of-order, big L2.
  static MachineConfig core2();
  /// Intel Atom N270-like preset: 2-wide in-order, small L2.
  static MachineConfig atom();
};

/// Raw counter snapshot — the "hardware features" of the paper.
struct HardwareCounters {
  uint64_t Instructions = 0;
  uint64_t L1Accesses = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Accesses = 0;
  uint64_t L2Misses = 0;
  uint64_t Branches = 0;
  uint64_t BranchMispredicts = 0;
  uint64_t Allocations = 0;
  uint64_t Frees = 0;
  double Cycles = 0;

  double l1MissRate() const {
    return L1Accesses ? static_cast<double>(L1Misses) /
                            static_cast<double>(L1Accesses)
                      : 0.0;
  }
  double l2MissRate() const {
    return L2Accesses ? static_cast<double>(L2Misses) /
                            static_cast<double>(L2Accesses)
                      : 0.0;
  }
  double branchMispredictRate() const {
    return Branches ? static_cast<double>(BranchMispredicts) /
                          static_cast<double>(Branches)
                    : 0.0;
  }
};

/// Accumulates cycles and counters for one simulated microarchitecture.
///
/// Containers wired to a model call its per-event entry points directly,
/// one inline call per event (DESIGN.md §12), and keep its address for
/// their whole life: the model is neither copyable nor movable, and must
/// outlive every container that reports to it.
class MachineModel {
public:
  explicit MachineModel(MachineConfig Config);

  MachineModel(const MachineModel &) = delete;
  MachineModel &operator=(const MachineModel &) = delete;
  MachineModel(MachineModel &&) = delete;
  MachineModel &operator=(MachineModel &&) = delete;

  /// A data-memory touch of \p Bytes starting at simulated address \p Addr.
  void onAccess(uint64_t Addr, uint32_t Bytes) {
    if (Bytes == 0)
      Bytes = 1;
    // L1 block size is power-of-two (CacheSim asserts it), so the block
    // split is a shift.
    uint32_t Shift = L1BlockShift;
    uint64_t First = Addr >> Shift;
    uint64_t Last = (Addr + Bytes - 1) >> Shift;
    // Fast path for the dominant pattern: a repeat touch of the block the
    // previous access ended on (consecutive field/element reads within one
    // cache line — 7 of 8 accesses in an 8-byte-stride scan). That block
    // is the head of its L1 set, since its lookup was the last thing to
    // touch the caches, so this is a guaranteed L1 streaming hit that
    // moves nothing: count the hit and charge StreamHitCycles, without the
    // probe or the prefetch checks. Not sequential, so no fills fire on
    // this path in the general loop either — bit-identical by construction.
    if (First == Last && First == LastBlock) {
      L1.hitMostRecent(Addr);
      Cycles += Cfg.StreamHitCycles;
      return;
    }
    for (uint64_t Block = First; Block <= Last; ++Block) {
      uint64_t BlockAddr = Block << Shift;
      // Streaming prefetcher: a sequential block-to-block pattern pulls the
      // next line(s) in ahead of the demand access.
      bool Sequential = Block == LastBlock + 1;
      bool Streaming = Sequential || Block == LastBlock;
      if (Sequential)
        for (unsigned D = 1; D <= Cfg.PrefetchDepth; ++D) {
          L2.fill(BlockAddr + (static_cast<uint64_t>(D) << Shift));
          L1.fill(BlockAddr + (static_cast<uint64_t>(D) << Shift));
        }
      LastBlock = Block;
      if (L1.access(BlockAddr)) {
        Cycles += Streaming ? Cfg.StreamHitCycles : Cfg.L1HitCycles;
        continue;
      }
      if (L2.access(BlockAddr)) {
        Cycles += Cfg.L1HitCycles + Cfg.L2HitCycles * Cfg.MissExposure;
        continue;
      }
      Cycles += Cfg.L1HitCycles +
                (Cfg.L2HitCycles + Cfg.MemoryCycles) * Cfg.MissExposure;
    }
  }

  /// A data-dependent conditional branch at \p Site resolving to \p Taken.
  void onBranch(BranchSite Site, bool Taken) {
    // The branch instruction itself.
    ++Instructions;
    Cycles += Cfg.BaseCpi;
    if (Predictor.observe(Site, Taken))
      Cycles += Cfg.MispredictPenalty;
  }

  /// \p Count instructions of straight-line work (no memory/branch effects).
  void onInstructions(uint64_t Count) {
    Instructions += Count;
    Cycles += static_cast<double>(Count) * Cfg.BaseCpi;
  }

  /// A heap allocation of \p Bytes (allocator bookkeeping cost).
  void onAlloc(uint64_t Bytes) {
    (void)Bytes;
    ++Allocations;
    onInstructions(static_cast<uint64_t>(Cfg.AllocInstructions));
  }

  /// A heap release of \p Bytes.
  void onFree(uint64_t Bytes) {
    (void)Bytes;
    ++Frees;
    onInstructions(static_cast<uint64_t>(Cfg.FreeInstructions));
  }

  /// Snapshot of all counters since the last reset().
  HardwareCounters counters() const;

  double cycles() const { return Cycles; }
  /// Nominal wall time implied by the cycle count and configured clock.
  double seconds() const { return cycles() / (Cfg.ClockGhz * 1e9); }

  const MachineConfig &config() const { return Cfg; }

  /// Clears counters and flushes caches/predictor state.
  void reset();

private:
  MachineConfig Cfg;
  CacheSim L1;
  CacheSim L2;
  BranchPredictor Predictor;
  double Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t Allocations = 0;
  uint64_t Frees = 0;
  /// The block the last access ended on, for the prefetcher's stream
  /// detection and the repeat-block fast path: ~0 (never a block, see
  /// CacheSim's empty marker) until the first access and after reset().
  uint64_t LastBlock = ~0ULL;
  uint32_t L1BlockShift;
};

} // namespace brainy

#endif // BRAINY_MACHINE_MACHINEMODEL_H
