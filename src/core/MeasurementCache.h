//===- core/MeasurementCache.h - (seed, DS) cycle memo ---------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase I measures the same (seed, DsKind) application run for every model
/// family that races that kind — and again when per-family phaseOne calls
/// revisit seeds phaseOneAll already raced. Those runs are pure functions
/// of (seed, config, machine), so their cycle counts can be memoised once
/// per TrainingFramework and shared across families, calls, and threads.
///
/// A measurement is exact, or a lower bound from a run a CycleCap stopped
/// (Phase I's bounded race, core/Oracle.h). When two values for one
/// (seed, kind) meet, an exact one beats a bound and a larger bound beats
/// a smaller one, so a folded entry is the same for every fold order. A
/// lookup serves a stored bound only to a caller whose cap already rules
/// it out, and otherwise re-runs the kind under the caller's cap.
///
/// Concurrency model: each Phase I claim gets a private Shard that records
/// fresh measurements locally, without a lock, and is folded back into the
/// shared map with merge() as soon as its claim is evaluated — while other
/// shards keep reading the map. The shared map is guarded by MapMutex;
/// a shard takes it only to look up a (seed, kind) it has not measured
/// itself, which is cheap next to the millisecond-scale measurement a hit
/// saves. Because measurements are pure, two shards measuring the same key
/// record identical exact values, and merge order cannot change any
/// result.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CORE_MEASUREMENTCACHE_H
#define BRAINY_CORE_MEASUREMENTCACHE_H

#include "adt/DsKind.h"
#include "appgen/AppRunner.h"
#include "support/FaultInjector.h"
#include "support/ThreadSafety.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

namespace brainy {

/// One seed's measured cycles, as sent to distributed workers with a chunk
/// and merged back from them. Mask bit i covers Cycles[i]; BoundMask, a
/// subset of Mask, marks the kinds whose Cycles are lower bounds.
struct CycleRecord {
  uint64_t Seed = 0;
  unsigned Mask = 0;
  unsigned BoundMask = 0;
  std::array<double, NumDsKinds> Cycles{};
};

/// The masks a decoded record (cache file line or wire record) must have:
/// at least one kind, only known kinds, and bounds only among them.
inline bool validCycleMasks(uint64_t Mask, uint64_t BoundMask) {
  return Mask && !(Mask >> NumDsKinds) && !(BoundMask & ~Mask);
}

/// Per-(seed, DsKind) cycle memo. Every access to the shared map holds
/// MapMutex; a shard's own overlay is private to the thread using it.
class MeasurementCache {
  struct Entry {
    std::array<double, NumDsKinds> Cycles{};
    unsigned Mask = 0;
    unsigned BoundMask = 0;

    /// Whether kind \p I is known well enough for \p Cap: exactly, or as a
    /// bound the cap already rules out.
    bool serves(unsigned I, const CycleCap *Cap) const {
      unsigned Bit = 1u << I;
      return (Mask & Bit) &&
             (!(BoundMask & Bit) || (Cap && Cap->rulesOut(Cycles[I])));
    }

    /// Folds one value of kind \p I: an exact value beats a bound, and a
    /// larger bound beats a smaller one. Returns whether the entry
    /// changed.
    bool fold(unsigned I, double C, bool Bound) {
      unsigned Bit = 1u << I;
      if ((Mask & Bit) && (!(BoundMask & Bit) || (Bound && C <= Cycles[I])))
        return false;
      Cycles[I] = C;
      Mask |= Bit;
      BoundMask = Bound ? BoundMask | Bit : BoundMask & ~Bit;
      return true;
    }
  };
  static_assert(NumDsKinds <= 32, "Mask holds one bit per kind");

public:
  /// Runs one kind of one seed under the caller's cap.
  using MeasureFn = std::function<RunOutcome()>;

  /// One chunk's private view: shared-map reads are lock-free, fresh
  /// measurements land in a local overlay until merge().
  class Shard {
  public:
    /// The cycles of (Seed, Kind) as \p Cap needs them: exact, or a lower
    /// bound \p Cap rules out (only exact when \p Cap is null). Serves
    /// them from this shard or the shared map when it can, and otherwise
    /// calls \p Measure, which must run under \p Cap, and records its
    /// outcome, exact or bound.
    double cyclesOf(uint64_t Seed, DsKind Kind, const CycleCap *Cap,
                    const MeasureFn &Measure) {
      unsigned I = static_cast<unsigned>(Kind);
      auto It = Fresh.find(Seed);
      if (It != Fresh.end() && It->second.serves(I, Cap))
        return It->second.Cycles[I];
      double Cycles;
      // A `cache` fault on a shared-map hit models a corrupt entry being
      // detected: the hit is discarded and the key remeasured into the
      // local overlay. Measurements are pure, so recovery reproduces an
      // equally usable value and no downstream result can change.
      if (Parent->lookup(Seed, I, Cap, Cycles) &&
          !FaultInjector::instance().shouldFail(FaultSite::CacheLookup, Seed,
                                                /*Salt=*/I))
        return Cycles;
      RunOutcome Run = Measure();
      Parent->FreshCount.fetch_add(1, std::memory_order_relaxed);
      if (!Run.Complete)
        Parent->EarlyStops.fetch_add(1, std::memory_order_relaxed);
      Fresh[Seed].fold(I, Run.Cycles, !Run.Complete);
      return Run.Cycles;
    }

    /// The measurements this shard performed itself for seeds in
    /// [\p BeginSeed, \p EndSeed), in seed order. This is what a
    /// distributed worker sends back to the coordinator after a chunk.
    std::vector<CycleRecord> freshRecords(uint64_t BeginSeed,
                                          uint64_t EndSeed) const {
      std::vector<CycleRecord> Out;
      for (uint64_t Seed = BeginSeed; Seed != EndSeed; ++Seed) {
        auto It = Fresh.find(Seed);
        if (It != Fresh.end())
          Out.push_back(recordOf(Seed, It->second));
      }
      return Out;
    }

  private:
    friend class MeasurementCache;
    explicit Shard(const MeasurementCache &Parent) : Parent(&Parent) {}

    const MeasurementCache *Parent;
    std::unordered_map<uint64_t, Entry> Fresh;
  };

  Shard shard() const { return Shard(*this); }

  /// Folds a shard's fresh measurements into the shared map; other shards
  /// may be live. Hash-order iteration is safe here: the fold rule is
  /// order-independent, so the merged map is identical for every visit
  /// order.
  void merge(Shard &&S) BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    // brainy-lint: allow(unordered-iter): the fold rule is commutative;
    // no result depends on the visit order of S.Fresh.
    for (auto &KV : S.Fresh)
      fold(recordOf(KV.first, KV.second));
    S.Fresh.clear();
  }

  /// Folds one record streamed back from a distributed worker. Each kind
  /// the fold changes counts as a fresh measurement (and, if a bound, as
  /// one stopped early): it was computed this run, just remotely.
  void mergeRecord(const CycleRecord &Rec) BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    unsigned Changed = fold(Rec);
    FreshCount.fetch_add(__builtin_popcount(Changed),
                         std::memory_order_relaxed);
    EarlyStops.fetch_add(__builtin_popcount(Changed & Rec.BoundMask),
                         std::memory_order_relaxed);
  }

  /// mergeRecord without the fresh accounting — the load path for records
  /// computed elsewhere: restored from a persisted measurement cache
  /// (MeasurementStore), or sent to a worker with its chunk.
  void restoreRecord(const CycleRecord &Rec) BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    fold(Rec);
  }

  /// Every cached record, sorted by seed — the persistence snapshot.
  std::vector<CycleRecord> records() const BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    std::vector<CycleRecord> Out;
    Out.reserve(Map.size());
    // brainy-lint: allow(unordered-iter): the snapshot is sorted by seed
    // below, so hash iteration order cannot reach any result.
    for (const auto &KV : Map)
      if (KV.second.Mask)
        Out.push_back(recordOf(KV.first, KV.second));
    std::sort(Out.begin(), Out.end(),
              [](const CycleRecord &A, const CycleRecord &B) {
                return A.Seed < B.Seed;
              });
    return Out;
  }

  /// Simulations actually run since construction — Measure() calls by
  /// local shards, exact or stopped early, plus kinds that records merged
  /// from distributed workers changed. Restored-from-disk records are
  /// excluded: a warm run that recomputes nothing reports 0.
  uint64_t freshMeasurements() const {
    return FreshCount.load(std::memory_order_relaxed);
  }

  /// The fresh measurements a CycleCap stopped part-way.
  uint64_t stoppedEarly() const {
    return EarlyStops.load(std::memory_order_relaxed);
  }

  /// Everything known about \p Seed, for sending with a distributed chunk.
  /// Returns false when no kind of the seed is cached. Thread-safe: the
  /// coordinator reads it while other chunks' records are being merged.
  bool lookupAll(uint64_t Seed, CycleRecord &Out) const
      BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    auto It = Map.find(Seed);
    if (It == Map.end() || !It->second.Mask)
      return false;
    Out = recordOf(Seed, It->second);
    return true;
  }

  /// Number of seeds with at least one cached measurement.
  size_t seeds() const BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    return Map.size();
  }

private:
  static CycleRecord recordOf(uint64_t Seed, const Entry &E) {
    CycleRecord Rec;
    Rec.Seed = Seed;
    Rec.Mask = E.Mask;
    Rec.BoundMask = E.BoundMask;
    Rec.Cycles = E.Cycles;
    return Rec;
  }

  /// Shard-side read path for kind \p I of \p Seed under \p Cap.
  bool lookup(uint64_t Seed, unsigned I, const CycleCap *Cap,
              double &Cycles) const BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    auto It = Map.find(Seed);
    if (It == Map.end() || !It->second.serves(I, Cap))
      return false;
    Cycles = It->second.Cycles[I];
    return true;
  }

  /// The fold every write path shares (Entry::fold, kind by kind).
  /// Returns the kind bits whose value changed.
  unsigned fold(const CycleRecord &Rec) BRAINY_REQUIRES(MapMutex) {
    Entry &Dst = Map[Rec.Seed];
    unsigned Changed = 0;
    for (unsigned I = 0; I != NumDsKinds; ++I)
      if ((Rec.Mask & (1u << I)) &&
          Dst.fold(I, Rec.Cycles[I], Rec.BoundMask & (1u << I)))
        Changed |= 1u << I;
    return Changed;
  }

  mutable Mutex MapMutex;
  std::unordered_map<uint64_t, Entry> Map BRAINY_GUARDED_BY(MapMutex);
  /// Fresh-measurement and early-stop tallies (see freshMeasurements()).
  /// Relaxed atomics, not MapMutex state: shards bump them lock-free from
  /// worker threads and they feed only diagnostics, never a training
  /// result.
  mutable std::atomic<uint64_t> FreshCount{0};
  mutable std::atomic<uint64_t> EarlyStops{0};
};

} // namespace brainy

#endif // BRAINY_CORE_MEASUREMENTCACHE_H
