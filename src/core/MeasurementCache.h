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
/// Concurrency model: each Phase I claim gets a private Shard that records
/// fresh measurements locally, without a lock, and is folded back into the
/// shared map with merge() as soon as its claim is evaluated — while other
/// shards keep reading the map. The shared map is guarded by MapMutex;
/// a shard takes it only to look up a (seed, kind) it has not measured
/// itself, which is cheap next to the millisecond-scale measurement a hit
/// saves. Because measurements are pure, two shards measuring the same key
/// record identical values and merge order cannot change any result.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CORE_MEASUREMENTCACHE_H
#define BRAINY_CORE_MEASUREMENTCACHE_H

#include "adt/DsKind.h"
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
/// and merged back from them. Mask bit i covers Cycles[i].
struct CycleRecord {
  uint64_t Seed = 0;
  unsigned Mask = 0;
  std::array<double, NumDsKinds> Cycles{};
};

/// Per-(seed, DsKind) cycle memo. Every access to the shared map holds
/// MapMutex; a shard's own overlay is private to the thread using it.
class MeasurementCache {
  struct Entry {
    std::array<double, NumDsKinds> Cycles{};
    unsigned MeasuredMask = 0;
  };
  static_assert(NumDsKinds <= 32, "MeasuredMask holds one bit per kind");

public:
  /// One chunk's private view: shared-map reads are lock-free, fresh
  /// measurements land in a local overlay until merge().
  class Shard {
  public:
    /// The memoised cycles for (Seed, Kind), calling \p Measure on a miss.
    double cyclesOf(uint64_t Seed, DsKind Kind,
                    const std::function<double()> &Measure) {
      unsigned I = static_cast<unsigned>(Kind);
      unsigned Bit = 1u << I;
      auto It = Fresh.find(Seed);
      if (It != Fresh.end() && (It->second.MeasuredMask & Bit))
        return It->second.Cycles[I];
      double Cycles;
      // A `cache` fault on a shared-map hit models a corrupt entry being
      // detected: the hit is discarded and the key remeasured into the
      // local overlay. Measurements are pure, so recovery reproduces the
      // identical value and no downstream result can change.
      if (Parent->lookup(Seed, Kind, Cycles) &&
          !FaultInjector::instance().shouldFail(FaultSite::CacheLookup, Seed,
                                                /*Salt=*/I))
        return Cycles;
      Parent->FreshCount.fetch_add(1, std::memory_order_relaxed);
      Cycles = Measure();
      Entry &E = Fresh[Seed];
      E.Cycles[I] = Cycles;
      E.MeasuredMask |= Bit;
      return Cycles;
    }

    /// The measurements this shard performed itself for seeds in
    /// [\p BeginSeed, \p EndSeed), in seed order. This is what a
    /// distributed worker sends back to the coordinator after a chunk.
    std::vector<CycleRecord> freshRecords(uint64_t BeginSeed,
                                          uint64_t EndSeed) const {
      std::vector<CycleRecord> Out;
      for (uint64_t Seed = BeginSeed; Seed != EndSeed; ++Seed) {
        auto It = Fresh.find(Seed);
        if (It == Fresh.end())
          continue;
        CycleRecord Rec;
        Rec.Seed = Seed;
        Rec.Mask = It->second.MeasuredMask;
        Rec.Cycles = It->second.Cycles;
        Out.push_back(Rec);
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
  /// may be live. Hash-order iteration is safe here: entries are combined
  /// with per-kind masks, so the merged map is identical for every visit
  /// order.
  void merge(Shard &&S) BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    // brainy-lint: allow(unordered-iter): mask-union merge is commutative;
    // no result depends on the visit order of S.Fresh.
    for (auto &KV : S.Fresh)
      fold(KV.first, KV.second.MeasuredMask, KV.second.Cycles);
    S.Fresh.clear();
  }

  /// Folds one record streamed back from a distributed worker. Same
  /// mask-union rule as merge(): first write wins, duplicates are
  /// identical by purity. Newly-learned kind bits count as fresh
  /// measurements — they were computed this run, just remotely.
  void mergeRecord(const CycleRecord &Rec) BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    unsigned New = fold(Rec.Seed, Rec.Mask, Rec.Cycles);
    FreshCount.fetch_add(__builtin_popcount(New), std::memory_order_relaxed);
  }

  /// mergeRecord without the fresh accounting — the load path for records
  /// computed elsewhere: restored from a persisted measurement cache
  /// (MeasurementStore), or sent to a worker with its chunk.
  void restoreRecord(const CycleRecord &Rec) BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    fold(Rec.Seed, Rec.Mask, Rec.Cycles);
  }

  /// Every cached record, sorted by seed — the persistence snapshot.
  std::vector<CycleRecord> records() const BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    std::vector<CycleRecord> Out;
    Out.reserve(Map.size());
    // brainy-lint: allow(unordered-iter): the snapshot is sorted by seed
    // below, so hash iteration order cannot reach any result.
    for (const auto &KV : Map) {
      if (!KV.second.MeasuredMask)
        continue;
      CycleRecord Rec;
      Rec.Seed = KV.first;
      Rec.Mask = KV.second.MeasuredMask;
      Rec.Cycles = KV.second.Cycles;
      Out.push_back(Rec);
    }
    std::sort(Out.begin(), Out.end(),
              [](const CycleRecord &A, const CycleRecord &B) {
                return A.Seed < B.Seed;
              });
    return Out;
  }

  /// Measurements actually computed since construction: Measure() calls by
  /// local shards plus new kind bits merged from distributed workers.
  /// Restored-from-disk records are excluded — a warm run that recomputes
  /// nothing reports 0.
  uint64_t freshMeasurements() const {
    return FreshCount.load(std::memory_order_relaxed);
  }

  /// Everything known about \p Seed, for sending with a distributed chunk.
  /// Returns false when no kind of the seed is cached. Thread-safe: the
  /// coordinator reads it while other chunks' records are being merged.
  bool lookupAll(uint64_t Seed, CycleRecord &Out) const
      BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    auto It = Map.find(Seed);
    if (It == Map.end() || !It->second.MeasuredMask)
      return false;
    Out.Seed = Seed;
    Out.Mask = It->second.MeasuredMask;
    Out.Cycles = It->second.Cycles;
    return true;
  }

  /// Number of seeds with at least one cached measurement.
  size_t seeds() const BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    return Map.size();
  }

private:
  /// Shard-side read path for one (seed, kind).
  bool lookup(uint64_t Seed, DsKind Kind, double &Cycles) const
      BRAINY_EXCLUDES(MapMutex) {
    MutexLock Lock(MapMutex);
    auto It = Map.find(Seed);
    if (It == Map.end())
      return false;
    unsigned I = static_cast<unsigned>(Kind);
    if (!(It->second.MeasuredMask & (1u << I)))
      return false;
    Cycles = It->second.Cycles[I];
    return true;
  }

  /// The mask-union rule every write path shares: kinds already known keep
  /// their value. Returns the kind bits that were new.
  unsigned fold(uint64_t Seed, unsigned Mask,
                const std::array<double, NumDsKinds> &Cycles)
      BRAINY_REQUIRES(MapMutex) {
    Entry &Dst = Map[Seed];
    unsigned New = Mask & ~Dst.MeasuredMask;
    for (unsigned I = 0; I != NumDsKinds; ++I)
      if (New & (1u << I))
        Dst.Cycles[I] = Cycles[I];
    Dst.MeasuredMask |= Mask;
    return New;
  }

  mutable Mutex MapMutex;
  std::unordered_map<uint64_t, Entry> Map BRAINY_GUARDED_BY(MapMutex);
  /// Fresh-measurement tally (see freshMeasurements()). A relaxed atomic,
  /// not MapMutex state: shards bump it lock-free from worker threads and
  /// it feeds only diagnostics, never a training result.
  mutable std::atomic<uint64_t> FreshCount{0};
};

} // namespace brainy

#endif // BRAINY_CORE_MEASUREMENTCACHE_H
