//===- machine/CacheSim.h - Set-associative cache simulator ----*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic set-associative LRU cache model. Brainy's models use L1 miss
/// rate as a predictive feature (Table 3) and the paper's motivating example
/// hinges on L2 capacity differences between the Core2 (4 MB) and the Atom
/// (512 KB), so the simulator models both levels.
///
/// The state is laid out structure-of-arrays (parallel Tags[] / LastUse[]
/// vectors instead of an array of Way structs) and the probe loop lives in
/// the header: MachineModel::onAccess executes one probe per container
/// memory touch, and the SoA layout lets the tag scan touch one contiguous
/// 8-entry run per array instead of strided struct fields.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_MACHINE_CACHESIM_H
#define BRAINY_MACHINE_CACHESIM_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace brainy {

/// Geometry of one cache level.
struct CacheGeometry {
  uint64_t SizeBytes = 32 * 1024;
  uint32_t Associativity = 8;
  uint32_t BlockBytes = 64;

  uint64_t numSets() const {
    return SizeBytes / (static_cast<uint64_t>(Associativity) * BlockBytes);
  }

  /// Whether CacheSim can model this level: a power-of-two block size and
  /// set count, at least one way, a size that is exactly sets * ways *
  /// block, and at most 2^20 blocks.
  bool valid() const {
    auto Pow2 = [](uint64_t V) { return V && !(V & (V - 1)); };
    if (!Pow2(BlockBytes) || !Associativity)
      return false;
    uint64_t WayBytes = static_cast<uint64_t>(Associativity) * BlockBytes;
    return SizeBytes % WayBytes == 0 && Pow2(SizeBytes / WayBytes) &&
           SizeBytes / BlockBytes <= (uint64_t(1) << 20);
  }
};

/// One level of set-associative cache with true-LRU replacement.
class CacheSim {
public:
  explicit CacheSim(CacheGeometry Geometry);

  /// Looks up the block containing \p Addr, filling on miss.
  /// \returns true on hit.
  ///
  /// Victim choice is position-stable: the scan starts at way 0 and only
  /// moves on a strictly smaller timestamp, so ties resolve to the lowest
  /// way index — the exact replacement order the pre-SoA model had, which
  /// the bit-identity guarantee depends on.
  bool access(uint64_t Addr) {
    uint64_t Block = Addr >> BlockShift;
    uint64_t Set = Block & SetMask;
    uint64_t Tag = Block >> 1; // Keep set bits in the tag; harmless & simple.
    uint64_t Base = Set * Assoc;
    uint64_t *SetTags = &Tags[Base];
    uint64_t *SetUse = &LastUse[Base];
    ++Clock;

    // Track the victim's timestamp by value so the scan keeps it in a
    // register; strict less-than preserves lowest-way tie-breaking. The
    // victim update is written ternary-style so the compiler emits
    // conditional moves — on random timestamps that branch is inherently
    // unpredictable and mispredicts dominate the scan otherwise. The hit
    // test uses a bitwise & for the same reason.
    uint32_t Victim = 0;
    uint64_t VictimUse = SetUse[0];
    for (uint32_t W = 0; W != Assoc; ++W) {
      uint64_t Use = SetUse[W];
      if ((Use != 0) & (SetTags[W] == Tag)) {
        SetUse[W] = Clock;
        ++Hits;
        LastSlot = Base + W;
        return true;
      }
      bool Less = Use < VictimUse;
      Victim = Less ? W : Victim;
      VictimUse = Less ? Use : VictimUse;
    }
    ++Misses;
    SetTags[Victim] = Tag;
    SetUse[Victim] = Clock;
    LastSlot = Base + Victim;
    return false;
  }

  /// Flat Tags/LastUse index of the entry access() last hit in or filled —
  /// combined with the caller tracking "same block as last access", this
  /// enables the O(1) re-touch fast path below.
  uint64_t lastTouchedSlot() const { return LastSlot; }

  /// Re-touches \p Slot, which the caller knows still holds the block of
  /// \p Addr (it was the most recently used entry and nothing touched this
  /// cache since). Side effects are exactly those of access() hitting at
  /// that entry: clock tick, LRU stamp, hit count. Taking the precomputed
  /// flat slot skips the set-index arithmetic entirely — the repeat path
  /// does no address math beyond the caller's block compare.
  void touchSlot(uint64_t Addr, uint64_t Slot) {
    (void)Addr;
    assert(Slot < LastUse.size() && LastUse[Slot] != 0 &&
           Slot / Assoc == ((Addr >> BlockShift) & SetMask) &&
           Tags[Slot] == ((Addr >> BlockShift) >> 1) &&
           "touchSlot caller lost track of the MRU block");
    ++Clock;
    LastUse[Slot] = Clock;
    ++Hits;
  }

  /// Looks up every block overlapped by [Addr, Addr+Bytes).
  /// \returns the number of misses among the touched blocks.
  uint32_t accessRange(uint64_t Addr, uint32_t Bytes);

  /// Fills the block containing \p Addr without touching hit/miss counters
  /// (models a hardware prefetch completing before the demand access).
  void fill(uint64_t Addr) {
    uint64_t Block = Addr >> BlockShift;
    uint64_t Set = Block & SetMask;
    uint64_t Tag = Block >> 1;
    uint64_t Base = Set * Assoc;
    uint64_t *SetTags = &Tags[Base];
    uint64_t *SetUse = &LastUse[Base];
    ++Clock;

    uint32_t Victim = 0;
    uint64_t VictimUse = SetUse[0];
    for (uint32_t W = 0; W != Assoc; ++W) {
      uint64_t Use = SetUse[W];
      if ((Use != 0) & (SetTags[W] == Tag)) {
        SetUse[W] = Clock;
        return;
      }
      bool Less = Use < VictimUse;
      Victim = Less ? W : Victim;
      VictimUse = Less ? Use : VictimUse;
    }
    SetTags[Victim] = Tag;
    SetUse[Victim] = Clock;
  }

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t accesses() const { return Hits + Misses; }
  double missRate() const {
    uint64_t Total = accesses();
    return Total ? static_cast<double>(Misses) / static_cast<double>(Total)
                 : 0.0;
  }

  const CacheGeometry &geometry() const { return Geom; }
  uint32_t blockShift() const { return BlockShift; }

  /// Invalidates all contents and zeroes counters.
  void reset();

private:
  CacheGeometry Geom;
  uint64_t SetMask;
  uint32_t BlockShift;
  uint32_t Assoc;
  uint64_t Clock = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t LastSlot = 0; ///< flat entry index access() last hit in or filled
  // SoA: parallel per-way arrays, NumSets x Associativity, row-major.
  // LastUse is a monotonically increasing timestamp; 0 = invalid way.
  std::vector<uint64_t> Tags;
  std::vector<uint64_t> LastUse;
};

} // namespace brainy

#endif // BRAINY_MACHINE_CACHESIM_H
