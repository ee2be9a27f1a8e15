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
/// Each set is an array of block numbers kept in recency order, most
/// recently used first, so the LRU block is always the last entry and no
/// timestamps are kept. MachineModel::onAccess probes once per container
/// memory touch plus once per prefetch fill, and in recency order the
/// blocks a stream re-touches or has just prefetched are found at the
/// head of their set after one compare.
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
///
/// Invariant: each set holds its resident blocks most recent first,
/// followed by Empty entries, so a block's position is its recency rank,
/// not a hardware way. Nothing needs the way: true LRU's resident set, and
/// so every hit and miss, depends only on the sequence of access() and
/// fill() calls, whichever way a real cache would put each block in.
class CacheSim {
public:
  explicit CacheSim(CacheGeometry Geometry);

  /// Looks up the block containing \p Addr, filling on miss; either way
  /// the block becomes the most recent of its set.
  /// \returns true on hit.
  bool access(uint64_t Addr) {
    if (promote(Addr >> BlockShift)) {
      ++Hits;
      return true;
    }
    ++Misses;
    return false;
  }

  /// Counts a hit on the block containing \p Addr without probing. The
  /// caller knows that block is the head of its set: it is the block this
  /// cache last looked up, and nothing has touched the cache since. A hit
  /// at the head moves nothing, so this is exactly access() hitting there.
  void hitMostRecent(uint64_t Addr) {
    uint64_t Block = Addr >> BlockShift;
    (void)Block;
    assert(Block != Empty && Blocks[(Block & SetMask) * Assoc] == Block &&
           "hitMostRecent caller lost track of the most recent block");
    ++Hits;
  }

  /// Looks up every block overlapped by [Addr, Addr+Bytes).
  /// \returns the number of misses among the touched blocks.
  uint32_t accessRange(uint64_t Addr, uint32_t Bytes);

  /// Fills the block containing \p Addr without touching hit/miss counters
  /// (models a hardware prefetch completing before the demand access). A
  /// block already present becomes the most recent of its set, as on a
  /// hit.
  void fill(uint64_t Addr) { promote(Addr >> BlockShift); }

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
  /// The empty marker. Entries hold whole block numbers (a tag that drops
  /// the set bits would alias adjacent blocks on a one-set cache), and no
  /// block number equals ~0: a block number is Addr >> BlockShift, below
  /// 2^63 once blocks are 2 bytes or more. CacheGeometry::valid() also
  /// admits 1-byte blocks, where ~0 is the block of the address space's
  /// last byte. The simulator never touches that byte (a range ending
  /// there would never leave accessRange()'s or MachineModel::onAccess's
  /// block loop), and promote() asserts it is never looked up.
  static constexpr uint64_t Empty = ~0ULL;

  /// Moves \p Block to the head of its set. On a hit at depth D, the D
  /// entries above it move down one; on a miss every entry moves down one
  /// and the last one (the LRU block, or Empty) drops out.
  /// \returns whether \p Block was present.
  bool promote(uint64_t Block) {
    assert(Block != Empty && "block ~0 is the empty marker");
    uint64_t *Set = &Blocks[(Block & SetMask) * Assoc];
    uint64_t Carry = Set[0];
    if (Carry == Block)
      return true; // already the most recent: nothing moves
    Set[0] = Block;
    for (uint32_t W = 1; W != Assoc; ++W) {
      uint64_t Cur = Set[W];
      Set[W] = Carry;
      if (Cur == Block)
        return true;
      Carry = Cur;
    }
    return false;
  }

  CacheGeometry Geom;
  uint64_t SetMask;
  uint32_t BlockShift;
  uint32_t Assoc;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  /// NumSets x Associativity block numbers, row-major, each set in
  /// recency order.
  std::vector<uint64_t> Blocks;
};

} // namespace brainy

#endif // BRAINY_MACHINE_CACHESIM_H
