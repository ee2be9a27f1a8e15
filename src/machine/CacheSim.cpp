//===- machine/CacheSim.cpp -----------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "machine/CacheSim.h"

#include <algorithm>

using namespace brainy;

CacheSim::CacheSim(CacheGeometry Geometry) : Geom(Geometry) {
  assert(Geom.valid() && "cache geometry the simulator cannot model");
  BlockShift = static_cast<uint32_t>(__builtin_ctz(Geom.BlockBytes));
  Assoc = Geom.Associativity;
  uint64_t NumSets = Geom.numSets();
  SetMask = NumSets - 1;
  Blocks.assign(NumSets * Assoc, Empty);
}

uint32_t CacheSim::accessRange(uint64_t Addr, uint32_t Bytes) {
  if (Bytes == 0)
    Bytes = 1;
  uint64_t First = Addr >> BlockShift;
  uint64_t Last = (Addr + Bytes - 1) >> BlockShift;
  uint32_t MissCount = 0;
  for (uint64_t Block = First; Block <= Last; ++Block)
    if (!access(Block << BlockShift))
      ++MissCount;
  return MissCount;
}

void CacheSim::reset() {
  std::fill(Blocks.begin(), Blocks.end(), Empty);
  Hits = 0;
  Misses = 0;
}
