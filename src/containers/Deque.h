//===- containers/Deque.h - Double-ended queue -----------------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Double-ended queue — the paper's `deque`. Implemented as a growable ring
/// buffer: O(1) insertion at both ends, near-contiguous iteration, and
/// middle insertion that shifts toward the nearer end (half the moves of a
/// vector on average). This captures std::deque's selection-relevant
/// properties: cheap front insertion (why Table 1 lists it as a vector/list
/// alternative) at slightly higher constant factors than vector. The ring
/// lives in ArrayCore; this class adds its work constants and its
/// head-side paths.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_DEQUE_H
#define BRAINY_CONTAINERS_DEQUE_H

#include "containers/ArrayCore.h"

namespace brainy {
namespace ds {

/// Instrumentable ring-buffer deque of Key.
class Deque : public ArrayCore<Deque> {
public:
  explicit Deque(uint32_t ElemBytes = 8, MachineModel *Model = nullptr,
                 uint64_t HeapBase = 0x30000000ULL)
      : ArrayCore(ElemBytes, Model, HeapBase) {}

  /// Prepends \p K in O(1) amortised. Cost = resize copies.
  OpResult pushFront(Key K);

  /// Inserts \p K before logical position \p Pos (clamped), shifting toward
  /// the nearer end. Cost = elements shifted (+ resize copies).
  OpResult insertAt(uint64_t Pos, Key K);

  /// Removes the element at logical \p Pos, shifting the nearer end.
  /// Cost = elements shifted.
  OpResult eraseAt(uint64_t Pos);

private:
  friend ArrayCore;

  // Ring indexing makes every step a little dearer than a vector's.
  static constexpr uint64_t CompareWork = 3;
  static constexpr uint64_t WriteWork = 3;
  static constexpr uint64_t CopyWorkPerElem = 3;
  static constexpr bool HeadMoves = true;
};

extern template class ArrayCore<Deque>;

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_DEQUE_H
