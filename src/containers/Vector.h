//===- containers/Vector.h - Dynamic array (std::vector-like) --*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Contiguous dynamically-sized array — the paper's `vector`. Excellent
/// iteration/search locality, O(1) amortised tail insertion with occasional
/// full-copy resizes (the behaviour the paper ties to branch mispredictions,
/// Figure 6), and O(n) middle insertion/erase. The array plumbing lives in
/// ArrayCore; this class adds its work constants and shifts only its tail
/// side.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_VECTOR_H
#define BRAINY_CONTAINERS_VECTOR_H

#include "containers/ArrayCore.h"

namespace brainy {
namespace ds {

/// Instrumentable dynamic array of Key.
class Vector : public ArrayCore<Vector> {
public:
  explicit Vector(uint32_t ElemBytes = 8, MachineModel *Model = nullptr,
                  uint64_t HeapBase = 0x10000000ULL)
      : ArrayCore(ElemBytes, Model, HeapBase) {}

  /// Prepends \p K, shifting every element. Cost = prior size (+ resize).
  OpResult pushFront(Key K);

  /// Inserts \p K before position \p Pos (clamped to size()).
  /// Cost = elements shifted (+ resize copies).
  OpResult insertAt(uint64_t Pos, Key K);

  /// Removes the element at \p Pos if in range. Cost = elements shifted.
  OpResult eraseAt(uint64_t Pos);

private:
  friend ArrayCore;

  // Straight-line instruction estimates per primitive step.
  static constexpr uint64_t CompareWork = 2;
  static constexpr uint64_t WriteWork = 2;
  static constexpr uint64_t CopyWorkPerElem = 2;
  // Every insert and erase shifts the tail side.
  static constexpr bool HeadMoves = false;
};

extern template class ArrayCore<Vector>;

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_VECTOR_H
