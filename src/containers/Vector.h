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
/// Figure 6), and O(n) middle insertion/erase.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_VECTOR_H
#define BRAINY_CONTAINERS_VECTOR_H

#include "containers/ContainerBase.h"

#include <vector>

namespace brainy {
namespace ds {

/// Instrumentable dynamic array of Key.
class Vector : public ContainerBase {
public:
  explicit Vector(uint32_t ElemBytes = 8, MachineModel *Model = nullptr,
                  uint64_t HeapBase = 0x10000000ULL);
  ~Vector();

  /// Appends \p K. Cost counts elements copied when a resize fires.
  OpResult pushBack(Key K);

  /// Prepends \p K, shifting every element. Cost = prior size (+ resize).
  OpResult pushFront(Key K);

  /// Inserts \p K before position \p Pos (clamped to size()).
  /// Cost = elements shifted (+ resize copies).
  OpResult insertAt(uint64_t Pos, Key K);

  /// Removes the element at \p Pos if in range. Cost = elements shifted.
  OpResult eraseAt(uint64_t Pos);

  /// Removes the first element equal to \p K. Cost = scan + shift length.
  OpResult eraseValue(Key K);

  /// Linear search for \p K from the front. Cost = elements touched.
  OpResult find(Key K);

  /// Advances the persistent iteration cursor \p Steps elements, touching
  /// each; wraps to the front. Cost = elements touched.
  OpResult iterate(uint64_t Steps);

  uint64_t size() const { return Data.size(); }
  bool empty() const { return Data.empty(); }
  void clear();

  /// Number of capacity growths since construction (software feature).
  uint64_t resizeCount() const { return Resizes; }

  /// Untracked element accessor (tests/oracles only; no events emitted).
  Key at(uint64_t Index) const { return Data[Index]; }

private:
  uint64_t elemAddr(uint64_t Index) const {
    return SimBase + Index * Elem;
  }
  /// Grows the simulated + real capacity, copying all elements.
  /// \returns elements copied.
  uint64_t grow();
  /// Checks capacity before inserting one element; grows when full.
  uint64_t ensureSpace();
  /// Emits the touch events for shifting [From, size()) one slot right.
  void shiftRight(uint64_t From);
  /// Emits the touch events for shifting (From, size()) one slot left.
  void shiftLeft(uint64_t From);

  std::vector<Key> Data;
  uint64_t SimBase = 0;
  uint64_t Capacity = 0;
  uint64_t Resizes = 0;
  uint64_t Cursor = 0;
};

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_VECTOR_H
