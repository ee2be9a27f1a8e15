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
/// alternative) at slightly higher constant factors than vector.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_DEQUE_H
#define BRAINY_CONTAINERS_DEQUE_H

#include "containers/ContainerBase.h"

#include <vector>

namespace brainy {
namespace ds {

/// Instrumentable ring-buffer deque of Key.
class Deque : public ContainerBase {
public:
  explicit Deque(uint32_t ElemBytes = 8, MachineModel *Model = nullptr,
                 uint64_t HeapBase = 0x30000000ULL);
  ~Deque();

  /// Appends \p K in O(1) amortised. Cost = resize copies.
  OpResult pushBack(Key K);

  /// Prepends \p K in O(1) amortised. Cost = resize copies.
  OpResult pushFront(Key K);

  /// Inserts \p K before logical position \p Pos (clamped), shifting toward
  /// the nearer end. Cost = elements shifted (+ resize copies).
  OpResult insertAt(uint64_t Pos, Key K);

  /// Removes the element at logical \p Pos. Cost = elements shifted.
  OpResult eraseAt(uint64_t Pos);

  /// Removes the first element equal to \p K. Cost = scan + shift length.
  OpResult eraseValue(Key K);

  /// Linear search from the logical front. Cost = elements touched.
  OpResult find(Key K);

  /// Advances the persistent cursor \p Steps elements (wrapping).
  OpResult iterate(uint64_t Steps);

  uint64_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  void clear();

  uint64_t resizeCount() const { return Resizes; }

  /// Untracked accessor for tests: logical \p Index-th element.
  Key at(uint64_t Index) const { return Data[physical(Index)]; }

private:
  uint64_t physical(uint64_t Logical) const {
    return (HeadIdx + Logical) & (Capacity - 1);
  }
  uint64_t elemAddr(uint64_t Logical) const {
    return SimBase + physical(Logical) * Elem;
  }
  /// Doubles capacity, compacting to physical order. \returns copies made.
  uint64_t grow();
  uint64_t ensureSpace();
  void touchElem(uint64_t Logical, uint32_t Bytes) {
    note(elemAddr(Logical), Bytes);
  }

  std::vector<Key> Data; ///< physical slots; valid entries per Head/Count
  uint64_t SimBase = 0;
  uint64_t Capacity = 0; ///< power of two
  uint64_t HeadIdx = 0;
  uint64_t Count = 0;
  uint64_t Resizes = 0;
  uint64_t Cursor = 0;
};

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_DEQUE_H
