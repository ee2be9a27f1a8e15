//===- containers/ArrayCore.h - Shared growable-array core -----*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What Vector and Deque have in common: a power-of-two ring of Keys with
/// its simulated buffer, the doubling resize and its signature branch
/// (Figure 6), tail insertion, the tail-side insert and erase shifts,
/// erase-by-value, linear find, iterate over a persistent cursor, clear and
/// teardown. A container adds its work constants and its front-side policy
/// (DESIGN.md §3), reached by static dispatch (CRTP): the core names the
/// container's constants and eraseAt directly, so no emitter has a virtual
/// call. A vector only ever shifts its tail side, so its head index stays
/// 0 and its ring is a plain array.
///
/// The order of the events the core emits (touch, branch, work charge,
/// allocation, free) is part of each container's output: the cache and
/// branch models are stateful, so moving one event changes counters,
/// cycles and bundles (DESIGN.md §12). SeqPinTest.EventStreamIsPinned
/// fixes it.
///
/// As with BstCore, the interface calls are defined below the class, each
/// container's header declares `extern template class ArrayCore<...>;`
/// and its .cpp holds the explicit instantiation, so the core compiles
/// once per container, next to that container's policy, and the ADT
/// adapters call it out of line.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_ARRAYCORE_H
#define BRAINY_CONTAINERS_ARRAYCORE_H

#include "containers/ContainerBase.h"

#include <vector>

namespace brainy {
namespace ds {

/// Shared growable ring of Keys. \p Derived supplies:
///   - `static constexpr uint64_t CompareWork`, `WriteWork` and
///     `CopyWorkPerElem`: instructions charged per element read by a
///     search or iteration, per element written, and per element moved;
///   - `static constexpr bool HeadMoves`: false when the container only
///     ever shifts its tail side, so its head index stays 0;
///   - `OpResult eraseAt(uint64_t Pos)`, which eraseValue calls on a hit.
template <typename Derived> class ArrayCore : public ContainerBase {
public:
  ArrayCore(uint32_t ElemBytes, MachineModel *Model, uint64_t HeapBase)
      : ContainerBase(ElemBytes, Model, HeapBase) {}
  ~ArrayCore();

  ArrayCore(const ArrayCore &) = delete;
  ArrayCore &operator=(const ArrayCore &) = delete;

  /// Appends \p K in O(1) amortised. Cost = resize copies.
  OpResult pushBack(Key K);

  /// Removes the first element equal to \p K. Cost = scan + shift length.
  OpResult eraseValue(Key K);

  /// Linear search for \p K from the front. Cost = elements touched.
  OpResult find(Key K);

  /// Advances the persistent iteration cursor \p Steps elements, touching
  /// each; wraps to the front. Cost = elements touched.
  OpResult iterate(uint64_t Steps);

  uint64_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  void clear();

  /// Number of capacity growths since construction (software feature).
  uint64_t resizeCount() const { return Resizes; }

  /// Untracked accessor for tests: the logical \p Index-th element.
  Key at(uint64_t Index) const { return Data[physical(Index)]; }

protected:
  uint64_t physical(uint64_t Logical) const {
    // With the head fixed at 0, logical slot I is physical slot I.
    if constexpr (!Derived::HeadMoves)
      return Logical;
    return (HeadIdx + Logical) & (Capacity - 1);
  }

  /// Checks capacity before inserting one element; grows when full.
  /// \returns elements copied.
  uint64_t ensureSpace();

  /// Moves logical slots [\p Lo, \p Hi) one slot toward the back, highest
  /// first.
  void shiftBack(uint64_t Lo, uint64_t Hi);
  /// Moves logical slots [\p Lo, \p Hi) one slot toward the front, lowest
  /// first; \p Lo >= 1.
  void shiftFront(uint64_t Lo, uint64_t Hi);

  /// Writes \p K into the open logical slot \p Pos and counts it in.
  void place(uint64_t Pos, Key K);

  /// Counts out the element that left logical slot \p Pos, keeping the
  /// cursor on the same logical element.
  void forget(uint64_t Pos) {
    --Count;
    if (Cursor > Pos)
      --Cursor;
  }

  /// Inserts \p K before logical \p Pos (clamped to size()), shifting the
  /// tail side. Cost = elements shifted (+ resize copies).
  OpResult insertShiftingTail(uint64_t Pos, Key K);
  /// Removes logical \p Pos if in range, shifting the tail side.
  /// Cost = elements shifted.
  OpResult eraseShiftingTail(uint64_t Pos);

  uint64_t Capacity = 0; ///< power of two
  uint64_t HeadIdx = 0;  ///< physical slot of the front; 0 in a vector
  uint64_t Count = 0;
  uint64_t Cursor = 0; ///< logical iteration position

private:
  std::vector<Key> Data; ///< physical slots; valid entries per Head/Count
  uint64_t SimBase = 0;
  uint64_t Resizes = 0;

  Derived &derived() { return static_cast<Derived &>(*this); }

  uint64_t elemAddr(uint64_t Logical) const {
    return SimBase + physical(Logical) * Elem;
  }
  void touchElem(uint64_t Logical, uint32_t Bytes) {
    note(elemAddr(Logical), Bytes);
  }

  /// Doubles capacity, compacting to physical order. \returns copies made.
  uint64_t grow();
  /// One step of a shift loop: the events of copying logical slot \p From
  /// to \p To.
  void noteMove(uint64_t From, uint64_t To);
};

template <typename Derived> ArrayCore<Derived>::~ArrayCore() {
  if (Capacity)
    freeSim(SimBase, Capacity * Elem);
}

template <typename Derived> uint64_t ArrayCore<Derived>::grow() {
  uint64_t NewCapacity = Capacity ? Capacity * 2 : 8;
  uint64_t NewBase = allocSim(NewCapacity * Elem);
  std::vector<Key> NewData(NewCapacity);
  // Copy every live element into the new buffer: sequential read of the old
  // region, sequential write of the new one.
  for (uint64_t I = 0; I != Count; ++I) {
    touchElem(I, Elem);
    note(NewBase + I * Elem, Elem);
    work(Derived::CopyWorkPerElem + Elem / 16);
    NewData[I] = Data[physical(I)];
  }
  if (Capacity)
    freeSim(SimBase, Capacity * Elem);
  Data = std::move(NewData);
  SimBase = NewBase;
  Capacity = NewCapacity;
  HeadIdx = 0;
  ++Resizes;
  return Count;
}

template <typename Derived> uint64_t ArrayCore<Derived>::ensureSpace() {
  bool Full = Count == Capacity;
  // The paper's signature branch: "is the dynamic array full?" — almost
  // always not taken, mispredicted exactly when a resize fires (Figure 6).
  branch(BranchSite::VectorResizeCheck, Full);
  return Full ? grow() : 0;
}

template <typename Derived>
void ArrayCore<Derived>::noteMove(uint64_t From, uint64_t To) {
  branch(BranchSite::VectorShiftLoop, true);
  touchElem(From, Elem);
  touchElem(To, Elem);
  work(Derived::CopyWorkPerElem + Elem / 16);
}

// The keys move after the events, in a loop with no model call that the
// compiler can keep in registers (a vector's becomes one memmove).
template <typename Derived>
void ArrayCore<Derived>::shiftBack(uint64_t Lo, uint64_t Hi) {
  for (uint64_t I = Hi; I > Lo; --I)
    noteMove(I - 1, I);
  branch(BranchSite::VectorShiftLoop, false);
  Key *Slots = Data.data();
  for (uint64_t I = Hi; I > Lo; --I)
    Slots[physical(I)] = Slots[physical(I - 1)];
}

template <typename Derived>
void ArrayCore<Derived>::shiftFront(uint64_t Lo, uint64_t Hi) {
  for (uint64_t I = Lo; I < Hi; ++I)
    noteMove(I, I - 1);
  branch(BranchSite::VectorShiftLoop, false);
  Key *Slots = Data.data();
  for (uint64_t I = Lo; I < Hi; ++I)
    Slots[physical(I - 1)] = Slots[physical(I)];
}

template <typename Derived>
void ArrayCore<Derived>::place(uint64_t Pos, Key K) {
  Data[physical(Pos)] = K;
  touchElem(Pos, Elem);
  work(Derived::WriteWork);
  ++Count;
}

template <typename Derived> OpResult ArrayCore<Derived>::pushBack(Key K) {
  uint64_t Copied = ensureSpace();
  place(Count, K);
  return {true, Copied};
}

template <typename Derived>
OpResult ArrayCore<Derived>::insertShiftingTail(uint64_t Pos, Key K) {
  if (Pos > Count)
    Pos = Count;
  uint64_t Copied = ensureSpace();
  uint64_t Shifted = Count - Pos;
  shiftBack(Pos, Count);
  place(Pos, K);
  return {true, Copied + Shifted};
}

template <typename Derived>
OpResult ArrayCore<Derived>::eraseShiftingTail(uint64_t Pos) {
  if (Pos >= Count)
    return {false, 0};
  uint64_t Shifted = Count - Pos - 1;
  shiftFront(Pos + 1, Count);
  forget(Pos);
  return {true, Shifted};
}

template <typename Derived> OpResult ArrayCore<Derived>::eraseValue(Key K) {
  OpResult Search = find(K);
  if (!Search.Found)
    return {false, Search.Cost};
  // find() leaves no index; the match was the Cost-th touched element.
  OpResult Erased = derived().eraseAt(Search.Cost - 1);
  return {true, Search.Cost + Erased.Cost};
}

template <typename Derived> OpResult ArrayCore<Derived>::find(Key K) {
  uint64_t Touched = 0;
  for (uint64_t I = 0; I != Count; ++I) {
    touchElem(I, 8);
    work(Derived::CompareWork);
    ++Touched;
    bool Hit = Data[physical(I)] == K;
    branch(BranchSite::SearchHit, Hit);
    if (Hit)
      return {true, Touched};
  }
  return {false, Touched};
}

template <typename Derived>
OpResult ArrayCore<Derived>::iterate(uint64_t Steps) {
  if (Count == 0)
    return {false, 0};
  uint64_t Touched = 0;
  for (uint64_t S = 0; S != Steps; ++S) {
    if (Cursor >= Count) {
      branch(BranchSite::IterContinue, false);
      Cursor = 0;
    } else {
      branch(BranchSite::IterContinue, true);
    }
    touchElem(Cursor, 8);
    work(Derived::CompareWork);
    ++Cursor;
    ++Touched;
  }
  return {true, Touched};
}

template <typename Derived> void ArrayCore<Derived>::clear() {
  Data.clear();
  Count = 0;
  HeadIdx = 0;
  Cursor = 0;
  if (Capacity) {
    freeSim(SimBase, Capacity * Elem);
    Capacity = 0;
    SimBase = 0;
  }
}

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_ARRAYCORE_H
