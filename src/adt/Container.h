//===- adt/Container.h - Runtime ADT over all implementations --*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract data type of paper Section 4.2: the synthetic applications
/// (and the case-study workloads) are written against this interface and
/// the concrete data structure is swapped underneath — "the only difference
/// is that they have a different data structure". The paper uses a C++
/// template ADT; we use a runtime interface so one binary can race all nine
/// implementations.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_ADT_CONTAINER_H
#define BRAINY_ADT_CONTAINER_H

#include "adt/DsKind.h"
#include "containers/ContainerBase.h"

#include <memory>

namespace brainy {

/// Uniform interface over the nine container implementations.
///
/// Sequence positions are meaningful for vector/list/deque; associative
/// containers treat positional inserts as plain inserts and positional
/// erases as "erase the Pos-th element in iteration order".
class Container {
public:
  virtual ~Container();

  virtual DsKind kind() const = 0;

  /// Inserts \p K at the container's natural cheap position (tail for
  /// sequences). ds::OpResult::Found is true when an element was added.
  virtual ds::OpResult insert(ds::Key K) = 0;

  /// Inserts \p K before position \p Pos (sequences) or as insert (assoc).
  virtual ds::OpResult insertAt(uint64_t Pos, ds::Key K) = 0;

  /// Inserts \p K at the front (sequences) or as insert (assoc).
  virtual ds::OpResult pushFront(ds::Key K) = 0;

  /// Removes the first element equal to \p K.
  virtual ds::OpResult erase(ds::Key K) = 0;

  /// Removes the element at position \p Pos in iteration order.
  virtual ds::OpResult eraseAt(uint64_t Pos) = 0;

  /// Searches for \p K.
  virtual ds::OpResult find(ds::Key K) = 0;

  /// Advances the persistent iteration cursor \p Steps elements.
  virtual ds::OpResult iterate(uint64_t Steps) = 0;

  virtual uint64_t size() const = 0;
  virtual void clear() = 0;

  /// Registers \p Listener to receive one ContainerOp record per interface
  /// call. Default: ignore (no profiling).
  virtual void setOpListener(OpListener *Listener) { (void)Listener; }

  /// Live simulated heap bytes (memory-bloat signal).
  virtual uint64_t simLiveBytes() const = 0;
  virtual uint64_t simPeakBytes() const = 0;

  /// Capacity-growth count for vector/deque/hash_table; 0 otherwise.
  virtual uint64_t resizeCount() const { return 0; }

  /// Simulated bytes per element.
  virtual uint32_t elementBytes() const = 0;
};

/// Creates a container of \p Kind holding elements of \p ElemBytes
/// simulated bytes, reporting events to \p Model (may be null).
std::unique_ptr<Container> makeContainer(DsKind Kind, uint32_t ElemBytes = 8,
                                         MachineModel *Model = nullptr);

} // namespace brainy

#endif // BRAINY_ADT_CONTAINER_H
