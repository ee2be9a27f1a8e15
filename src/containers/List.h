//===- containers/List.h - Doubly-linked list (std::list-like) -*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Doubly-linked list — the paper's `list`. O(1) insertion/removal at both
/// ends and at a known node, one allocation per element, and pointer-chase
/// iteration whose locality depends on allocation history (the L1-miss-rate
/// feature the paper found predictive for lists, Table 3).
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_LIST_H
#define BRAINY_CONTAINERS_LIST_H

#include "containers/ContainerBase.h"

namespace brainy {
namespace ds {

/// Instrumentable doubly-linked list of Key.
class List : public ContainerBase {
public:
  explicit List(uint32_t ElemBytes = 8, MachineModel *Model = nullptr,
                uint64_t HeapBase = 0x20000000ULL);
  ~List();

  List(const List &) = delete;
  List &operator=(const List &) = delete;

  /// Appends \p K in O(1). Cost = 0.
  OpResult pushBack(Key K);

  /// Prepends \p K in O(1). Cost = 0.
  OpResult pushFront(Key K);

  /// Inserts \p K before the \p Pos-th node (clamped). Cost = nodes walked.
  OpResult insertAt(uint64_t Pos, Key K);

  /// Removes the \p Pos-th node if in range. Cost = nodes walked.
  OpResult eraseAt(uint64_t Pos);

  /// Removes the first node with key \p K. Cost = nodes walked.
  OpResult eraseValue(Key K);

  /// Linear search for \p K from the head. Cost = nodes touched.
  OpResult find(Key K);

  /// Advances the persistent cursor \p Steps nodes (wrapping to the head),
  /// touching each. Cost = nodes touched.
  OpResult iterate(uint64_t Steps);

  uint64_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  void clear();

  /// Untracked accessor for tests: key of the \p Index-th node.
  Key at(uint64_t Index) const;

private:
  struct Node {
    Key Value;
    Node *Prev;
    Node *Next;
    uint64_t SimAddr;
  };

  /// Simulated footprint of a node: payload plus two pointers.
  uint64_t nodeBytes() const { return Elem + 16; }

  Node *makeNode(Key K);
  void destroyNode(Node *N);
  void linkBefore(Node *Anchor, Node *N);
  void unlink(Node *N);
  /// Walks to the \p Pos-th node emitting touch events; nullptr when past
  /// the tail.
  Node *walkTo(uint64_t Pos);
  struct Search {
    Node *Hit; ///< the first node holding the key, or null
    uint64_t Touched;
  };
  /// Tracked walk from the head to the first node holding \p K.
  Search search(Key K);
  void touchNode(const Node *N, uint32_t Bytes);

  Node *Head = nullptr;
  Node *Tail = nullptr;
  Node *Cursor = nullptr;
  uint64_t Count = 0;
};

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_LIST_H
