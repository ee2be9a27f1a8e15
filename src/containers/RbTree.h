//===- containers/RbTree.h - Red-black tree (std::set-like) ----*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Red-black tree — the paper's `set`/`map` (libstdc++'s _Rb_tree).
/// Guaranteed O(log n) everything, but with a looser balance bound than AVL
/// (height up to 2*log2(n+1)), fewer rotations on modification, and
/// hard-to-predict descent branches — the trade-offs Brainy's models learn.
/// Keys are unique; sorted in-order iteration.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_RBTREE_H
#define BRAINY_CONTAINERS_RBTREE_H

#include "containers/ContainerBase.h"

namespace brainy {
namespace ds {

/// Instrumentable red-black tree of unique Keys.
class RbTree : public ContainerBase {
public:
  explicit RbTree(uint32_t ElemBytes = 8, MachineModel *Model = nullptr,
                  uint64_t HeapBase = 0x40000000ULL);
  ~RbTree();

  RbTree(const RbTree &) = delete;
  RbTree &operator=(const RbTree &) = delete;

  /// Inserts \p K if absent. Found=true when inserted. Cost = descent
  /// length in nodes.
  OpResult insert(Key K);

  /// Removes \p K if present. Cost = descent length.
  OpResult erase(Key K);

  /// Removes the \p Pos-th smallest key. Cost = in-order walk length.
  OpResult eraseAt(uint64_t Pos);

  /// Searches for \p K. Cost = nodes touched on the descent.
  OpResult find(Key K);

  /// Advances the persistent in-order cursor \p Steps keys (wrapping to the
  /// minimum). Iteration is in sorted order — the "order-oblivious"
  /// limitation of Table 1. Cost = nodes touched.
  OpResult iterate(uint64_t Steps);

  uint64_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  void clear();

  /// Verifies every red-black invariant (tests): root black, no red-red
  /// parent/child, equal black heights, BST order.
  bool checkInvariants() const;

  /// Height of the tree (0 for empty); untracked, for tests/diagnostics.
  uint64_t height() const;

  /// Untracked in-order accessor for tests.
  Key at(uint64_t Index) const;

private:
  enum Color : uint8_t { Red, Black };

  struct Node {
    Key Value;
    Node *Left;
    Node *Right;
    Node *Parent;
    Color Col;
    uint64_t SimAddr;
  };

  /// Simulated footprint: payload + three pointers + colour word.
  uint64_t nodeBytes() const { return Elem + 32; }

  Node *makeNode(Key K, Color C, Node *Parent);
  void destroyNode(Node *N);
  void destroySubtree(Node *N);
  void touchNode(const Node *N, uint32_t Bytes) { note(N->SimAddr, Bytes); }

  bool isNil(const Node *N) const { return N == &Nil; }
  Node *minimum(Node *N) const;
  Node *successor(Node *N) const;
  /// Successor walk that emits touch events.
  Node *successorTracked(Node *N);

  void rotateLeft(Node *X);
  void rotateRight(Node *X);
  void insertFixup(Node *Z);
  void transplant(Node *U, Node *V);
  void eraseFixup(Node *X);
  void eraseNode(Node *Z);

  /// Tracked descent; returns the node or &Nil, sets \p Touched and the
  /// last non-nil node visited (for insertion parenting).
  Node *descend(Key K, uint64_t &Touched, Node **LastVisited);

  bool checkSubtree(const Node *N, Key Lo, bool HasLo, Key Hi, bool HasHi,
                    int &BlackHeight) const;
  uint64_t subtreeHeight(const Node *N) const;

  Node Nil;                ///< shared sentinel; always black
  Node *Root;
  Node *Cursor = nullptr;  ///< in-order iteration position (null = restart)
  uint64_t Count = 0;
};

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_RBTREE_H
