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
/// Keys are unique; sorted in-order iteration. Descent, iteration and node
/// plumbing live in BstCore; this class adds the colour and its fixups.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_RBTREE_H
#define BRAINY_CONTAINERS_RBTREE_H

#include "containers/BstCore.h"

namespace brainy {
namespace ds {

/// A red-black node: the shared links plus its colour. Null links are the
/// black leaves.
struct RbNode : BstLinks<RbNode> {
  enum Color : uint8_t { Red, Black };
  Color Col = Red;
};

/// Instrumentable red-black tree of unique Keys.
class RbTree : public BstCore<RbTree, RbNode> {
public:
  explicit RbTree(uint32_t ElemBytes = 8, MachineModel *Model = nullptr,
                  uint64_t HeapBase = 0x40000000ULL)
      : BstCore(ElemBytes, Model, HeapBase) {}

private:
  friend BstCore;

  /// Simulated footprint: payload + three pointers + colour word.
  static constexpr uint32_t LinkBytes = 32;

  /// Rotates \p Child above its parent, charging both nodes.
  void rotateUp(Node *Child);
  void afterInsert(Node *Z);
  void transplant(Node *U, Node *V);
  /// Restores the colour rules after a black node left the position of
  /// \p X (possibly null), whose parent is \p XParent.
  void eraseFixup(Node *X, Node *XParent);
  void eraseNode(Node *Z);
  /// Root black, no red node with a red child, equal black heights.
  bool checkBalance() const;
};

extern template class BstCore<RbTree, RbNode>;

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_RBTREE_H
