//===- containers/AvlTree.h - AVL tree (avl_set-like) ----------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AVL tree — the paper's `avl_set`/`avl_map` alternative. Strictly
/// height-balanced (height <= ~1.44*log2 n), so searches touch fewer nodes
/// than a red-black tree at the price of more rotations on modification.
/// That trade is exactly why Brainy recommends avl_set for RelipmoC's
/// find-heavy basic-block sets (paper Section 6.4). Descent, iteration and
/// node plumbing live in BstCore; this class adds the stored heights and
/// the retrace.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_AVLTREE_H
#define BRAINY_CONTAINERS_AVLTREE_H

#include "containers/BstCore.h"

namespace brainy {
namespace ds {

/// An AVL node: the shared links plus its subtree height.
struct AvlNode : BstLinks<AvlNode> {
  int Height = 1; ///< height of this subtree; leaf = 1
};

/// Instrumentable AVL tree of unique Keys.
class AvlTree : public BstCore<AvlTree, AvlNode> {
public:
  explicit AvlTree(uint32_t ElemBytes = 8, MachineModel *Model = nullptr,
                   uint64_t HeapBase = 0x50000000ULL)
      : BstCore(ElemBytes, Model, HeapBase) {}

private:
  friend BstCore;

  /// Simulated footprint: payload + two child pointers, with the balance
  /// factor packed into the pointers' alignment bits — the classic compact
  /// AVL layout (iteration uses a descent stack in that layout; the parent
  /// pointer here is an in-memory convenience only). Half the overhead of
  /// libstdc++'s four-word _Rb_tree_node_base, which is a real cache
  /// advantage of custom AVL sets.
  static constexpr uint32_t LinkBytes = 16;

  /// Rotates \p Child above its parent, charging both nodes and fixing
  /// both heights; returns \p Child, the new subtree root.
  Node *rotateUp(Node *Child);
  /// Walks from \p N to the root, updating heights and rotating where the
  /// balance factor hits +-2.
  void retrace(Node *N);
  void afterInsert(Node *Z) { retrace(Z->Parent); }
  void eraseNode(Node *Z);
  /// Stored heights correct and every balance factor within +-1.
  bool checkBalance() const;
};

extern template class BstCore<AvlTree, AvlNode>;

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_AVLTREE_H
