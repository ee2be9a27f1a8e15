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
/// find-heavy basic-block sets (paper Section 6.4).
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_AVLTREE_H
#define BRAINY_CONTAINERS_AVLTREE_H

#include "containers/ContainerBase.h"

namespace brainy {
namespace ds {

/// Instrumentable AVL tree of unique Keys.
class AvlTree : public ContainerBase {
public:
  explicit AvlTree(uint32_t ElemBytes = 8, MachineModel *Model = nullptr,
                   uint64_t HeapBase = 0x50000000ULL);
  ~AvlTree();

  AvlTree(const AvlTree &) = delete;
  AvlTree &operator=(const AvlTree &) = delete;

  /// Inserts \p K if absent. Found=true when inserted. Cost = descent nodes.
  OpResult insert(Key K);

  /// Removes \p K if present. Cost = descent nodes.
  OpResult erase(Key K);

  /// Removes the \p Pos-th smallest key. Cost = in-order walk length.
  OpResult eraseAt(uint64_t Pos);

  /// Searches for \p K. Cost = nodes touched on the descent.
  OpResult find(Key K);

  /// Advances the persistent in-order cursor \p Steps keys (wrapping).
  /// Sorted order — order-oblivious replacements only (Table 1).
  OpResult iterate(uint64_t Steps);

  uint64_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  void clear();

  /// Verifies AVL balance, stored heights, BST order, and count (tests).
  bool checkInvariants() const;

  /// Height of the tree (0 for empty); untracked.
  uint64_t height() const { return Root ? static_cast<uint64_t>(Root->Height) : 0; }

  /// Untracked in-order accessor for tests.
  Key at(uint64_t Index) const;

private:
  struct Node {
    Key Value;
    Node *Left;
    Node *Right;
    Node *Parent;
    int Height; ///< height of this subtree; leaf = 1
    uint64_t SimAddr;
  };

  /// Simulated footprint: payload + two child pointers, with the balance
  /// factor packed into the pointers' alignment bits — the classic compact
  /// AVL layout (iteration uses a descent stack in that layout; the parent
  /// pointer here is an in-memory convenience only). Half the overhead of
  /// libstdc++'s four-word _Rb_tree_node_base, which is a real cache
  /// advantage of custom AVL sets.
  uint64_t nodeBytes() const { return Elem + 16; }

  static int heightOf(const Node *N) { return N ? N->Height : 0; }
  static int balanceOf(const Node *N) {
    return heightOf(N->Left) - heightOf(N->Right);
  }
  static void updateHeight(Node *N) {
    int L = heightOf(N->Left), R = heightOf(N->Right);
    N->Height = 1 + (L > R ? L : R);
  }

  Node *makeNode(Key K, Node *Parent);
  void destroyNode(Node *N);
  void destroySubtree(Node *N);
  void touchNode(const Node *N, uint32_t Bytes) { note(N->SimAddr, Bytes); }

  Node *minimum(Node *N) const;
  Node *successor(Node *N) const;
  Node *successorTracked(Node *N);

  /// Rotations return the new subtree root and fix parent links + heights.
  Node *rotateLeft(Node *X);
  Node *rotateRight(Node *X);
  /// Walks from \p N to the root, updating heights and rotating where the
  /// balance factor hits +-2.
  void retrace(Node *N);
  void replaceChild(Node *Parent, Node *Old, Node *New);
  void eraseNode(Node *Z);
  Node *descend(Key K, uint64_t &Touched, Node **LastVisited);

  bool checkSubtree(const Node *N, Key Lo, bool HasLo, Key Hi, bool HasHi,
                    int &OutHeight, uint64_t &OutCount) const;

  Node *Root = nullptr;
  Node *Cursor = nullptr;
  uint64_t Count = 0;
};

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_AVLTREE_H
