//===- containers/SplayTree.h - Self-adjusting BST -------------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Splay tree (Sleator & Tarjan), the structure the paper's introduction
/// uses to motivate why asymptotic analysis misleads: "splay trees almost
/// always perform better than red-black trees on real-world data though
/// they have the same asymptotic complexity". Every access splays the
/// touched key to the root, so skewed (real-world) access patterns keep the
/// hot keys near the top. Not part of Table 1's replacement vocabulary —
/// it demonstrates how additional implementations plug into the container
/// substrate (Section 3: "other implementations could easily be added").
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_SPLAYTREE_H
#define BRAINY_CONTAINERS_SPLAYTREE_H

#include "containers/ContainerBase.h"

namespace brainy {
namespace ds {

/// Instrumentable splay tree of unique Keys.
class SplayTree : public ContainerBase {
public:
  explicit SplayTree(uint32_t ElemBytes = 8, MachineModel *Model = nullptr,
                     uint64_t HeapBase = 0x70000000ULL);
  ~SplayTree();

  SplayTree(const SplayTree &) = delete;
  SplayTree &operator=(const SplayTree &) = delete;

  /// Inserts \p K if absent and splays it to the root. Found=true when
  /// inserted. Cost = descent length.
  OpResult insert(Key K);

  /// Removes \p K if present (splaying it up first). Cost = descent length.
  OpResult erase(Key K);

  /// Removes the \p Pos-th smallest key. Cost = in-order walk length.
  OpResult eraseAt(uint64_t Pos);

  /// Searches for \p K; on hit (and on the closest node on miss) splays it
  /// to the root — repeated searches of hot keys become O(1).
  OpResult find(Key K);

  /// Advances the persistent in-order cursor \p Steps keys (wrapping).
  /// Iteration does not splay (it would quadratically unbalance).
  OpResult iterate(uint64_t Steps);

  uint64_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  void clear();

  /// Verifies BST order, parent links, and count (tests).
  bool checkInvariants() const;

  /// Current tree height (untracked; splaying changes it constantly).
  uint64_t height() const;

  /// Untracked in-order accessor for tests.
  Key at(uint64_t Index) const;

  /// Untracked: key at the root (the most recently splayed); requires a
  /// non-empty tree.
  Key rootKey() const;

private:
  struct Node {
    Key Value;
    Node *Left;
    Node *Right;
    Node *Parent;
    uint64_t SimAddr;
  };

  /// Simulated footprint: payload + three pointers (no balance metadata).
  uint64_t nodeBytes() const { return Elem + 24; }

  Node *makeNode(Key K, Node *Parent);
  void destroyNode(Node *N);
  void destroySubtree(Node *N);
  void touchNode(const Node *N, uint32_t Bytes) { note(N->SimAddr, Bytes); }

  Node *minimum(Node *N) const;
  Node *successor(Node *N) const;
  Node *successorTracked(Node *N);

  void rotateUp(Node *X); ///< single rotation of X above its parent
  void splay(Node *X);    ///< zig/zig-zig/zig-zag X to the root
  /// Tracked descent; returns the node or null, recording the last visited
  /// node (splayed on miss, per the classic top-level contract).
  Node *descend(Key K, uint64_t &Touched, Node **LastVisited);
  void eraseNode(Node *Z);

  bool checkSubtree(const Node *N, Key Lo, bool HasLo, Key Hi, bool HasHi,
                    uint64_t &OutCount) const;
  uint64_t subtreeHeight(const Node *N) const;

  Node *Root = nullptr;
  Node *Cursor = nullptr;
  uint64_t Count = 0;
};

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_SPLAYTREE_H
