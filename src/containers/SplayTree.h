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
/// substrate (Section 3: "other implementations could easily be added"):
/// on BstCore, a new tree is its node field plus its balancing.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_SPLAYTREE_H
#define BRAINY_CONTAINERS_SPLAYTREE_H

#include "containers/BstCore.h"

namespace brainy {
namespace ds {

/// A splay node: the shared links and no balance metadata.
struct SplayNode : BstLinks<SplayNode> {};

/// Instrumentable splay tree of unique Keys. Insert splays the new key (or
/// the present one) to the root; find splays the hit, or on a miss the
/// closest node on the path, so repeated searches of hot keys become O(1);
/// erase splays the key up before removing it. Iteration does not splay
/// (it would quadratically unbalance).
class SplayTree : public BstCore<SplayTree, SplayNode> {
public:
  explicit SplayTree(uint32_t ElemBytes = 8, MachineModel *Model = nullptr,
                     uint64_t HeapBase = 0x70000000ULL)
      : BstCore(ElemBytes, Model, HeapBase) {}

  /// Untracked: key at the root (the most recently splayed); requires a
  /// non-empty tree.
  Key rootKey() const {
    assert(Root && "rootKey() on empty tree");
    return Root->Value;
  }

private:
  friend BstCore;

  /// Simulated footprint: payload + three pointers (no balance metadata).
  static constexpr uint32_t LinkBytes = 24;

  void rotateUp(Node *X); ///< single rotation of X above its parent
  void splay(Node *X);    ///< zig/zig-zig/zig-zag X to the root
  void afterInsert(Node *Z) { splay(Z); }
  /// Splays the hit, or on a miss the last node on the search path, per
  /// the classic top-level contract.
  void afterSearch(Node *Last) {
    if (Last)
      splay(Last);
  }
  void eraseNode(Node *Z);
};

extern template class BstCore<SplayTree, SplayNode>;

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_SPLAYTREE_H
