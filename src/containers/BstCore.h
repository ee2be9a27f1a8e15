//===- containers/BstCore.h - Shared binary-search-tree core ---*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What RbTree, AvlTree and SplayTree have in common: parent-linked nodes
/// with null leaves, the tracked descent, the in-order successor walks,
/// insertion linking, find/erase/eraseAt/iterate over a persistent cursor,
/// node make/destroy and teardown, and the order/link/count half of the
/// invariant check. A tree adds its node's balance field and its balancing
/// (DESIGN.md §3), reached by static dispatch (CRTP): the core calls the
/// tree's hooks by name, so the node-visit path has no virtual call.
///
/// The order of the events the core emits (touch, branch, work charge,
/// allocation, free) is part of each tree's output: the cache and branch
/// models are stateful, so moving one event changes counters, cycles and
/// bundles (DESIGN.md §12). TreeTest.EventStreamIsPinned fixes it.
///
/// The interface calls are defined below the class, not in it, and each
/// tree's header declares `extern template class BstCore<Tree, Node>;`
/// while its .cpp holds the explicit instantiation. The core then compiles
/// once per tree, next to that tree's hooks, and other units call it out
/// of line. Instantiated inside the ADT adapters instead, all the trees'
/// copies land in one unit and GCC leaves MachineModel::onAccess out of
/// line on the hot path.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_BSTCORE_H
#define BRAINY_CONTAINERS_BSTCORE_H

#include "containers/ContainerBase.h"

#include <cassert>

namespace brainy {
namespace ds {

/// The links every tree node carries; a tree's node type derives from
/// BstLinks<itself> and adds its balance field.
template <typename NodeT> struct BstLinks {
  Key Value = 0;
  NodeT *Left = nullptr;
  NodeT *Right = nullptr;
  NodeT *Parent = nullptr;
  uint64_t SimAddr = 0;
};

/// Shared binary-search-tree core of unique Keys. \p Derived supplies:
///   - `static constexpr uint32_t LinkBytes`: simulated bytes a node adds
///     to its element;
///   - `void afterInsert(Node *Z)`: rebalances once a new node Z is linked
///     in as a leaf;
///   - `void eraseNode(Node *Z)`: unlinks Z, rebalances and destroys the
///     node that leaves the tree, re-pointing the cursor if it moves a key
///     between nodes (the core has already moved the cursor off Z);
/// and may hide the no-op defaults of afterSearch and checkBalance below.
template <typename Derived, typename NodeT>
class BstCore : public ContainerBase {
public:
  BstCore(uint32_t ElemBytes, MachineModel *Model, uint64_t HeapBase)
      : ContainerBase(ElemBytes, Model, HeapBase) {}
  ~BstCore() { clear(); }

  BstCore(const BstCore &) = delete;
  BstCore &operator=(const BstCore &) = delete;

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

  /// Verifies BST order, parent links and count, then the tree's own
  /// balance invariant (tests).
  bool checkInvariants() const;

  /// Height of the tree (0 for empty); untracked, for tests/diagnostics.
  uint64_t height() const { return subtreeHeight(Root); }

  /// Untracked in-order accessor for tests.
  Key at(uint64_t Index) const;

protected:
  using Node = NodeT;

  static constexpr uint64_t LinkWork = 6;

  /// Hook: a descent that inserted nothing (find, or insert of a present
  /// key) ended at \p Last — the key's node on a hit, the closest node on
  /// a miss, null in an empty tree.
  void afterSearch(Node *) {}
  /// Hook: the tree's own balance invariant.
  bool checkBalance() const { return true; }

  void touchNode(const Node *N, uint32_t Bytes) { note(N->SimAddr, Bytes); }

  void destroyNode(Node *N) {
    freeSim(N->SimAddr, nodeBytes());
    delete N;
  }

  static Node *minimum(Node *N) {
    while (N->Left)
      N = N->Left;
    return N;
  }

  /// Points \p Parent's link to \p Old (Root when \p Parent is null) at
  /// \p New, and \p New's parent link back. Emits nothing.
  void replaceChild(Node *Parent, Node *Old, Node *New) {
    if (!Parent)
      Root = New;
    else if (Parent->Left == Old)
      Parent->Left = New;
    else
      Parent->Right = New;
    if (New)
      New->Parent = Parent;
  }

  /// Rotates \p X above its parent, keeping the in-order sequence. Emits
  /// nothing: each tree charges its rotations itself.
  void lift(Node *X) {
    Node *P = X->Parent;
    if (P->Left == X) {
      P->Left = X->Right;
      if (X->Right)
        X->Right->Parent = P;
      X->Right = P;
    } else {
      P->Right = X->Left;
      if (X->Left)
        X->Left->Parent = P;
      X->Left = P;
    }
    replaceChild(P->Parent, P, X);
    P->Parent = X;
  }

  Node *Root = nullptr;
  Node *Cursor = nullptr; ///< in-order iteration position (null = restart)
  uint64_t Count = 0;

private:
  static constexpr uint64_t CompareWork = 3;

  struct Descent {
    Node *Hit;  ///< the key's node, or null
    Node *Last; ///< last node visited: the parent a new key links under
    uint64_t Touched;
  };

  Derived &derived() { return static_cast<Derived &>(*this); }
  const Derived &derived() const {
    return static_cast<const Derived &>(*this);
  }

  uint64_t nodeBytes() const { return Elem + Derived::LinkBytes; }

  static Node *successor(Node *N) {
    if (N->Right)
      return minimum(N->Right);
    Node *P = N->Parent;
    while (P && N == P->Right) {
      N = P;
      P = P->Parent;
    }
    return P;
  }

  /// Successor walk that emits touch events.
  Node *successorTracked(Node *N) {
    if (N->Right) {
      Node *M = N->Right;
      touchNode(M, 16);
      while (M->Left) {
        branch(BranchSite::IterContinue, true);
        M = M->Left;
        touchNode(M, 16);
        work(2);
      }
      branch(BranchSite::IterContinue, false);
      return M;
    }
    Node *P = N->Parent;
    while (P && N == P->Right) {
      branch(BranchSite::IterContinue, true);
      touchNode(P, 16);
      N = P;
      P = P->Parent;
      work(2);
    }
    branch(BranchSite::IterContinue, false);
    if (P)
      touchNode(P, 16);
    return P;
  }

  /// Tracked descent from the root towards \p K.
  Descent descend(Key K) {
    Node *N = Root;
    Node *Last = nullptr;
    uint64_t Touched = 0;
    while (N) {
      touchNode(N, 16);
      work(CompareWork);
      ++Touched;
      Last = N;
      bool Hit = N->Value == K;
      branch(BranchSite::SearchHit, Hit);
      if (Hit)
        break;
      bool GoLeft = K < N->Value;
      branch(BranchSite::TreeCompareLeft, GoLeft);
      N = GoLeft ? N->Left : N->Right;
    }
    return {N, Last, Touched};
  }

  Node *makeNode(Key K, Node *Parent) {
    Node *N = new Node;
    N->Value = K;
    N->Parent = Parent;
    N->SimAddr = allocSim(nodeBytes());
    note(N->SimAddr, static_cast<uint32_t>(nodeBytes()));
    work(LinkWork);
    return N;
  }

  void destroySubtree(Node *N) {
    if (!N)
      return;
    destroySubtree(N->Left);
    destroySubtree(N->Right);
    destroyNode(N);
  }

  /// Moves the cursor off \p Z, then lets the tree unlink it.
  void remove(Node *Z) {
    if (Cursor == Z)
      Cursor = successor(Z);
    derived().eraseNode(Z);
    --Count;
  }

  /// Checks order within (\p Lo, \p Hi) (null = unbounded) and parent
  /// links below \p N, counting its nodes into \p Seen.
  static bool checkLinks(const Node *N, const Key *Lo, const Key *Hi,
                         uint64_t &Seen) {
    if (!N)
      return true;
    if ((Lo && N->Value <= *Lo) || (Hi && N->Value >= *Hi))
      return false;
    if ((N->Left && N->Left->Parent != N) ||
        (N->Right && N->Right->Parent != N))
      return false;
    ++Seen;
    return checkLinks(N->Left, Lo, &N->Value, Seen) &&
           checkLinks(N->Right, &N->Value, Hi, Seen);
  }

  static uint64_t subtreeHeight(const Node *N) {
    if (!N)
      return 0;
    uint64_t L = subtreeHeight(N->Left);
    uint64_t R = subtreeHeight(N->Right);
    return 1 + (L > R ? L : R);
  }
};

template <typename Derived, typename NodeT>
OpResult BstCore<Derived, NodeT>::insert(Key K) {
  Descent D = descend(K);
  if (D.Hit) {
    derived().afterSearch(D.Last);
    return {false, D.Touched};
  }
  Node *Z = makeNode(K, D.Last);
  if (!D.Last)
    Root = Z;
  else if (K < D.Last->Value)
    D.Last->Left = Z;
  else
    D.Last->Right = Z;
  derived().afterInsert(Z);
  ++Count;
  return {true, D.Touched};
}

template <typename Derived, typename NodeT>
OpResult BstCore<Derived, NodeT>::erase(Key K) {
  Descent D = descend(K);
  if (!D.Hit)
    return {false, D.Touched};
  remove(D.Hit);
  return {true, D.Touched};
}

template <typename Derived, typename NodeT>
OpResult BstCore<Derived, NodeT>::eraseAt(uint64_t Pos) {
  if (Pos >= Count)
    return {false, 0};
  Node *N = minimum(Root);
  touchNode(N, 16);
  uint64_t Touched = 1;
  for (uint64_t I = 0; I != Pos; ++I) {
    N = successorTracked(N);
    ++Touched;
  }
  remove(N);
  return {true, Touched};
}

template <typename Derived, typename NodeT>
OpResult BstCore<Derived, NodeT>::find(Key K) {
  Descent D = descend(K);
  derived().afterSearch(D.Last);
  return {D.Hit != nullptr, D.Touched};
}

template <typename Derived, typename NodeT>
OpResult BstCore<Derived, NodeT>::iterate(uint64_t Steps) {
  if (Count == 0)
    return {false, 0};
  uint64_t Touched = 0;
  for (uint64_t S = 0; S != Steps; ++S) {
    if (!Cursor) {
      branch(BranchSite::IterContinue, false);
      Cursor = minimum(Root);
      touchNode(Cursor, 16);
    }
    work(2);
    ++Touched;
    Cursor = successorTracked(Cursor);
  }
  return {true, Touched};
}

template <typename Derived, typename NodeT>
void BstCore<Derived, NodeT>::clear() {
  destroySubtree(Root);
  Root = nullptr;
  Cursor = nullptr;
  Count = 0;
}

template <typename Derived, typename NodeT>
bool BstCore<Derived, NodeT>::checkInvariants() const {
  if (Root && Root->Parent)
    return false;
  uint64_t Seen = 0;
  return checkLinks(Root, nullptr, nullptr, Seen) && Seen == Count &&
         derived().checkBalance();
}

template <typename Derived, typename NodeT>
Key BstCore<Derived, NodeT>::at(uint64_t Index) const {
  assert(Index < Count && "at() out of range");
  Node *N = minimum(Root);
  for (uint64_t I = 0; I != Index; ++I)
    N = successor(N);
  return N->Value;
}

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_BSTCORE_H
