//===- containers/SplayTree.cpp -------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "containers/SplayTree.h"

#include <cassert>

using namespace brainy;
using namespace brainy::ds;

static constexpr uint64_t CompareWork = 3;
static constexpr uint64_t RotateWork = 10;
static constexpr uint64_t LinkWork = 6;

SplayTree::SplayTree(uint32_t ElemBytes, MachineModel *Model, uint64_t HeapBase)
    : ContainerBase(ElemBytes, Model, HeapBase) {}

SplayTree::~SplayTree() { clear(); }

SplayTree::Node *SplayTree::makeNode(Key K, Node *Parent) {
  Node *N = new Node{K, nullptr, nullptr, Parent, 0};
  N->SimAddr = allocSim(nodeBytes());
  note(N->SimAddr, static_cast<uint32_t>(nodeBytes()));
  work(LinkWork);
  return N;
}

void SplayTree::destroyNode(Node *N) {
  freeSim(N->SimAddr, nodeBytes());
  delete N;
}

void SplayTree::destroySubtree(Node *N) {
  if (!N)
    return;
  destroySubtree(N->Left);
  destroySubtree(N->Right);
  destroyNode(N);
}

SplayTree::Node *SplayTree::minimum(Node *N) const {
  while (N->Left)
    N = N->Left;
  return N;
}

SplayTree::Node *SplayTree::successor(Node *N) const {
  if (N->Right)
    return minimum(N->Right);
  Node *P = N->Parent;
  while (P && N == P->Right) {
    N = P;
    P = P->Parent;
  }
  return P;
}

SplayTree::Node *SplayTree::successorTracked(Node *N) {
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

void SplayTree::rotateUp(Node *X) {
  Node *P = X->Parent;
  assert(P && "rotateUp requires a parent");
  Node *G = P->Parent;
  touchNode(X, 32);
  touchNode(P, 32);
  work(RotateWork);
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
  P->Parent = X;
  X->Parent = G;
  if (!G)
    Root = X;
  else if (G->Left == P)
    G->Left = X;
  else
    G->Right = X;
}

void SplayTree::splay(Node *X) {
  bool DidWork = X->Parent != nullptr;
  while (X->Parent) {
    Node *P = X->Parent;
    Node *G = P->Parent;
    if (!G) {
      rotateUp(X); // zig
    } else if ((G->Left == P) == (P->Left == X)) {
      rotateUp(P); // zig-zig: rotate parent first
      rotateUp(X);
    } else {
      rotateUp(X); // zig-zag: rotate X twice
      rotateUp(X);
    }
  }
  // The self-adjusting analogue of the rebalance branch.
  branch(BranchSite::TreeRebalance, DidWork);
}

SplayTree::Node *SplayTree::descend(Key K, uint64_t &Touched,
                                    Node **LastVisited) {
  Node *N = Root;
  Node *Last = nullptr;
  Touched = 0;
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
  if (LastVisited)
    *LastVisited = Last;
  return N;
}

OpResult SplayTree::insert(Key K) {
  uint64_t Touched = 0;
  Node *Parent = nullptr;
  Node *Existing = descend(K, Touched, &Parent);
  if (Existing) {
    splay(Existing); // classic splay-on-access, even for duplicates
    return {false, Touched};
  }
  Node *Z = makeNode(K, Parent);
  if (!Parent)
    Root = Z;
  else if (K < Parent->Value)
    Parent->Left = Z;
  else
    Parent->Right = Z;
  splay(Z);
  ++Count;
  return {true, Touched};
}

OpResult SplayTree::find(Key K) {
  uint64_t Touched = 0;
  Node *Last = nullptr;
  Node *N = descend(K, Touched, &Last);
  // Splay the hit — or the last node on the search path on a miss — so
  // temporally clustered accesses get cheaper and cheaper.
  if (N)
    splay(N);
  else if (Last)
    splay(Last);
  return {N != nullptr, Touched};
}

void SplayTree::eraseNode(Node *Z) {
  if (Cursor == Z)
    Cursor = successor(Z);
  splay(Z);
  // Z is the root: join its subtrees.
  Node *L = Z->Left;
  Node *R = Z->Right;
  if (L)
    L->Parent = nullptr;
  if (R)
    R->Parent = nullptr;
  work(LinkWork);
  if (!L) {
    Root = R;
  } else {
    // Splay the maximum of L to L's root; it then has no right child.
    Node *M = L;
    touchNode(M, 16);
    while (M->Right) {
      branch(BranchSite::TreeCompareLeft, false);
      M = M->Right;
      touchNode(M, 16);
      work(2);
    }
    Root = L; // operate within the detached left subtree
    splay(M);
    M->Right = R;
    if (R)
      R->Parent = M;
    Root = M;
  }
  destroyNode(Z);
  assert(Count > 0 && "erase from empty tree");
  --Count;
}

OpResult SplayTree::erase(Key K) {
  uint64_t Touched = 0;
  Node *Z = descend(K, Touched, nullptr);
  if (!Z)
    return {false, Touched};
  eraseNode(Z);
  return {true, Touched};
}

OpResult SplayTree::eraseAt(uint64_t Pos) {
  if (Pos >= Count)
    return {false, 0};
  Node *N = minimum(Root);
  touchNode(N, 16);
  uint64_t Touched = 1;
  for (uint64_t I = 0; I != Pos; ++I) {
    N = successorTracked(N);
    ++Touched;
  }
  eraseNode(N);
  return {true, Touched};
}

OpResult SplayTree::iterate(uint64_t Steps) {
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

void SplayTree::clear() {
  destroySubtree(Root);
  Root = nullptr;
  Cursor = nullptr;
  Count = 0;
}

bool SplayTree::checkSubtree(const Node *N, Key Lo, bool HasLo, Key Hi,
                             bool HasHi, uint64_t &OutCount) const {
  if (!N) {
    OutCount = 0;
    return true;
  }
  if (HasLo && N->Value <= Lo)
    return false;
  if (HasHi && N->Value >= Hi)
    return false;
  if (N->Left && N->Left->Parent != N)
    return false;
  if (N->Right && N->Right->Parent != N)
    return false;
  uint64_t LC = 0, RC = 0;
  if (!checkSubtree(N->Left, Lo, HasLo, N->Value, true, LC) ||
      !checkSubtree(N->Right, N->Value, true, Hi, HasHi, RC))
    return false;
  OutCount = LC + RC + 1;
  return true;
}

bool SplayTree::checkInvariants() const {
  if (Root && Root->Parent)
    return false;
  uint64_t C = 0;
  if (!checkSubtree(Root, 0, false, 0, false, C))
    return false;
  return C == Count;
}

uint64_t SplayTree::subtreeHeight(const Node *N) const {
  if (!N)
    return 0;
  uint64_t L = subtreeHeight(N->Left);
  uint64_t R = subtreeHeight(N->Right);
  return 1 + (L > R ? L : R);
}

uint64_t SplayTree::height() const { return subtreeHeight(Root); }

Key SplayTree::at(uint64_t Index) const {
  assert(Index < Count && "at() out of range");
  Node *N = minimum(Root);
  for (uint64_t I = 0; I != Index; ++I)
    N = successor(N);
  return N->Value;
}

Key SplayTree::rootKey() const {
  assert(Root && "rootKey() on empty tree");
  return Root->Value;
}
