//===- containers/AvlTree.cpp ---------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "containers/AvlTree.h"

#include <cassert>

using namespace brainy;
using namespace brainy::ds;

static constexpr uint64_t CompareWork = 3;
static constexpr uint64_t RotateWork = 12;
static constexpr uint64_t LinkWork = 6;

AvlTree::AvlTree(uint32_t ElemBytes, MachineModel *Model, uint64_t HeapBase)
    : ContainerBase(ElemBytes, Model, HeapBase) {}

AvlTree::~AvlTree() { clear(); }

AvlTree::Node *AvlTree::makeNode(Key K, Node *Parent) {
  Node *N = new Node{K, nullptr, nullptr, Parent, 1, 0};
  N->SimAddr = allocSim(nodeBytes());
  note(N->SimAddr, static_cast<uint32_t>(nodeBytes()));
  work(LinkWork);
  return N;
}

void AvlTree::destroyNode(Node *N) {
  freeSim(N->SimAddr, nodeBytes());
  delete N;
}

void AvlTree::destroySubtree(Node *N) {
  if (!N)
    return;
  destroySubtree(N->Left);
  destroySubtree(N->Right);
  destroyNode(N);
}

AvlTree::Node *AvlTree::minimum(Node *N) const {
  while (N->Left)
    N = N->Left;
  return N;
}

AvlTree::Node *AvlTree::successor(Node *N) const {
  if (N->Right)
    return minimum(N->Right);
  Node *P = N->Parent;
  while (P && N == P->Right) {
    N = P;
    P = P->Parent;
  }
  return P;
}

AvlTree::Node *AvlTree::successorTracked(Node *N) {
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

void AvlTree::replaceChild(Node *Parent, Node *Old, Node *New) {
  if (!Parent)
    Root = New;
  else if (Parent->Left == Old)
    Parent->Left = New;
  else
    Parent->Right = New;
  if (New)
    New->Parent = Parent;
}

AvlTree::Node *AvlTree::rotateLeft(Node *X) {
  Node *Y = X->Right;
  assert(Y && "rotateLeft without right child");
  touchNode(X, 32);
  touchNode(Y, 32);
  work(RotateWork);
  Node *P = X->Parent;
  X->Right = Y->Left;
  if (Y->Left)
    Y->Left->Parent = X;
  Y->Left = X;
  X->Parent = Y;
  replaceChild(P, X, Y);
  updateHeight(X);
  updateHeight(Y);
  return Y;
}

AvlTree::Node *AvlTree::rotateRight(Node *X) {
  Node *Y = X->Left;
  assert(Y && "rotateRight without left child");
  touchNode(X, 32);
  touchNode(Y, 32);
  work(RotateWork);
  Node *P = X->Parent;
  X->Left = Y->Right;
  if (Y->Right)
    Y->Right->Parent = X;
  Y->Right = X;
  X->Parent = Y;
  replaceChild(P, X, Y);
  updateHeight(X);
  updateHeight(Y);
  return Y;
}

void AvlTree::retrace(Node *N) {
  bool Rotated = false;
  while (N) {
    updateHeight(N);
    work(2);
    int Balance = balanceOf(N);
    if (Balance > 1) {
      Rotated = true;
      if (balanceOf(N->Left) < 0)
        rotateLeft(N->Left); // Left-Right case.
      N = rotateRight(N);
    } else if (Balance < -1) {
      Rotated = true;
      if (balanceOf(N->Right) > 0)
        rotateRight(N->Right); // Right-Left case.
      N = rotateLeft(N);
    }
    N = N->Parent;
  }
  // Rebalance-needed branch, analogous to the red-black fixup branch.
  branch(BranchSite::TreeRebalance, Rotated);
}

AvlTree::Node *AvlTree::descend(Key K, uint64_t &Touched, Node **LastVisited) {
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

OpResult AvlTree::insert(Key K) {
  uint64_t Touched = 0;
  Node *Parent = nullptr;
  Node *Existing = descend(K, Touched, &Parent);
  if (Existing)
    return {false, Touched};

  Node *Z = makeNode(K, Parent);
  if (!Parent)
    Root = Z;
  else if (K < Parent->Value)
    Parent->Left = Z;
  else
    Parent->Right = Z;
  retrace(Parent);
  ++Count;
  return {true, Touched};
}

OpResult AvlTree::find(Key K) {
  uint64_t Touched = 0;
  Node *N = descend(K, Touched, nullptr);
  return {N != nullptr, Touched};
}

void AvlTree::eraseNode(Node *Z) {
  if (Cursor == Z)
    Cursor = successor(Z);

  if (Z->Left && Z->Right) {
    // Two children: splice the in-order successor's key into Z, then delete
    // the successor node (which has no left child).
    Node *S = minimum(Z->Right);
    touchNode(S, 16);
    work(2);
    Z->Value = S->Value;
    if (Cursor == S)
      Cursor = Z; // The key the cursor pointed at now lives in Z.
    Z = S;
  }
  Node *Child = Z->Left ? Z->Left : Z->Right;
  Node *Parent = Z->Parent;
  replaceChild(Parent, Z, Child);
  work(LinkWork);
  if (Cursor == Z)
    Cursor = Child ? minimum(Child) : nullptr;
  destroyNode(Z);
  retrace(Parent);
  assert(Count > 0 && "erase from empty tree");
  --Count;
}

OpResult AvlTree::erase(Key K) {
  uint64_t Touched = 0;
  Node *Z = descend(K, Touched, nullptr);
  if (!Z)
    return {false, Touched};
  eraseNode(Z);
  return {true, Touched};
}

OpResult AvlTree::eraseAt(uint64_t Pos) {
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

OpResult AvlTree::iterate(uint64_t Steps) {
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

void AvlTree::clear() {
  destroySubtree(Root);
  Root = nullptr;
  Cursor = nullptr;
  Count = 0;
}

bool AvlTree::checkSubtree(const Node *N, Key Lo, bool HasLo, Key Hi,
                           bool HasHi, int &OutHeight,
                           uint64_t &OutCount) const {
  if (!N) {
    OutHeight = 0;
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
  int LH = 0, RH = 0;
  uint64_t LC = 0, RC = 0;
  if (!checkSubtree(N->Left, Lo, HasLo, N->Value, true, LH, LC) ||
      !checkSubtree(N->Right, N->Value, true, Hi, HasHi, RH, RC))
    return false;
  if (N->Height != 1 + (LH > RH ? LH : RH))
    return false;
  if (LH - RH > 1 || RH - LH > 1)
    return false;
  OutHeight = N->Height;
  OutCount = LC + RC + 1;
  return true;
}

bool AvlTree::checkInvariants() const {
  if (Root && Root->Parent)
    return false;
  int H = 0;
  uint64_t C = 0;
  if (!checkSubtree(Root, 0, false, 0, false, H, C))
    return false;
  return C == Count;
}

Key AvlTree::at(uint64_t Index) const {
  assert(Index < Count && "at() out of range");
  Node *N = minimum(Root);
  for (uint64_t I = 0; I != Index; ++I)
    N = successor(N);
  return N->Value;
}
