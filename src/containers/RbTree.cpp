//===- containers/RbTree.cpp ----------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Insert/erase follow CLRS (3rd ed., ch. 13) with an explicit Nil sentinel.
//
//===----------------------------------------------------------------------===//

#include "containers/RbTree.h"

#include <cassert>

using namespace brainy;
using namespace brainy::ds;

static constexpr uint64_t CompareWork = 3;
static constexpr uint64_t RotateWork = 10;
static constexpr uint64_t LinkWork = 6;

RbTree::RbTree(uint32_t ElemBytes, MachineModel *Model, uint64_t HeapBase)
    : ContainerBase(ElemBytes, Model, HeapBase) {
  Nil = Node{0, &Nil, &Nil, &Nil, Black, 0};
  Root = &Nil;
}

RbTree::~RbTree() { clear(); }

RbTree::Node *RbTree::makeNode(Key K, Color C, Node *Parent) {
  Node *N = new Node{K, &Nil, &Nil, Parent, C, 0};
  N->SimAddr = allocSim(nodeBytes());
  note(N->SimAddr, static_cast<uint32_t>(nodeBytes()));
  work(LinkWork);
  return N;
}

void RbTree::destroyNode(Node *N) {
  freeSim(N->SimAddr, nodeBytes());
  delete N;
}

void RbTree::destroySubtree(Node *N) {
  if (isNil(N))
    return;
  destroySubtree(N->Left);
  destroySubtree(N->Right);
  destroyNode(N);
}

RbTree::Node *RbTree::minimum(Node *N) const {
  while (!isNil(N->Left))
    N = N->Left;
  return N;
}

RbTree::Node *RbTree::successor(Node *N) const {
  if (!isNil(N->Right))
    return minimum(N->Right);
  Node *P = N->Parent;
  while (!isNil(P) && N == P->Right) {
    N = P;
    P = P->Parent;
  }
  return P;
}

RbTree::Node *RbTree::successorTracked(Node *N) {
  if (!isNil(N->Right)) {
    Node *M = N->Right;
    touchNode(M, 16);
    while (!isNil(M->Left)) {
      branch(BranchSite::IterContinue, true);
      M = M->Left;
      touchNode(M, 16);
      work(2);
    }
    branch(BranchSite::IterContinue, false);
    return M;
  }
  Node *P = N->Parent;
  while (!isNil(P) && N == P->Right) {
    branch(BranchSite::IterContinue, true);
    touchNode(P, 16);
    N = P;
    P = P->Parent;
    work(2);
  }
  branch(BranchSite::IterContinue, false);
  if (!isNil(P))
    touchNode(P, 16);
  return P;
}

void RbTree::rotateLeft(Node *X) {
  Node *Y = X->Right;
  touchNode(X, 32);
  touchNode(Y, 32);
  work(RotateWork);
  X->Right = Y->Left;
  if (!isNil(Y->Left))
    Y->Left->Parent = X;
  Y->Parent = X->Parent;
  if (isNil(X->Parent))
    Root = Y;
  else if (X == X->Parent->Left)
    X->Parent->Left = Y;
  else
    X->Parent->Right = Y;
  Y->Left = X;
  X->Parent = Y;
}

void RbTree::rotateRight(Node *X) {
  Node *Y = X->Left;
  touchNode(X, 32);
  touchNode(Y, 32);
  work(RotateWork);
  X->Left = Y->Right;
  if (!isNil(Y->Right))
    Y->Right->Parent = X;
  Y->Parent = X->Parent;
  if (isNil(X->Parent))
    Root = Y;
  else if (X == X->Parent->Right)
    X->Parent->Right = Y;
  else
    X->Parent->Left = Y;
  Y->Right = X;
  X->Parent = Y;
}

void RbTree::insertFixup(Node *Z) {
  bool Fixed = false;
  while (Z->Parent->Col == Red) {
    Fixed = true;
    Node *GP = Z->Parent->Parent;
    touchNode(GP, 32);
    if (Z->Parent == GP->Left) {
      Node *Uncle = GP->Right;
      if (Uncle->Col == Red) {
        Z->Parent->Col = Black;
        Uncle->Col = Black;
        GP->Col = Red;
        work(4);
        Z = GP;
      } else {
        if (Z == Z->Parent->Right) {
          Z = Z->Parent;
          rotateLeft(Z);
        }
        Z->Parent->Col = Black;
        GP->Col = Red;
        rotateRight(GP);
      }
    } else {
      Node *Uncle = GP->Left;
      if (Uncle->Col == Red) {
        Z->Parent->Col = Black;
        Uncle->Col = Black;
        GP->Col = Red;
        work(4);
        Z = GP;
      } else {
        if (Z == Z->Parent->Left) {
          Z = Z->Parent;
          rotateRight(Z);
        }
        Z->Parent->Col = Black;
        GP->Col = Red;
        rotateLeft(GP);
      }
    }
  }
  Root->Col = Black;
  // The "did this insert need rebalancing work?" branch: usually not taken,
  // analogous to vector's resize check at much higher frequency.
  branch(BranchSite::TreeRebalance, Fixed);
}

RbTree::Node *RbTree::descend(Key K, uint64_t &Touched, Node **LastVisited) {
  Node *N = Root;
  Node *Last = &Nil;
  Touched = 0;
  while (!isNil(N)) {
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

OpResult RbTree::insert(Key K) {
  uint64_t Touched = 0;
  Node *Parent = &Nil;
  Node *Existing = descend(K, Touched, &Parent);
  if (!isNil(Existing))
    return {false, Touched};

  Node *Z = makeNode(K, Red, Parent);
  if (isNil(Parent))
    Root = Z;
  else if (K < Parent->Value)
    Parent->Left = Z;
  else
    Parent->Right = Z;
  insertFixup(Z);
  ++Count;
  return {true, Touched};
}

OpResult RbTree::find(Key K) {
  uint64_t Touched = 0;
  Node *N = descend(K, Touched, nullptr);
  return {!isNil(N), Touched};
}

void RbTree::transplant(Node *U, Node *V) {
  if (isNil(U->Parent))
    Root = V;
  else if (U == U->Parent->Left)
    U->Parent->Left = V;
  else
    U->Parent->Right = V;
  V->Parent = U->Parent;
  work(LinkWork);
}

void RbTree::eraseFixup(Node *X) {
  while (X != Root && X->Col == Black) {
    if (X == X->Parent->Left) {
      Node *W = X->Parent->Right;
      touchNode(W, 32);
      if (W->Col == Red) {
        W->Col = Black;
        X->Parent->Col = Red;
        rotateLeft(X->Parent);
        W = X->Parent->Right;
      }
      if (W->Left->Col == Black && W->Right->Col == Black) {
        W->Col = Red;
        work(2);
        X = X->Parent;
      } else {
        if (W->Right->Col == Black) {
          W->Left->Col = Black;
          W->Col = Red;
          rotateRight(W);
          W = X->Parent->Right;
        }
        W->Col = X->Parent->Col;
        X->Parent->Col = Black;
        W->Right->Col = Black;
        rotateLeft(X->Parent);
        X = Root;
      }
    } else {
      Node *W = X->Parent->Left;
      touchNode(W, 32);
      if (W->Col == Red) {
        W->Col = Black;
        X->Parent->Col = Red;
        rotateRight(X->Parent);
        W = X->Parent->Left;
      }
      if (W->Right->Col == Black && W->Left->Col == Black) {
        W->Col = Red;
        work(2);
        X = X->Parent;
      } else {
        if (W->Left->Col == Black) {
          W->Right->Col = Black;
          W->Col = Red;
          rotateLeft(W);
          W = X->Parent->Left;
        }
        W->Col = X->Parent->Col;
        X->Parent->Col = Black;
        W->Left->Col = Black;
        rotateRight(X->Parent);
        X = Root;
      }
    }
  }
  X->Col = Black;
}

void RbTree::eraseNode(Node *Z) {
  if (Cursor == Z)
    Cursor = successor(Z);
  if (Cursor == &Nil)
    Cursor = nullptr;

  Node *Y = Z;
  Color YOriginal = Y->Col;
  Node *X;
  if (isNil(Z->Left)) {
    X = Z->Right;
    transplant(Z, Z->Right);
  } else if (isNil(Z->Right)) {
    X = Z->Left;
    transplant(Z, Z->Left);
  } else {
    Y = minimum(Z->Right);
    touchNode(Y, 32);
    YOriginal = Y->Col;
    X = Y->Right;
    if (Y->Parent == Z) {
      X->Parent = Y;
    } else {
      transplant(Y, Y->Right);
      Y->Right = Z->Right;
      Y->Right->Parent = Y;
    }
    transplant(Z, Y);
    Y->Left = Z->Left;
    Y->Left->Parent = Y;
    Y->Col = Z->Col;
  }
  bool NeedsFix = YOriginal == Black;
  branch(BranchSite::TreeRebalance, NeedsFix);
  if (NeedsFix)
    eraseFixup(X);
  // Detach the sentinel's transient parent link.
  Nil.Parent = &Nil;
  destroyNode(Z);
  assert(Count > 0 && "erase from empty tree");
  --Count;
}

OpResult RbTree::erase(Key K) {
  uint64_t Touched = 0;
  Node *Z = descend(K, Touched, nullptr);
  if (isNil(Z))
    return {false, Touched};
  eraseNode(Z);
  return {true, Touched};
}

OpResult RbTree::eraseAt(uint64_t Pos) {
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

OpResult RbTree::iterate(uint64_t Steps) {
  if (Count == 0)
    return {false, 0};
  uint64_t Touched = 0;
  for (uint64_t S = 0; S != Steps; ++S) {
    if (!Cursor || isNil(Cursor)) {
      branch(BranchSite::IterContinue, false);
      Cursor = minimum(Root);
      touchNode(Cursor, 16);
    }
    work(2);
    ++Touched;
    Node *Next = successorTracked(Cursor);
    Cursor = isNil(Next) ? nullptr : Next;
  }
  return {true, Touched};
}

void RbTree::clear() {
  destroySubtree(Root);
  Root = &Nil;
  Cursor = nullptr;
  Count = 0;
}

bool RbTree::checkSubtree(const Node *N, Key Lo, bool HasLo, Key Hi,
                          bool HasHi, int &BlackHeight) const {
  if (isNil(N)) {
    BlackHeight = 1;
    return true;
  }
  if (HasLo && N->Value <= Lo)
    return false;
  if (HasHi && N->Value >= Hi)
    return false;
  if (N->Col == Red &&
      (N->Left->Col == Red || N->Right->Col == Red))
    return false;
  int LeftBH = 0, RightBH = 0;
  if (!checkSubtree(N->Left, Lo, HasLo, N->Value, true, LeftBH) ||
      !checkSubtree(N->Right, N->Value, true, Hi, HasHi, RightBH))
    return false;
  if (LeftBH != RightBH)
    return false;
  BlackHeight = LeftBH + (N->Col == Black ? 1 : 0);
  return true;
}

bool RbTree::checkInvariants() const {
  if (isNil(Root))
    return Count == 0;
  if (Root->Col != Black)
    return false;
  int BH = 0;
  if (!checkSubtree(Root, 0, false, 0, false, BH))
    return false;
  // Count consistency.
  uint64_t Seen = 0;
  for (Node *N = minimum(Root); !isNil(N); N = successor(N))
    ++Seen;
  return Seen == Count;
}

uint64_t RbTree::subtreeHeight(const Node *N) const {
  if (isNil(N))
    return 0;
  uint64_t L = subtreeHeight(N->Left);
  uint64_t R = subtreeHeight(N->Right);
  return 1 + (L > R ? L : R);
}

uint64_t RbTree::height() const { return subtreeHeight(Root); }

Key RbTree::at(uint64_t Index) const {
  assert(Index < Count && "at() out of range");
  Node *N = minimum(Root);
  for (uint64_t I = 0; I != Index; ++I)
    N = successor(N);
  return N->Value;
}
