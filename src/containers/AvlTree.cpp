//===- containers/AvlTree.cpp ---------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "containers/AvlTree.h"

using namespace brainy;
using namespace brainy::ds;

template class brainy::ds::BstCore<AvlTree, AvlNode>;

static constexpr uint64_t RotateWork = 12;

static int heightOf(const AvlNode *N) { return N ? N->Height : 0; }

static int balanceOf(const AvlNode *N) {
  return heightOf(N->Left) - heightOf(N->Right);
}

static void updateHeight(AvlNode *N) {
  int L = heightOf(N->Left), R = heightOf(N->Right);
  N->Height = 1 + (L > R ? L : R);
}

AvlNode *AvlTree::rotateUp(Node *Child) {
  Node *P = Child->Parent;
  touchNode(P, 32);
  touchNode(Child, 32);
  work(RotateWork);
  lift(Child);
  updateHeight(P);
  updateHeight(Child);
  return Child;
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
        rotateUp(N->Left->Right); // Left-Right case.
      N = rotateUp(N->Left);
    } else if (Balance < -1) {
      Rotated = true;
      if (balanceOf(N->Right) > 0)
        rotateUp(N->Right->Left); // Right-Left case.
      N = rotateUp(N->Right);
    }
    N = N->Parent;
  }
  // Rebalance-needed branch, analogous to the red-black fixup branch.
  branch(BranchSite::TreeRebalance, Rotated);
}

void AvlTree::eraseNode(Node *Z) {
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
  destroyNode(Z);
  retrace(Parent);
}

/// Height of \p N's subtree, or -1 when a stored height there is wrong or
/// two sibling subtrees differ in height by more than one.
static int checkedHeight(const AvlNode *N) {
  if (!N)
    return 0;
  int L = checkedHeight(N->Left), R = checkedHeight(N->Right);
  if (L < 0 || R < 0 || L - R > 1 || R - L > 1)
    return -1;
  return N->Height == 1 + (L > R ? L : R) ? N->Height : -1;
}

bool AvlTree::checkBalance() const { return checkedHeight(Root) >= 0; }
