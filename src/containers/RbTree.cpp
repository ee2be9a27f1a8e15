//===- containers/RbTree.cpp ----------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Insert/erase follow CLRS (3rd ed., ch. 13). Null links stand in for the
// book's Nil sentinel, so the erase fixup carries the parent of its
// doubly-black position itself, as libstdc++'s _Rb_tree does.
//
//===----------------------------------------------------------------------===//

#include "containers/RbTree.h"

using namespace brainy;
using namespace brainy::ds;

template class brainy::ds::BstCore<RbTree, RbNode>;

static constexpr uint64_t RotateWork = 10;
static constexpr RbNode::Color Red = RbNode::Red;
static constexpr RbNode::Color Black = RbNode::Black;

static bool isRed(const RbNode *N) { return N && N->Col == Red; }

void RbTree::rotateUp(Node *Child) {
  touchNode(Child->Parent, 32);
  touchNode(Child, 32);
  work(RotateWork);
  lift(Child);
}

void RbTree::afterInsert(Node *Z) {
  bool Fixed = false;
  while (isRed(Z->Parent)) {
    Fixed = true;
    Node *GP = Z->Parent->Parent;
    touchNode(GP, 32);
    if (Z->Parent == GP->Left) {
      Node *Uncle = GP->Right;
      if (isRed(Uncle)) {
        Z->Parent->Col = Black;
        Uncle->Col = Black;
        GP->Col = Red;
        work(4);
        Z = GP;
      } else {
        if (Z == Z->Parent->Right) {
          rotateUp(Z);
          Z = Z->Left;
        }
        Z->Parent->Col = Black;
        GP->Col = Red;
        rotateUp(Z->Parent);
      }
    } else {
      Node *Uncle = GP->Left;
      if (isRed(Uncle)) {
        Z->Parent->Col = Black;
        Uncle->Col = Black;
        GP->Col = Red;
        work(4);
        Z = GP;
      } else {
        if (Z == Z->Parent->Left) {
          rotateUp(Z);
          Z = Z->Right;
        }
        Z->Parent->Col = Black;
        GP->Col = Red;
        rotateUp(Z->Parent);
      }
    }
  }
  Root->Col = Black;
  // The "did this insert need rebalancing work?" branch: usually not taken,
  // analogous to vector's resize check at much higher frequency.
  branch(BranchSite::TreeRebalance, Fixed);
}

void RbTree::transplant(Node *U, Node *V) {
  replaceChild(U->Parent, U, V);
  work(LinkWork);
}

void RbTree::eraseFixup(Node *X, Node *XParent) {
  while (X != Root && !isRed(X)) {
    if (X == XParent->Left) {
      Node *W = XParent->Right;
      touchNode(W, 32);
      if (isRed(W)) {
        W->Col = Black;
        XParent->Col = Red;
        rotateUp(W);
        W = XParent->Right;
      }
      if (!isRed(W->Left) && !isRed(W->Right)) {
        W->Col = Red;
        work(2);
        X = XParent;
        XParent = X->Parent;
      } else {
        if (!isRed(W->Right)) {
          W->Left->Col = Black;
          W->Col = Red;
          rotateUp(W->Left);
          W = XParent->Right;
        }
        W->Col = XParent->Col;
        XParent->Col = Black;
        W->Right->Col = Black;
        rotateUp(W);
        X = Root;
      }
    } else {
      Node *W = XParent->Left;
      touchNode(W, 32);
      if (isRed(W)) {
        W->Col = Black;
        XParent->Col = Red;
        rotateUp(W);
        W = XParent->Left;
      }
      if (!isRed(W->Right) && !isRed(W->Left)) {
        W->Col = Red;
        work(2);
        X = XParent;
        XParent = X->Parent;
      } else {
        if (!isRed(W->Left)) {
          W->Right->Col = Black;
          W->Col = Red;
          rotateUp(W->Right);
          W = XParent->Left;
        }
        W->Col = XParent->Col;
        XParent->Col = Black;
        W->Left->Col = Black;
        rotateUp(W);
        X = Root;
      }
    }
  }
  if (X)
    X->Col = Black;
}

void RbTree::eraseNode(Node *Z) {
  Node *Y = Z;
  RbNode::Color YOriginal = Y->Col;
  Node *X;
  Node *XParent;
  if (!Z->Left) {
    X = Z->Right;
    XParent = Z->Parent;
    transplant(Z, Z->Right);
  } else if (!Z->Right) {
    X = Z->Left;
    XParent = Z->Parent;
    transplant(Z, Z->Left);
  } else {
    Y = minimum(Z->Right);
    touchNode(Y, 32);
    YOriginal = Y->Col;
    X = Y->Right;
    if (Y->Parent == Z) {
      XParent = Y;
    } else {
      XParent = Y->Parent;
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
    eraseFixup(X, XParent);
  destroyNode(Z);
}

/// Black height of \p N's subtree counting its null leaves, or 0 when a red
/// node there has a red child or two paths differ.
static int blackHeight(const RbNode *N) {
  if (!N)
    return 1;
  if (isRed(N) && (isRed(N->Left) || isRed(N->Right)))
    return 0;
  int L = blackHeight(N->Left);
  if (L == 0 || L != blackHeight(N->Right))
    return 0;
  return L + (isRed(N) ? 0 : 1);
}

bool RbTree::checkBalance() const {
  return !isRed(Root) && blackHeight(Root) != 0;
}
