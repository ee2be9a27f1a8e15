//===- containers/SplayTree.cpp -------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "containers/SplayTree.h"

using namespace brainy;
using namespace brainy::ds;

template class brainy::ds::BstCore<SplayTree, SplayNode>;

static constexpr uint64_t RotateWork = 10;

void SplayTree::rotateUp(Node *X) {
  touchNode(X, 32);
  touchNode(X->Parent, 32);
  work(RotateWork);
  lift(X);
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

void SplayTree::eraseNode(Node *Z) {
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
}
