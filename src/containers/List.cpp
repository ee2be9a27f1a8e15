//===- containers/List.cpp ------------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "containers/List.h"

#include <cassert>

using namespace brainy;
using namespace brainy::ds;

static constexpr uint64_t CompareWork = 2;
static constexpr uint64_t LinkWork = 6;
static constexpr uint64_t AdvanceWork = 2;

List::List(uint32_t ElemBytes, MachineModel *Model, uint64_t HeapBase)
    : ContainerBase(ElemBytes, Model, HeapBase) {}

List::~List() { clear(); }

void List::touchNode(const Node *N, uint32_t Bytes) {
  note(N->SimAddr, Bytes);
}

List::Node *List::makeNode(Key K) {
  Node *N = new Node{K, nullptr, nullptr, 0};
  N->SimAddr = allocSim(nodeBytes());
  // Writing the payload and both links.
  note(N->SimAddr, static_cast<uint32_t>(nodeBytes()));
  work(LinkWork);
  return N;
}

void List::destroyNode(Node *N) {
  freeSim(N->SimAddr, nodeBytes());
  delete N;
}

void List::linkBefore(Node *Anchor, Node *N) {
  // Anchor == nullptr means "append at the tail".
  if (!Anchor) {
    N->Prev = Tail;
    N->Next = nullptr;
    if (Tail) {
      touchNode(Tail, 16);
      Tail->Next = N;
    } else {
      Head = N;
    }
    Tail = N;
  } else {
    N->Prev = Anchor->Prev;
    N->Next = Anchor;
    touchNode(Anchor, 16);
    if (Anchor->Prev) {
      touchNode(Anchor->Prev, 16);
      Anchor->Prev->Next = N;
    } else {
      Head = N;
    }
    Anchor->Prev = N;
  }
  work(LinkWork);
  ++Count;
}

void List::unlink(Node *N) {
  if (N->Prev) {
    touchNode(N->Prev, 16);
    N->Prev->Next = N->Next;
  } else {
    Head = N->Next;
  }
  if (N->Next) {
    touchNode(N->Next, 16);
    N->Next->Prev = N->Prev;
  } else {
    Tail = N->Prev;
  }
  if (Cursor == N)
    Cursor = N->Next;
  work(LinkWork);
  assert(Count > 0 && "unlink from empty list");
  --Count;
}

List::Node *List::walkTo(uint64_t Pos) {
  Node *N = Head;
  for (uint64_t I = 0; I != Pos && N; ++I) {
    branch(BranchSite::ListWalkLoop, true);
    touchNode(N, 8);
    work(AdvanceWork);
    N = N->Next;
  }
  branch(BranchSite::ListWalkLoop, false);
  return N;
}

OpResult List::pushBack(Key K) {
  Node *N = makeNode(K);
  linkBefore(nullptr, N);
  return {true, 0};
}

OpResult List::pushFront(Key K) {
  Node *N = makeNode(K);
  linkBefore(Head, N);
  return {true, 0};
}

OpResult List::insertAt(uint64_t Pos, Key K) {
  if (Pos > Count)
    Pos = Count;
  Node *Anchor = walkTo(Pos);
  Node *N = makeNode(K);
  linkBefore(Anchor, N);
  return {true, Pos};
}

OpResult List::eraseAt(uint64_t Pos) {
  if (Pos >= Count)
    return {false, 0};
  Node *N = walkTo(Pos);
  assert(N && "walkTo past tail despite range check");
  unlink(N);
  destroyNode(N);
  return {true, Pos};
}

OpResult List::eraseValue(Key K) {
  uint64_t Touched = 0;
  for (Node *N = Head; N; N = N->Next) {
    branch(BranchSite::ListWalkLoop, true);
    touchNode(N, 8);
    work(CompareWork);
    ++Touched;
    bool Hit = N->Value == K;
    branch(BranchSite::SearchHit, Hit);
    if (Hit) {
      unlink(N);
      destroyNode(N);
      return {true, Touched};
    }
  }
  branch(BranchSite::ListWalkLoop, false);
  return {false, Touched};
}

OpResult List::find(Key K) {
  uint64_t Touched = 0;
  for (Node *N = Head; N; N = N->Next) {
    branch(BranchSite::ListWalkLoop, true);
    touchNode(N, 8);
    work(CompareWork);
    ++Touched;
    bool Hit = N->Value == K;
    branch(BranchSite::SearchHit, Hit);
    if (Hit)
      return {true, Touched};
  }
  branch(BranchSite::ListWalkLoop, false);
  return {false, Touched};
}

OpResult List::iterate(uint64_t Steps) {
  if (!Head)
    return {false, 0};
  uint64_t Touched = 0;
  for (uint64_t S = 0; S != Steps; ++S) {
    if (!Cursor) {
      branch(BranchSite::IterContinue, false);
      Cursor = Head;
    } else {
      branch(BranchSite::IterContinue, true);
    }
    touchNode(Cursor, 8);
    work(AdvanceWork);
    Cursor = Cursor->Next;
    ++Touched;
  }
  return {true, Touched};
}

void List::clear() {
  Node *N = Head;
  while (N) {
    Node *Next = N->Next;
    destroyNode(N);
    N = Next;
  }
  Head = Tail = Cursor = nullptr;
  Count = 0;
}

Key List::at(uint64_t Index) const {
  const Node *N = Head;
  for (uint64_t I = 0; I != Index; ++I) {
    assert(N && "at() out of range");
    N = N->Next;
  }
  assert(N && "at() out of range");
  return N->Value;
}
