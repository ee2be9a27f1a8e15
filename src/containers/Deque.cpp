//===- containers/Deque.cpp -----------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "containers/Deque.h"

#include <cassert>

using namespace brainy;
using namespace brainy::ds;

static constexpr uint64_t CompareWork = 3; // ring/chunk indexing
static constexpr uint64_t WriteWork = 3; // ring indexing is a bit dearer
static constexpr uint64_t CopyWorkPerElem = 3;

Deque::Deque(uint32_t ElemBytes, MachineModel *Model, uint64_t HeapBase)
    : ContainerBase(ElemBytes, Model, HeapBase) {}

Deque::~Deque() {
  if (Capacity)
    freeSim(SimBase, Capacity * Elem);
}

uint64_t Deque::grow() {
  uint64_t NewCapacity = Capacity ? Capacity * 2 : 8;
  uint64_t NewBase = allocSim(NewCapacity * Elem);
  std::vector<Key> NewData(NewCapacity);
  for (uint64_t I = 0; I != Count; ++I) {
    note(elemAddr(I), Elem);
    note(NewBase + I * Elem, Elem);
    work(CopyWorkPerElem + Elem / 16);
    NewData[I] = Data[physical(I)];
  }
  if (Capacity)
    freeSim(SimBase, Capacity * Elem);
  Data = std::move(NewData);
  SimBase = NewBase;
  Capacity = NewCapacity;
  HeadIdx = 0;
  ++Resizes;
  return Count;
}

uint64_t Deque::ensureSpace() {
  bool Full = Count == Capacity;
  branch(BranchSite::VectorResizeCheck, Full);
  return Full ? grow() : 0;
}

OpResult Deque::pushBack(Key K) {
  uint64_t Copied = ensureSpace();
  Data[physical(Count)] = K;
  touchElem(Count, Elem);
  work(WriteWork);
  ++Count;
  return {true, Copied};
}

OpResult Deque::pushFront(Key K) {
  uint64_t Copied = ensureSpace();
  HeadIdx = (HeadIdx + Capacity - 1) & (Capacity - 1);
  Data[HeadIdx] = K;
  touchElem(0, Elem);
  work(WriteWork);
  ++Count;
  if (Cursor)
    ++Cursor; // Keep the cursor on the same logical element.
  return {true, Copied};
}

OpResult Deque::insertAt(uint64_t Pos, Key K) {
  if (Pos > Count)
    Pos = Count;
  uint64_t Copied = ensureSpace();
  uint64_t Shifted;
  if (Pos >= Count - Pos) {
    // Shift the tail side right.
    Shifted = Count - Pos;
    for (uint64_t I = Count; I > Pos; --I) {
      branch(BranchSite::VectorShiftLoop, true);
      touchElem(I - 1, Elem);
      touchElem(I, Elem);
      work(CopyWorkPerElem + Elem / 16);
      Data[physical(I)] = Data[physical(I - 1)];
    }
    branch(BranchSite::VectorShiftLoop, false);
    Data[physical(Pos)] = K;
  } else {
    // Shift the head side left (grow the front by one).
    Shifted = Pos;
    HeadIdx = (HeadIdx + Capacity - 1) & (Capacity - 1);
    for (uint64_t I = 0; I != Pos; ++I) {
      branch(BranchSite::VectorShiftLoop, true);
      touchElem(I + 1, Elem);
      touchElem(I, Elem);
      work(CopyWorkPerElem + Elem / 16);
      Data[physical(I)] = Data[physical(I + 1)];
    }
    branch(BranchSite::VectorShiftLoop, false);
    Data[physical(Pos)] = K;
  }
  touchElem(Pos, Elem);
  work(WriteWork);
  ++Count;
  return {true, Copied + Shifted};
}

OpResult Deque::eraseAt(uint64_t Pos) {
  if (Pos >= Count)
    return {false, 0};
  uint64_t Shifted;
  if (Count - Pos - 1 <= Pos) {
    // Shift the tail side left.
    Shifted = Count - Pos - 1;
    for (uint64_t I = Pos; I + 1 < Count; ++I) {
      branch(BranchSite::VectorShiftLoop, true);
      touchElem(I + 1, Elem);
      touchElem(I, Elem);
      work(CopyWorkPerElem + Elem / 16);
      Data[physical(I)] = Data[physical(I + 1)];
    }
    branch(BranchSite::VectorShiftLoop, false);
  } else {
    // Shift the head side right and drop the front slot.
    Shifted = Pos;
    for (uint64_t I = Pos; I > 0; --I) {
      branch(BranchSite::VectorShiftLoop, true);
      touchElem(I - 1, Elem);
      touchElem(I, Elem);
      work(CopyWorkPerElem + Elem / 16);
      Data[physical(I)] = Data[physical(I - 1)];
    }
    branch(BranchSite::VectorShiftLoop, false);
    HeadIdx = (HeadIdx + 1) & (Capacity - 1);
  }
  --Count;
  if (Cursor > Pos)
    --Cursor;
  return {true, Shifted};
}

OpResult Deque::eraseValue(Key K) {
  OpResult Search = find(K);
  if (!Search.Found)
    return {false, Search.Cost};
  uint64_t Pos = Search.Cost ? Search.Cost - 1 : 0;
  OpResult Erased = eraseAt(Pos);
  return {true, Search.Cost + Erased.Cost};
}

OpResult Deque::find(Key K) {
  uint64_t Touched = 0;
  for (uint64_t I = 0; I != Count; ++I) {
    touchElem(I, 8);
    work(CompareWork);
    ++Touched;
    bool Hit = Data[physical(I)] == K;
    branch(BranchSite::SearchHit, Hit);
    if (Hit)
      return {true, Touched};
  }
  return {false, Touched};
}

OpResult Deque::iterate(uint64_t Steps) {
  if (Count == 0)
    return {false, 0};
  uint64_t Touched = 0;
  for (uint64_t S = 0; S != Steps; ++S) {
    if (Cursor >= Count) {
      branch(BranchSite::IterContinue, false);
      Cursor = 0;
    } else {
      branch(BranchSite::IterContinue, true);
    }
    touchElem(Cursor, 8);
    work(CompareWork);
    ++Cursor;
    ++Touched;
  }
  return {true, Touched};
}

void Deque::clear() {
  Data.clear();
  Count = 0;
  HeadIdx = 0;
  Cursor = 0;
  if (Capacity) {
    freeSim(SimBase, Capacity * Elem);
    Capacity = 0;
    SimBase = 0;
  }
}
