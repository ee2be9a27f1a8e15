//===- containers/Vector.cpp ----------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "containers/Vector.h"

#include <cstddef>

using namespace brainy;
using namespace brainy::ds;

// Straight-line instruction estimates per primitive step.
static constexpr uint64_t CompareWork = 2;
static constexpr uint64_t WriteWork = 2;
static constexpr uint64_t CopyWorkPerElem = 2;

Vector::Vector(uint32_t ElemBytes, MachineModel *Model, uint64_t HeapBase)
    : ContainerBase(ElemBytes, Model, HeapBase) {}

Vector::~Vector() {
  if (Capacity)
    freeSim(SimBase, Capacity * Elem);
}

uint64_t Vector::grow() {
  uint64_t NewCapacity = Capacity ? Capacity * 2 : 8;
  uint64_t NewBase = allocSim(NewCapacity * Elem);
  // Copy every live element into the new buffer: sequential read of the old
  // region, sequential write of the new one.
  for (uint64_t I = 0, E = Data.size(); I != E; ++I) {
    note(SimBase + I * Elem, Elem);
    note(NewBase + I * Elem, Elem);
    work(CopyWorkPerElem + Elem / 16);
  }
  if (Capacity)
    freeSim(SimBase, Capacity * Elem);
  SimBase = NewBase;
  Capacity = NewCapacity;
  ++Resizes;
  return Data.size();
}

uint64_t Vector::ensureSpace() {
  bool Full = Data.size() == Capacity;
  // The paper's signature branch: "is the dynamic array full?" — almost
  // always not taken, mispredicted exactly when a resize fires (Figure 6).
  branch(BranchSite::VectorResizeCheck, Full);
  return Full ? grow() : 0;
}

OpResult Vector::pushBack(Key K) {
  uint64_t Copied = ensureSpace();
  note(elemAddr(Data.size()), Elem);
  work(WriteWork);
  Data.push_back(K);
  return {true, Copied};
}

void Vector::shiftRight(uint64_t From) {
  // Move [From, size()) one slot toward the back, highest index first.
  for (uint64_t I = Data.size(); I > From; --I) {
    branch(BranchSite::VectorShiftLoop, true);
    note(elemAddr(I - 1), Elem);
    note(elemAddr(I), Elem);
    work(CopyWorkPerElem + Elem / 16);
  }
  branch(BranchSite::VectorShiftLoop, false);
}

void Vector::shiftLeft(uint64_t From) {
  // Move (From, size()) one slot toward the front, lowest index first.
  for (uint64_t I = From + 1, E = Data.size(); I < E; ++I) {
    branch(BranchSite::VectorShiftLoop, true);
    note(elemAddr(I), Elem);
    note(elemAddr(I - 1), Elem);
    work(CopyWorkPerElem + Elem / 16);
  }
  branch(BranchSite::VectorShiftLoop, false);
}

OpResult Vector::pushFront(Key K) { return insertAt(0, K); }

OpResult Vector::insertAt(uint64_t Pos, Key K) {
  if (Pos > Data.size())
    Pos = Data.size();
  uint64_t Copied = ensureSpace();
  uint64_t Shifted = Data.size() - Pos;
  shiftRight(Pos);
  note(elemAddr(Pos), Elem);
  work(WriteWork);
  Data.insert(Data.begin() + static_cast<ptrdiff_t>(Pos), K);
  return {true, Copied + Shifted};
}

OpResult Vector::eraseAt(uint64_t Pos) {
  if (Pos >= Data.size())
    return {false, 0};
  uint64_t Shifted = Data.size() - Pos - 1;
  shiftLeft(Pos);
  Data.erase(Data.begin() + static_cast<ptrdiff_t>(Pos));
  if (Cursor > Pos)
    --Cursor;
  return {true, Shifted};
}

OpResult Vector::eraseValue(Key K) {
  OpResult Search = find(K);
  if (!Search.Found)
    return {false, Search.Cost};
  // find() leaves no index; recompute it cheaply from the scan cost: the
  // match was the Cost-th touched element (1-based).
  uint64_t Pos = Search.Cost ? Search.Cost - 1 : 0;
  OpResult Erased = eraseAt(Pos);
  return {true, Search.Cost + Erased.Cost};
}

OpResult Vector::find(Key K) {
  uint64_t Touched = 0;
  for (uint64_t I = 0, E = Data.size(); I != E; ++I) {
    note(elemAddr(I), 8);
    work(CompareWork);
    ++Touched;
    bool Hit = Data[I] == K;
    branch(BranchSite::SearchHit, Hit);
    if (Hit)
      return {true, Touched};
  }
  return {false, Touched};
}

OpResult Vector::iterate(uint64_t Steps) {
  if (Data.empty())
    return {false, 0};
  uint64_t Touched = 0;
  for (uint64_t S = 0; S != Steps; ++S) {
    if (Cursor >= Data.size()) {
      branch(BranchSite::IterContinue, false);
      Cursor = 0;
    } else {
      branch(BranchSite::IterContinue, true);
    }
    note(elemAddr(Cursor), 8);
    work(CompareWork);
    ++Cursor;
    ++Touched;
  }
  return {true, Touched};
}

void Vector::clear() {
  Data.clear();
  Cursor = 0;
  if (Capacity) {
    freeSim(SimBase, Capacity * Elem);
    Capacity = 0;
    SimBase = 0;
  }
}
