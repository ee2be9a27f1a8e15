//===- containers/Deque.cpp -----------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "containers/Deque.h"

using namespace brainy;
using namespace brainy::ds;

template class brainy::ds::ArrayCore<Deque>;

OpResult Deque::pushFront(Key K) {
  uint64_t Copied = ensureSpace();
  HeadIdx = physical(Capacity - 1); // one slot before the front
  place(0, K);
  if (Cursor)
    ++Cursor; // Keep the cursor on the same logical element.
  return {true, Copied};
}

OpResult Deque::insertAt(uint64_t Pos, Key K) {
  if (Pos > Count)
    Pos = Count;
  if (Pos >= Count - Pos)
    return insertShiftingTail(Pos, K);
  // Shift the head side left (grow the front by one).
  uint64_t Copied = ensureSpace();
  HeadIdx = physical(Capacity - 1);
  shiftFront(1, Pos + 1);
  place(Pos, K);
  return {true, Copied + Pos};
}

OpResult Deque::eraseAt(uint64_t Pos) {
  if (Pos >= Count || Count - Pos - 1 <= Pos)
    return eraseShiftingTail(Pos);
  // Shift the head side right and drop the front slot.
  shiftBack(0, Pos);
  HeadIdx = physical(1);
  forget(Pos);
  return {true, Pos};
}
