//===- containers/Vector.cpp ----------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "containers/Vector.h"

using namespace brainy;
using namespace brainy::ds;

template class brainy::ds::ArrayCore<Vector>;

OpResult Vector::pushFront(Key K) { return insertAt(0, K); }

OpResult Vector::insertAt(uint64_t Pos, Key K) {
  return insertShiftingTail(Pos, K);
}

OpResult Vector::eraseAt(uint64_t Pos) { return eraseShiftingTail(Pos); }
