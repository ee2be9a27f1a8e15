//===- machine/EventBuffer.h - Encoded container-event stream --*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compact encoded event stream between containers and the machine
/// model. Instead of one virtual EventSink call per memory touch / branch /
/// instruction burst, containers append fixed-width records into this flat
/// word buffer and the sink drains whole buffers at once through
/// EventSink::onBatch — turning the training inner loop's five-virtual-
/// calls-per-op pipeline into inline stores plus one indirect call per
/// ~thousand events.
///
/// Record encoding (word0 low 4 bits = kind, bit 4 = boolean flag, payload
/// from bit 8 up; variable 1/2-word records in the flex packing spirit):
///
///   Access:  word0 = kind | Bytes<<8            word1 = Addr
///   Branch:  word0 = kind | Taken<<4 | Site<<8
///   Instr:   word0 = kind | Count<<8            (split if Count >= 2^56)
///   Alloc:   word0 = kind | Bytes<<8
///   Free:    word0 = kind | Bytes<<8
///   Op:      word0 = kind | Found<<4 | Op<<8 | Cost<<16   word1 = SizeAfter
///
/// Records are drained strictly in append order, so a batched consumer
/// observes the exact event sequence the per-call interface would have —
/// the bit-identity argument of DESIGN.md §12 rests on that.
///
/// Thread contract: an EventBuffer is owned by its EventSink and is
/// single-threaded by construction — one MachineModel (and therefore one
/// buffer) exists per evaluation, and evaluations never share models across
/// threads (each Phase I claim evaluates on one thread). No locking, and no
/// BRAINY_GUARDED_BY capability: there is no shared state to guard.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_MACHINE_EVENTBUFFER_H
#define BRAINY_MACHINE_EVENTBUFFER_H

#include "machine/EventSink.h"

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace brainy {

namespace event {

/// Record kinds, stored in the low 4 bits of a record's first word.
enum Kind : uint64_t {
  Access = 0,
  Branch = 1,
  Instr = 2,
  Alloc = 3,
  Free = 4,
  Op = 5,
};

constexpr uint64_t KindMask = 0xf;
/// Bit 4 carries the record's boolean (branch taken / op found).
constexpr uint64_t FlagBit = 1ull << 4;
/// First payload bit of word0.
constexpr unsigned PayloadShift = 8;
/// Op records pack their cost above the op id byte.
constexpr unsigned OpCostShift = 16;

/// Width in words of the record starting with \p Word0.
inline size_t recordWords(uint64_t Word0) {
  uint64_t K = Word0 & KindMask;
  return (K == Access || K == Op) ? 2 : 1;
}

} // namespace event

/// Flat append-only buffer of encoded events, flushed to its owning sink's
/// onBatch when full (or on demand). Sized to stay L1-resident: the drain
/// loop re-reads what the producing container just wrote.
class EventBuffer {
public:
  static constexpr size_t CapacityWords = 2048;

  explicit EventBuffer(EventSink &Owner) : Owner(Owner) {}

  EventBuffer(const EventBuffer &) = delete;
  EventBuffer &operator=(const EventBuffer &) = delete;

  bool empty() const { return Size == 0; }

  /// Hands every pending record to the owner's onBatch, in append order.
  void flush() {
    if (Size == 0)
      return;
    size_t N = Size;
    Size = 0; // Reset first: the drain must see a quiescent buffer.
    Owner.onBatch(Words.data(), N);
  }

  void access(uint64_t Addr, uint32_t Bytes) {
    reserve(2);
    Words[Size] = event::Access |
                  (static_cast<uint64_t>(Bytes) << event::PayloadShift);
    Words[Size + 1] = Addr;
    Size += 2;
  }

  void branch(BranchSite Site, bool Taken) {
    reserve(1);
    Words[Size++] = event::Branch | (Taken ? event::FlagBit : 0) |
                    (static_cast<uint64_t>(Site) << event::PayloadShift);
  }

  void instructions(uint64_t Count) {
    // 56 payload bits; containers emit small bursts, but stay exact for
    // any caller by splitting (the consumer's Count additions commute).
    constexpr uint64_t Max = (1ull << 56) - 1;
    while (Count > Max) {
      instructions(Max);
      Count -= Max;
    }
    reserve(1);
    Words[Size++] = event::Instr | (Count << event::PayloadShift);
  }

  void alloc(uint64_t Bytes) {
    reserve(1);
    Words[Size++] = event::Alloc | (Bytes << event::PayloadShift);
  }

  void free(uint64_t Bytes) {
    reserve(1);
    Words[Size++] = event::Free | (Bytes << event::PayloadShift);
  }

  /// One interface-call summary (profiling record; see ContainerOp).
  void op(ContainerOp Op, bool Found, uint64_t Cost, uint64_t SizeAfter) {
    assert(Cost < (1ull << 48) && "op cost exceeds the 48-bit record field");
    reserve(2);
    Words[Size] = event::Op | (Found ? event::FlagBit : 0) |
                  (static_cast<uint64_t>(Op) << event::PayloadShift) |
                  (Cost << event::OpCostShift);
    Words[Size + 1] = SizeAfter;
    Size += 2;
  }

private:
  void reserve(size_t N) {
    if (Size + N > CapacityWords)
      flush();
  }

  EventSink &Owner;
  size_t Size = 0;
  std::array<uint64_t, CapacityWords> Words;
};

} // namespace brainy

#endif // BRAINY_MACHINE_EVENTBUFFER_H
