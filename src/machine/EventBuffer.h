//===- machine/EventBuffer.h - Encoded container-event stream --*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compact encoded event stream between containers and the machine
/// model. Containers report their dynamic behaviour — memory touches, the
/// data-dependent conditional branches the paper found predictive (e.g. the
/// "should vector resize?" branch), straight-line instruction estimates, and
/// allocator traffic — by appending fixed-width records into this flat word
/// buffer, and the owning MachineModel drains whole buffers at once through
/// MachineModel::onBatch: inline stores plus one direct call per ~thousand
/// events.
///
/// Record encoding (word0 low 4 bits = kind, bit 4 = boolean flag, payload
/// from bit 8 up; variable 1/2-word records in the flex packing spirit):
///
///   Access:  word0 = kind | Bytes<<8            word1 = Addr
///   Branch:  word0 = kind | Taken<<4 | Site<<8
///   Instr:   word0 = kind | Count<<8            (split if Count >= 2^56)
///   Alloc:   word0 = kind | Bytes<<8
///   Free:    word0 = kind | Bytes<<8
///
/// Records are drained strictly in append order, so the drain observes the
/// exact event sequence the per-event MachineModel entry points would have
/// — the bit-identity argument of DESIGN.md §12 rests on that.
///
/// Thread contract: an EventBuffer is owned by its MachineModel and is
/// single-threaded by construction — one MachineModel (and therefore one
/// buffer) exists per evaluation, and evaluations never share models across
/// threads (each Phase I claim evaluates on one thread). No locking, and no
/// BRAINY_GUARDED_BY capability: there is no shared state to guard.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_MACHINE_EVENTBUFFER_H
#define BRAINY_MACHINE_EVENTBUFFER_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace brainy {

class MachineModel;

/// Identifies a static conditional-branch site inside a container
/// implementation. Sites are stable small integers so a bimodal predictor
/// table can be indexed by them, mirroring per-PC prediction.
enum class BranchSite : uint32_t {
  VectorResizeCheck,   ///< capacity check on vector/deque insertion
  VectorShiftLoop,     ///< element-move loop bound on mid insertion/erase
  ListWalkLoop,        ///< node-walk loop continuation
  TreeCompareLeft,     ///< BST descent: go left?
  TreeRebalance,       ///< rotation-needed check (RB recolour / AVL rotate)
  HashBucketWalk,      ///< chained-bucket walk continuation
  HashResizeCheck,     ///< load-factor check on hash insertion
  SearchHit,           ///< did the current element match the probe key?
  IterContinue,        ///< generic iteration continuation
  NumSites
};

namespace event {

/// Record kinds, stored in the low 4 bits of a record's first word.
enum Kind : uint64_t {
  Access = 0,
  Branch = 1,
  Instr = 2,
  Alloc = 3,
  Free = 4,
};

constexpr uint64_t KindMask = 0xf;
/// Bit 4 carries the record's boolean (branch taken).
constexpr uint64_t FlagBit = 1ull << 4;
/// First payload bit of word0.
constexpr unsigned PayloadShift = 8;

} // namespace event

/// Flat append-only buffer of encoded events, flushed to its owning
/// model's onBatch when full (or on demand). Sized to stay L1-resident: the
/// drain loop re-reads what the producing container just wrote.
class EventBuffer {
public:
  static constexpr size_t CapacityWords = 2048;

  explicit EventBuffer(MachineModel &Owner) : Owner(Owner) {}

  EventBuffer(const EventBuffer &) = delete;
  EventBuffer &operator=(const EventBuffer &) = delete;

  bool empty() const { return Size == 0; }

  /// Hands every pending record to the owner's onBatch, in append order.
  void flush();

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

private:
  void reserve(size_t N) {
    if (Size + N > CapacityWords)
      flush();
  }

  MachineModel &Owner;
  size_t Size = 0;
  std::array<uint64_t, CapacityWords> Words;
};

} // namespace brainy

#endif // BRAINY_MACHINE_EVENTBUFFER_H
