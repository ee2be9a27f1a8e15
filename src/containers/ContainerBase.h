//===- containers/ContainerBase.h - Shared container plumbing --*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common machinery for the instrumentable containers: the optional
/// MachineModel, the optional OpListener, a per-container
/// SimAllocator heap region, and the simulated element size. The containers
/// store real 64-bit keys and run the real algorithms; the *simulated*
/// layout (what the cache model sees) treats each element as DataElemSize
/// bytes, which is how the paper's generator varies element size (Table 2)
/// without a template instantiation per size.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CONTAINERS_CONTAINERBASE_H
#define BRAINY_CONTAINERS_CONTAINERBASE_H

#include "machine/MachineModel.h"
#include "machine/SimAllocator.h"

#include <cstdint>

namespace brainy {

/// Identifies one container interface call for the software-feature
/// profiler. The adt adapters report each call (call kind, hit/miss, cost,
/// size-after) to an OpListener, which accumulates them into
/// SoftwareFeatures.
enum class ContainerOp : uint8_t {
  Insert,
  InsertAt,
  PushFront,
  Erase,
  EraseAt,
  Find,
  Iterate,
  NumOps
};

/// Consumer of container interface-call summaries (the software-feature
/// half of profiling), registered on a container.
class OpListener {
public:
  virtual ~OpListener() = default;

  /// One interface call of kind \p Op that resolved with \p Found, cost
  /// \p Cost abstract steps, and left the container at \p SizeAfter
  /// elements.
  virtual void onOp(ContainerOp Op, bool Found, uint64_t Cost,
                    uint64_t SizeAfter) = 0;
};

namespace ds {

/// Key type stored by every container. The paper's generator inserts random
/// integers (Table 2); larger payloads are modelled via the element size.
using Key = int64_t;

/// Result of one container interface call.
struct OpResult {
  /// For find/erase: whether the key was present. For insert: whether the
  /// insertion actually happened (set-family rejects duplicates).
  bool Found = false;
  /// The paper's per-call "cost": elements touched until the operation
  /// finished (search walk length, shift distance, probe count...).
  uint64_t Cost = 0;
};

/// Base class holding instrumentation state shared by all containers.
///
/// With a MachineModel attached, every emitter calls the model's matching
/// per-event entry point — the training inner loop's hot path. Without
/// one, the emitters do nothing.
class ContainerBase {
public:
  /// \p ElemBytes simulated bytes per stored element (>= 8).
  /// \p Model receives the hardware events (may be null).
  /// \p HeapBase start of this container's simulated heap region.
  ContainerBase(uint32_t ElemBytes, MachineModel *Model, uint64_t HeapBase)
      : Elem(ElemBytes < 8 ? 8 : ElemBytes),
        Model(Model), Alloc(HeapBase) {}

  /// Registers \p Listener to receive one ContainerOp record per interface
  /// call (the software-feature profile). Null disables op recording.
  void setOpListener(OpListener *Listener) { Profile = Listener; }
  OpListener *opListener() const { return Profile; }

  /// Reports one completed interface call to the registered listener.
  void recordOp(ContainerOp Op, const OpResult &R, uint64_t SizeAfter) {
    if (Profile)
      Profile->onOp(Op, R.Found, R.Cost, SizeAfter);
  }

  uint32_t elementBytes() const { return Elem; }

  /// Live simulated heap bytes — the memory-bloat signal.
  uint64_t simLiveBytes() const { return Alloc.liveBytes(); }
  uint64_t simPeakBytes() const { return Alloc.peakBytes(); }

protected:
  void note(uint64_t Addr, uint32_t Bytes) {
    if (Model)
      Model->onAccess(Addr, Bytes);
  }

  void branch(BranchSite Site, bool Taken) {
    if (Model)
      Model->onBranch(Site, Taken);
  }

  void work(uint64_t Instructions) {
    if (Model)
      Model->onInstructions(Instructions);
  }

  uint64_t allocSim(uint64_t Bytes) {
    uint64_t Addr = Alloc.allocate(Bytes);
    if (Model)
      Model->onAlloc(Bytes);
    return Addr;
  }

  void freeSim(uint64_t Addr, uint64_t Bytes) {
    Alloc.release(Addr, Bytes);
    if (Model)
      Model->onFree(Bytes);
  }

  uint32_t Elem;
  MachineModel *Model;       ///< Receives the events; null = no events.
  OpListener *Profile = nullptr;
  SimAllocator Alloc;
};

} // namespace ds
} // namespace brainy

#endif // BRAINY_CONTAINERS_CONTAINERBASE_H
