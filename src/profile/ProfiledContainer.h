//===- profile/ProfiledContainer.h - Instrumented ADT wrapper --*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's "profiling data structures": record how the application uses
/// a container (software features) while the underlying machine model
/// records hardware features ("their interface functions contain code which
/// records the behaviors ... and then calls the original interfaces",
/// Section 3).
///
/// The wrapper does not count per call: it registers an SwAccumulator as
/// the wrapped container's OpListener and forwards interface calls
/// untouched. The container reports one op per call straight to the
/// accumulator; its hardware events are the same as an unprofiled run's.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_PROFILE_PROFILEDCONTAINER_H
#define BRAINY_PROFILE_PROFILEDCONTAINER_H

#include "adt/Container.h"
#include "profile/Features.h"
#include "profile/SwAccumulator.h"

#include <memory>

namespace brainy {

/// Container decorator that accumulates SoftwareFeatures across all calls.
class ProfiledContainer final : public Container {
public:
  /// Wraps \p Inner (must be non-null); takes ownership.
  explicit ProfiledContainer(std::unique_ptr<Container> Inner);

  DsKind kind() const override { return Inner->kind(); }

  ds::OpResult insert(ds::Key K) override { return Inner->insert(K); }
  ds::OpResult insertAt(uint64_t Pos, ds::Key K) override {
    return Inner->insertAt(Pos, K);
  }
  ds::OpResult pushFront(ds::Key K) override { return Inner->pushFront(K); }
  ds::OpResult erase(ds::Key K) override { return Inner->erase(K); }
  ds::OpResult eraseAt(uint64_t Pos) override { return Inner->eraseAt(Pos); }
  ds::OpResult find(ds::Key K) override { return Inner->find(K); }
  ds::OpResult iterate(uint64_t Steps) override {
    return Inner->iterate(Steps);
  }

  uint64_t size() const override { return Inner->size(); }
  void clear() override { Inner->clear(); }
  uint64_t simLiveBytes() const override { return Inner->simLiveBytes(); }
  uint64_t simPeakBytes() const override { return Inner->simPeakBytes(); }
  uint64_t resizeCount() const override { return Inner->resizeCount(); }
  uint32_t elementBytes() const override { return Inner->elementBytes(); }

  /// Replaces the wrapper's own accumulator — callers that want raw op
  /// records instead of SoftwareFeatures.
  void setOpListener(OpListener *Listener) override {
    Inner->setOpListener(Listener);
  }

  /// The software features recorded so far, with the container-derived
  /// fields (resizes, peak memory, element size) refreshed.
  const SoftwareFeatures &features() const;

  /// Clears recorded features (not the container contents).
  void resetFeatures();

private:
  std::unique_ptr<Container> Inner;
  /// Mutable: features() is logically const but must refresh derived
  /// fields.
  mutable SwAccumulator Accum;
};

} // namespace brainy

#endif // BRAINY_PROFILE_PROFILEDCONTAINER_H
