//===- profile/SwAccumulator.h - Op-record feature accumulator -*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// OpListener that folds ContainerOp records into SoftwareFeatures — the
/// devirtualized replacement for ProfiledContainer's per-call counting
/// wrapper. Containers report one op per interface call straight to this
/// accumulator, which also takes the per-call size sample.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_PROFILE_SWACCUMULATOR_H
#define BRAINY_PROFILE_SWACCUMULATOR_H

#include "containers/ContainerBase.h"
#include "profile/Features.h"

namespace brainy {

/// Accumulates one SoftwareFeatures record from a stream of op records.
/// The derived fields the old wrapper refreshed per call (Resizes,
/// PeakSimBytes, ElementBytes) are not op-stream data; the owner refreshes
/// them from the container at read time, which yields the same final
/// values.
class SwAccumulator final : public OpListener {
public:
  SoftwareFeatures Sw;

  void onOp(ContainerOp Op, bool Found, uint64_t Cost,
            uint64_t SizeAfter) override {
    switch (Op) {
    case ContainerOp::Insert:
      ++Sw.InsertCount;
      Sw.InsertCost += Cost;
      break;
    case ContainerOp::InsertAt:
      ++Sw.InsertAtCount;
      Sw.InsertCost += Cost;
      break;
    case ContainerOp::PushFront:
      ++Sw.PushFrontCount;
      Sw.InsertCost += Cost;
      break;
    case ContainerOp::Erase:
      ++Sw.EraseCount;
      Sw.EraseCost += Cost;
      if (Found)
        ++Sw.EraseHits;
      break;
    case ContainerOp::EraseAt:
      ++Sw.EraseAtCount;
      Sw.EraseCost += Cost;
      if (Found)
        ++Sw.EraseHits;
      break;
    case ContainerOp::Find:
      ++Sw.FindCount;
      Sw.FindCost += Cost;
      if (Found)
        ++Sw.FindHits;
      break;
    case ContainerOp::Iterate:
      ++Sw.IterateCount;
      Sw.IterateSteps += Cost;
      break;
    case ContainerOp::NumOps:
      break;
    }
    Sw.SizeStats.add(static_cast<double>(SizeAfter));
  }
};

} // namespace brainy

#endif // BRAINY_PROFILE_SWACCUMULATOR_H
