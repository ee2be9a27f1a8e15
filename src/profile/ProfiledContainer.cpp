//===- profile/ProfiledContainer.cpp --------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "profile/ProfiledContainer.h"

#include <cassert>

using namespace brainy;

ProfiledContainer::ProfiledContainer(std::unique_ptr<Container> InnerArg)
    : Inner(std::move(InnerArg)) {
  assert(Inner && "ProfiledContainer requires a container");
  Accum.Sw.ElementBytes = Inner->elementBytes();
  Inner->setOpListener(&Accum);
}

const SoftwareFeatures &ProfiledContainer::features() const {
  Accum.Sw.Resizes = Inner->resizeCount();
  Accum.Sw.PeakSimBytes = Inner->simPeakBytes();
  Accum.Sw.ElementBytes = Inner->elementBytes();
  return Accum.Sw;
}

void ProfiledContainer::resetFeatures() {
  Accum.Sw = SoftwareFeatures();
  // The old wrapper's reset took one post-reset sample of the current
  // state; preserve that exactly.
  Accum.Sw.SizeStats.add(static_cast<double>(Inner->size()));
  Accum.Sw.Resizes = Inner->resizeCount();
  Accum.Sw.PeakSimBytes = Inner->simPeakBytes();
  Accum.Sw.ElementBytes = Inner->elementBytes();
}
