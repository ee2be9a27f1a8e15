//===- core/Oracle.cpp ----------------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "core/Oracle.h"

using namespace brainy;

RaceResult brainy::raceCandidates(const AppSpec &Spec,
                                  const std::vector<DsKind> &Candidates,
                                  const MachineConfig &Machine) {
  return raceWith(Candidates, [&](DsKind Kind) {
    return runApp(Spec, Kind, Machine).Cycles;
  });
}

RaceResult brainy::oracleBest(const AppSpec &Spec, DsKind Original,
                              const MachineConfig &Machine) {
  return raceCandidates(
      Spec, replacementCandidates(Original, Spec.OrderOblivious), Machine);
}
