//===- workloads/CaseStudy.cpp --------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "workloads/CaseStudy.h"

#include "adt/Container.h"

using namespace brainy;

CaseStudy::~CaseStudy() = default;

WorkloadRun CaseStudy::run(DsKind Kind, unsigned Input,
                           const MachineConfig &Machine,
                           OpObserver *Observer) const {
  MachineModel Model(Machine);
  std::unique_ptr<Container> C = makeContainer(Kind, elementBytes(), &Model);
  ObservedOps Ops(*C, Observer);
  drive(Ops, Input);

  WorkloadRun Out;
  Out.Run.Hw = Model.counters();
  Out.Run.Cycles = Out.Run.Hw.Cycles;
  Out.Run.FinalSize = C->size();
  Out.Run.PeakSimBytes = C->simPeakBytes();
  return Out;
}

WorkloadRun CaseStudy::runProfiled(unsigned Input,
                                   const MachineConfig &Machine,
                                   OpObserver *Observer) const {
  MachineModel Model(Machine);
  ProfiledContainer C(makeContainer(original(), elementBytes(), &Model));
  ObservedOps Ops(C, Observer);
  drive(Ops, Input);

  WorkloadRun Out;
  Out.Run.Hw = Model.counters();
  Out.Run.Cycles = Out.Run.Hw.Cycles;
  Out.Run.FinalSize = C.size();
  Out.Run.PeakSimBytes = C.simPeakBytes();
  Out.Sw = C.features();
  Out.Features = extractFeatures(Out.Sw, Out.Run.Hw, Machine.L1.BlockBytes);
  return Out;
}

RaceResult CaseStudy::race(unsigned Input,
                           const MachineConfig &Machine) const {
  return raceWith(candidates(), [&](DsKind Kind) {
    return run(Kind, Input, Machine).Run.Cycles;
  });
}

DsKind brainy::asMapVariant(DsKind Kind, bool MapUsage) {
  if (!MapUsage)
    return Kind;
  switch (Kind) {
  case DsKind::Set:
    return DsKind::Map;
  case DsKind::AvlSet:
    return DsKind::AvlMap;
  case DsKind::HashSet:
    return DsKind::HashMap;
  default:
    return Kind;
  }
}

std::vector<std::unique_ptr<CaseStudy>> brainy::allCaseStudies() {
  std::vector<std::unique_ptr<CaseStudy>> Studies;
  Studies.push_back(makeXalanCache());
  Studies.push_back(makeChordSim());
  Studies.push_back(makeRelipmoC());
  Studies.push_back(makeRaytrace());
  return Studies;
}
