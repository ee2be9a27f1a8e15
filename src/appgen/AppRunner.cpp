//===- appgen/AppRunner.cpp -----------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "appgen/AppRunner.h"

#include "adt/Container.h"
#include "profile/SwAccumulator.h"
#include "support/Rng.h"

#include <cmath>
#include <memory>
#include <vector>

using namespace brainy;

namespace {

/// The dispatch loop. All RNG consumption is unconditional on container
/// state, so the op/value streams are identical for every candidate kind.
class Driver {
public:
  Driver(const AppSpec &Spec, Container &C, OpObserver *Observer,
         const MachineModel &Model, const CycleCap *Cap)
      : Spec(Spec), C(C), Observer(Observer), Model(Model), Cap(Cap) {
    // Separate streams so future spec-derivation changes cannot shift runs.
    OpStream.reseed(Spec.Seed ^ 0xa24baed4963ee407ULL);
    ValStream.reseed(Spec.Seed ^ 0x9fb21c651e98df25ULL);
  }

  /// Runs the app; false when the cap stopped it part-way.
  bool run() {
    if (!prepopulate())
      return false;
    std::vector<double> Weights(Spec.OpWeights.begin(), Spec.OpWeights.end());
    for (uint64_t I = 0; I != Spec.TotalCalls; ++I) {
      if (ruledOut())
        return false;
      auto Op = static_cast<AppOp>(OpStream.nextWeighted(Weights));
      // Draw iterate bursts up front so observers see the burst length.
      PendingIterSteps = 1 + ValStream.nextBelow(Spec.MaxIterSteps);
      dispatch(Op);
    }
    return true;
  }

private:
  /// The between-calls cap check: the model's exact count so far, one
  /// load and a compare.
  bool ruledOut() const { return Cap && Cap->rulesOut(Model.cycles()); }

  bool prepopulate() {
    for (uint64_t I = 0; I != Spec.InitialSize; ++I) {
      if (ruledOut())
        return false;
      ds::Key K = ValStream.nextInRange(0, Spec.MaxInsertVal);
      if (Spec.ScrambledBuild) {
        // Spatially sorted construction: positional inserts scramble the
        // allocation order of node-based structures relative to traversal
        // order (and cost sequences their shifts), like a scene builder.
        double U = ValStream.nextDouble();
        if (Observer)
          Observer->onOp(AppOp::InsertAt, C.size(), 0);
        C.insertAt(static_cast<uint64_t>(
                       U * static_cast<double>(C.size() + 1)),
                   K);
      } else {
        if (Observer)
          Observer->onOp(AppOp::Insert, C.size(), 0);
        C.insert(K);
      }
      InsertLog.push_back(K);
    }
    return true;
  }

  /// A previously inserted value: either within a hard front window
  /// (FIFO reuse) or biased by FrontBias toward early insertions (how
  /// early a vector scan finds it).
  ds::Key pickExisting() {
    double U = ValStream.nextDouble();
    if (InsertLog.empty())
      return ValStream.nextInRange(0, Spec.MaxSearchVal);
    uint64_t Index;
    if (Spec.HitWindow) {
      uint64_t Window = Spec.HitWindow < InsertLog.size()
                            ? Spec.HitWindow
                            : InsertLog.size();
      Index = static_cast<uint64_t>(U * static_cast<double>(Window));
      if (Index >= Window)
        Index = Window - 1;
    } else {
      double Skewed = std::pow(U, Spec.FrontBias);
      Index = static_cast<uint64_t>(Skewed *
                                    static_cast<double>(InsertLog.size()));
      if (Index >= InsertLog.size())
        Index = InsertLog.size() - 1;
    }
    return InsertLog[Index];
  }

  ds::Key pickTarget(int64_t UniformMax) {
    bool WantHit = ValStream.nextBool(Spec.HitBias);
    ds::Key Existing = pickExisting();
    ds::Key Uniform = ValStream.nextInRange(0, UniformMax);
    return WantHit ? Existing : Uniform;
  }

  void dispatch(AppOp Op) {
    if (Observer) {
      uint64_t Arg = 0;
      if (Op == AppOp::Iterate)
        Arg = PendingIterSteps;
      Observer->onOp(Op, C.size(), Arg);
    }
    switch (Op) {
    case AppOp::Insert: {
      ds::Key K = ValStream.nextInRange(0, Spec.MaxInsertVal);
      C.insert(K);
      InsertLog.push_back(K);
      return;
    }
    case AppOp::InsertAt: {
      double U = ValStream.nextDouble();
      ds::Key K = ValStream.nextInRange(0, Spec.MaxInsertVal);
      auto Pos =
          static_cast<uint64_t>(U * static_cast<double>(C.size() + 1));
      C.insertAt(Pos, K);
      InsertLog.push_back(K);
      return;
    }
    case AppOp::PushFront: {
      ds::Key K = ValStream.nextInRange(0, Spec.MaxInsertVal);
      C.pushFront(K);
      InsertLog.push_back(K);
      return;
    }
    case AppOp::Erase:
      C.erase(pickTarget(Spec.MaxRemoveVal));
      return;
    case AppOp::EraseAt: {
      double U = ValStream.nextDouble();
      uint64_t Size = C.size();
      if (Size)
        C.eraseAt(static_cast<uint64_t>(U * static_cast<double>(Size)));
      return;
    }
    case AppOp::Find:
      C.find(pickTarget(Spec.MaxSearchVal));
      return;
    case AppOp::Iterate:
      C.iterate(PendingIterSteps);
      return;
    case AppOp::NumOps:
      break;
    }
  }

  const AppSpec &Spec;
  Container &C;
  OpObserver *Observer;
  const MachineModel &Model;
  const CycleCap *Cap;
  Rng OpStream;
  Rng ValStream;
  std::vector<ds::Key> InsertLog;
  uint64_t PendingIterSteps = 1;
};

} // namespace

OpObserver::~OpObserver() = default;

RunOutcome brainy::runApp(const AppSpec &Spec, DsKind Kind,
                          const MachineConfig &Machine,
                          OpObserver *Observer, const CycleCap *Cap) {
  MachineModel Model(Machine);
  std::unique_ptr<Container> C = makeContainer(Kind, Spec.ElemBytes, &Model);
  Driver D(Spec, *C, Observer, Model, Cap);

  RunOutcome Out;
  Out.Complete = D.run();
  Out.Hw = Model.counters();
  Out.Cycles = Out.Hw.Cycles;
  Out.FinalSize = C->size();
  Out.PeakSimBytes = C->simPeakBytes();
  return Out;
}

ProfiledOutcome brainy::runAppProfiled(const AppSpec &Spec, DsKind Kind,
                                       const MachineConfig &Machine,
                                       OpObserver *Observer) {
  // No forwarding wrapper: the container reports one op per interface
  // call straight to the accumulator, and its hardware events are exactly
  // the unprofiled run's.
  MachineModel Model(Machine);
  std::unique_ptr<Container> C = makeContainer(Kind, Spec.ElemBytes, &Model);
  SwAccumulator Accum;
  Accum.Sw.ElementBytes = C->elementBytes();
  C->setOpListener(&Accum);
  Driver D(Spec, *C, Observer, Model, /*Cap=*/nullptr);
  D.run();

  ProfiledOutcome Out;
  Out.Run.Hw = Model.counters();
  Out.Run.Cycles = Out.Run.Hw.Cycles;
  Out.Run.FinalSize = C->size();
  Out.Run.PeakSimBytes = C->simPeakBytes();
  Accum.Sw.Resizes = C->resizeCount();
  Accum.Sw.PeakSimBytes = C->simPeakBytes();
  Accum.Sw.ElementBytes = C->elementBytes();
  Out.Sw = Accum.Sw;
  Out.Features =
      extractFeatures(Out.Sw, Out.Run.Hw, Machine.L1.BlockBytes);
  return Out;
}
