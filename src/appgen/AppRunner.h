//===- appgen/AppRunner.h - Synthetic-application execution ----*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a seed-derived synthetic application (the paper's
/// function-dispatch loop, Section 4.2) against any container kind on any
/// simulated machine. The random streams depend only on the seed, so the
/// *same* application behaviour replays against every replacement
/// candidate — "the behavior of the synthetic applications is exactly same,
/// i.e., the only difference is that they have a different data structure".
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_APPGEN_APPRUNNER_H
#define BRAINY_APPGEN_APPRUNNER_H

#include "appgen/AppSpec.h"
#include "machine/MachineModel.h"
#include "profile/Features.h"

#include "adt/DsKind.h"

namespace brainy {

/// Result of one timing (Phase I) run.
struct RunOutcome {
  double Cycles = 0;
  HardwareCounters Hw;
  uint64_t FinalSize = 0;
  uint64_t PeakSimBytes = 0;
  /// False when a CycleCap stopped the run part-way: every field then
  /// covers only the calls made, and Cycles is a lower bound on the full
  /// run's.
  bool Complete = true;
};

/// A running best to race against (Phase I, footnote 2). Cycle counts
/// only grow during a run, so once a partial count passes rulesOut() the
/// candidate can neither win nor come within Margin of Best.
struct CycleCap {
  double Best = 0;
  double Margin = 0;

  /// Footnote 2's test: \p Cycles is slower than Best by at least Margin.
  /// With a Best of 0, any positive count passes.
  bool rulesOut(double Cycles) const {
    return Cycles > Best && (Cycles - Best) / Best >= Margin;
  }
};

/// Result of one instrumented (Phase II) run.
struct ProfiledOutcome {
  RunOutcome Run;
  SoftwareFeatures Sw;
  FeatureVector Features;
};

/// Observes the dispatch loop's interface calls — what a tool that
/// instruments only the *original* data structure can see (used by the
/// Perflint baseline, which accumulates asymptotic costs per call).
class OpObserver {
public:
  virtual ~OpObserver();

  /// Called before each dispatch-loop interface call.
  /// \p SizeBefore the container's element count before the call.
  /// \p Arg the iteration step count for AppOp::Iterate, 0 otherwise.
  virtual void onOp(AppOp Op, uint64_t SizeBefore, uint64_t Arg) = 0;
};

/// Runs \p Spec on a container of \p Kind under \p Machine; fast path used
/// by Phase I to rank candidates by cycles. \p Observer, when non-null,
/// sees every dispatch-loop call. With a \p Cap, the cycles the model has
/// already drained are compared against it between interface calls (never
/// forcing a drain), and the run stops, Complete = false, once the cap
/// rules it out; a cap that never fires changes nothing.
RunOutcome runApp(const AppSpec &Spec, DsKind Kind,
                  const MachineConfig &Machine,
                  OpObserver *Observer = nullptr,
                  const CycleCap *Cap = nullptr);

/// Runs \p Spec with the profiling wrapper, producing the feature vector of
/// the run (Phase II, and the advisor's input for unseen apps).
ProfiledOutcome runAppProfiled(const AppSpec &Spec, DsKind Kind,
                               const MachineConfig &Machine,
                               OpObserver *Observer = nullptr);

} // namespace brainy

#endif // BRAINY_APPGEN_APPRUNNER_H
