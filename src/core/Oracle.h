//===- core/Oracle.h - Exhaustive best-DS measurement ----------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Oracle of the paper's evaluation: run the same application on every
/// legal candidate and take the fastest ("the ideal data structure
/// selection (Oracle) ... empirically determined across program inputs on
/// each microarchitecture", Section 6.2). Also the measurement step of
/// Phase I (Algorithm 1), including the 5% winner margin of footnote 2.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CORE_ORACLE_H
#define BRAINY_CORE_ORACLE_H

#include "appgen/AppRunner.h"

#include <array>
#include <cassert>
#include <cstddef>
#include <vector>

namespace brainy {

/// Outcome of racing one application across candidate containers.
struct RaceResult {
  DsKind Best = DsKind::Vector;
  /// Cycles per raced kind (0 for kinds not raced).
  std::array<double, NumDsKinds> Cycles{};
  /// (secondBest - best) / best; 0 when fewer than two candidates.
  double Margin = 0;

  double cyclesOf(DsKind Kind) const {
    return Cycles[static_cast<unsigned>(Kind)];
  }
};

/// Races \p Candidates, measuring each once, in order, through
/// \p CyclesOf(DsKind) -> double: the one copy of footnote 2's rule, shared
/// by the Oracle, Phase I and the case studies. The fastest candidate wins
/// and ties keep the earliest. The margin is (secondBest - best) / best,
/// and 0 with a single candidate or a best of 0. \p Candidates must be
/// non-empty.
template <typename CyclesFn>
RaceResult raceWith(const std::vector<DsKind> &Candidates,
                    CyclesFn &&CyclesOf) {
  assert(!Candidates.empty() && "racing requires at least one candidate");
  RaceResult Out;
  Out.Best = Candidates.front();
  double BestCycles = CyclesOf(Out.Best);
  Out.Cycles[static_cast<unsigned>(Out.Best)] = BestCycles;
  double Second = 0;
  bool HaveSecond = false;
  for (size_t I = 1, E = Candidates.size(); I != E; ++I) {
    DsKind Kind = Candidates[I];
    double C = CyclesOf(Kind);
    Out.Cycles[static_cast<unsigned>(Kind)] = C;
    if (C < BestCycles) {
      Second = BestCycles;
      HaveSecond = true;
      BestCycles = C;
      Out.Best = Kind;
    } else if (!HaveSecond || C < Second) {
      Second = C;
      HaveSecond = true;
    }
  }
  if (HaveSecond && BestCycles > 0)
    Out.Margin = (Second - BestCycles) / BestCycles;
  return Out;
}

/// Runs \p Spec on every kind in \p Candidates under \p Machine and ranks
/// them by simulated cycles. \p Candidates must be non-empty.
RaceResult raceCandidates(const AppSpec &Spec,
                          const std::vector<DsKind> &Candidates,
                          const MachineConfig &Machine);

/// Convenience: the measured-best legal replacement for \p Spec's app when
/// its original structure is \p Original (honours the app's
/// order-obliviousness).
RaceResult oracleBest(const AppSpec &Spec, DsKind Original,
                      const MachineConfig &Machine);

} // namespace brainy

#endif // BRAINY_CORE_ORACLE_H
