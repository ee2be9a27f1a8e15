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
/// Phase I (Algorithm 1), including the 5% winner margin of footnote 2,
/// which Phase I alone races bounded: it stops simulating a candidate
/// once its partial count has ruled it out.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CORE_ORACLE_H
#define BRAINY_CORE_ORACLE_H

#include "appgen/AppRunner.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <vector>

namespace brainy {

/// Outcome of racing one application across candidate containers.
struct RaceResult {
  DsKind Best = DsKind::Vector;
  /// Cycles per raced kind (0 for kinds not raced). In a bounded race, a
  /// kind its cap ruled out holds a lower bound.
  std::array<double, NumDsKinds> Cycles{};
  /// (secondBest - best) / best; 0 when fewer than two candidates. A
  /// bounded race reports min(margin, its WinnerMargin).
  double Margin = 0;

  double cyclesOf(DsKind Kind) const {
    return Cycles[static_cast<unsigned>(Kind)];
  }
};

namespace detail {

/// Footnote 2's rule over a race's measured cycles, applied in Table-1
/// order: the fastest candidate wins and ties keep the earliest; the
/// margin is (secondBest - best) / best, and 0 with a single candidate or
/// a best of 0.
inline void decideRace(const std::vector<DsKind> &Candidates,
                       RaceResult &Out) {
  Out.Best = Candidates.front();
  double BestCycles = Out.cyclesOf(Out.Best);
  double Second = 0;
  bool HaveSecond = false;
  for (size_t I = 1, E = Candidates.size(); I != E; ++I) {
    DsKind Kind = Candidates[I];
    double C = Out.cyclesOf(Kind);
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
}

/// Simulation cost rank of a kind on generated apps, cheapest first:
/// uncapped core2 runs of seeds 1-400 average 0.45 ms for the hash kinds,
/// 1.8 for the tree kinds, 4.5 for deque, 5.9 for list and 8.4 for vector
/// (Release, GCC 12.2). Only the bounded race's speed depends on it.
inline unsigned raceCost(DsKind Kind) {
  switch (Kind) {
  case DsKind::HashSet:
  case DsKind::HashMap:
    return 0;
  case DsKind::Set:
  case DsKind::AvlSet:
  case DsKind::Map:
  case DsKind::AvlMap:
    return 1;
  case DsKind::Deque:
    return 2;
  case DsKind::List:
    return 3;
  case DsKind::Vector:
    return 4;
  }
  return 5;
}

} // namespace detail

/// Races \p Candidates, measuring each once, in order, through
/// \p CyclesOf(DsKind) -> double, and decides the race by footnote 2's
/// rule (detail::decideRace), the one copy shared by the Oracle, Phase I
/// and the case studies. \p Candidates must be non-empty.
template <typename CyclesFn>
RaceResult raceWith(const std::vector<DsKind> &Candidates,
                    CyclesFn &&CyclesOf) {
  assert(!Candidates.empty() && "racing requires at least one candidate");
  RaceResult Out;
  for (DsKind Kind : Candidates)
    Out.Cycles[static_cast<unsigned>(Kind)] = CyclesOf(Kind);
  detail::decideRace(Candidates, Out);
  return Out;
}

/// Phase I's bounded race: the same Best as raceWith(Candidates, CyclesOf),
/// and its Margin clamped at \p WinnerMargin, from less simulation.
/// Candidates are measured cheapest kind first (detail::raceCost), each
/// after the first under a CycleCap{running best, WinnerMargin} through
/// \p CyclesUnder(DsKind, const CycleCap *) -> double, which returns the
/// exact count, or a lower bound the cap rules out. The race is then
/// decided in Table-1 order. A ruled-out kind's true count exceeds the
/// final best, so it cannot win or tie; and since floating-point
/// subtraction and division are monotone, a margin set by a bound is at
/// least WinnerMargin, so below WinnerMargin the margin is exact.
/// \p Candidates must be non-empty.
template <typename CappedFn>
RaceResult raceWith(const std::vector<DsKind> &Candidates,
                    double WinnerMargin, CappedFn &&CyclesUnder) {
  assert(!Candidates.empty() && "racing requires at least one candidate");
  std::vector<DsKind> Order = Candidates;
  std::stable_sort(Order.begin(), Order.end(), [](DsKind A, DsKind B) {
    return detail::raceCost(A) < detail::raceCost(B);
  });
  RaceResult Out;
  CycleCap Cap{0, WinnerMargin};
  for (size_t I = 0, E = Order.size(); I != E; ++I) {
    double C = CyclesUnder(Order[I], I ? &Cap : nullptr);
    Out.Cycles[static_cast<unsigned>(Order[I])] = C;
    // A bound exceeds the running best, so only exact counts lower it.
    Cap.Best = I ? std::min(Cap.Best, C) : C;
  }
  detail::decideRace(Candidates, Out);
  // Past WinnerMargin the margin may come from a bound; the clamp makes
  // it a pure function of the seed whatever the cache held.
  Out.Margin = std::min(Out.Margin, WinnerMargin);
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
