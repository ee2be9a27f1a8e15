//===- machine/BranchPredictor.h - Bimodal branch predictor ----*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-site bimodal predictor with 2-bit saturating counters. The paper's
/// key non-intuitive finding (Section 5.1, Figure 6) is that conditional
/// branch misprediction rate predicts data-structure exceptional behaviour —
/// e.g. the rarely-taken "resize" branch in vector::insert mispredicts
/// exactly when resizes happen. A bimodal counter reproduces that effect:
/// a strongly not-taken counter mispredicts on each rare taken resolution.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_MACHINE_BRANCHPREDICTOR_H
#define BRAINY_MACHINE_BRANCHPREDICTOR_H

#include "machine/EventBuffer.h"

#include <array>
#include <cassert>
#include <cstdint>

namespace brainy {

/// Bimodal 2-bit predictor with one counter per BranchSite.
class BranchPredictor {
public:
  BranchPredictor() { reset(); }

  /// Predicts, updates the counter with the actual \p Taken outcome, and
  /// returns true when the prediction was wrong. Inline: this runs once per
  /// decoded branch record in MachineModel's batch-drain kernel.
  bool observe(BranchSite Site, bool Taken) {
    auto Index = static_cast<uint32_t>(Site);
    assert(Index < NumSites && "invalid branch site");
    uint8_t &Counter = Counters[Index];
    bool Predicted = Counter >= 2;
    bool Wrong = Predicted != Taken;

    ++Branches;
    if (Wrong) {
      ++Mispredicts;
      ++PerSiteMiss[Index];
    }
    if (Taken) {
      if (Counter < 3)
        ++Counter;
    } else {
      if (Counter > 0)
        --Counter;
    }
    return Wrong;
  }

  uint64_t branches() const { return Branches; }
  uint64_t mispredicts() const { return Mispredicts; }
  double mispredictRate() const {
    return Branches
               ? static_cast<double>(Mispredicts) / static_cast<double>(Branches)
               : 0.0;
  }

  /// Per-site misprediction count, for diagnostics and tests.
  uint64_t mispredictsAt(BranchSite Site) const {
    return PerSiteMiss[static_cast<uint32_t>(Site)];
  }

  void reset();

private:
  static constexpr uint32_t NumSites =
      static_cast<uint32_t>(BranchSite::NumSites);

  std::array<uint8_t, NumSites> Counters;  ///< 0..3; >=2 predicts taken
  std::array<uint64_t, NumSites> PerSiteMiss;
  uint64_t Branches = 0;
  uint64_t Mispredicts = 0;
};

} // namespace brainy

#endif // BRAINY_MACHINE_BRANCHPREDICTOR_H
