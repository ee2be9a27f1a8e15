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

#include <array>
#include <cassert>
#include <cstdint>

namespace brainy {

/// Identifies a static conditional-branch site inside a container
/// implementation. Sites are stable small integers so a bimodal predictor
/// table can be indexed by them, mirroring per-PC prediction.
enum class BranchSite : uint32_t {
  VectorResizeCheck,   ///< capacity check on vector/deque insertion
  VectorShiftLoop,     ///< element-move loop bound on mid insertion/erase
  ListWalkLoop,        ///< node-walk loop continuation
  TreeCompareLeft,     ///< BST descent: go left?
  TreeRebalance,       ///< rotation-needed check (RB recolour / AVL rotate)
  HashBucketWalk,      ///< chained-bucket walk continuation
  HashResizeCheck,     ///< load-factor check on hash insertion
  SearchHit,           ///< did the current element match the probe key?
  IterContinue,        ///< generic iteration continuation
  NumSites
};

/// Bimodal 2-bit predictor with one counter per BranchSite.
class BranchPredictor {
public:
  BranchPredictor() { reset(); }

  /// Predicts, updates the counter with the actual \p Taken outcome, and
  /// returns true when the prediction was wrong. Inline: this runs once per
  /// container branch event, inside MachineModel::onBranch.
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
