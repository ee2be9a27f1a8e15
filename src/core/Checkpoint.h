//===- core/Checkpoint.h - Resumable Phase I checkpoints -------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistence for the Phase I ordered merge (DESIGN.md §13): as the
/// merged prefix grows, the merge's entire state — the per-family
/// PhaseOneResults plus the offset of the next unmerged seed — is written
/// to a checkpoint file, so a coordinator killed mid-run resumes from the
/// last saved offset and still emits a byte-identical bundle. The
/// win-count array is not stored: every recorded (seed, bestDS) pair
/// incremented it exactly once, so it is rebuilt from the pairs on load.
///
/// File format (`brainy-ckpt v1`), a support/FramedFile frame like the
/// model bundle and the measurement cache:
///
///   brainy-ckpt v1
///   machine <name>
///   fingerprint <16 hex digits>
///   next <offset> stopped <0|1>
///   payload <bytes> crc32 <8 hex digits>
///   family <m> scanned <n> rejects <n> pairs <n> skips <n>
///   pair <seed> <dsKind>                     seed-ascending
///   skip <seed>                              seed-ascending
///   ...
///
/// The fingerprint is FNV-1a-64 over everything a merge decision
/// depends on: the measurement fingerprint (generator config + machine),
/// the Phase I knobs (FirstSeed, TargetPerDs, WinnerMargin, EvalRetries,
/// ExcludeSeeds), and the model set being trained. MaxSeeds is
/// deliberately excluded: the ordered merge consumes seeds sequentially,
/// so a checkpoint taken at any offset is valid for any seed budget —
/// which is also what lets tests simulate a mid-run kill by capping
/// MaxSeeds and resuming with the full budget.
///
/// Any validation failure — bad magic/version/CRC, truncation, machine or
/// fingerprint mismatch, malformed or out-of-order records — rejects the
/// whole file and the caller cold-starts. A checkpoint can be stale or
/// absent; it can never make a bundle wrong.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CORE_CHECKPOINT_H
#define BRAINY_CORE_CHECKPOINT_H

#include "core/TrainingFramework.h"
#include "support/Error.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace brainy {

/// The Phase I merge's resumable state: results so far, the offset
/// (relative to TrainOptions::FirstSeed) of the first unmerged seed, and
/// whether the loop had already stopped (every family full).
struct TrainCheckpoint {
  uint64_t NextOffset = 0;
  bool Stopped = false;
  std::array<PhaseOneResult, NumModelKinds> Results;
};

/// FNV-1a-64 over every knob a Phase I merge decision depends on (see
/// file comment; MaxSeeds deliberately excluded). \p Models /
/// \p CountUnmatchedSeeds identify the phaseOneImpl variant, so a
/// phaseOneAll checkpoint cannot resume a single-family phaseOne run.
uint64_t checkpointFingerprint(const TrainOptions &Options,
                               const MachineConfig &Machine,
                               const std::vector<ModelKind> &Models,
                               bool CountUnmatchedSeeds);

/// Serialises \p Ck under \p Fingerprint for \p MachineName.
std::string checkpointToString(const TrainCheckpoint &Ck, uint64_t Fingerprint,
                               const std::string &MachineName);

/// Atomically writes \p Ck to \p Path (support/FramedFile's temp file +
/// rename). A failed save costs resumability, never correctness —
/// callers log and continue.
Error saveCheckpoint(const std::string &Path, const TrainCheckpoint &Ck,
                     uint64_t Fingerprint, const std::string &MachineName);

/// Parses \p Text, validating everything before returning a checkpoint.
Expected<TrainCheckpoint> parseCheckpoint(const std::string &Text,
                                          uint64_t Fingerprint,
                                          const std::string &MachineName);

/// Reads \p Path. A missing file comes back as a plain IoError — the
/// expected cold-start case, which callers treat quietly.
Expected<TrainCheckpoint> loadCheckpoint(const std::string &Path,
                                         uint64_t Fingerprint,
                                         const std::string &MachineName);

} // namespace brainy

#endif // BRAINY_CORE_CHECKPOINT_H
