//===- profile/TraceFile.h - Training-set trace persistence ----*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase II writes each (features, best data structure) training example to
/// a per-model training-set file ("the profiling data structures record the
/// features in a designated training set file according to the type of the
/// data structure", Section 4.3). Format: one example per line,
/// `label<TAB>seed<TAB>feature0<TAB>...`.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_PROFILE_TRACEFILE_H
#define BRAINY_PROFILE_TRACEFILE_H

#include "adt/DsKind.h"
#include "profile/Features.h"

#include <string>
#include <vector>

namespace brainy {

/// One training example: a profiled run of the *original* data structure
/// and the measured-best replacement.
struct TrainExample {
  FeatureVector Features;
  DsKind BestDs = DsKind::Vector;
  uint64_t Seed = 0;
};

/// Serialises \p Examples to \p Path atomically (writeFileAtomic).
/// Returns false on I/O failure.
bool writeTrainingSet(const std::string &Path,
                      const std::vector<TrainExample> &Examples);

/// Appends \p Examples parsed from \p Path. Returns false on I/O or parse
/// failure (examples parsed before the failure are kept).
bool readTrainingSet(const std::string &Path,
                     std::vector<TrainExample> &Examples);

/// In-memory round trip used by tests and model persistence.
std::string trainingSetToString(const std::vector<TrainExample> &Examples);
bool trainingSetFromString(const std::string &Text,
                           std::vector<TrainExample> &Examples);

} // namespace brainy

#endif // BRAINY_PROFILE_TRACEFILE_H
