//===- core/MeasurementStore.h - On-disk measurement cache -----*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistence for the MeasurementCache (DESIGN.md §12): Phase I cycle
/// measurements are pure functions of (generator config, machine, seed,
/// kind), so a finished run's cache can be written to disk and reloaded by
/// any later run with the same config and machine — repeated trainings,
/// --jobs/--workers variants, and CI reruns then skip Phase I simulation
/// entirely and still produce byte-identical bundles.
///
/// File format (`brainy-mcache v2`), a support/FramedFile frame like the
/// model bundle:
///
///   brainy-mcache v2
///   machine <name>
///   fingerprint <16 hex digits>
///   records <count>
///   payload <bytes> crc32 <8 hex digits>
///   <seed> <mask> <bound> <cycles...>  one line per record, seed-sorted
///
/// <mask> has one bit per DsKind with a value, and the values follow in
/// kind order. <bound>, a subset of <mask>, marks the values that are
/// lower bounds from runs Phase I's bounded race stopped early; the rest
/// are exact. A `brainy-mcache v1` file (records `<seed> <mask>
/// <cycles...>`, no bounds) still loads, every value exact, and is saved
/// back as v2.
///
/// The fingerprint is FNV-1a-64 over every MachineConfig and AppConfig
/// parameter that a measurement depends on, doubles rendered as %a hex
/// floats so the hash sees exact bit patterns. A mismatch (changed
/// generator knobs, edited machine preset) invalidates the whole file —
/// stale measurements must never leak into a differently-configured run.
/// Cycle values are %a hex floats too: save/load round-trips bit-exactly,
/// which the warm-run byte-identical-bundle guarantee rests on.
///
/// Reads and atomic writes go through support/FramedFile, so a crashed
/// save never leaves a torn cache and `io` faults reach this store too.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CORE_MEASUREMENTSTORE_H
#define BRAINY_CORE_MEASUREMENTSTORE_H

#include "appgen/AppConfig.h"
#include "core/MeasurementCache.h"
#include "machine/MachineModel.h"
#include "support/Error.h"

#include <string>

namespace brainy {

/// The `fingerprint` header field: 16 hex digits.
std::string fingerprintField(uint64_t Fingerprint);

/// FNV-1a-64 over the measurement-relevant parameters of \p Gen and
/// \p Machine (all generator knobs, all machine-model knobs; doubles
/// hashed as %a text). Two configurations with equal fingerprints produce
/// identical measurements for every (seed, kind).
uint64_t measurementFingerprint(const AppConfig &Gen,
                                const MachineConfig &Machine);

/// Serialises every record of \p Cache (seed-sorted) for \p Gen/\p Machine.
std::string measurementsToString(const MeasurementCache &Cache,
                                 const AppConfig &Gen,
                                 const MachineConfig &Machine);

/// Atomically writes \p Cache to \p Path (temp file + rename).
Error saveMeasurements(const std::string &Path, const MeasurementCache &Cache,
                       const AppConfig &Gen, const MachineConfig &Machine);

/// Parses \p Text and restores its records into \p Cache (uncounted: a
/// restored record is not a fresh measurement). Returns the record count.
/// Validation failures — bad magic/version/checksum, truncation, machine
/// or fingerprint mismatch — leave \p Cache untouched.
Expected<size_t> parseMeasurements(const std::string &Text,
                                   MeasurementCache &Cache,
                                   const AppConfig &Gen,
                                   const MachineConfig &Machine);

/// Reads \p Path into \p Cache. A missing file comes back as a plain
/// IoError with untouched \p Cache — the expected cold-start case, which
/// callers treat as "0 records loaded" without a diagnostic.
Expected<size_t> loadMeasurements(const std::string &Path,
                                  MeasurementCache &Cache,
                                  const AppConfig &Gen,
                                  const MachineConfig &Machine);

} // namespace brainy

#endif // BRAINY_CORE_MEASUREMENTSTORE_H
