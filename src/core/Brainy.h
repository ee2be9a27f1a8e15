//===- core/Brainy.h - The Brainy advisor (public API) ---------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level tool: a bundle of the six per-original-DS models trained
/// for one microarchitecture, plus the advisor entry points the usage model
/// of Figure 3 describes — profile the application's containers, then ask
/// what each should be replaced with.
///
/// Typical use:
/// \code
///   TrainOptions Opts;                       // generator + ANN knobs
///   Brainy Advisor = Brainy::train(Opts, MachineConfig::core2());
///   ...
///   ProfiledContainer C(makeContainer(DsKind::Vector, 8, &Model));
///   ... run the application against C ...
///   FeatureVector F = extractFeatures(C.features(), Model.counters(), 64);
///   DsKind Better = Advisor.recommend(DsKind::Vector, C.features(), F);
/// \endcode
///
/// Persistence is hardened for the unattended install-time workflow
/// (DESIGN.md §8): bundles carry magic bytes, a format version, the
/// feature-vector width, and a CRC32 over the payload; save() is atomic
/// (temp file + rename) and load() reports a diagnosable Error instead of
/// a bare false. An advisor whose routed model is unavailable degrades to
/// "keep the original" and counts the event (strict mode throws instead).
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CORE_BRAINY_H
#define BRAINY_CORE_BRAINY_H

#include "core/BrainyModel.h"
#include "support/Error.h"

#include <array>
#include <atomic>
#include <string>

namespace brainy {

/// The trained Brainy advisor for one machine.
///
/// Concurrency (DESIGN.md §9): a trained advisor is immutable-after-
/// publish — recommend()/recommendWith() are const and safe to call from
/// any number of threads concurrently. The only mutable shared state is
/// the Fallbacks diagnostics counter, a single relaxed atomic that needs
/// no capability. The mutating APIs (train/parse/load assignment,
/// setStrict) are setup-time: they must happen-before the advisor is
/// shared, which is the same publication contract every immutable object
/// carries and is not expressible as a lock capability.
class Brainy {
public:
  /// Constructs an untrained advisor: every model predicts "keep the
  /// original" until trained or loaded.
  Brainy();

  Brainy(const Brainy &Other);
  Brainy(Brainy &&Other) noexcept;
  Brainy &operator=(const Brainy &Other);
  Brainy &operator=(Brainy &&Other) noexcept;

  /// Runs the full two-phase training framework for every model family on
  /// \p Machine. Deterministic for fixed options. When \p Phase1 is
  /// non-null it receives what the Phase I scan did.
  static Brainy train(const TrainOptions &Options,
                      const MachineConfig &Machine,
                      PhaseOneStats *Phase1 = nullptr);

  /// Loads \p Path if it holds a valid bundle trained for \p Machine with
  /// a matching tag; otherwise (missing, corrupt, version/machine/tag
  /// mismatch — logged unless simply missing) trains and saves to \p Path.
  /// \p Tag should encode whatever the caller varies (scale...).
  static Brainy trainOrLoad(const TrainOptions &Options,
                            const MachineConfig &Machine,
                            const std::string &Path, const std::string &Tag);

  /// Recommends a replacement for an \p Original structure whose run
  /// produced \p Sw / \p Features. Routes to the model family implied by
  /// the original kind and the observed order-obliviousness. If the routed
  /// model is untrained, returns \p Original (or throws ErrorException
  /// with ModelUnavailable in strict mode) and bumps fallbackCount().
  DsKind recommend(DsKind Original, const SoftwareFeatures &Sw,
                   const FeatureVector &Features) const;

  /// Lower-level entry: explicit model family and app orderedness.
  DsKind recommendWith(ModelKind Model, const FeatureVector &Features,
                       bool AppOrderOblivious) const;

  /// Batched recommendWith: one forward pass over every query routed to
  /// \p Model instead of a per-example loop (the serving hot path,
  /// DESIGN.md §15). \p Features and \p AppOrderOblivious are parallel
  /// arrays; \p Out is resized to match. Answers are bit-identical to
  /// calling recommendWith per query, including the untrained-model
  /// fallback (counted per query; strict mode throws like the scalar
  /// path would on its first query).
  void recommendBatch(ModelKind Model,
                      const std::vector<const FeatureVector *> &Features,
                      const std::vector<bool> &AppOrderOblivious,
                      std::vector<DsKind> &Out) const;

  const BrainyModel &model(ModelKind Kind) const {
    return Models[static_cast<unsigned>(Kind)];
  }
  BrainyModel &model(ModelKind Kind) {
    return Models[static_cast<unsigned>(Kind)];
  }

  const std::string &machineName() const { return MachineName; }
  const std::string &tag() const { return Tag; }

  /// How many recommend calls fell back to "keep the original" because the
  /// routed model was unavailable.
  uint64_t fallbackCount() const {
    return Fallbacks.load(std::memory_order_relaxed);
  }

  /// In strict mode an unavailable model throws instead of silently
  /// keeping the original (for tests and debugging; default off).
  void setStrict(bool Value) { Strict = Value; }
  bool strict() const { return Strict; }

  /// Whole-bundle persistence. toString emits the v2 format: a
  /// support/FramedFile frame (`brainy-bundle v2`; machine, tag, feature
  /// count and model count fields) around the six model sections.
  std::string toString() const;

  /// The bundle frame toString puts around \p Payload, the concatenated
  /// model sections — also how hand-built bundles get their header.
  static std::string frameBundle(const std::string &Machine,
                                 const std::string &Tag,
                                 const std::string &Payload);

  /// Parses and validates a v2 bundle; on any defect \p Out is left
  /// partially written but the Error tells the caller not to use it.
  static Error parse(const std::string &Text, Brainy &Out);

  /// Atomic save: writes `<Path>.tmp`, then renames over \p Path, so a
  /// crashed save never leaves a half-written bundle behind.
  Error save(const std::string &Path) const;

  /// Reads and validates \p Path.
  static Expected<Brainy> load(const std::string &Path);

  /// load() plus machine/tag validation (empty \p ExpectMachine skips the
  /// machine check).
  static Expected<Brainy> load(const std::string &Path,
                               const std::string &ExpectMachine,
                               const std::string &ExpectTag);

private:
  std::array<BrainyModel, NumModelKinds> Models;
  std::string MachineName;
  std::string Tag;
  bool Strict = false;
  /// recommend() is const and may run concurrently; the fallback counter
  /// is diagnostics-only state.
  mutable std::atomic<uint64_t> Fallbacks{0};
};

} // namespace brainy

#endif // BRAINY_CORE_BRAINY_H
