//===- core/Brainy.cpp ----------------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "core/Brainy.h"

#include "support/FramedFile.h"

#include <cstdio>

using namespace brainy;

namespace {

constexpr const char *BundleMagic = "brainy-bundle";
constexpr const char *BundleVersion = "v2";

} // namespace

Brainy::Brainy() {
  for (unsigned I = 0; I != NumModelKinds; ++I)
    Models[I] =
        BrainyModel::train(static_cast<ModelKind>(I), {}, NetConfig());
}

Brainy::Brainy(const Brainy &Other)
    : Models(Other.Models), MachineName(Other.MachineName), Tag(Other.Tag),
      Strict(Other.Strict) {
  Fallbacks.store(Other.Fallbacks.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
}

Brainy::Brainy(Brainy &&Other) noexcept
    : Models(std::move(Other.Models)),
      MachineName(std::move(Other.MachineName)), Tag(std::move(Other.Tag)),
      Strict(Other.Strict) {
  Fallbacks.store(Other.Fallbacks.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
}

Brainy &Brainy::operator=(const Brainy &Other) {
  if (this != &Other) {
    Models = Other.Models;
    MachineName = Other.MachineName;
    Tag = Other.Tag;
    Strict = Other.Strict;
    Fallbacks.store(Other.Fallbacks.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  }
  return *this;
}

Brainy &Brainy::operator=(Brainy &&Other) noexcept {
  if (this != &Other) {
    Models = std::move(Other.Models);
    MachineName = std::move(Other.MachineName);
    Tag = std::move(Other.Tag);
    Strict = Other.Strict;
    Fallbacks.store(Other.Fallbacks.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  }
  return *this;
}

Brainy Brainy::train(const TrainOptions &Options,
                     const MachineConfig &Machine, PhaseOneStats *Stats) {
  Brainy Out;
  Out.MachineName = Machine.Name;
  TrainingFramework Framework(Options, Machine);
  std::array<PhaseOneResult, NumModelKinds> Phase1 =
      Framework.phaseOneAll(Stats);
  std::array<std::vector<TrainExample>, NumModelKinds> Examples =
      Framework.phaseTwoAll(Phase1);
  // Each family trains its own seeded network, deterministic in isolation,
  // so the six fan out and the bundle is identical for any job count.
  Framework.pool().parallelFor(0, NumModelKinds, [&](size_t I) {
    Out.Models[I] = BrainyModel::train(static_cast<ModelKind>(I),
                                       Examples[I], Options.Net);
  });
  return Out;
}

Brainy Brainy::trainOrLoad(const TrainOptions &Options,
                           const MachineConfig &Machine,
                           const std::string &Path, const std::string &Tag) {
  Expected<Brainy> Cached = load(Path, Machine.Name, Tag);
  if (Cached)
    return std::move(*Cached);
  // A missing file is the expected cold-cache case; anything else is a
  // stale or corrupt bundle and deserves a diagnostic before the safe
  // fallback of retraining.
  if (Cached.error().code() != ErrCode::IoError)
    std::fprintf(stderr, "brainy: retraining: %s\n",
                 Cached.error().message().c_str());
  Brainy Fresh = train(Options, Machine);
  Fresh.Tag = Tag;
  if (Error E = Fresh.save(Path))
    std::fprintf(stderr, "brainy: could not cache bundle: %s\n",
                 E.message().c_str());
  return Fresh;
}

DsKind Brainy::recommend(DsKind Original, const SoftwareFeatures &Sw,
                         const FeatureVector &Features) const {
  bool OrderOblivious = Sw.orderOblivious();
  ModelKind Model = modelFor(Original, OrderOblivious);
  return recommendWith(Model, Features, OrderOblivious);
}

DsKind Brainy::recommendWith(ModelKind Model, const FeatureVector &Features,
                             bool AppOrderOblivious) const {
  const BrainyModel &M = model(Model);
  if (!M.trained()) {
    // Degraded mode: an unloaded or invalid family model must never steer
    // a replacement. Keep the original and count the event so operators
    // can see an advisor running on a bad bundle.
    Fallbacks.fetch_add(1, std::memory_order_relaxed);
    if (Strict)
      throw ErrorException(
          Error(ErrCode::ModelUnavailable,
                std::string("model '") + modelKindName(Model) +
                    "' is not trained"));
    return modelOriginal(Model);
  }
  return M.predict(Features, AppOrderOblivious);
}

void Brainy::recommendBatch(ModelKind Model,
                            const std::vector<const FeatureVector *> &Features,
                            const std::vector<bool> &AppOrderOblivious,
                            std::vector<DsKind> &Out) const {
  assert(Features.size() == AppOrderOblivious.size() &&
         "parallel query arrays of different length");
  Out.clear();
  Out.resize(Features.size(), modelOriginal(Model));
  if (Features.empty())
    return;
  const BrainyModel &M = model(Model);
  if (!M.trained()) {
    // Same degraded mode as the scalar path: keep the original per query
    // and count every fallback. In strict mode the scalar loop would
    // throw on its first query, having counted only that one.
    if (Strict) {
      Fallbacks.fetch_add(1, std::memory_order_relaxed);
      throw ErrorException(
          Error(ErrCode::ModelUnavailable,
                std::string("model '") + modelKindName(Model) +
                    "' is not trained"));
    }
    Fallbacks.fetch_add(Features.size(), std::memory_order_relaxed);
    return;
  }
  std::vector<std::vector<double>> Probas = M.predictProbaBatch(Features);
  for (size_t I = 0, E = Features.size(); I != E; ++I)
    Out[I] = M.selectCandidate(Probas[I], AppOrderOblivious[I]);
}

std::string Brainy::toString() const {
  std::string Payload;
  for (const BrainyModel &Model : Models)
    Payload += Model.toString();
  return frameBundle(MachineName, Tag, Payload);
}

std::string Brainy::frameBundle(const std::string &Machine,
                                const std::string &Tag,
                                const std::string &Payload) {
  return frame(BundleMagic, BundleVersion,
               {{"machine", Machine},
                {"tag", Tag},
                {"features", std::to_string(NumFeatures)},
                {"models", std::to_string(NumModelKinds)}},
               Payload);
}

Error Brainy::parse(const std::string &Text, Brainy &Out) {
  std::string FeatureField, ModelField, Payload;
  if (Error E = unframe(Text, BundleMagic, BundleVersion,
                        {{"machine", &Out.MachineName},
                         {"tag", &Out.Tag},
                         {"features", &FeatureField},
                         {"models", &ModelField}},
                        Payload))
    return E;

  unsigned Features = 0;
  if (std::sscanf(FeatureField.c_str(), "%u", &Features) != 1)
    return Error(ErrCode::BadFormat, "expected 'features <count>'");
  if (Features != NumFeatures)
    return Error(ErrCode::FeatureMismatch,
                 "bundle has " + std::to_string(Features) +
                     " features, this build expects " +
                     std::to_string(NumFeatures));

  unsigned ModelCount = 0;
  if (std::sscanf(ModelField.c_str(), "%u", &ModelCount) != 1)
    return Error(ErrCode::BadFormat, "expected 'models <count>'");
  if (ModelCount != NumModelKinds)
    return Error(ErrCode::BadFormat,
                 "bundle has " + std::to_string(ModelCount) +
                     " models, this build expects " +
                     std::to_string(NumModelKinds));

  size_t MPos = 0;
  std::array<bool, NumModelKinds> Seen{};
  for (unsigned I = 0; I != NumModelKinds; ++I) {
    size_t End = Payload.find("end-model\n", MPos);
    if (End == std::string::npos)
      return Error(ErrCode::BadFormat,
                   "model section " + std::to_string(I) +
                       " has no end-model marker");
    End += 10; // past "end-model\n"
    BrainyModel Parsed;
    if (!BrainyModel::fromString(Payload.substr(MPos, End - MPos), Parsed))
      return Error(ErrCode::BadFormat,
                   "model section " + std::to_string(I) + " is malformed");
    auto K = static_cast<unsigned>(Parsed.kind());
    if (Seen[K])
      return Error(ErrCode::BadFormat,
                   std::string("duplicate model '") +
                       modelKindName(Parsed.kind()) + "'");
    Seen[K] = true;
    Out.Models[K] = std::move(Parsed);
    MPos = End;
  }
  return Error::success();
}

Error Brainy::save(const std::string &Path) const {
  return writeFileAtomic(Path, toString());
}

Expected<Brainy> Brainy::load(const std::string &Path) {
  Expected<std::string> Text = readFile(Path);
  if (!Text)
    return Text.error();
  Brainy Out;
  if (Error E = parse(*Text, Out))
    return E.withPrefix("bundle '" + Path + "'");
  return Out;
}

Expected<Brainy> Brainy::load(const std::string &Path,
                              const std::string &ExpectMachine,
                              const std::string &ExpectTag) {
  Expected<Brainy> B = load(Path);
  if (!B)
    return B;
  if (!ExpectMachine.empty() && B->MachineName != ExpectMachine)
    return Error(ErrCode::MachineMismatch,
                 "bundle '" + Path + "' trained for '" + B->MachineName +
                     "', want '" + ExpectMachine + "'");
  if (B->Tag != ExpectTag)
    return Error(ErrCode::TagMismatch, "bundle '" + Path + "' has tag '" +
                                           B->Tag + "', want '" + ExpectTag +
                                           "'");
  return B;
}
