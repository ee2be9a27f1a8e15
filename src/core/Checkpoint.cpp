//===- core/Checkpoint.cpp ------------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "core/Checkpoint.h"

#include "core/MeasurementStore.h"
#include "support/FramedFile.h"

#include <cinttypes>
#include <cstdio>

using namespace brainy;

namespace {

constexpr const char *CkptMagic = "brainy-ckpt";
constexpr const char *CkptVersion = "v1";

} // namespace

uint64_t brainy::checkpointFingerprint(const TrainOptions &Options,
                                       const MachineConfig &Machine,
                                       const std::vector<ModelKind> &Models,
                                       bool CountUnmatchedSeeds) {
  uint64_t H = 14695981039346656037ull; // FNV offset basis
  fnvStr(H, "ckpt");
  // Measurements are the ground truth every merge decision derives from;
  // their fingerprint folds in every generator and machine knob.
  fnvInt(H, measurementFingerprint(Options.GenConfig, Machine));
  fnvInt(H, Options.FirstSeed);
  fnvInt(H, Options.TargetPerDs);
  fnvDouble(H, Options.WinnerMargin);
  fnvInt(H, Options.EvalRetries);
  fnvInt(H, Options.ExcludeSeeds.size());
  for (uint64_t Seed : Options.ExcludeSeeds)
    fnvInt(H, Seed);
  fnvStr(H, "models");
  fnvInt(H, Models.size());
  for (ModelKind Model : Models)
    fnvInt(H, static_cast<unsigned>(Model));
  fnvInt(H, CountUnmatchedSeeds ? 1 : 0);
  return H;
}

std::string brainy::checkpointToString(const TrainCheckpoint &Ck,
                                       uint64_t Fingerprint,
                                       const std::string &MachineName) {
  std::string Payload;
  char Buf[96];
  for (unsigned M = 0; M != NumModelKinds; ++M) {
    const PhaseOneResult &R = Ck.Results[M];
    std::snprintf(Buf, sizeof(Buf),
                  "family %u scanned %" PRIu64 " rejects %" PRIu64
                  " pairs %zu skips %zu\n",
                  M, R.SeedsScanned, R.MarginRejects, R.SeedDsPairs.size(),
                  R.SkippedSeeds.size());
    Payload += Buf;
    for (const SeedBest &P : R.SeedDsPairs) {
      std::snprintf(Buf, sizeof(Buf), "pair %" PRIu64 " %u\n", P.Seed,
                    static_cast<unsigned>(P.BestDs));
      Payload += Buf;
    }
    for (uint64_t Seed : R.SkippedSeeds) {
      std::snprintf(Buf, sizeof(Buf), "skip %" PRIu64 "\n", Seed);
      Payload += Buf;
    }
  }

  std::snprintf(Buf, sizeof(Buf), "%" PRIu64 " stopped %d", Ck.NextOffset,
                Ck.Stopped ? 1 : 0);
  return frame(CkptMagic, CkptVersion,
               {{"machine", MachineName},
                {"fingerprint", fingerprintField(Fingerprint)},
                {"next", Buf}},
               Payload);
}

Error brainy::saveCheckpoint(const std::string &Path,
                             const TrainCheckpoint &Ck, uint64_t Fingerprint,
                             const std::string &MachineName) {
  return writeFileAtomic(Path,
                         checkpointToString(Ck, Fingerprint, MachineName));
}

Expected<TrainCheckpoint>
brainy::parseCheckpoint(const std::string &Text, uint64_t Fingerprint,
                        const std::string &MachineName) {
  std::string FileMachine, FileFingerprint, Next, Payload;
  if (Error E = unframe(Text, CkptMagic, CkptVersion,
                        {{"machine", &FileMachine},
                         {"fingerprint", &FileFingerprint},
                         {"next", &Next}},
                        Payload))
    return E;
  if (FileMachine != MachineName)
    return Error(ErrCode::MachineMismatch, "checkpoint recorded on '" +
                                               FileMachine + "', want '" +
                                               MachineName + "'");
  if (Error E = checkFingerprint(FileFingerprint, Fingerprint))
    return E;
  TrainCheckpoint Ck;
  int StoppedInt = -1;
  if (std::sscanf(Next.c_str(), "%" SCNu64 " stopped %d", &Ck.NextOffset,
                  &StoppedInt) != 2 ||
      (StoppedInt != 0 && StoppedInt != 1))
    return Error(ErrCode::BadFormat, "expected 'next <offset> stopped <0|1>'");
  Ck.Stopped = StoppedInt == 1;

  size_t Pos = 0;
  auto TakeLine = [&Payload, &Pos](std::string &Line) {
    if (Pos >= Payload.size())
      return false;
    size_t Eol = Payload.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Payload.size();
    Line = Payload.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    return true;
  };

  std::string Line;
  // Parse the per-family sections, validating everything — counts, kind
  // ranges, seed ordering — before the checkpoint is handed to a caller.
  for (unsigned M = 0; M != NumModelKinds; ++M) {
    if (!TakeLine(Line))
      return Error(ErrCode::Truncated,
                   "payload ends before family " + std::to_string(M));
    unsigned FileM = ~0u;
    uint64_t Scanned = 0, Rejects = 0;
    unsigned long long NumPairs = 0, NumSkips = 0;
    if (std::sscanf(Line.c_str(),
                    "family %u scanned %" SCNu64 " rejects %" SCNu64
                    " pairs %llu skips %llu",
                    &FileM, &Scanned, &Rejects, &NumPairs, &NumSkips) != 5 ||
        FileM != M)
      return Error(ErrCode::BadFormat,
                   "expected family " + std::to_string(M) + " header, got '" +
                       Line + "'");
    PhaseOneResult &R = Ck.Results[M];
    R.SeedsScanned = Scanned;
    R.MarginRejects = Rejects;
    R.SeedDsPairs.reserve(NumPairs);
    R.SkippedSeeds.reserve(NumSkips);
    for (unsigned long long I = 0; I != NumPairs; ++I) {
      if (!TakeLine(Line))
        return Error(ErrCode::Truncated, "payload ends inside pair list");
      uint64_t Seed = 0;
      unsigned Kind = ~0u;
      if (std::sscanf(Line.c_str(), "pair %" SCNu64 " %u", &Seed, &Kind) !=
              2 ||
          Kind >= NumDsKinds)
        return Error(ErrCode::BadFormat, "bad pair line '" + Line + "'");
      if (!R.SeedDsPairs.empty() && R.SeedDsPairs.back().Seed >= Seed)
        return Error(ErrCode::BadFormat,
                     "pairs not in ascending seed order");
      R.SeedDsPairs.push_back({Seed, static_cast<DsKind>(Kind)});
    }
    for (unsigned long long I = 0; I != NumSkips; ++I) {
      if (!TakeLine(Line))
        return Error(ErrCode::Truncated, "payload ends inside skip list");
      uint64_t Seed = 0;
      if (std::sscanf(Line.c_str(), "skip %" SCNu64, &Seed) != 1)
        return Error(ErrCode::BadFormat, "bad skip line '" + Line + "'");
      if (!R.SkippedSeeds.empty() && R.SkippedSeeds.back() >= Seed)
        return Error(ErrCode::BadFormat,
                     "skips not in ascending seed order");
      R.SkippedSeeds.push_back(Seed);
    }
  }
  if (Pos < Payload.size())
    return Error(ErrCode::BadFormat, "trailing lines after last family");
  return Ck;
}

Expected<TrainCheckpoint>
brainy::loadCheckpoint(const std::string &Path, uint64_t Fingerprint,
                       const std::string &MachineName) {
  Expected<std::string> Text = readFile(Path);
  if (!Text)
    return Text.error();
  Expected<TrainCheckpoint> Ck =
      parseCheckpoint(*Text, Fingerprint, MachineName);
  if (!Ck)
    return Ck.error().withPrefix("checkpoint '" + Path + "'");
  return Ck;
}
