//===- core/Checkpoint.cpp ------------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "core/Checkpoint.h"

#include "core/MeasurementStore.h"
#include "support/Crc32.h"
#include "support/FaultInjector.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace brainy;

namespace {

constexpr const char *CkptMagic = "brainy-ckpt";
constexpr const char *CkptVersion = "v1";

/// Same I/O-step salts as bundle/mcache persistence, so one
/// `BRAINY_FAULT=io:...` spec exercises every store's failure paths.
constexpr uint64_t IoSaltRead = 0;
constexpr uint64_t IoSaltWrite = 1;
constexpr uint64_t IoSaltRename = 2;

/// FNV-1a-64 absorb (the mcache idiom: integers as decimal text, doubles
/// as %a hex floats, '|' separators so adjacent fields cannot alias).
void fnv(uint64_t &H, const void *Data, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
}

void fnvStr(uint64_t &H, const std::string &S) {
  fnv(H, S.data(), S.size());
  fnv(H, "|", 1);
}

void fnvInt(uint64_t &H, uint64_t V) {
  char Buf[24];
  int N = std::snprintf(Buf, sizeof(Buf), "%" PRIu64 "|", V);
  fnv(H, Buf, static_cast<size_t>(N));
}

void fnvDouble(uint64_t &H, double V) {
  char Buf[40];
  int N = std::snprintf(Buf, sizeof(Buf), "%a|", V);
  fnv(H, Buf, static_cast<size_t>(N));
}

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

  std::string Out = std::string(CkptMagic) + " " + CkptVersion + "\n";
  Out += "machine " + MachineName + "\n";
  std::snprintf(Buf, sizeof(Buf), "fingerprint %016" PRIx64 "\n",
                Fingerprint);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "next %" PRIu64 " stopped %d\n",
                Ck.NextOffset, Ck.Stopped ? 1 : 0);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "payload %zu crc32 %08" PRIx32 "\n",
                Payload.size(), crc32(Payload));
  Out += Buf;
  Out += Payload;
  return Out;
}

Error brainy::saveCheckpoint(const std::string &Path,
                             const TrainCheckpoint &Ck, uint64_t Fingerprint,
                             const std::string &MachineName) {
  FaultInjector &FI = FaultInjector::instance();
  uint64_t PathKey = FaultInjector::keyFor(Path);
  if (FI.shouldFail(FaultSite::FileIo, PathKey, IoSaltWrite))
    return Error(ErrCode::FaultInjected, "writing '" + Path + "'");

  std::string Text = checkpointToString(Ck, Fingerprint, MachineName);
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return Error(ErrCode::IoError,
                 "cannot open '" + Tmp + "': " + std::strerror(errno));
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok &= std::fflush(F) == 0;
  Ok &= std::fclose(F) == 0;
  if (!Ok) {
    std::remove(Tmp.c_str());
    return Error(ErrCode::IoError, "short write to '" + Tmp + "'");
  }
  if (FI.shouldFail(FaultSite::FileIo, PathKey, IoSaltRename)) {
    std::remove(Tmp.c_str());
    return Error(ErrCode::FaultInjected,
                 "renaming '" + Tmp + "' over '" + Path + "'");
  }
  // The rename is the commit point: a kill at any instant leaves either
  // the previous complete checkpoint or the new one, never a torn file.
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return Error(ErrCode::IoError, "cannot rename '" + Tmp + "' to '" +
                                       Path + "': " + std::strerror(errno));
  }
  return Error::success();
}

Expected<TrainCheckpoint>
brainy::parseCheckpoint(const std::string &Text, uint64_t Fingerprint,
                        const std::string &MachineName) {
  if (Text.empty())
    return Error(ErrCode::Truncated, "empty checkpoint");

  size_t Pos = 0;
  auto TakeLine = [&Text, &Pos](std::string &Line) {
    if (Pos >= Text.size())
      return false;
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    return true;
  };

  std::string Line;
  TakeLine(Line);
  size_t Space = Line.find(' ');
  if (Line.substr(0, Space) != CkptMagic)
    return Error(ErrCode::BadMagic, "not a brainy checkpoint");
  std::string Version =
      Space == std::string::npos ? "" : Line.substr(Space + 1);
  if (Version != CkptVersion)
    return Error(ErrCode::BadVersion, "checkpoint version '" + Version +
                                          "', this build reads '" +
                                          CkptVersion + "'");

  if (!TakeLine(Line))
    return Error(ErrCode::Truncated, "header ends before 'machine'");
  if (Line.rfind("machine ", 0) != 0)
    return Error(ErrCode::BadFormat, "expected 'machine <name>'");
  std::string FileMachine = Line.substr(8);
  if (FileMachine != MachineName)
    return Error(ErrCode::MachineMismatch, "checkpoint recorded on '" +
                                               FileMachine + "', want '" +
                                               MachineName + "'");

  if (!TakeLine(Line))
    return Error(ErrCode::Truncated, "header ends before 'fingerprint'");
  uint64_t FileFp = 0;
  if (std::sscanf(Line.c_str(), "fingerprint %16" SCNx64, &FileFp) != 1)
    return Error(ErrCode::BadFormat, "expected 'fingerprint <hex>'");
  if (FileFp != Fingerprint) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  "config fingerprint %016" PRIx64 ", this run is %016" PRIx64,
                  FileFp, Fingerprint);
    return Error(ErrCode::TagMismatch, Buf);
  }

  if (!TakeLine(Line))
    return Error(ErrCode::Truncated, "header ends before 'next'");
  TrainCheckpoint Ck;
  int StoppedInt = -1;
  if (std::sscanf(Line.c_str(), "next %" SCNu64 " stopped %d", &Ck.NextOffset,
                  &StoppedInt) != 2 ||
      (StoppedInt != 0 && StoppedInt != 1))
    return Error(ErrCode::BadFormat, "expected 'next <offset> stopped <0|1>'");
  Ck.Stopped = StoppedInt == 1;

  if (!TakeLine(Line))
    return Error(ErrCode::Truncated, "header ends before 'payload'");
  unsigned long long PayloadSize = 0;
  uint32_t WantCrc = 0;
  if (std::sscanf(Line.c_str(), "payload %llu crc32 %8" SCNx32, &PayloadSize,
                  &WantCrc) != 2)
    return Error(ErrCode::BadFormat, "expected 'payload <size> crc32 <hex>'");

  size_t Remaining = Text.size() - Pos;
  if (Remaining < PayloadSize)
    return Error(ErrCode::Truncated,
                 "payload is " + std::to_string(Remaining) +
                     " bytes, header declares " +
                     std::to_string(PayloadSize));
  if (Remaining > PayloadSize)
    return Error(ErrCode::BadFormat, std::to_string(Remaining - PayloadSize) +
                                         " trailing bytes after payload");

  uint32_t GotCrc = crc32(Text.data() + Pos, Remaining);
  if (GotCrc != WantCrc) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  "payload crc32 %08" PRIx32 ", header says %08" PRIx32,
                  GotCrc, WantCrc);
    return Error(ErrCode::BadChecksum, Buf);
  }

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
  if (Pos < Text.size())
    return Error(ErrCode::BadFormat, "trailing lines after last family");
  return Ck;
}

Expected<TrainCheckpoint>
brainy::loadCheckpoint(const std::string &Path, uint64_t Fingerprint,
                       const std::string &MachineName) {
  if (FaultInjector::instance().shouldFail(
          FaultSite::FileIo, FaultInjector::keyFor(Path), IoSaltRead))
    return Error(ErrCode::FaultInjected, "reading '" + Path + "'");

  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Error(ErrCode::IoError,
                 "cannot open '" + Path + "': " + std::strerror(errno));
  std::string Text;
  char Buf[8192];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);

  Expected<TrainCheckpoint> Ck =
      parseCheckpoint(Text, Fingerprint, MachineName);
  if (!Ck)
    return Ck.error().withPrefix("checkpoint '" + Path + "'");
  return Ck;
}
