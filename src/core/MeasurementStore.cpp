//===- core/MeasurementStore.cpp ------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "core/MeasurementStore.h"

#include "support/FramedFile.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

using namespace brainy;

namespace {

constexpr const char *StoreMagic = "brainy-mcache";
constexpr const char *StoreVersion = "v2";
/// The previous version, read for compatibility: its records carry no
/// bound mask and load as exact.
constexpr const char *StoreVersionV1 = "v1";

/// FNV-1a-64 absorb.
void fnv(uint64_t &H, const void *Data, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
}

/// The fingerprint's absorb steps: integers as decimal text, doubles as
/// their %a rendering, each followed by '|' so adjacent fields cannot
/// alias.
void fnvStr(uint64_t &H, const std::string &S) {
  fnv(H, S.data(), S.size());
  fnv(H, "|", 1);
}

void fnvInt(uint64_t &H, uint64_t V) {
  char Buf[24];
  int N = std::snprintf(Buf, sizeof(Buf), "%" PRIu64 "|", V);
  fnv(H, Buf, static_cast<size_t>(N));
}

/// Doubles are hashed by their %a rendering: exact bit pattern, no
/// locale/rounding ambiguity.
void fnvDouble(uint64_t &H, double V) {
  char Buf[40];
  int N = std::snprintf(Buf, sizeof(Buf), "%a|", V);
  fnv(H, Buf, static_cast<size_t>(N));
}

/// Reads a `fingerprint` field: BadFormat unless it is hex, TagMismatch
/// unless it equals \p Want (the file belongs to another configuration).
Error checkFingerprint(const std::string &Field, uint64_t Want) {
  uint64_t Got = 0;
  if (std::sscanf(Field.c_str(), "%16" SCNx64, &Got) != 1)
    return Error(ErrCode::BadFormat, "expected 'fingerprint <hex>'");
  if (Got == Want)
    return Error::success();
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf),
                "config fingerprint %016" PRIx64 ", this run is %016" PRIx64,
                Got, Want);
  return Error(ErrCode::TagMismatch, Buf);
}

} // namespace

std::string brainy::fingerprintField(uint64_t Fingerprint) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, Fingerprint);
  return Buf;
}

uint64_t brainy::measurementFingerprint(const AppConfig &Gen,
                                        const MachineConfig &Machine) {
  uint64_t H = 14695981039346656037ull; // FNV offset basis
  fnvStr(H, "gen");
  fnvInt(H, Gen.TotalInterfCalls);
  fnvInt(H, Gen.DataElemSizes.size());
  for (int64_t E : Gen.DataElemSizes)
    fnvInt(H, static_cast<uint64_t>(E));
  fnvInt(H, static_cast<uint64_t>(Gen.MaxInsertVal));
  fnvInt(H, static_cast<uint64_t>(Gen.MaxRemoveVal));
  fnvInt(H, static_cast<uint64_t>(Gen.MaxSearchVal));
  fnvInt(H, static_cast<uint64_t>(Gen.MaxIterCount));
  fnvInt(H, Gen.MaxInitialSize);
  fnvDouble(H, Gen.OrderObliviousProb);
  fnvDouble(H, Gen.OpDropProb);
  fnvDouble(H, Gen.FocusProb);
  fnvStr(H, "machine");
  fnvStr(H, Machine.Name);
  for (const CacheGeometry &G : {Machine.L1, Machine.L2}) {
    fnvInt(H, G.SizeBytes);
    fnvInt(H, G.Associativity);
    fnvInt(H, G.BlockBytes);
  }
  fnvDouble(H, Machine.L1HitCycles);
  fnvDouble(H, Machine.StreamHitCycles);
  fnvDouble(H, Machine.L2HitCycles);
  fnvDouble(H, Machine.MemoryCycles);
  fnvDouble(H, Machine.MissExposure);
  fnvInt(H, Machine.PrefetchDepth);
  fnvDouble(H, Machine.MispredictPenalty);
  fnvDouble(H, Machine.BaseCpi);
  fnvDouble(H, Machine.AllocInstructions);
  fnvDouble(H, Machine.FreeInstructions);
  fnvDouble(H, Machine.ClockGhz);
  return H;
}

std::string brainy::measurementsToString(const MeasurementCache &Cache,
                                         const AppConfig &Gen,
                                         const MachineConfig &Machine) {
  std::vector<CycleRecord> Records = Cache.records();

  std::string Payload;
  char Buf[64];
  for (const CycleRecord &Rec : Records) {
    std::snprintf(Buf, sizeof(Buf), "%" PRIu64 " %u %u", Rec.Seed, Rec.Mask,
                  Rec.BoundMask);
    Payload += Buf;
    for (unsigned K = 0; K != NumDsKinds; ++K)
      if (Rec.Mask & (1u << K)) {
        std::snprintf(Buf, sizeof(Buf), " %a", Rec.Cycles[K]);
        Payload += Buf;
      }
    Payload += '\n';
  }

  return frame(StoreMagic, StoreVersion,
               {{"machine", Machine.Name},
                {"fingerprint",
                 fingerprintField(measurementFingerprint(Gen, Machine))},
                {"records", std::to_string(Records.size())}},
               Payload);
}

Error brainy::saveMeasurements(const std::string &Path,
                               const MeasurementCache &Cache,
                               const AppConfig &Gen,
                               const MachineConfig &Machine) {
  return writeFileAtomic(Path, measurementsToString(Cache, Gen, Machine));
}

Expected<size_t> brainy::parseMeasurements(const std::string &Text,
                                           MeasurementCache &Cache,
                                           const AppConfig &Gen,
                                           const MachineConfig &Machine) {
  std::string FileMachine, Fingerprint, RecordCount, Payload;
  auto Unframe = [&](const char *Version) {
    return unframe(Text, StoreMagic, Version,
                   {{"machine", &FileMachine},
                    {"fingerprint", &Fingerprint},
                    {"records", &RecordCount}},
                   Payload);
  };
  Error Framed = Unframe(StoreVersion);
  bool V1 = Framed.code() == ErrCode::BadVersion;
  if (V1) {
    // A v1 file gets its own verdict; a file of neither version keeps the
    // v2 one.
    Error AsV1 = Unframe(StoreVersionV1);
    if (AsV1.code() != ErrCode::BadVersion)
      Framed = std::move(AsV1);
  }
  if (Framed)
    return Framed;
  if (FileMachine != Machine.Name)
    return Error(ErrCode::MachineMismatch,
                 "measurements recorded on '" + FileMachine + "', want '" +
                     Machine.Name + "'");
  if (Error E =
          checkFingerprint(Fingerprint, measurementFingerprint(Gen, Machine)))
    return E;
  unsigned long long WantRecords = 0;
  if (std::sscanf(RecordCount.c_str(), "%llu", &WantRecords) != 1)
    return Error(ErrCode::BadFormat, "expected 'records <count>'");

  // Validate every record before touching the cache, so a malformed line
  // cannot leave a half-restored cache behind.
  std::vector<CycleRecord> Records;
  Records.reserve(WantRecords);
  size_t RPos = 0;
  while (RPos < Payload.size()) {
    size_t Eol = Payload.find('\n', RPos);
    if (Eol == std::string::npos)
      return Error(ErrCode::Truncated, "unterminated record line");
    std::string Rec = Payload.substr(RPos, Eol - RPos);
    RPos = Eol + 1;

    const char *P = Rec.c_str();
    char *End = nullptr;
    errno = 0;
    CycleRecord R;
    R.Seed = std::strtoull(P, &End, 10);
    if (End == P || errno == ERANGE)
      return Error(ErrCode::BadFormat, "bad seed in record '" + Rec + "'");
    P = End;
    auto MaskField = [&](unsigned long &Out) {
      Out = std::strtoul(P, &End, 10);
      bool Ok = End != P;
      P = End;
      return Ok;
    };
    unsigned long Mask = 0, Bound = 0; // v1 records carry no bound mask
    if (!MaskField(Mask) || (!V1 && !MaskField(Bound)) ||
        !validCycleMasks(Mask, Bound))
      return Error(ErrCode::BadFormat, "bad mask in record '" + Rec + "'");
    R.Mask = static_cast<unsigned>(Mask);
    R.BoundMask = static_cast<unsigned>(Bound);
    for (unsigned K = 0; K != NumDsKinds; ++K) {
      if (!(R.Mask & (1u << K)))
        continue;
      double V = std::strtod(P, &End); // %a hex floats round-trip exactly
      if (End == P)
        return Error(ErrCode::BadFormat,
                     "missing cycle value in record '" + Rec + "'");
      R.Cycles[K] = V;
      P = End;
    }
    while (*P == ' ')
      ++P;
    if (*P != '\0')
      return Error(ErrCode::BadFormat,
                   "trailing bytes in record '" + Rec + "'");
    if (!Records.empty() && Records.back().Seed >= R.Seed)
      return Error(ErrCode::BadFormat, "records not in ascending seed order");
    Records.push_back(R);
  }
  if (Records.size() != WantRecords)
    return Error(ErrCode::BadFormat,
                 "header declares " + std::to_string(WantRecords) +
                     " records, payload holds " +
                     std::to_string(Records.size()));

  for (const CycleRecord &R : Records)
    Cache.restoreRecord(R);
  return Records.size();
}

Expected<size_t> brainy::loadMeasurements(const std::string &Path,
                                          MeasurementCache &Cache,
                                          const AppConfig &Gen,
                                          const MachineConfig &Machine) {
  Expected<std::string> Text = readFile(Path);
  if (!Text)
    return Text.error();
  Expected<size_t> Count = parseMeasurements(*Text, Cache, Gen, Machine);
  if (!Count)
    return Count.error().withPrefix("measurement cache '" + Path + "'");
  return Count;
}
