//===- distributed/WireFormat.cpp -----------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "distributed/WireFormat.h"

#include "support/Crc32.h"
#include "support/Error.h"

#include <cmath>
#include <cstring>

using namespace brainy;
using namespace brainy::dist;

namespace {

/// Reject frames larger than this before allocating: a corrupt length
/// prefix must not turn into a multi-gigabyte allocation. Generously above
/// any real message (a full chunk's ChunkDone is a few KiB).
constexpr uint32_t MaxFrameBytes = 16u << 20;

/// Deepest next-line prefetch an Init may ask the simulator for; the
/// presets use 1 and 2, and each access walks the whole depth.
constexpr unsigned MaxPrefetchDepth = 64;

class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) {
    for (unsigned I = 0; I != 4; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  void u64(uint64_t V) {
    for (unsigned I = 0; I != 8; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void f64(double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V), "IEEE-754 double expected");
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.append(S);
  }

  std::string take() { return std::move(Buf); }

private:
  std::string Buf;
};

class ByteReader {
public:
  explicit ByteReader(const std::string &Buf) : Buf(Buf) {}

  uint8_t u8() {
    need(1);
    return static_cast<uint8_t>(Buf[Pos++]);
  }
  uint32_t u32() {
    need(4);
    uint32_t V = 0;
    for (unsigned I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(static_cast<uint8_t>(Buf[Pos++])) << (8 * I);
    return V;
  }
  uint64_t u64() {
    need(8);
    uint64_t V = 0;
    for (unsigned I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(static_cast<uint8_t>(Buf[Pos++])) << (8 * I);
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  std::string str() {
    uint32_t N = u32();
    need(N);
    std::string S = Buf.substr(Pos, N);
    Pos += N;
    return S;
  }
  /// Guards count prefixes of repeated sections: each element needs at
  /// least \p MinElemBytes, so a corrupt count fails here instead of in a
  /// huge reserve.
  uint32_t count(size_t MinElemBytes) {
    uint32_t N = u32();
    if (static_cast<uint64_t>(N) * MinElemBytes > Buf.size() - Pos)
      throw ErrorException(
          Error(ErrCode::BadFormat,
                "count " + std::to_string(N) + " exceeds payload"));
    return N;
  }
  void done() const {
    if (Pos != Buf.size())
      throw ErrorException(Error(
          ErrCode::BadFormat, "trailing bytes after message (" +
                                  std::to_string(Buf.size() - Pos) + ")"));
  }

private:
  void need(size_t N) const {
    if (Buf.size() - Pos < N)
      throw ErrorException(
          Error(ErrCode::Truncated, "message payload ends early"));
  }

  const std::string &Buf;
  size_t Pos = 0;
};

void expectKind(ByteReader &R, MsgKind Want) {
  uint8_t K = R.u8();
  if (K != static_cast<uint8_t>(Want))
    throw ErrorException(
        Error(ErrCode::BadFormat, "unexpected message kind " +
                                      std::to_string(K) + " (want " +
                                      std::to_string(static_cast<unsigned>(
                                          Want)) +
                                      ")"));
}

void putCycleRecord(ByteWriter &W, const CycleRecord &Rec) {
  W.u64(Rec.Seed);
  W.u32(Rec.Mask);
  W.u32(Rec.BoundMask);
  for (unsigned K = 0; K != NumDsKinds; ++K)
    if (Rec.Mask & (1u << K))
      W.f64(Rec.Cycles[K]);
}

CycleRecord getCycleRecord(ByteReader &R) {
  CycleRecord Rec;
  Rec.Seed = R.u64();
  Rec.Mask = R.u32();
  Rec.BoundMask = R.u32();
  if (!validCycleMasks(Rec.Mask, Rec.BoundMask))
    throw ErrorException(Error(
        ErrCode::BadFormat,
        "cycle-record masks name no kind, an unknown kind, or a bound "
        "outside the mask"));
  for (unsigned K = 0; K != NumDsKinds; ++K)
    if (Rec.Mask & (1u << K))
      Rec.Cycles[K] = R.f64();
  return Rec;
}

void putCycleRecords(ByteWriter &W, const std::vector<CycleRecord> &Recs) {
  W.u32(static_cast<uint32_t>(Recs.size()));
  for (const CycleRecord &Rec : Recs)
    putCycleRecord(W, Rec);
}

/// Reads the records of the chunk that starts at \p BeginSeed and spans
/// \p NumSeeds seeds. Seeds must be strictly increasing and inside the
/// chunk, so the list is never longer than the chunk.
std::vector<CycleRecord> getCycleRecords(ByteReader &R, uint64_t BeginSeed,
                                         uint64_t NumSeeds) {
  // Seed, mask, bound mask and at least one value.
  uint32_t N = R.count(24);
  std::vector<CycleRecord> Recs;
  uint64_t MinOffset = 0;
  for (uint32_t I = 0; I != N; ++I) {
    Recs.push_back(getCycleRecord(R));
    // A seed below BeginSeed wraps to an offset past the chunk.
    uint64_t Offset = Recs.back().Seed - BeginSeed;
    if (Offset < MinOffset || Offset >= NumSeeds)
      throw ErrorException(
          Error(ErrCode::BadFormat,
                "cycle record for seed " + std::to_string(Recs.back().Seed) +
                    " is out of order or outside its chunk"));
    MinOffset = Offset + 1;
  }
  return Recs;
}

} // namespace

void dist::sendFrame(Transport &T, const std::string &Payload) {
  if (Payload.size() > MaxFrameBytes)
    throw ErrorException(
        Error(ErrCode::BadFormat,
              "frame payload too large: " + std::to_string(Payload.size())));
  ByteWriter Header;
  Header.u32(static_cast<uint32_t>(Payload.size()));
  Header.u32(crc32(Payload));
  std::string H = Header.take();
  T.writeAll(H.data(), H.size());
  T.writeAll(Payload.data(), Payload.size());
}

bool dist::recvFrame(Transport &T, std::string &Out, int TimeoutMs) {
  char Header[8];
  if (!T.readAll(Header, sizeof(Header), TimeoutMs))
    return false;
  uint32_t Len = 0, Crc = 0;
  for (unsigned I = 0; I != 4; ++I) {
    Len |= static_cast<uint32_t>(static_cast<uint8_t>(Header[I])) << (8 * I);
    Crc |= static_cast<uint32_t>(static_cast<uint8_t>(Header[4 + I]))
           << (8 * I);
  }
  if (Len > MaxFrameBytes)
    throw ErrorException(Error(
        ErrCode::BadFormat, "frame length " + std::to_string(Len) +
                                " exceeds limit (corrupt stream?)"));
  Out.resize(Len);
  if (Len && !T.readAll(Out.data(), Len, TimeoutMs))
    throw ErrorException(
        Error(ErrCode::Truncated, "stream ended inside a frame"));
  uint32_t Got = crc32(Out);
  if (Got != Crc)
    throw ErrorException(Error(
        ErrCode::BadChecksum, "frame crc mismatch: got " +
                                  std::to_string(Got) + ", header says " +
                                  std::to_string(Crc)));
  return true;
}

MsgKind dist::payloadKind(const std::string &Payload) {
  if (Payload.empty())
    throw ErrorException(Error(ErrCode::BadFormat, "empty message payload"));
  auto K = static_cast<uint8_t>(Payload[0]);
  if (K < static_cast<uint8_t>(MsgKind::Init) ||
      K > static_cast<uint8_t>(MsgKind::Shutdown))
    throw ErrorException(
        Error(ErrCode::BadFormat,
              "unknown message kind " + std::to_string(K)));
  return static_cast<MsgKind>(K);
}

std::string dist::encodeInit(const InitMsg &M) {
  ByteWriter W;
  W.u8(static_cast<uint8_t>(MsgKind::Init));
  W.str(WireMagic);
  // Machine model, field by field (DESIGN.md §10 pins this order).
  W.str(M.Machine.Name);
  for (const CacheGeometry *G : {&M.Machine.L1, &M.Machine.L2}) {
    W.u64(G->SizeBytes);
    W.u32(G->Associativity);
    W.u32(G->BlockBytes);
  }
  W.f64(M.Machine.L1HitCycles);
  W.f64(M.Machine.StreamHitCycles);
  W.f64(M.Machine.L2HitCycles);
  W.f64(M.Machine.MemoryCycles);
  W.f64(M.Machine.MissExposure);
  W.u32(M.Machine.PrefetchDepth);
  W.f64(M.Machine.MispredictPenalty);
  W.f64(M.Machine.BaseCpi);
  W.f64(M.Machine.AllocInstructions);
  W.f64(M.Machine.FreeInstructions);
  W.f64(M.Machine.ClockGhz);
  // Generator configuration (Table 2 vocabulary).
  W.u64(M.Config.TotalInterfCalls);
  W.u32(static_cast<uint32_t>(M.Config.DataElemSizes.size()));
  for (int64_t S : M.Config.DataElemSizes)
    W.i64(S);
  W.i64(M.Config.MaxInsertVal);
  W.i64(M.Config.MaxRemoveVal);
  W.i64(M.Config.MaxSearchVal);
  W.i64(M.Config.MaxIterCount);
  W.u64(M.Config.MaxInitialSize);
  W.f64(M.Config.OrderObliviousProb);
  W.f64(M.Config.OpDropProb);
  W.f64(M.Config.FocusProb);
  W.f64(M.WinnerMargin);
  // Fault-isolation policy.
  W.u32(M.EvalRetries);
  W.u32(static_cast<uint32_t>(M.ExcludeSeeds.size()));
  for (uint64_t S : M.ExcludeSeeds)
    W.u64(S);
  return W.take();
}

InitMsg dist::decodeInit(const std::string &Payload) {
  ByteReader R(Payload);
  expectKind(R, MsgKind::Init);
  std::string Magic = R.str();
  if (Magic != WireMagic)
    throw ErrorException(
        Error(ErrCode::BadMagic, "wire magic '" + Magic + "', want '" +
                                     std::string(WireMagic) + "'"));
  InitMsg M;
  M.Machine.Name = R.str();
  for (CacheGeometry *G : {&M.Machine.L1, &M.Machine.L2}) {
    G->SizeBytes = R.u64();
    G->Associativity = R.u32();
    G->BlockBytes = R.u32();
  }
  M.Machine.L1HitCycles = R.f64();
  M.Machine.StreamHitCycles = R.f64();
  M.Machine.L2HitCycles = R.f64();
  M.Machine.MemoryCycles = R.f64();
  M.Machine.MissExposure = R.f64();
  M.Machine.PrefetchDepth = R.u32();
  M.Machine.MispredictPenalty = R.f64();
  M.Machine.BaseCpi = R.f64();
  M.Machine.AllocInstructions = R.f64();
  M.Machine.FreeInstructions = R.f64();
  M.Machine.ClockGhz = R.f64();
  if (!M.Machine.L1.valid() || !M.Machine.L2.valid() ||
      M.Machine.PrefetchDepth > MaxPrefetchDepth)
    throw ErrorException(Error(ErrCode::BadFormat,
                               "machine model the simulator cannot run"));
  M.Config.TotalInterfCalls = R.u64();
  uint32_t NumSizes = R.count(8);
  M.Config.DataElemSizes.clear();
  M.Config.DataElemSizes.reserve(NumSizes);
  for (uint32_t I = 0; I != NumSizes; ++I)
    M.Config.DataElemSizes.push_back(R.i64());
  M.Config.MaxInsertVal = R.i64();
  M.Config.MaxRemoveVal = R.i64();
  M.Config.MaxSearchVal = R.i64();
  M.Config.MaxIterCount = R.i64();
  M.Config.MaxInitialSize = R.u64();
  M.Config.OrderObliviousProb = R.f64();
  M.Config.OpDropProb = R.f64();
  M.Config.FocusProb = R.f64();
  M.WinnerMargin = R.f64();
  if (!(M.WinnerMargin >= 0) || !std::isfinite(M.WinnerMargin))
    throw ErrorException(
        Error(ErrCode::BadFormat, "winner margin must be finite and >= 0"));
  M.EvalRetries = R.u32();
  uint32_t NumExcluded = R.count(8);
  M.ExcludeSeeds.reserve(NumExcluded);
  for (uint32_t I = 0; I != NumExcluded; ++I)
    M.ExcludeSeeds.push_back(R.u64());
  R.done();
  return M;
}

std::string dist::encodeEvalChunk(const EvalChunkMsg &M) {
  ByteWriter W;
  W.u8(static_cast<uint8_t>(MsgKind::EvalChunk));
  W.u64(M.BeginSeed);
  W.u64(M.EndSeed);
  for (unsigned I = 0; I != NumModelKinds; ++I)
    W.u8(M.Wanted[I] ? 1 : 0);
  putCycleRecords(W, M.Known);
  return W.take();
}

EvalChunkMsg dist::decodeEvalChunk(const std::string &Payload) {
  ByteReader R(Payload);
  expectKind(R, MsgKind::EvalChunk);
  EvalChunkMsg M;
  M.BeginSeed = R.u64();
  M.EndSeed = R.u64();
  if (M.EndSeed < M.BeginSeed || M.EndSeed - M.BeginSeed > PhaseOneChunk)
    throw ErrorException(
        Error(ErrCode::BadFormat, "chunk seed range is malformed"));
  for (unsigned I = 0; I != NumModelKinds; ++I)
    M.Wanted[I] = R.u8() != 0;
  M.Known = getCycleRecords(R, M.BeginSeed, M.EndSeed - M.BeginSeed);
  R.done();
  return M;
}

std::string dist::encodeChunkDone(const ChunkDoneMsg &M) {
  ByteWriter W;
  W.u8(static_cast<uint8_t>(MsgKind::ChunkDone));
  W.u64(M.BeginSeed);
  W.u32(static_cast<uint32_t>(M.Slots.size()));
  for (const SeedEvalResult &Slot : M.Slots) {
    W.u8(Slot.Ok ? 1 : 0);
    for (unsigned I = 0; I != NumModelKinds; ++I) {
      const SeedOutcome &O = Slot.Outcomes[I];
      W.u8(O.Matched ? 1 : 0);
      W.u8(static_cast<uint8_t>(O.Best));
      W.f64(O.Margin);
      W.u32(O.NumCandidates);
    }
  }
  putCycleRecords(W, M.Fresh);
  return W.take();
}

ChunkDoneMsg dist::decodeChunkDone(const std::string &Payload) {
  ByteReader R(Payload);
  expectKind(R, MsgKind::ChunkDone);
  ChunkDoneMsg M;
  M.BeginSeed = R.u64();
  uint32_t NumSlots = R.count(1 + NumModelKinds * 14ul);
  M.Slots.resize(NumSlots);
  for (SeedEvalResult &Slot : M.Slots) {
    Slot.Ok = R.u8() != 0;
    for (unsigned I = 0; I != NumModelKinds; ++I) {
      SeedOutcome &O = Slot.Outcomes[I];
      O.Matched = R.u8() != 0;
      uint8_t Best = R.u8();
      if (Best >= NumDsKinds)
        throw ErrorException(
            Error(ErrCode::BadFormat,
                  "slot names unknown DS kind " + std::to_string(Best)));
      O.Best = static_cast<DsKind>(Best);
      O.Margin = R.f64();
      O.NumCandidates = R.u32();
    }
  }
  M.Fresh = getCycleRecords(R, M.BeginSeed, NumSlots);
  R.done();
  return M;
}

std::string dist::encodeShutdown() {
  ByteWriter W;
  W.u8(static_cast<uint8_t>(MsgKind::Shutdown));
  return W.take();
}
