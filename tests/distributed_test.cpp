//===- tests/distributed_test.cpp - Distributed Phase I -------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// The distributed training subsystem's contracts (DESIGN.md §10):
//
//  * the wire format round-trips every message, and the frame layer
//    rejects truncated and corrupted streams via length+CRC32;
//  * a coordinator-driven run merges bit-identically to the serial run
//    for any worker count, and what its window measures does not depend
//    on timing;
//  * worker loss (BRAINY_FAULT=worker:...) degrades to SkippedSeeds, and
//    the surviving result equals a clean run with the lost seeds
//    pre-declared in TrainOptions::ExcludeSeeds;
//  * a worker measures only what its chunk's Known records lack, and
//    sends back only what it measured.
//
// Plus the cross-host fleet contracts (DESIGN.md §13):
//
//  * frames cross real TCP sockets, and a `--listen`-style fleet merges
//    bit-identically to the serial run;
//  * a worker crash over TCP is survived by reconnecting, an unreachable
//    endpoint is declared dead after bounded retries, and both degrade to
//    the same ExcludeSeeds equivalence as local loss;
//  * injected transport faults (BRAINY_FAULT=net:...) are deterministic
//    across worker counts;
//  * a coordinator restarted with the killed run's measurement cache —
//    even with a different fleet shape — produces identical results.
//
//===----------------------------------------------------------------------===//

#include "distributed/Coordinator.h"
#include "distributed/Launch.h"
#include "distributed/Tcp.h"
#include "distributed/WireFormat.h"
#include "distributed/Worker.h"
#include "support/Error.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace brainy;
using namespace brainy::dist;

namespace {

/// In-memory loopback: writes append to a buffer, reads consume it.
/// Deterministic and corruptible — what the frame-layer tests need.
class BufferTransport : public Transport {
public:
  void writeAll(const void *Data, size_t Size) override {
    Buf.append(static_cast<const char *>(Data), Size);
  }
  bool readAll(void *Data, size_t Size, int /*TimeoutMs*/) override {
    if (Pos == Buf.size())
      return false;
    if (Buf.size() - Pos < Size)
      throw ErrorException(
          Error(ErrCode::Truncated, "buffer ends mid-datum"));
    std::memcpy(Data, Buf.data() + Pos, Size);
    Pos += Size;
    return true;
  }

  std::string Buf;
  size_t Pos = 0;
};

struct FaultGuard {
  explicit FaultGuard(const std::string &Spec) {
    Error E = FaultInjector::instance().configure(Spec);
    EXPECT_FALSE(E) << E.message();
  }
  ~FaultGuard() { FaultInjector::instance().clear(); }
};

TrainOptions tinyOptions() {
  TrainOptions Opts;
  Opts.TargetPerDs = 3;
  Opts.MaxSeeds = 200;
  Opts.GenConfig.TotalInterfCalls = 120;
  Opts.GenConfig.MaxInitialSize = 200;
  Opts.Net.Epochs = 10;
  Opts.Jobs = 1;
  return Opts;
}

using ResultArray = std::array<PhaseOneResult, NumModelKinds>;

/// A loopback `brainy worker --listen` fleet: each worker is a
/// TcpListener on an ephemeral 127.0.0.1 port, served by its own thread
/// running serveListener — accepting coordinator (re)connections, one at
/// a time, until stopped. Exactly the production shape minus the exec.
class TcpTestFleet {
public:
  explicit TcpTestFleet(unsigned N) {
    for (unsigned I = 0; I != N; ++I) {
      Listeners.push_back(
          std::make_unique<TcpListener>(TcpEndpoint{"127.0.0.1", 0}));
      Endpoints.push_back("127.0.0.1:" +
                          std::to_string(Listeners.back()->port()));
    }
    for (unsigned I = 0; I != N; ++I)
      Serving.emplace_back(
          [this, I] { serveListener(*Listeners[I], &StopFlag); });
  }
  ~TcpTestFleet() {
    StopFlag.store(true, std::memory_order_release);
    for (std::thread &T : Serving)
      T.join();
  }
  TcpTestFleet(const TcpTestFleet &) = delete;
  TcpTestFleet &operator=(const TcpTestFleet &) = delete;

  std::vector<std::string> Endpoints;

private:
  std::vector<std::unique_ptr<TcpListener>> Listeners;
  std::atomic<bool> StopFlag{false};
  std::vector<std::thread> Serving;
};

/// An endpoint guaranteed to refuse connections: bind an ephemeral port,
/// note it, and close the listener before anyone dials in.
std::string refusedEndpoint() {
  TcpListener Probe(TcpEndpoint{"127.0.0.1", 0});
  return "127.0.0.1:" + std::to_string(Probe.port());
}

/// The ErrCode \p Decode throws, or Ok when it returns.
template <typename Fn> ErrCode decodeError(Fn &&Decode) {
  try {
    Decode();
  } catch (const ErrorException &E) {
    return E.error().code();
  }
  return ErrCode::Ok;
}

void expectSameSlots(const std::vector<SeedEvalResult> &A,
                     const std::vector<SeedEvalResult> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Ok, B[I].Ok) << "slot " << I;
    for (unsigned M = 0; M != NumModelKinds; ++M) {
      EXPECT_EQ(A[I].Outcomes[M].Matched, B[I].Outcomes[M].Matched);
      EXPECT_EQ(A[I].Outcomes[M].Best, B[I].Outcomes[M].Best);
      EXPECT_EQ(A[I].Outcomes[M].Margin, B[I].Outcomes[M].Margin);
      EXPECT_EQ(A[I].Outcomes[M].NumCandidates,
                B[I].Outcomes[M].NumCandidates);
    }
  }
}

void expectSameResults(const ResultArray &A, const ResultArray &B) {
  for (unsigned M = 0; M != NumModelKinds; ++M) {
    EXPECT_EQ(A[M].SeedsScanned, B[M].SeedsScanned) << "family " << M;
    EXPECT_EQ(A[M].MarginRejects, B[M].MarginRejects) << "family " << M;
    EXPECT_EQ(A[M].SkippedSeeds, B[M].SkippedSeeds) << "family " << M;
    ASSERT_EQ(A[M].SeedDsPairs.size(), B[M].SeedDsPairs.size())
        << "family " << M;
    for (size_t I = 0; I != A[M].SeedDsPairs.size(); ++I) {
      EXPECT_EQ(A[M].SeedDsPairs[I].Seed, B[M].SeedDsPairs[I].Seed);
      EXPECT_EQ(A[M].SeedDsPairs[I].BestDs, B[M].SeedDsPairs[I].BestDs);
    }
  }
}

//===----------------------------------------------------------------------===//
// Wire format
//===----------------------------------------------------------------------===//

TEST(WireFormatTest, InitRoundTripsEveryField) {
  InitMsg M;
  M.Machine = MachineConfig::atom();
  M.Config.TotalInterfCalls = 1234;
  M.Config.DataElemSizes = {8, 24};
  M.Config.MaxIterCount = 99;
  M.Config.OrderObliviousProb = 0.25;
  M.WinnerMargin = 0.2;
  M.EvalRetries = 5;
  M.ExcludeSeeds = {3, 17, 4096};

  InitMsg Back = decodeInit(encodeInit(M));
  EXPECT_EQ(Back.Machine.Name, M.Machine.Name);
  EXPECT_EQ(Back.Machine.L1.SizeBytes, M.Machine.L1.SizeBytes);
  EXPECT_EQ(Back.Machine.L2.Associativity, M.Machine.L2.Associativity);
  EXPECT_EQ(Back.Machine.PrefetchDepth, M.Machine.PrefetchDepth);
  EXPECT_EQ(Back.Machine.MemoryCycles, M.Machine.MemoryCycles);
  EXPECT_EQ(Back.Machine.BaseCpi, M.Machine.BaseCpi);
  EXPECT_EQ(Back.Config.TotalInterfCalls, M.Config.TotalInterfCalls);
  EXPECT_EQ(Back.Config.DataElemSizes, M.Config.DataElemSizes);
  EXPECT_EQ(Back.Config.MaxIterCount, M.Config.MaxIterCount);
  EXPECT_EQ(Back.Config.OrderObliviousProb, M.Config.OrderObliviousProb);
  EXPECT_EQ(Back.WinnerMargin, M.WinnerMargin);
  EXPECT_EQ(Back.EvalRetries, M.EvalRetries);
  EXPECT_EQ(Back.ExcludeSeeds, M.ExcludeSeeds);
}

TEST(WireFormatTest, InitRejectsWrongMagic) {
  InitMsg M;
  std::string Payload = encodeInit(M);
  // The magic string starts after the kind byte and the length prefix.
  Payload[5 + 1] ^= 0x20;
  try {
    decodeInit(Payload);
    FAIL() << "corrupt magic decoded";
  } catch (const ErrorException &E) {
    EXPECT_EQ(E.error().code(), ErrCode::BadMagic);
  }
}

TEST(WireFormatTest, InitRejectsMachinesTheSimulatorCannotRun) {
  InitMsg M;
  M.Machine = MachineConfig::core2();
  EXPECT_EQ(decodeError([&] { decodeInit(encodeInit(M)); }), ErrCode::Ok);

  std::vector<MachineConfig> Bad(6, MachineConfig::core2());
  Bad[0].L1.BlockBytes = 0;
  Bad[1].L1.BlockBytes = 48;
  Bad[2].L1.Associativity = 0;
  Bad[3].L2.SizeBytes = 3u << 20;
  Bad[4].L2.SizeBytes = uint64_t(1) << 40;
  Bad[5].PrefetchDepth = 1u << 31;
  for (size_t I = 0; I != Bad.size(); ++I) {
    M.Machine = Bad[I];
    EXPECT_EQ(decodeError([&] { decodeInit(encodeInit(M)); }),
              ErrCode::BadFormat)
        << "machine " << I;
  }
}

TEST(WireFormatTest, InitRejectsMarginsThatCannotCapARace) {
  InitMsg M;
  M.WinnerMargin = 0;
  EXPECT_EQ(decodeError([&] { decodeInit(encodeInit(M)); }), ErrCode::Ok);
  for (double Bad : {-0.05, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    M.WinnerMargin = Bad;
    EXPECT_EQ(decodeError([&] { decodeInit(encodeInit(M)); }),
              ErrCode::BadFormat)
        << "margin " << Bad;
  }
}

TEST(WireFormatTest, EvalChunkRoundTripsKnownRecordsInsideItsChunk) {
  EvalChunkMsg Chunk;
  Chunk.BeginSeed = 97;
  Chunk.EndSeed = 113;
  Chunk.Wanted[1] = Chunk.Wanted[4] = true;
  CycleRecord Rec;
  Rec.Seed = 101;
  Rec.Mask = (1u << 0) | (1u << 3);
  Rec.BoundMask = 1u << 0; // kind 0 is a lower bound, kind 3 exact
  Rec.Cycles[0] = 123.5;
  Rec.Cycles[3] = 88.25;
  Chunk.Known.push_back(Rec);
  EvalChunkMsg Back = decodeEvalChunk(encodeEvalChunk(Chunk));
  EXPECT_EQ(Back.BeginSeed, 97u);
  EXPECT_EQ(Back.EndSeed, 113u);
  EXPECT_EQ(Back.Wanted, Chunk.Wanted);
  ASSERT_EQ(Back.Known.size(), 1u);
  EXPECT_EQ(Back.Known[0].Seed, 101u);
  EXPECT_EQ(Back.Known[0].Mask, Rec.Mask);
  EXPECT_EQ(Back.Known[0].BoundMask, Rec.BoundMask);
  EXPECT_EQ(Back.Known[0].Cycles[0], 123.5);
  EXPECT_EQ(Back.Known[0].Cycles[3], 88.25);

  // A record before or past the chunk, or a seed sent twice, is malformed.
  for (uint64_t Seed : {96u, 113u}) {
    Chunk.Known[0].Seed = Seed;
    std::string Payload = encodeEvalChunk(Chunk);
    EXPECT_EQ(decodeError([&] { decodeEvalChunk(Payload); }),
              ErrCode::BadFormat)
        << "seed " << Seed;
  }
  Chunk.Known.assign(2, Rec);
  std::string Payload = encodeEvalChunk(Chunk);
  EXPECT_EQ(decodeError([&] { decodeEvalChunk(Payload); }),
            ErrCode::BadFormat);
}

TEST(WireFormatTest, EvalChunkHoldsAtMostOneChunkOfSeeds) {
  EvalChunkMsg Chunk;
  Chunk.BeginSeed = 5;
  Chunk.EndSeed = Chunk.BeginSeed + PhaseOneChunk;
  EXPECT_EQ(decodeEvalChunk(encodeEvalChunk(Chunk)).EndSeed,
            Chunk.EndSeed);
  ++Chunk.EndSeed;
  std::string Payload = encodeEvalChunk(Chunk);
  EXPECT_EQ(decodeError([&] { decodeEvalChunk(Payload); }),
            ErrCode::BadFormat);
}

TEST(WireFormatTest, ChunkDoneRoundTripsSlotsAndFreshRecords) {
  ChunkDoneMsg M;
  M.BeginSeed = 17;
  M.Slots.resize(3);
  M.Slots[0].Ok = true;
  M.Slots[0].Outcomes[2].Matched = true;
  M.Slots[0].Outcomes[2].Best = DsKind::Deque;
  M.Slots[0].Outcomes[2].Margin = 0.125;
  M.Slots[0].Outcomes[2].NumCandidates = 3;
  M.Slots[1].Ok = false; // a skipped seed travels too
  M.Slots[2].Ok = true;
  CycleRecord Rec;
  Rec.Seed = 18;
  Rec.Mask = (1u << 5) | (1u << 8);
  Rec.BoundMask = 1u << 8;
  Rec.Cycles[5] = 777.0;
  Rec.Cycles[8] = 0.1 + 0.2;
  M.Fresh.push_back(Rec);

  ChunkDoneMsg Back = decodeChunkDone(encodeChunkDone(M));
  EXPECT_EQ(Back.BeginSeed, 17u);
  ASSERT_EQ(Back.Slots.size(), 3u);
  EXPECT_TRUE(Back.Slots[0].Ok);
  EXPECT_TRUE(Back.Slots[0].Outcomes[2].Matched);
  EXPECT_EQ(Back.Slots[0].Outcomes[2].Best, DsKind::Deque);
  EXPECT_EQ(Back.Slots[0].Outcomes[2].Margin, 0.125);
  EXPECT_EQ(Back.Slots[0].Outcomes[2].NumCandidates, 3u);
  EXPECT_FALSE(Back.Slots[1].Ok);
  ASSERT_EQ(Back.Fresh.size(), 1u);
  EXPECT_EQ(Back.Fresh[0].Seed, 18u);
  EXPECT_EQ(Back.Fresh[0].Mask, Rec.Mask);
  EXPECT_EQ(Back.Fresh[0].BoundMask, Rec.BoundMask);
  EXPECT_EQ(Back.Fresh[0].Cycles[5], 777.0);
  EXPECT_EQ(Back.Fresh[0].Cycles[8], 0.1 + 0.2);

  // The chunk is [17, 20): a record for seed 20 lies outside it.
  M.Fresh[0].Seed = 20;
  std::string Payload = encodeChunkDone(M);
  EXPECT_EQ(decodeError([&] { decodeChunkDone(Payload); }),
            ErrCode::BadFormat);
}

TEST(WireFormatTest, CycleRecordsNeedAKnownKindAndBoundsInsideTheirMask) {
  // The measurement-cache file's record rules: an empty mask would make an
  // empty cache entry, and a bound bit outside the mask has no value.
  auto CodeOf = [](const CycleRecord &Rec) {
    EvalChunkMsg Chunk;
    Chunk.BeginSeed = 40;
    Chunk.EndSeed = 56;
    Chunk.Known.push_back(Rec);
    ChunkDoneMsg Done;
    Done.BeginSeed = 40;
    Done.Slots.resize(16);
    Done.Fresh.push_back(Rec);
    std::string ChunkPayload = encodeEvalChunk(Chunk);
    std::string DonePayload = encodeChunkDone(Done);
    ErrCode ChunkCode =
        decodeError([&] { decodeEvalChunk(ChunkPayload); });
    EXPECT_EQ(ChunkCode,
              decodeError([&] { decodeChunkDone(DonePayload); }));
    return ChunkCode;
  };
  CycleRecord Rec;
  Rec.Seed = 41;
  Rec.Mask = 1u << 2;
  Rec.Cycles[2] = 5.0;
  EXPECT_EQ(CodeOf(Rec), ErrCode::Ok);
  Rec.BoundMask = 1u << 2;
  EXPECT_EQ(CodeOf(Rec), ErrCode::Ok);

  CycleRecord Empty = Rec;
  Empty.Mask = Empty.BoundMask = 0;
  EXPECT_EQ(CodeOf(Empty), ErrCode::BadFormat);
  CycleRecord Stray = Rec;
  Stray.BoundMask = (1u << 2) | (1u << 3);
  EXPECT_EQ(CodeOf(Stray), ErrCode::BadFormat);
}

TEST(WireFormatTest, DecodersRejectWrongKindAndTrailingBytes) {
  std::string Payload = encodeEvalChunk(EvalChunkMsg{});
  EXPECT_THROW(decodeChunkDone(Payload), ErrorException);
  Payload.push_back('\0');
  EXPECT_THROW(decodeEvalChunk(Payload), ErrorException);
}

//===----------------------------------------------------------------------===//
// Frame layer
//===----------------------------------------------------------------------===//

TEST(FrameTest, RoundTripsPayloadsAndSignalsCleanEof) {
  BufferTransport T;
  sendFrame(T, "hello");
  sendFrame(T, std::string("\x00\x01\x02", 3));
  std::string Out;
  ASSERT_TRUE(recvFrame(T, Out, -1));
  EXPECT_EQ(Out, "hello");
  ASSERT_TRUE(recvFrame(T, Out, -1));
  EXPECT_EQ(Out, std::string("\x00\x01\x02", 3));
  EXPECT_FALSE(recvFrame(T, Out, -1)) << "clean EOF at a frame boundary";
}

TEST(FrameTest, CorruptPayloadByteFailsTheCrc) {
  BufferTransport T;
  sendFrame(T, "determinism");
  T.Buf[8 + 3] ^= 0x01; // flip one payload bit past the 8-byte header
  std::string Out;
  try {
    recvFrame(T, Out, -1);
    FAIL() << "corrupt frame accepted";
  } catch (const ErrorException &E) {
    EXPECT_EQ(E.error().code(), ErrCode::BadChecksum);
  }
}

TEST(FrameTest, TruncatedFrameIsRejected) {
  BufferTransport Full;
  sendFrame(Full, "some payload bytes");
  BufferTransport T;
  T.Buf = Full.Buf.substr(0, Full.Buf.size() - 5);
  std::string Out;
  try {
    recvFrame(T, Out, -1);
    FAIL() << "truncated frame accepted";
  } catch (const ErrorException &E) {
    EXPECT_EQ(E.error().code(), ErrCode::Truncated);
  }
}

TEST(FrameTest, ImplausibleLengthPrefixIsRejectedBeforeAllocation) {
  BufferTransport T;
  // Header claiming a ~4 GiB payload; must fail on the length check, not
  // try to allocate it.
  T.Buf.assign("\xff\xff\xff\xff\x00\x00\x00\x00", 8);
  std::string Out;
  try {
    recvFrame(T, Out, -1);
    FAIL() << "absurd frame length accepted";
  } catch (const ErrorException &E) {
    EXPECT_EQ(E.error().code(), ErrCode::BadFormat);
  }
}

//===----------------------------------------------------------------------===//
// FdTransport on a real descriptor
//===----------------------------------------------------------------------===//

namespace {

/// A connected socketpair: one end read through an FdTransport, the other
/// written and closed by hand.
struct SocketPairEnds {
  std::unique_ptr<FdTransport> Reader;
  int ReadFd = -1;
  int WriteFd = -1;

  SocketPairEnds() {
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
      throw std::runtime_error("socketpair failed");
    ReadFd = Fds[0];
    WriteFd = Fds[1];
    Reader = std::make_unique<FdTransport>(ReadFd, ReadFd, /*Owned=*/true);
  }
  ~SocketPairEnds() { closeWriter(); }

  void write(const std::string &Bytes) {
    ASSERT_EQ(::write(WriteFd, Bytes.data(), Bytes.size()),
              static_cast<ssize_t>(Bytes.size()));
  }
  void closeWriter() {
    if (WriteFd >= 0)
      ::close(WriteFd);
    WriteFd = -1;
  }
  /// Bytes written but not yet read.
  int pending() const {
    int N = 0;
    return ::ioctl(ReadFd, FIONREAD, &N) == 0 ? N : -1;
  }
};

/// The error readAll throws for \p Size bytes, or Ok when it returns.
Error readAllError(FdTransport &T, size_t Size, int TimeoutMs) {
  std::string Buf(Size, '\0');
  try {
    T.readAll(Buf.data(), Size, TimeoutMs);
  } catch (const ErrorException &E) {
    return E.error();
  }
  return Error::success();
}

} // namespace

TEST(FdTransportTest, ReadAllTimesOutWithIoError) {
  SocketPairEnds P;
  Error E = readAllError(*P.Reader, 8, 20);
  EXPECT_EQ(E.code(), ErrCode::IoError);
  EXPECT_EQ(E.context(), "transport read timed out after 20 ms");
}

TEST(FdTransportTest, ReadAllReportsEofBeforeTheFirstByte) {
  SocketPairEnds P;
  P.closeWriter();
  char Buf[8];
  EXPECT_FALSE(P.Reader->readAll(Buf, sizeof(Buf), 1000));
}

TEST(FdTransportTest, ReadAllRejectsEofMidDatum) {
  SocketPairEnds P;
  P.write("abc");
  P.closeWriter();
  Error E = readAllError(*P.Reader, 8, 1000);
  EXPECT_EQ(E.code(), ErrCode::Truncated);
  EXPECT_EQ(E.context(), "peer closed mid-datum (3 of 8 bytes)");
}

TEST(FdTransportTest, ReadAllJoinsADatumSplitAcrossWrites) {
  SocketPairEnds P;
  P.write("half");
  // Send the second half only once readAll has taken the first, so the
  // datum arrives in two reads.
  std::thread Late([&] {
    while (P.pending() > 0)
      std::this_thread::yield();
    P.write("more");
  });
  char Buf[8];
  bool Read = P.Reader->readAll(Buf, sizeof(Buf), 5000);
  Late.join();
  ASSERT_TRUE(Read);
  EXPECT_EQ(std::string(Buf, sizeof(Buf)), "halfmore");
}

//===----------------------------------------------------------------------===//
// Worker
//===----------------------------------------------------------------------===//

/// Sends \p Req to the worker on \p Link and returns its ChunkDone.
ChunkDoneMsg evalOnWorker(Transport &Link, const EvalChunkMsg &Req) {
  sendFrame(Link, encodeEvalChunk(Req));
  std::string Payload;
  EXPECT_TRUE(recvFrame(Link, Payload, 60000)) << "worker closed the link";
  return decodeChunkDone(Payload);
}

TEST(WorkerTest, KnownRecordsAreNeitherMeasuredNorSentBack) {
  InitMsg Init;
  Init.Machine = MachineConfig::core2();
  Init.Config = tinyOptions().GenConfig;
  WorkerConnection Conn = threadLauncher()(0);
  sendFrame(*Conn.Link, encodeInit(Init));

  EvalChunkMsg Req;
  Req.BeginSeed = 1;
  Req.EndSeed = Req.BeginSeed + PhaseOneChunk;
  Req.Wanted.fill(true);
  ChunkDoneMsg Cold = evalOnWorker(*Conn.Link, Req);
  ASSERT_FALSE(Cold.Fresh.empty()) << "a cold chunk measured nothing";

  // Every record known: nothing is measured or sent back, and the slots
  // are the cold ones.
  Req.Known = Cold.Fresh;
  ChunkDoneMsg Warm = evalOnWorker(*Conn.Link, Req);
  EXPECT_TRUE(Warm.Fresh.empty());
  expectSameSlots(Cold.Slots, Warm.Slots);

  // The first half known: exactly the second half comes back.
  size_t Half = Cold.Fresh.size() / 2;
  Req.Known.assign(Cold.Fresh.begin(), Cold.Fresh.begin() + Half);
  ChunkDoneMsg Part = evalOnWorker(*Conn.Link, Req);
  ASSERT_EQ(Part.Fresh.size(), Cold.Fresh.size() - Half);
  for (size_t I = 0; I != Part.Fresh.size(); ++I) {
    EXPECT_EQ(Part.Fresh[I].Seed, Cold.Fresh[Half + I].Seed);
    EXPECT_EQ(Part.Fresh[I].Mask, Cold.Fresh[Half + I].Mask);
    EXPECT_EQ(Part.Fresh[I].Cycles, Cold.Fresh[Half + I].Cycles);
  }
  expectSameSlots(Cold.Slots, Part.Slots);

  sendFrame(*Conn.Link, encodeShutdown());
  Conn.Link.reset();
  Conn.Terminate();
}

//===----------------------------------------------------------------------===//
// Coordinator determinism
//===----------------------------------------------------------------------===//

TEST(DistributedTrainingTest, MergeIdenticalAcrossWorkerCounts) {
  MachineConfig MC = MachineConfig::core2();
  TrainingFramework Serial(tinyOptions(), MC);
  ResultArray Want = Serial.phaseOneAll();

  for (unsigned Workers : {1u, 2u, 4u}) {
    TrainOptions Opts = tinyOptions();
    Coordinator Coord(MC, Opts, Workers, threadLauncher());
    Opts.Distribution = &Coord;
    TrainingFramework Distributed(Opts, MC);
    expectSameResults(Want, Distributed.phaseOneAll());
    EXPECT_EQ(Coord.lostSeeds(), 0u) << Workers << " workers";
    EXPECT_GT(Coord.cache().seeds(), 0u)
        << "workers never fed the shared cache";
  }
}

/// A service that implements only evalWave, forwarding to a coordinator —
/// the shape of a wrapper that times or logs each wave. The framework
/// drives it through ChunkEvalService::run's default.
class WaveOnlyService : public ChunkEvalService {
public:
  explicit WaveOnlyService(Coordinator &Inner) : Inner(Inner) {}
  unsigned width() const override { return Inner.width(); }
  std::vector<SeedEvalResult>
  evalWave(uint64_t BeginSeed, uint64_t EndSeed,
           const std::array<bool, NumModelKinds> &Wanted) override {
    ++Waves;
    return Inner.evalWave(BeginSeed, EndSeed, Wanted);
  }
  unsigned Waves = 0;

private:
  Coordinator &Inner;
};

TEST(DistributedTrainingTest, WaveOnlyServiceMergesIdentically) {
  MachineConfig MC = MachineConfig::core2();
  TrainingFramework Serial(tinyOptions(), MC);
  ResultArray Want = Serial.phaseOneAll();

  TrainOptions Opts = tinyOptions();
  Coordinator Coord(MC, Opts, 3, threadLauncher());
  WaveOnlyService Waves(Coord);
  Opts.Distribution = &Waves;
  TrainingFramework Distributed(Opts, MC);
  expectSameResults(Want, Distributed.phaseOneAll());
  // 200 seeds in waves of three 16-seed chunks.
  EXPECT_EQ(Waves.Waves, 5u);
  EXPECT_EQ(Coord.lostSeeds(), 0u);
}

TEST(DistributedTrainingTest, FleetSpeculationIsIndependentOfTiming) {
  // Under fixed speculation, which (seed, kind) pairs a fleet measures is a
  // function of the options and the fleet width: two runs measure exactly
  // the same set, and evaluate the same seeds past the stop.
  MachineConfig MC = MachineConfig::core2();
  std::vector<std::vector<CycleRecord>> Records;
  std::vector<PhaseOneStats> Stats;
  for (int Run = 0; Run != 2; ++Run) {
    TrainOptions Opts = tinyOptions();
    Opts.TargetPerDs = 2; // the vector family fills well before the cap
    Coordinator Coord(MC, Opts, 3, threadLauncher());
    Opts.Distribution = &Coord;
    TrainingFramework FW(Opts, MC);
    Stats.emplace_back();
    FW.phaseOne(ModelKind::Vector, &Stats.back());
    Records.push_back(Coord.cache().records());
  }
  ASSERT_LT(Stats[0].SeedsCommitted, tinyOptions().MaxSeeds)
      << "the scan must stop early for this test to mean anything";
  EXPECT_EQ(Stats[0].SeedsClaimed, Stats[1].SeedsClaimed);
  EXPECT_EQ(Stats[0].SeedsCommitted, Stats[1].SeedsCommitted);
  // At most the two chunks per worker the window admits, past the stop.
  EXPECT_LE(Stats[0].SeedsClaimed - Stats[0].SeedsCommitted,
            2 * 3 * PhaseOneChunk);
  ASSERT_EQ(Records[0].size(), Records[1].size());
  for (size_t I = 0; I != Records[0].size(); ++I) {
    EXPECT_EQ(Records[0][I].Seed, Records[1][I].Seed);
    EXPECT_EQ(Records[0][I].Mask, Records[1][I].Mask);
  }
}

TEST(DistributedTrainingTest, EvalWaveCoversRangesWiderThanTheFleet) {
  // Five chunks on two workers: each worker runs its chunks in turn, and
  // every slot equals the local evaluation of its seed.
  MachineConfig MC = MachineConfig::core2();
  TrainOptions Opts = tinyOptions();
  Coordinator Coord(MC, Opts, 2, threadLauncher());
  std::array<bool, NumModelKinds> Wanted;
  Wanted.fill(true);
  const uint64_t Begin = 1, End = Begin + 5 * PhaseOneChunk - 3;
  std::vector<SeedEvalResult> Slots = Coord.evalWave(Begin, End, Wanted);
  ASSERT_EQ(Slots.size(), End - Begin);
  EXPECT_EQ(Coord.lostSeeds(), 0u);

  TrainingFramework Local(Opts, MC);
  MeasurementCache::Shard Shard = Local.measurements().shard();
  for (uint64_t Seed = Begin; Seed != End; ++Seed) {
    std::array<SeedOutcome, NumModelKinds> Want;
    ASSERT_TRUE(Local.tryEvalSeed(Seed, Wanted, Shard, Want));
    const SeedEvalResult &Got = Slots[Seed - Begin];
    ASSERT_TRUE(Got.Ok) << "seed " << Seed;
    for (unsigned M = 0; M != NumModelKinds; ++M) {
      EXPECT_EQ(Got.Outcomes[M].Matched, Want[M].Matched);
      EXPECT_EQ(Got.Outcomes[M].Best, Want[M].Best);
      EXPECT_EQ(Got.Outcomes[M].Margin, Want[M].Margin);
    }
  }
}

TEST(DistributedTrainingTest, ExcludedSeedsTravelToWorkers) {
  MachineConfig MC = MachineConfig::core2();
  TrainOptions Opts = tinyOptions();
  Opts.ExcludeSeeds = {2, 3, 50};

  TrainingFramework Serial(Opts, MC);
  ResultArray Want = Serial.phaseOneAll();

  Coordinator Coord(MC, Opts, 2, threadLauncher());
  TrainOptions DistOpts = Opts;
  DistOpts.Distribution = &Coord;
  TrainingFramework Distributed(DistOpts, MC);
  expectSameResults(Want, Distributed.phaseOneAll());
}

TEST(DistributedTrainingTest, WinnerMarginTravelsToWorkers) {
  // Workers cap their races at the coordinator's margin, not the default:
  // a rival stopped at 5% past the best would pass for a near-tie here.
  MachineConfig MC = MachineConfig::core2();
  TrainOptions Opts = tinyOptions();
  Opts.WinnerMargin = 0.2;

  TrainingFramework Serial(Opts, MC);
  ResultArray Want = Serial.phaseOneAll();

  Coordinator Coord(MC, Opts, 2, threadLauncher());
  TrainOptions DistOpts = Opts;
  DistOpts.Distribution = &Coord;
  TrainingFramework Distributed(DistOpts, MC);
  expectSameResults(Want, Distributed.phaseOneAll());
  EXPECT_EQ(Coord.lostSeeds(), 0u);
}

TEST(DistributedTrainingTest, WarmMeasurementCacheSkipsWorkerSimulation) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = ::testing::TempDir() + "brainy_dist_mcache.txt";
  std::remove(Path.c_str());

  // Cold distributed run: the workers measure everything (the coordinator
  // cache counts each record they stream back as fresh), and the framework
  // saves the coordinator's cache, which holds every chunk's measurements.
  // The cold run must use the same worker count as the warm one: the
  // fleet's width sets how stale a chunk's Wanted mask may be and how far
  // past the early stop the window speculates, so only a same-shape rerun
  // is guaranteed to find every measurement on disk.
  TrainOptions Opts = tinyOptions();
  Opts.MeasurementCacheFile = Path;
  ResultArray Want;
  {
    Coordinator Cold(MC, Opts, 3, threadLauncher());
    TrainOptions ColdOpts = Opts;
    ColdOpts.Distribution = &Cold;
    TrainingFramework FW(ColdOpts, MC);
    Want = FW.phaseOneAll();
    EXPECT_GT(Cold.cache().freshMeasurements(), 0u)
        << "cold workers measured nothing";
  }

  // Warm distributed run: the coordinator preloads the file, every chunk
  // carries its seeds' records, and no worker sends back a single fresh
  // record.
  Coordinator Coord(MC, Opts, 3, threadLauncher());
  EXPECT_GT(Coord.cache().seeds(), 0u)
      << "coordinator did not preload the measurement cache";
  TrainOptions DistOpts = Opts;
  DistOpts.Distribution = &Coord;
  TrainingFramework Warm(DistOpts, MC);
  expectSameResults(Want, Warm.phaseOneAll());
  EXPECT_EQ(Coord.cache().freshMeasurements(), 0u)
      << "warm workers re-simulated cached seeds";
  std::remove(Path.c_str());
}

TEST(DistributedTrainingTest, WorkerLossEqualsExcludedSeeds) {
  MachineConfig MC = MachineConfig::core2();

  ResultArray Faulty;
  uint64_t Lost = 0;
  uint64_t Respawned = 0;
  {
    // Deterministic worker deaths, keyed by chunk first seed: the same
    // chunks die at any worker count.
    FaultGuard Guard("worker:0.3:11");
    TrainOptions Opts = tinyOptions();
    Coordinator Coord(MC, Opts, 3, threadLauncher());
    Opts.Distribution = &Coord;
    TrainingFramework FW(Opts, MC);
    Faulty = FW.phaseOneAll();
    Lost = Coord.lostSeeds();
    Respawned = Coord.respawns();
  }
  ASSERT_GT(Lost, 0u) << "fault rate produced no worker deaths";
  EXPECT_GT(Respawned, 0u) << "dead workers were never replaced";

  std::set<uint64_t> Skipped;
  for (unsigned M = 0; M != NumModelKinds; ++M)
    Skipped.insert(Faulty[M].SkippedSeeds.begin(),
                   Faulty[M].SkippedSeeds.end());
  ASSERT_FALSE(Skipped.empty());

  // The §10 acceptance property: the surviving merge equals a clean local
  // run whose seed stream never contained the lost seeds.
  TrainOptions CleanOpts = tinyOptions();
  CleanOpts.ExcludeSeeds = Skipped;
  TrainingFramework Clean(CleanOpts, MC);
  expectSameResults(Faulty, Clean.phaseOneAll());
}

//===----------------------------------------------------------------------===//
// TCP transport
//===----------------------------------------------------------------------===//

TEST(TcpEndpointTest, ParseAcceptsHostPortAndRejectsGarbage) {
  TcpEndpoint Ep = parseEndpoint("127.0.0.1:8080");
  EXPECT_EQ(Ep.Host, "127.0.0.1");
  EXPECT_EQ(Ep.Port, 8080);
  EXPECT_EQ(endpointName(Ep), "127.0.0.1:8080");

  Ep = parseEndpoint("worker-3.fleet.internal:0");
  EXPECT_EQ(Ep.Host, "worker-3.fleet.internal");
  EXPECT_EQ(Ep.Port, 0);

  for (const char *Bad : {"nohost", "host:", ":123", "host:abc", "host:70000",
                          "host:12x", ""})
    EXPECT_THROW(parseEndpoint(Bad), ErrorException) << "'" << Bad << "'";
}

TEST(TcpTransportTest, FramesCrossTheSocketAndBoundedAcceptTimesOut) {
  TcpListener Listener(TcpEndpoint{"127.0.0.1", 0});
  ASSERT_GT(Listener.port(), 0) << "ephemeral bind resolved no port";
  // Nobody has dialed in: a bounded accept returns null, not an error.
  EXPECT_EQ(Listener.acceptConnection(50), nullptr);

  std::thread Echo([&Listener] {
    std::unique_ptr<TcpTransport> Conn = Listener.acceptConnection(10000);
    ASSERT_TRUE(Conn) << "coordinator never connected";
    std::string Payload;
    while (recvFrame(*Conn, Payload, 10000))
      sendFrame(*Conn, Payload);
  });
  std::unique_ptr<TcpTransport> Client = TcpTransport::connectTo(
      parseEndpoint("127.0.0.1:" + std::to_string(Listener.port())), 10000);
  ASSERT_TRUE(Client);
  sendFrame(*Client, "over tcp");
  sendFrame(*Client, std::string("\x00\x01\x02", 3));
  std::string Back;
  ASSERT_TRUE(recvFrame(*Client, Back, 10000));
  EXPECT_EQ(Back, "over tcp");
  ASSERT_TRUE(recvFrame(*Client, Back, 10000));
  EXPECT_EQ(Back, std::string("\x00\x01\x02", 3));
  Client.reset(); // clean EOF ends the echo loop
  Echo.join();
}

TEST(TcpTransportTest, ConnectToRefusedPortThrowsIoError) {
  TcpEndpoint Dead = parseEndpoint(refusedEndpoint());
  try {
    TcpTransport::connectTo(Dead, 2000);
    FAIL() << "connect to a closed port succeeded";
  } catch (const ErrorException &E) {
    EXPECT_EQ(E.error().code(), ErrCode::IoError);
  }
}

//===----------------------------------------------------------------------===//
// Cross-host fleet (DESIGN.md §13)
//===----------------------------------------------------------------------===//

TEST(TcpFleetTest, MergeIdenticalToSerialOverTcp) {
  MachineConfig MC = MachineConfig::core2();
  TrainingFramework Serial(tinyOptions(), MC);
  ResultArray Want = Serial.phaseOneAll();

  TcpTestFleet Fleet(3);
  TrainOptions Opts = tinyOptions();
  Coordinator Coord(MC, Opts, 3, tcpLauncher(Fleet.Endpoints));
  Opts.Distribution = &Coord;
  TrainingFramework Distributed(Opts, MC);
  expectSameResults(Want, Distributed.phaseOneAll());
  EXPECT_EQ(Coord.lostSeeds(), 0u);
  EXPECT_EQ(Coord.declaredDead(), 0u);
  EXPECT_GT(Coord.cache().seeds(), 0u)
      << "TCP workers never fed the shared cache";
}

TEST(TcpFleetTest, WorkerCrashOverTcpEqualsExcludedSeeds) {
  MachineConfig MC = MachineConfig::core2();

  ResultArray Faulty;
  uint64_t Lost = 0;
  uint64_t Reconnects = 0;
  {
    // Same deterministic deaths as the local test: the worker drops the
    // socket without replying; the coordinator must reconnect to the
    // still-serving listener and press on.
    FaultGuard Guard("worker:0.3:11");
    TcpTestFleet Fleet(3);
    TrainOptions Opts = tinyOptions();
    Coordinator Coord(MC, Opts, 3, tcpLauncher(Fleet.Endpoints));
    Opts.Distribution = &Coord;
    TrainingFramework FW(Opts, MC);
    Faulty = FW.phaseOneAll();
    Lost = Coord.lostSeeds();
    Reconnects = Coord.respawns();
    EXPECT_EQ(Coord.declaredDead(), 0u)
        << "listeners kept serving; no slot should be declared dead";
  }
  ASSERT_GT(Lost, 0u) << "fault rate produced no worker deaths";
  EXPECT_GT(Reconnects, 0u) << "crashed workers were never reconnected";

  std::set<uint64_t> Skipped;
  for (unsigned M = 0; M != NumModelKinds; ++M)
    Skipped.insert(Faulty[M].SkippedSeeds.begin(),
                   Faulty[M].SkippedSeeds.end());
  ASSERT_FALSE(Skipped.empty());

  TrainOptions CleanOpts = tinyOptions();
  CleanOpts.ExcludeSeeds = Skipped;
  TrainingFramework Clean(CleanOpts, MC);
  expectSameResults(Faulty, Clean.phaseOneAll());
}

TEST(TcpFleetTest, UnreachableEndpointIsDeclaredDeadNotFatal) {
  MachineConfig MC = MachineConfig::core2();

  // Two live workers plus one endpoint nobody serves: slot 2's connects
  // are refused, so the chunks it claimed degrade to skipped seeds until
  // it is declared dead after MaxSpawnFailures retry cycles. From then on
  // it claims nothing and the live workers cover the rest of the stream.
  TcpTestFleet Fleet(2);
  std::vector<std::string> Endpoints = Fleet.Endpoints;
  Endpoints.push_back(refusedEndpoint());

  TcpLaunchPolicy Fast;
  Fast.ConnectAttempts = 2;
  Fast.InitialBackoffMs = 1;
  Fast.ConnectTimeoutMs = 2000;

  ResultArray Faulty;
  TrainOptions Opts = tinyOptions();
  Coordinator Coord(MC, Opts, 3, tcpLauncher(Endpoints, Fast));
  {
    TrainOptions RunOpts = Opts;
    RunOpts.Distribution = &Coord;
    TrainingFramework FW(RunOpts, MC);
    Faulty = FW.phaseOneAll();
  }
  EXPECT_EQ(Coord.declaredDead(), 1u);
  ASSERT_GT(Coord.lostSeeds(), 0u) << "the dead slot was never assigned work";
  EXPECT_LE(Coord.lostSeeds(), Coordinator::MaxSpawnFailures * PhaseOneChunk)
      << "the dead slot kept claiming chunks";

  std::set<uint64_t> Skipped;
  for (unsigned M = 0; M != NumModelKinds; ++M)
    Skipped.insert(Faulty[M].SkippedSeeds.begin(),
                   Faulty[M].SkippedSeeds.end());
  ASSERT_FALSE(Skipped.empty());

  TrainOptions CleanOpts = tinyOptions();
  CleanOpts.ExcludeSeeds = Skipped;
  TrainingFramework Clean(CleanOpts, MC);
  expectSameResults(Faulty, Clean.phaseOneAll());
}

TEST(TcpFleetTest, NetFaultsAreDeterministicAcrossWorkerCounts) {
  MachineConfig MC = MachineConfig::core2();

  // Injected drops/timeouts/short-reads at the transport seam, keyed by
  // chunk first seed: the same chunks are lost at any fleet width and
  // over any transport. Width 3 runs over real TCP; the rest use threads
  // (the seam is coordinator-side, so the transport must not matter).
  std::vector<ResultArray> Runs;
  {
    FaultGuard Guard("net:0.25:7");
    for (unsigned Workers : {1u, 2u, 3u, 4u}) {
      TrainOptions Opts = tinyOptions();
      std::unique_ptr<TcpTestFleet> Fleet;
      WorkerLauncher Launcher;
      if (Workers == 3) {
        Fleet = std::make_unique<TcpTestFleet>(Workers);
        Launcher = tcpLauncher(Fleet->Endpoints);
      } else {
        Launcher = threadLauncher();
      }
      Coordinator Coord(MC, Opts, Workers, std::move(Launcher));
      Opts.Distribution = &Coord;
      TrainingFramework FW(Opts, MC);
      Runs.push_back(FW.phaseOneAll());
      EXPECT_GT(Coord.lostSeeds(), 0u)
          << "fault rate lost nothing at " << Workers << " workers";
    }
  }
  for (size_t I = 1; I != Runs.size(); ++I)
    expectSameResults(Runs[0], Runs[I]);

  // And the lost chunks degrade exactly like pre-excluded seeds.
  std::set<uint64_t> Skipped;
  for (unsigned M = 0; M != NumModelKinds; ++M)
    Skipped.insert(Runs[0][M].SkippedSeeds.begin(),
                   Runs[0][M].SkippedSeeds.end());
  ASSERT_FALSE(Skipped.empty());
  TrainOptions CleanOpts = tinyOptions();
  CleanOpts.ExcludeSeeds = Skipped;
  TrainingFramework Clean(CleanOpts, MC);
  expectSameResults(Runs[0], Clean.phaseOneAll());
}

TEST(TcpFleetTest, CacheResumeAcrossFleetShapesMatchesUninterrupted) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = ::testing::TempDir() + "brainy_tcp_resume.txt";
  std::remove(Path.c_str());

  TrainingFramework Serial(tinyOptions(), MC);
  ResultArray Want = Serial.phaseOneAll();

  // "Kill" a fleet run mid-stream: cap MaxSeeds at four chunks. The cache
  // fingerprint covers only the generator and the machine, so the
  // measurements the partial run saved serve the full run.
  {
    TcpTestFleet Fleet(2);
    TrainOptions Opts = tinyOptions();
    Opts.MaxSeeds = 64;
    Opts.MeasurementCacheFile = Path;
    Coordinator Coord(MC, Opts, 2, tcpLauncher(Fleet.Endpoints));
    Opts.Distribution = &Coord;
    TrainingFramework FW(Opts, MC);
    (void)FW.phaseOneAll();
  }

  // The restart may change fleet shape: the ordered merge replays the
  // 2-wide prefix from the cache on a 3-wide fleet and still reproduces
  // the uninterrupted results bit-for-bit.
  {
    TcpTestFleet Fleet(3);
    TrainOptions Opts = tinyOptions();
    Opts.MeasurementCacheFile = Path;
    Coordinator Coord(MC, Opts, 3, tcpLauncher(Fleet.Endpoints));
    EXPECT_GT(Coord.cache().seeds(), 0u) << "the resume loaded nothing";
    Opts.Distribution = &Coord;
    TrainingFramework FW(Opts, MC);
    expectSameResults(Want, FW.phaseOneAll());
  }
  std::remove(Path.c_str());
}

TEST(TcpFleetTest, WarmMeasurementCacheOverTcpSkipsAllSimulation) {
  MachineConfig MC = MachineConfig::core2();
  std::string Path = ::testing::TempDir() + "brainy_tcp_mcache.txt";
  std::remove(Path.c_str());

  // Same shape constraint as the local warm test: cold and warm runs use
  // the same fleet width, so the warm window only touches seeds
  // the cold run measured.
  TrainOptions Opts = tinyOptions();
  Opts.MeasurementCacheFile = Path;
  ResultArray Want;
  {
    TcpTestFleet Fleet(3);
    Coordinator Cold(MC, Opts, 3, tcpLauncher(Fleet.Endpoints));
    TrainOptions ColdOpts = Opts;
    ColdOpts.Distribution = &Cold;
    TrainingFramework FW(ColdOpts, MC);
    Want = FW.phaseOneAll();
    EXPECT_GT(Cold.cache().freshMeasurements(), 0u)
        << "cold TCP workers measured nothing";
  }

  TcpTestFleet Fleet(3);
  Coordinator Warm(MC, Opts, 3, tcpLauncher(Fleet.Endpoints));
  EXPECT_GT(Warm.cache().seeds(), 0u)
      << "coordinator did not preload the measurement cache";
  TrainOptions WarmOpts = Opts;
  WarmOpts.Distribution = &Warm;
  TrainingFramework FW(WarmOpts, MC);
  expectSameResults(Want, FW.phaseOneAll());
  EXPECT_EQ(Warm.cache().freshMeasurements(), 0u)
      << "warm TCP workers re-simulated cached seeds";
  std::remove(Path.c_str());
}

} // namespace
