//===- tests/serve_test.cpp - The serving subsystem -----------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// The serving contracts (DESIGN.md §15):
//
//  * the batched forward pass is bit-identical to the scalar one at any
//    batch size, so batch assembly can never change an answer;
//  * the request pipeline answers in input order for any mix of good and
//    malformed lines, batched or query by query, and a live server
//    returns the same bytes at any MaxBatch / client-thread count, never
//    dispatching more than MaxBatch queries at once;
//  * the registry hot-swap is atomic: every query is answered entirely by
//    the old bundle or entirely by the new one, a corrupt replacement
//    keeps the old bundle serving, and in-flight snapshots keep a retired
//    bundle alive until they drain;
//  * graceful shutdown answers everything accepted before stopping;
//  * a request line longer than MaxLineBytes is refused with an error
//    line and the connection closed, without holding up other clients.
//
//===----------------------------------------------------------------------===//

#include "core/Recommend.h"
#include "distributed/Tcp.h"
#include "ml/NeuralNet.h"
#include "serve/LineChannel.h"
#include "serve/ModelRegistry.h"
#include "serve/Pipeline.h"
#include "serve/Server.h"
#include "serve/SyntheticBundle.h"
#include "support/Crc32.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace brainy;
using namespace brainy::serve;

namespace {

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + "brainy_serve_" + Name;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr) << Path;
  ASSERT_EQ(std::fwrite(Text.data(), 1, Text.size(), F), Text.size());
  ASSERT_EQ(std::fclose(F), 0);
}

/// A deterministic, mildly varied query line for index \p I.
std::string queryLine(const std::string &Arch, unsigned I) {
  RecommendQuery Q;
  Q.Arch = Arch;
  const DsKind Kinds[] = {DsKind::Vector, DsKind::List, DsKind::Set,
                          DsKind::Map};
  Q.Original = Kinds[I % 4];
  Q.OrderOblivious = (I % 3) != 0;
  for (unsigned F = 0; F != NumFeatures; ++F)
    Q.Features.Values[F] =
        static_cast<double>((I * 31 + F * 7) % 97) / 8.0 - 3.0;
  return formatRecommendQuery(Q);
}

/// Sends \p Request over one connection and returns everything the server
/// wrote until it closed or the expected line count arrived.
std::vector<std::string> roundTrip(uint16_t Port, const std::string &Request,
                                   size_t ExpectLines) {
  auto Conn = dist::TcpTransport::connectTo(
      dist::TcpEndpoint{"127.0.0.1", Port}, /*TimeoutMs=*/5000);
  Conn->writeAll(Request.data(), Request.size());
  LineChannel Chan(*Conn);
  std::vector<std::string> Lines;
  std::string Line;
  while (Lines.size() < ExpectLines) {
    LineChannel::ReadStatus St = Chan.readLine(Line, 5000);
    if (St == LineChannel::ReadStatus::Line)
      Lines.push_back(Line);
    else if (St == LineChannel::ReadStatus::Eof)
      break;
  }
  return Lines;
}

} // namespace

//===----------------------------------------------------------------------===//
// Batched forward pass: bitwise equality with the scalar path
//===----------------------------------------------------------------------===//

TEST(NeuralNetBatch, BitIdenticalToScalarAtAnyBatchSize) {
  // A real trained net (deterministic seed) — not a synthetic constant
  // net, so every weight actually participates.
  Dataset Data;
  for (unsigned I = 0; I != 64; ++I) {
    std::vector<double> X(10);
    for (unsigned J = 0; J != 10; ++J)
      X[J] = static_cast<double>((I * 17 + J * 5) % 23) / 4.0 - 2.0;
    Data.add(std::move(X), I % 3);
  }
  NetConfig Config;
  Config.HiddenUnits = 6;
  Config.Epochs = 40;
  NeuralNet Net = trainNetwork(Data, Config);

  for (size_t Batch : {size_t(1), size_t(2), size_t(7), size_t(64)}) {
    std::vector<std::vector<double>> Sub(Data.Rows.begin(),
                                         Data.Rows.begin() + Batch);
    std::vector<std::vector<double>> Got = Net.predictProbaBatch(Sub);
    ASSERT_EQ(Got.size(), Batch);
    for (size_t I = 0; I != Batch; ++I) {
      std::vector<double> Want = Net.predictProba(Sub[I]);
      ASSERT_EQ(Got[I].size(), Want.size());
      for (size_t J = 0; J != Want.size(); ++J)
        EXPECT_EQ(Got[I][J], Want[J]) // bitwise, not near
            << "row " << I << " class " << J << " batch " << Batch;
    }
  }
}

//===----------------------------------------------------------------------===//
// Synthetic bundles and the registry
//===----------------------------------------------------------------------===//

TEST(SyntheticBundle, LoadsThroughHardenedLoaderAndPredictsItsWinner) {
  std::string Path = tmpPath("synthetic.models");
  ASSERT_FALSE(writeSyntheticBundle(Path, "core2", "t", /*WinnerIndex=*/0));
  Expected<Brainy> Loaded = Brainy::load(Path);
  ASSERT_TRUE(Loaded);
  EXPECT_EQ(Loaded->machineName(), "core2");
  // Winner 0 is the original itself in every Table 1 row.
  RecommendQuery Q;
  Error E = parseRecommendQuery(queryLine("core2", 1), Q);
  ASSERT_FALSE(E) << E.message();
  EXPECT_EQ(Loaded->recommendWith(modelFor(Q.Original, Q.OrderOblivious),
                                  Q.Features, Q.OrderOblivious),
            Q.Original);
}

TEST(SyntheticBundle, BytesArePinned) {
  // Serving tests and benches compare answers from these bundles; their
  // text must not drift.
  std::string Text = syntheticBundleText("core2", "t", 0);
  EXPECT_EQ(Text.size(), 2494u);
  EXPECT_EQ(crc32(Text), 0x8c214bcfu);
}

TEST(SyntheticBundle, DistinctWinnersGiveDistinguishableAnswers) {
  // The hot-swap observability primitive: winner 0 keeps the original,
  // winner 1 picks the next candidate, so answers reveal the bundle.
  std::string P0 = tmpPath("winner0.models");
  std::string P1 = tmpPath("winner1.models");
  ASSERT_FALSE(writeSyntheticBundle(P0, "core2", "t", 0));
  ASSERT_FALSE(writeSyntheticBundle(P1, "core2", "t", 1));
  Expected<Brainy> B0 = Brainy::load(P0);
  Expected<Brainy> B1 = Brainy::load(P1);
  ASSERT_TRUE(B0);
  ASSERT_TRUE(B1);
  FeatureVector F; // zero features; the constant net ignores them anyway
  EXPECT_NE(B0->recommendWith(ModelKind::VectorOO, F, true),
            B1->recommendWith(ModelKind::VectorOO, F, true));
}

TEST(ModelRegistry, InitialLoadIsStrict) {
  std::string Good = tmpPath("reg_good.models");
  ASSERT_FALSE(writeSyntheticBundle(Good, "core2", "t", 0));
  {
    ModelRegistry Reg({Good, tmpPath("reg_missing.models")});
    EXPECT_TRUE(Reg.loadInitial()); // any missing bundle refuses startup
    EXPECT_EQ(Reg.lookup("core2"), nullptr); // nothing published
  }
  {
    // Two bundles claiming the same machine cannot both serve it.
    std::string Dup = tmpPath("reg_dup.models");
    ASSERT_FALSE(writeSyntheticBundle(Dup, "core2", "t", 1));
    ModelRegistry Reg({Good, Dup});
    Error E = Reg.loadInitial();
    EXPECT_TRUE(E);
    EXPECT_EQ(E.code(), ErrCode::InvalidValue);
  }
  {
    ModelRegistry Reg({Good});
    EXPECT_FALSE(Reg.loadInitial());
    EXPECT_NE(Reg.lookup("core2"), nullptr);
    EXPECT_EQ(Reg.lookup("atom"), nullptr);
    EXPECT_EQ(Reg.arches(), std::vector<std::string>{"core2"});
  }
}

TEST(ModelRegistry, CorruptReloadKeepsOldBundleServing) {
  std::string Path = tmpPath("reg_corrupt.models");
  ASSERT_FALSE(writeSyntheticBundle(Path, "core2", "t", 0));
  ModelRegistry Reg({Path});
  ASSERT_FALSE(Reg.loadInitial());
  std::shared_ptr<const Brainy> Before = Reg.lookup("core2");
  ASSERT_NE(Before, nullptr);
  uint64_t Gen = Reg.generation();

  // Corrupt the file (flip payload bytes: CRC now fails in Brainy::load).
  std::string Text = syntheticBundleText("core2", "t", 0);
  Text[Text.size() / 2] ^= 0x5a;
  writeFile(Path, Text);

  ReloadOutcome Outcome = Reg.reload();
  EXPECT_FALSE(Outcome.ok());
  EXPECT_EQ(Outcome.Swapped, 0u);
  ASSERT_EQ(Outcome.Errors.size(), 1u);
  // The previously published bundle is untouched — same object, even.
  EXPECT_EQ(Reg.lookup("core2"), Before);
  EXPECT_EQ(Reg.generation(), Gen);
}

TEST(ModelRegistry, SwapIsAtomicAndRetiresAfterLastSnapshot) {
  std::string Path = tmpPath("reg_swap.models");
  ASSERT_FALSE(writeSyntheticBundle(Path, "core2", "t", 0));
  ModelRegistry Reg({Path});
  ASSERT_FALSE(Reg.loadInitial());
  std::shared_ptr<const Brainy> Old = Reg.lookup("core2");
  std::weak_ptr<const Brainy> OldWatch = Old;

  ASSERT_FALSE(writeSyntheticBundle(Path, "core2", "t", 1));
  ReloadOutcome Outcome = Reg.reload();
  EXPECT_TRUE(Outcome.ok());
  EXPECT_EQ(Outcome.Swapped, 1u);

  // An in-flight batch (our Old snapshot) still answers with the old
  // bundle; new lookups get the new one.
  std::shared_ptr<const Brainy> New = Reg.lookup("core2");
  ASSERT_NE(New, nullptr);
  EXPECT_NE(New, Old);
  FeatureVector F;
  EXPECT_NE(Old->recommendWith(ModelKind::VectorOO, F, true),
            New->recommendWith(ModelKind::VectorOO, F, true));

  // Retire-after-drain: the old bundle dies exactly when the last
  // snapshot does.
  Old.reset();
  EXPECT_TRUE(OldWatch.expired());
}

//===----------------------------------------------------------------------===//
// Pipeline: ordering, batched/unbatched equality
//===----------------------------------------------------------------------===//

TEST(Pipeline, AnswersInOrderBatchedAndUnbatchedIdentically) {
  std::string Core2 = tmpPath("pipe_core2.models");
  std::string Atom = tmpPath("pipe_atom.models");
  ASSERT_FALSE(writeSyntheticBundle(Core2, "core2", "t", 0));
  ASSERT_FALSE(writeSyntheticBundle(Atom, "atom", "t", 1));
  ModelRegistry Reg({Core2, Atom});
  ASSERT_FALSE(Reg.loadInitial());

  std::vector<std::string> Lines;
  for (unsigned I = 0; I != 40; ++I)
    Lines.push_back(queryLine(I % 2 ? "core2" : "atom", I));
  Lines.push_back("not a query");
  Lines.push_back(queryLine("nosuch", 3));

  std::vector<std::string> Batched = answerRequestLines(Reg, Lines, true);
  std::vector<std::string> Scalar = answerRequestLines(Reg, Lines, false);
  ASSERT_EQ(Batched.size(), Lines.size());
  EXPECT_EQ(Batched, Scalar); // the ≥2x speedup changes nothing else

  // Spot-check ordering: response I echoes query I's prefix.
  for (unsigned I = 0; I != 40; ++I) {
    RecommendQuery Q;
    ASSERT_FALSE(parseRecommendQuery(Lines[I], Q));
    std::string Prefix = Q.Arch + ' ' + dsKindName(Q.Original);
    EXPECT_EQ(Batched[I].compare(0, Prefix.size(), Prefix), 0)
        << Batched[I];
  }
  EXPECT_EQ(Batched[40].compare(0, 6, "error "), 0);
  EXPECT_EQ(Batched[41],
            "error unknown-key: no model bundle loaded for machine "
            "'nosuch'");
}

//===----------------------------------------------------------------------===//
// Live server: determinism across batch sizes and client counts
//===----------------------------------------------------------------------===//

namespace {

/// Answers every line one-shot as the reference, then serves the same
/// lines through a live server with the given shape, diffs, and checks
/// that no dispatch held more than MaxBatch queries.
void expectServerMatchesOneShot(unsigned MaxBatch, unsigned Clients) {
  std::string Path = tmpPath("det.models");
  ASSERT_FALSE(writeSyntheticBundle(Path, "core2", "t", 2));
  ModelRegistry Reference({Path});
  ASSERT_FALSE(Reference.loadInitial());

  constexpr unsigned PerClient = 25;
  std::vector<std::vector<std::string>> Want(Clients);
  for (unsigned C = 0; C != Clients; ++C) {
    std::vector<std::string> Lines;
    for (unsigned I = 0; I != PerClient; ++I)
      Lines.push_back(queryLine("core2", C * PerClient + I));
    Want[C] = answerRequestLines(Reference, Lines, /*Batched=*/true);
  }

  ServeOptions Opts;
  Opts.ModelPaths = {Path};
  Opts.MaxBatch = MaxBatch;
  Opts.ConnWorkers = Clients;
  RecommendServer Server(Opts);
  ASSERT_FALSE(Server.start());

  std::vector<std::thread> Threads;
  std::vector<std::vector<std::string>> Got(Clients);
  std::atomic<unsigned> Failures{0};
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      try {
        std::string Request;
        for (unsigned I = 0; I != PerClient; ++I)
          Request += queryLine("core2", C * PerClient + I) + "\n";
        Got[C] = roundTrip(Server.port(), Request, PerClient);
      } catch (const ErrorException &) {
        Failures.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Server.stop();

  EXPECT_EQ(Failures.load(), 0u);
  for (unsigned C = 0; C != Clients; ++C)
    EXPECT_EQ(Got[C], Want[C]) << "client " << C << " MaxBatch " << MaxBatch;
  EXPECT_LE(Server.stats().MaxBatch.load(), MaxBatch);
}

} // namespace

TEST(RecommendServer, SameAnswersAtAnyBatchSizeAndClientCount) {
  expectServerMatchesOneShot(/*MaxBatch=*/1, /*Clients=*/4);
  expectServerMatchesOneShot(/*MaxBatch=*/4, /*Clients=*/4);
  expectServerMatchesOneShot(/*MaxBatch=*/256, /*Clients=*/8);
  expectServerMatchesOneShot(/*MaxBatch=*/1, /*Clients=*/8);
  expectServerMatchesOneShot(/*MaxBatch=*/256, /*Clients=*/1);
}

TEST(RecommendServer, MaxBatchBoundsEveryDispatch) {
  // One client pipelines 25 lines in one write. The handler reads them as
  // one run, which must still go out in dispatches of at most 4.
  expectServerMatchesOneShot(/*MaxBatch=*/4, /*Clients=*/1);
}

TEST(RecommendServer, OverlongLineIsAnsweredAndClosed) {
  std::string Path = tmpPath("overlong.models");
  ASSERT_FALSE(writeSyntheticBundle(Path, "core2", "t", 0));
  ModelRegistry Reference({Path});
  ASSERT_FALSE(Reference.loadInitial());
  std::vector<std::string> Want =
      answerRequestLines(Reference, {queryLine("core2", 0),
                                     queryLine("core2", 1)},
                         true);

  ServeOptions Opts;
  Opts.ModelPaths = {Path};
  Opts.ConnWorkers = 2;
  RecommendServer Server(Opts);
  ASSERT_FALSE(Server.start());

  // One valid line, then 1 MiB with no newline. The writer has its own
  // thread: the server stops reading long before the last byte, so the
  // write ends when the server resets the connection.
  auto Conn = dist::TcpTransport::connectTo(
      dist::TcpEndpoint{"127.0.0.1", Server.port()}, 5000);
  std::thread Writer([&] {
    std::string Request = queryLine("core2", 0) + "\n";
    Request.append(1 << 20, 'x');
    try {
      Conn->writeAll(Request.data(), Request.size());
    } catch (const ErrorException &) {
      // Expected: the server resets the connection it stopped reading.
    }
  });

  std::vector<std::string> Second, Lines;
  LineChannel::ReadStatus St = LineChannel::ReadStatus::Timeout;
  std::string ReadError;
  try {
    // A second client is served meanwhile.
    Second = roundTrip(Server.port(), queryLine("core2", 1) + "\n", 1);
    // Bounded wait: a server that keeps buffering the line never answers
    // it, and must fail this test rather than hang it.
    LineChannel Chan(*Conn);
    std::string Line;
    for (unsigned Slice = 0; Slice != 50; ++Slice) {
      St = Chan.readLine(Line, 100);
      if (St == LineChannel::ReadStatus::Line)
        Lines.push_back(Line);
      else if (St != LineChannel::ReadStatus::Timeout)
        break;
    }
  } catch (const ErrorException &E) {
    ReadError = E.what();
  }
  Writer.join();
  Server.stop();

  EXPECT_EQ(ReadError, "");
  EXPECT_EQ(Second, std::vector<std::string>{Want[1]});
  EXPECT_EQ(St, LineChannel::ReadStatus::Eof);
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Lines[0], Want[0]);
  EXPECT_EQ(Lines[1], "error out-of-range: request line longer than "
                      "65536 bytes");
  EXPECT_EQ(Server.stats().Queries.load(), 2u);
}

TEST(RecommendServer, HotSwapMidTrafficIsAtomicAndCorruptReloadIsSafe) {
  std::string Path = tmpPath("swap_live.models");
  ASSERT_FALSE(writeSyntheticBundle(Path, "core2", "t", 0));

  ServeOptions Opts;
  Opts.ModelPaths = {Path};
  Opts.ConnWorkers = 4;
  RecommendServer Server(Opts);
  ASSERT_FALSE(Server.start());

  // The two possible answers for our probe query, old and new bundle.
  std::string Probe = queryLine("core2", 4); // vector, oo
  RecommendQuery Q;
  ASSERT_FALSE(parseRecommendQuery(Probe, Q));
  Expected<Brainy> OldB = Brainy::load(Path);
  ASSERT_TRUE(OldB);
  std::string OldAnswer = answerRecommendQuery(*OldB, Q);

  ASSERT_FALSE(writeSyntheticBundle(Path, "core2", "t", 1));
  Expected<Brainy> NewB = Brainy::load(Path);
  ASSERT_TRUE(NewB);
  std::string NewAnswer = answerRecommendQuery(*NewB, Q);
  ASSERT_NE(OldAnswer, NewAnswer);

  // Hammer the probe from several clients while reloads land mid-traffic.
  std::atomic<bool> Done{false};
  std::atomic<unsigned> OldSeen{0}, NewSeen{0}, BadSeen{0};
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C != 4; ++C)
    Clients.emplace_back([&] {
      auto Conn = dist::TcpTransport::connectTo(
          dist::TcpEndpoint{"127.0.0.1", Server.port()}, 5000);
      LineChannel Chan(*Conn);
      std::string Line;
      while (!Done.load()) {
        Chan.writeLine(Probe);
        LineChannel::ReadStatus St = Chan.readLine(Line, 5000);
        while (St == LineChannel::ReadStatus::Timeout && !Done.load())
          St = Chan.readLine(Line, 5000);
        if (St != LineChannel::ReadStatus::Line)
          break;
        if (Line == OldAnswer)
          OldSeen.fetch_add(1);
        else if (Line == NewAnswer)
          NewSeen.fetch_add(1);
        else
          BadSeen.fetch_add(1); // a blend would land here
      }
    });

  // First reload publishes winner 1; every later reload of the identical
  // file is also a (harmless) swap. Interleave with live traffic.
  for (unsigned I = 0; I != 20; ++I) {
    ReloadOutcome Outcome = Server.reload();
    EXPECT_TRUE(Outcome.ok());
  }
  // Now a corrupt reload mid-traffic: serving must continue on winner 1.
  {
    std::string Text = syntheticBundleText("core2", "t", 1);
    Text[Text.size() - 3] ^= 0x5a;
    writeFile(Path, Text);
    ReloadOutcome Outcome = Server.reload();
    EXPECT_FALSE(Outcome.ok());
    EXPECT_EQ(Outcome.Swapped, 0u);
  }
  // Let the clients observe the post-corrupt-reload world, then stop.
  for (unsigned I = 0; I != 50 && NewSeen.load() < 8; ++I)
    std::this_thread::yield();
  Done.store(true);
  for (std::thread &T : Clients)
    T.join();
  Server.stop();

  // Atomicity: only whole-bundle answers, never a blend or an error.
  EXPECT_EQ(BadSeen.load(), 0u);
  EXPECT_GT(NewSeen.load(), 0u); // the swap really took effect
  EXPECT_GE(Server.stats().Reloads.load(), 20u);
}

TEST(RecommendServer, GracefulStopDrainsEveryAcceptedQuery) {
  std::string Path = tmpPath("drain.models");
  ASSERT_FALSE(writeSyntheticBundle(Path, "core2", "t", 0));
  ServeOptions Opts;
  Opts.ModelPaths = {Path};
  Opts.ConnWorkers = 2;
  RecommendServer Server(Opts);
  ASSERT_FALSE(Server.start());

  constexpr unsigned N = 200;
  std::string Request;
  for (unsigned I = 0; I != N; ++I)
    Request += queryLine("core2", I) + "\n";

  // Race a big pipelined request group against stop(): whatever the
  // server read before stopping must still be answered in full.
  auto Conn = dist::TcpTransport::connectTo(
      dist::TcpEndpoint{"127.0.0.1", Server.port()}, 5000);
  Conn->writeAll(Request.data(), Request.size());
  std::thread Stopper([&] { Server.stop(); });
  LineChannel Chan(*Conn);
  std::vector<std::string> Lines;
  std::string Line;
  std::string ReadError;
  try {
    while (Chan.readLine(Line, 2000) == LineChannel::ReadStatus::Line)
      Lines.push_back(Line);
  } catch (const ErrorException &E) {
    ReadError = E.what();
  }
  Stopper.join();
  // A server stopped before reading anything resets the connection with
  // the queries unread: that is the end of the stream only when no answer
  // had arrived yet.
  if (!ReadError.empty()) {
    EXPECT_TRUE(Lines.empty()) << ReadError << " after " << Lines.size()
                               << " line(s)";
  }

  // Every response the server produced is complete and answers its query
  // in order (it may not have read all N before stop, but what it read it
  // answered — never a torn or missing line in the middle).
  ASSERT_LE(Lines.size(), N);
  ModelRegistry Reference({Path});
  ASSERT_FALSE(Reference.loadInitial());
  std::vector<std::string> AllLines;
  for (unsigned I = 0; I != N; ++I)
    AllLines.push_back(queryLine("core2", I));
  std::vector<std::string> Want = answerRequestLines(Reference, AllLines, true);
  for (size_t I = 0; I != Lines.size(); ++I)
    EXPECT_EQ(Lines[I], Want[I]) << "response " << I;

  // Stats agree with what went over the wire.
  EXPECT_EQ(Server.stats().Queries.load(), Lines.size());
}

TEST(RecommendServer, ControlLinesReloadAndStats) {
  std::string Path = tmpPath("ctl.models");
  ASSERT_FALSE(writeSyntheticBundle(Path, "core2", "t", 0));
  ServeOptions Opts;
  Opts.ModelPaths = {Path};
  RecommendServer Server(Opts);
  ASSERT_FALSE(Server.start());

  std::string Request = queryLine("core2", 0) + "\n!reload\n" +
                        queryLine("core2", 1) + "\n!nosuch\n";
  std::vector<std::string> Lines = roundTrip(Server.port(), Request, 4);
  ASSERT_EQ(Lines.size(), 4u);
  EXPECT_EQ(Lines[1], "reloaded 1 bundle(s)");
  EXPECT_EQ(Lines[3].compare(0, 6, "error "), 0);
  Server.stop();
  EXPECT_EQ(Server.stats().Reloads.load(), 1u);
}

//===----------------------------------------------------------------------===//
// Brainy::recommendBatch fallback parity
//===----------------------------------------------------------------------===//

TEST(RecommendBatch, UntrainedModelFallsBackPerQueryLikeScalar) {
  Brainy Untrained; // every model predicts "keep the original"
  FeatureVector F;
  std::vector<const FeatureVector *> Features{&F, &F, &F};
  std::vector<bool> OO{true, true, false};
  std::vector<DsKind> Out;
  Untrained.recommendBatch(ModelKind::Set, Features, OO, Out);
  ASSERT_EQ(Out.size(), 3u);
  for (DsKind K : Out)
    EXPECT_EQ(K, DsKind::Set);
  EXPECT_EQ(Untrained.fallbackCount(), 3u);

  Untrained.setStrict(true);
  EXPECT_THROW(Untrained.recommendBatch(ModelKind::Set, Features, OO, Out),
               ErrorException);
}
