//===- distributed/Worker.cpp ---------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "distributed/Worker.h"

#include "core/TrainingFramework.h"
#include "distributed/WireFormat.h"
#include "support/Error.h"
#include "support/FaultInjector.h"

#include <cstdio>
#include <memory>
#include <optional>

using namespace brainy;
using namespace brainy::dist;

namespace {

/// The evaluation context Init describes.
TrainOptions makeOptions(const InitMsg &Init) {
  TrainOptions Options;
  Options.GenConfig = Init.Config;
  Options.WinnerMargin = Init.WinnerMargin;
  Options.EvalRetries = Init.EvalRetries;
  Options.ExcludeSeeds.insert(Init.ExcludeSeeds.begin(),
                              Init.ExcludeSeeds.end());
  // Chunks are evaluated serially worker-side: parallelism comes from the
  // worker count.
  Options.Jobs = 1;
  return Options;
}

ChunkDoneMsg evalChunk(const TrainingFramework &Framework,
                       const EvalChunkMsg &Req) {
  // The chunk's cache holds exactly its Known records, so the shard's
  // fresh records are what this worker measured itself.
  MeasurementCache Known;
  for (const CycleRecord &Rec : Req.Known)
    Known.restoreRecord(Rec);
  MeasurementCache::Shard Shard = Known.shard();
  ChunkDoneMsg Done;
  Done.BeginSeed = Req.BeginSeed;
  Done.Slots.resize(static_cast<size_t>(Req.EndSeed - Req.BeginSeed));
  for (uint64_t Seed = Req.BeginSeed; Seed != Req.EndSeed; ++Seed) {
    SeedEvalResult &Slot = Done.Slots[Seed - Req.BeginSeed];
    Slot.Ok = Framework.tryEvalSeed(Seed, Req.Wanted, Shard, Slot.Outcomes);
  }
  Done.Fresh = Shard.freshRecords(Req.BeginSeed, Req.EndSeed);
  return Done;
}

} // namespace

WorkerExit dist::serveWorker(Transport &T) {
  std::optional<TrainingFramework> Framework;
  try {
    std::string Payload;
    while (recvFrame(T, Payload, /*TimeoutMs=*/-1)) {
      switch (payloadKind(Payload)) {
      case MsgKind::Init: {
        // Re-Init replaces the evaluation context wholesale (the
        // coordinator sends it once per connection).
        InitMsg Init = decodeInit(Payload);
        Framework.emplace(makeOptions(Init), Init.Machine);
        break;
      }
      case MsgKind::EvalChunk: {
        if (!Framework)
          throw ErrorException(
              Error(ErrCode::BadFormat, "EvalChunk before Init"));
        EvalChunkMsg Req = decodeEvalChunk(Payload);
        // Deterministic worker death: keyed by the chunk's first seed so
        // the set of lost chunks is independent of scheduling. The caller
        // drops the transport without replying — a real crash as far as
        // the coordinator can tell.
        if (FaultInjector::instance().shouldFail(FaultSite::WorkerLoss,
                                                 Req.BeginSeed))
          return WorkerExit::SimulatedCrash;
        sendFrame(T, encodeChunkDone(evalChunk(*Framework, Req)));
        break;
      }
      case MsgKind::Shutdown:
        return WorkerExit::Shutdown;
      case MsgKind::ChunkDone:
        throw ErrorException(
            Error(ErrCode::BadFormat,
                  "coordinator sent a worker-direction message"));
      }
    }
    return WorkerExit::Shutdown; // clean EOF at a frame boundary
  } catch (const std::exception &E) {
    std::fprintf(stderr, "brainy: worker: transport lost: %s\n", E.what());
    return WorkerExit::TransportLost;
    // brainy-lint: allow(catch-all): serveWorker's never-throws contract;
    // any escape is reported as TransportLost to the launcher.
  } catch (...) {
    std::fprintf(stderr, "brainy: worker: transport lost\n");
    return WorkerExit::TransportLost;
  }
}

uint64_t dist::serveListener(TcpListener &Listener,
                             const std::atomic<bool> *Stop) {
  uint64_t Served = 0;
  try {
    while (!Stop || !Stop->load(std::memory_order_acquire)) {
      std::unique_ptr<TcpTransport> Conn =
          Listener.acceptConnection(Stop ? 100 : -1);
      if (!Conn)
        continue; // poll slice elapsed; re-check Stop
      serveWorker(*Conn);
      // Whatever the exit, drop the socket here: for SimulatedCrash the
      // abrupt close (no ChunkDone) is exactly the death the coordinator
      // must observe, and a fresh accept is the respawn path.
      Conn.reset();
      ++Served;
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "brainy: worker: listener failed: %s\n", E.what());
    // brainy-lint: allow(catch-all): serveListener's never-throws
    // contract; a dead listener ends the loop, reported via the log.
  } catch (...) {
    std::fprintf(stderr, "brainy: worker: listener failed\n");
  }
  return Served;
}
