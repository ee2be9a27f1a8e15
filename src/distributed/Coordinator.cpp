//===- distributed/Coordinator.cpp ----------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "distributed/Coordinator.h"

#include "core/MeasurementStore.h"
#include "support/Error.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <csignal>
#include <cstdio>

namespace {

/// Salts for the `net` fault site (BRAINY_FAULT=net:<rate>:<seed>),
/// probed at the coordinator's transport seam and keyed by the chunk's
/// first seed — chunk boundaries are fixed PhaseOneChunk multiples, so
/// which chunks suffer which network fate is independent of the worker
/// count, exactly like the `worker` site.
constexpr uint64_t NetSaltReset = 0;     ///< connection reset before send
constexpr uint64_t NetSaltTimeout = 1;   ///< reply never arrives
constexpr uint64_t NetSaltShortRead = 2; ///< reply truncated mid-frame

} // namespace

using namespace brainy;
using namespace brainy::dist;

Coordinator::Coordinator(const MachineConfig &Machine,
                         const TrainOptions &Options, unsigned NumWorkers,
                         WorkerLauncher Launcher, int ChunkTimeoutMs)
    : NumWorkers(NumWorkers ? NumWorkers : 1), Launcher(std::move(Launcher)),
      ChunkTimeoutMs(ChunkTimeoutMs), Slots(this->NumWorkers),
      Drivers(this->NumWorkers - 1) {
  InitContext.Machine = Machine;
  InitContext.Config = Options.GenConfig;
  InitContext.WinnerMargin = Options.WinnerMargin;
  InitContext.EvalRetries = Options.EvalRetries;
  InitContext.ExcludeSeeds.assign(Options.ExcludeSeeds.begin(),
                                  Options.ExcludeSeeds.end());
  // Warm start (DESIGN.md §12): preload the persisted measurement cache
  // whose records ride with each chunk, so no worker re-simulates a
  // cached seed. Only a simply-missing file stays quiet.
  if (!Options.MeasurementCacheFile.empty()) {
    Expected<size_t> Count = loadMeasurements(
        Options.MeasurementCacheFile, Cache, Options.GenConfig, Machine);
    if (!Count && Count.error().code() != ErrCode::IoError)
      std::fprintf(stderr, "brainy: recomputing measurements: %s\n",
                   Count.error().message().c_str());
  }
  // A worker dying mid-write must surface as EPIPE on the transport, not
  // kill the coordinator process.
  std::signal(SIGPIPE, SIG_IGN);
}

Coordinator::~Coordinator() {
  for (unsigned I = 0; I != NumWorkers; ++I) {
    Slot &S = Slots[I];
    if (S.Alive && S.Conn.Link) {
      try {
        sendFrame(*S.Conn.Link, encodeShutdown());
      } catch (const std::exception &) {
        // brainy-lint: allow(catch-all): best-effort goodbye on teardown;
        // the worker is reaped unconditionally below.
      } catch (...) {
      }
    }
    dropWorker(I);
  }
  // End-of-run loss report: fleet runs must be diagnosable from the
  // coordinator's stderr alone, whichever frontend drove them. Quiet on
  // the happy path.
  uint64_t Lost = lostSeeds(), Resp = respawns(), Dead = declaredDead();
  if (Lost || Resp || Dead)
    std::fprintf(stderr,
                 "brainy: coordinator: run complete: %llu seed(s) lost, "
                 "%llu worker respawn(s)/reconnect(s), %llu worker slot(s) "
                 "declared dead\n",
                 static_cast<unsigned long long>(Lost),
                 static_cast<unsigned long long>(Resp),
                 static_cast<unsigned long long>(Dead));
}

bool Coordinator::ensureWorker(unsigned I) {
  Slot &S = Slots[I];
  if (S.Alive)
    return true;
  if (S.Dead)
    return false;
  try {
    S.Conn = Launcher(I);
    if (!S.Conn.Link)
      throw ErrorException(
          Error(ErrCode::IoError, "launcher returned no transport"));
    if (S.EverSpawned)
      Respawns.fetch_add(1, std::memory_order_relaxed);
    S.EverSpawned = true;
    sendFrame(*S.Conn.Link, encodeInit(InitContext));
    S.Alive = true;
    S.SpawnFailures = 0;
    return true;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "brainy: coordinator: worker %u spawn failed: %s\n",
                 I, E.what());
    // brainy-lint: allow(catch-all): spawn failure is reported via the
    // return value and costs one chunk, not the run.
  } catch (...) {
    std::fprintf(stderr, "brainy: coordinator: worker %u spawn failed\n", I);
  }
  dropWorker(I);
  // A slot that cannot be (re)spawned repeatedly — refused reconnects, a
  // gone host, a broken exec — is retired so the rest of the run is not
  // spent on doomed connect attempts: its driver stops claiming chunks
  // (run()), and the chunks it failed degrade to SkippedSeeds like any
  // other loss.
  if (++S.SpawnFailures >= MaxSpawnFailures && !S.Dead) {
    S.Dead = true;
    DeclaredDead.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "brainy: coordinator: worker %u declared dead after %u "
                 "consecutive spawn failures\n",
                 I, S.SpawnFailures);
  }
  return false;
}

void Coordinator::dropWorker(unsigned I) {
  Slot &S = Slots[I];
  S.Alive = false;
  // Close the link first so a worker blocked on the transport unblocks
  // (EOF/EPIPE), then reap it (waitpid / join).
  S.Conn.Link.reset();
  if (S.Conn.Terminate) {
    S.Conn.Terminate();
    S.Conn.Terminate = nullptr;
  }
}

bool Coordinator::runChunk(unsigned I, uint64_t BeginSeed, uint64_t EndSeed,
                           const std::array<bool, NumModelKinds> &Wanted,
                           std::vector<SeedEvalResult> &Out) {
  if (!ensureWorker(I))
    return false;
  Slot &S = Slots[I];
  try {
    // Deterministic network churn (BRAINY_FAULT=net:<rate>:<seed>): the
    // three classic transport fates, keyed by the chunk's first seed so
    // the lost-chunk set is a pure function of the spec. Each throw lands
    // in the catch below — the same dropWorker + SkippedSeeds path a real
    // reset/timeout/short-read takes through the transport layer.
    FaultInjector &FI = FaultInjector::instance();
    FI.maybeThrow(FaultSite::NetIo, BeginSeed, NetSaltReset,
                  "connection reset by peer");
    EvalChunkMsg Req;
    Req.BeginSeed = BeginSeed;
    Req.EndSeed = EndSeed;
    Req.Wanted = Wanted;
    // No other chunk in flight evaluates these seeds, so what the cache
    // holds for them now is everything the worker could use.
    for (uint64_t Seed = BeginSeed; Seed != EndSeed; ++Seed) {
      CycleRecord Rec;
      if (Cache.lookupAll(Seed, Rec))
        Req.Known.push_back(Rec);
    }
    sendFrame(*S.Conn.Link, encodeEvalChunk(Req));
    FI.maybeThrow(FaultSite::NetIo, BeginSeed, NetSaltTimeout,
                  "transport read timed out");
    std::string Payload;
    if (!recvFrame(*S.Conn.Link, Payload, ChunkTimeoutMs))
      throw ErrorException(
          Error(ErrCode::IoError, "worker closed the stream mid-chunk"));
    FI.maybeThrow(FaultSite::NetIo, BeginSeed, NetSaltShortRead,
                  "peer closed mid-datum (short read)");
    ChunkDoneMsg Done = decodeChunkDone(Payload);
    if (Done.BeginSeed != BeginSeed ||
        Done.Slots.size() != static_cast<size_t>(EndSeed - BeginSeed))
      throw ErrorException(
          Error(ErrCode::BadFormat, "ChunkDone does not match the request"));
    for (const CycleRecord &Rec : Done.Fresh)
      Cache.mergeRecord(Rec);
    Out = std::move(Done.Slots);
    return true;
  } catch (const std::exception &E) {
    std::fprintf(
        stderr,
        "brainy: coordinator: worker %u lost on chunk [%llu, %llu): %s\n", I,
        static_cast<unsigned long long>(BeginSeed),
        static_cast<unsigned long long>(EndSeed), E.what());
    // brainy-lint: allow(catch-all): the documented worker-loss path —
    // the chunk is reported lost via the return value and its seeds
    // become SkippedSeeds, so nothing is silently swallowed.
  } catch (...) {
    std::fprintf(stderr,
                 "brainy: coordinator: worker %u lost on chunk [%llu, %llu)\n",
                 I, static_cast<unsigned long long>(BeginSeed),
                 static_cast<unsigned long long>(EndSeed));
  }
  dropWorker(I);
  return false;
}

std::vector<SeedEvalResult>
Coordinator::evalWave(uint64_t BeginSeed, uint64_t EndSeed,
                      const std::array<bool, NumModelKinds> &Wanted) {
  size_t NumSeeds = static_cast<size_t>(EndSeed - BeginSeed);
  size_t NumChunks = (NumSeeds + PhaseOneChunk - 1) / PhaseOneChunk;
  std::vector<SeedEvalResult> Evals(NumSeeds);
  // Driver W runs chunks W, W + NumWorkers, ... on worker W. Each writes
  // a disjoint slice of Evals and parallelFor joins before we return.
  Drivers.parallelFor(
      0, std::min<size_t>(NumChunks, NumWorkers), [&](size_t W) {
        for (size_t C = W; C < NumChunks; C += NumWorkers) {
          uint64_t Begin = BeginSeed + C * PhaseOneChunk;
          uint64_t End = std::min(EndSeed, Begin + PhaseOneChunk);
          std::vector<SeedEvalResult> Out;
          if (runChunk(static_cast<unsigned>(W), Begin, End, Wanted, Out)) {
            std::move(Out.begin(), Out.end(),
                      Evals.begin() + static_cast<size_t>(Begin - BeginSeed));
          } else {
            // The chunk's slots stay Ok=false: the merge skips these
            // seeds, exactly as if they had been excluded up front.
            LostSeeds.fetch_add(End - Begin, std::memory_order_relaxed);
          }
        }
      });
  return Evals;
}

void Coordinator::run(PhaseOneWindow &Window) {
  // Drivers whose slot is still alive. A slot declared dead stops
  // claiming, so the survivors take over its share of the stream; the
  // last driver keeps claiming (and skipping) even then, so the scan
  // always ends.
  std::atomic<unsigned> Alive{NumWorkers};
  Drivers.parallelFor(0, NumWorkers, [&](size_t W) {
    auto I = static_cast<unsigned>(W);
    bool CountedAlive = true;
    SeedClaim Claim;
    while (Window.claim(Claim)) {
      std::vector<SeedEvalResult> Out;
      if (!runChunk(I, Claim.BeginSeed, Claim.EndSeed, Claim.Wanted, Out))
        LostSeeds.fetch_add(Claim.EndSeed - Claim.BeginSeed,
                            std::memory_order_relaxed);
      Window.complete(Claim, std::move(Out));
      if (CountedAlive && Slots[I].Dead) {
        CountedAlive = false;
        if (Alive.fetch_sub(1, std::memory_order_acq_rel) != 1)
          return;
      }
    }
  });
}
