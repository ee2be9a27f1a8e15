//===- distributed/Coordinator.h - Phase I chunk coordinator ---*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator half of distributed Phase I (DESIGN.md §10): a
/// ChunkEvalService whose workers each claim their next chunk from the
/// framework's PhaseOneWindow as soon as they are free, that sends each
/// chunk with the shared MeasurementCache's records for its seeds, and
/// converts worker death or timeout into skipped seeds — the chunk's
/// slots come back Ok=false, the framework's ordered merge records them
/// as PhaseOneResult::SkippedSeeds, and the surviving result is
/// bit-identical to a serial run whose seed stream never contained those
/// seeds (the ExcludeSeeds equivalence, asserted in tests and CI).
///
/// Worker supply is abstracted behind WorkerLauncher, so the same
/// coordinator drives `brainy worker` subprocesses (production), plain
/// threads (tests/benches), and remote `brainy worker --listen` hosts. A
/// worker that dies is respawned lazily before its next chunk; the chunk
/// it died on is never re-dispatched, so a deterministic worker-loss fault
/// cannot kill its replacement. A slot declared dead stops claiming, so
/// the surviving workers take over its share of the seed stream.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_DISTRIBUTED_COORDINATOR_H
#define BRAINY_DISTRIBUTED_COORDINATOR_H

#include "core/MeasurementCache.h"
#include "core/TrainingFramework.h"
#include "distributed/Transport.h"
#include "distributed/WireFormat.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <functional>
#include <memory>

namespace brainy {
namespace dist {

/// One live worker as produced by a launcher: its transport, plus a
/// reaper that must release the underlying resource (kill+waitpid a
/// subprocess, join a thread) after the link has been dropped.
struct WorkerConnection {
  std::unique_ptr<Transport> Link;
  std::function<void()> Terminate;
};

/// Spawns (or, for TCP fleets, connects) one worker for slot \p Slot.
/// Called lazily — on first use and after a death — from coordinator
/// driver threads; throws on spawn failure (the chunk is then skipped,
/// not fatal; repeated failures get the slot declared dead).
using WorkerLauncher = std::function<WorkerConnection(unsigned Slot)>;

/// Drives \p NumWorkers workers as the framework's Phase I evaluator.
/// Thread contract: run() and evalWave() run one driver per worker on an
/// internal pool, each owning its worker's transport exclusively; the
/// shared cache and the window are the only cross-driver state and both
/// are internally locked. Neither may be called while the other runs.
class Coordinator : public ChunkEvalService {
public:
  /// Per-reply wait before a worker is declared dead. Generous: a chunk
  /// is PhaseOneChunk seed evaluations, normally milliseconds.
  static constexpr int DefaultChunkTimeoutMs = 120000;

  /// \p Options supplies the evaluation context workers are initialised
  /// with (GenConfig, WinnerMargin, EvalRetries, ExcludeSeeds);
  /// scheduling fields (Jobs, Distribution) are ignored here.
  Coordinator(const MachineConfig &Machine, const TrainOptions &Options,
              unsigned NumWorkers, WorkerLauncher Launcher,
              int ChunkTimeoutMs = DefaultChunkTimeoutMs);
  ~Coordinator() override;

  Coordinator(const Coordinator &) = delete;
  Coordinator &operator=(const Coordinator &) = delete;

  unsigned width() const override { return NumWorkers; }

  /// Chunk C of the range goes to worker C % width().
  std::vector<SeedEvalResult>
  evalWave(uint64_t BeginSeed, uint64_t EndSeed,
           const std::array<bool, NumModelKinds> &Wanted) override;

  /// One driver per worker claims a chunk, runs it on its worker and
  /// completes it, until the window closes.
  void run(PhaseOneWindow &Window) override;

  /// Seeds in chunks lost to worker death/timeout/spawn failure. They
  /// surface as SkippedSeeds in the framework's result; this counter
  /// feeds the loss report.
  uint64_t lostSeeds() const {
    return LostSeeds.load(std::memory_order_relaxed);
  }
  /// Workers relaunched after a death (first spawns not counted). For a
  /// TCP fleet a respawn is a reconnect.
  uint64_t respawns() const {
    return Respawns.load(std::memory_order_relaxed);
  }
  /// Slots retired after MaxSpawnFailures consecutive spawn/reconnect
  /// failures. A dead slot claims no further chunks; only when every slot
  /// is dead are the remaining chunks skipped.
  uint64_t declaredDead() const {
    return DeclaredDead.load(std::memory_order_relaxed);
  }

  /// The shared measurement cache sent to workers (exposed for tests).
  const MeasurementCache &cache() const { return Cache; }

  /// The framework saves this cache to the run's measurement cache file,
  /// so a distributed run's file is as complete as a local one.
  const MeasurementCache *measurements() const override { return &Cache; }

  /// Consecutive launcher failures before a slot is declared dead for the
  /// rest of the run. tcpLauncher's bounded retry multiplies under this:
  /// a worker only counts as gone after MaxSpawnFailures whole retry
  /// cycles came up empty.
  static constexpr unsigned MaxSpawnFailures = 3;

private:
  struct Slot {
    WorkerConnection Conn;
    bool Alive = false;
    bool EverSpawned = false;
    /// Consecutive spawn failures (reset on success). At
    /// MaxSpawnFailures the slot flips Dead and is never retried.
    unsigned SpawnFailures = 0;
    bool Dead = false;
  };

  /// Spawns + Inits slot \p I if it is not alive. Returns false (after
  /// logging) when the launcher fails or the slot is dead.
  bool ensureWorker(unsigned I);
  /// Drops the link, reaps the worker, marks the slot dead.
  void dropWorker(unsigned I);
  /// One EvalChunk and its ChunkDone on worker \p I. Returns false —
  /// never throws — when the worker was lost; \p Out is then left
  /// untouched (all-skipped).
  bool runChunk(unsigned I, uint64_t BeginSeed, uint64_t EndSeed,
                const std::array<bool, NumModelKinds> &Wanted,
                std::vector<SeedEvalResult> &Out);

  InitMsg InitContext;
  unsigned NumWorkers;
  WorkerLauncher Launcher;
  int ChunkTimeoutMs;
  /// The shared (seed, kind) cache; config and machine are fixed per run.
  /// Internally locked; read and fed concurrently by all drivers.
  MeasurementCache Cache;
  /// Slot I is touched only by driver I — drivers partition slots, so no
  /// lock is needed.
  std::vector<Slot> Slots;
  /// NumWorkers-1 threads; the calling thread participates, giving one
  /// driver per worker.
  ThreadPool Drivers;
  std::atomic<uint64_t> LostSeeds{0};
  std::atomic<uint64_t> Respawns{0};
  std::atomic<uint64_t> DeclaredDead{0};
};

} // namespace dist
} // namespace brainy

#endif // BRAINY_DISTRIBUTED_COORDINATOR_H
