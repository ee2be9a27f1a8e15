//===- distributed/Worker.h - Phase I worker runtime -----------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker half of distributed Phase I (DESIGN.md §10): a loop that
/// receives an Init context, then evaluates EvalChunk requests purely —
/// through exactly the TrainingFramework::tryEvalSeed entry point a local
/// run uses — and answers each with one ChunkDone. A chunk is evaluated
/// against a fresh MeasurementCache holding exactly the chunk's Known
/// records, and every measurement the worker performs itself rides home
/// in the ChunkDone.
///
/// serveWorker is transport- and launch-agnostic: `brainy worker` runs it
/// as a subprocess over its inherited stdio descriptors, and tests/benches
/// run it on a plain thread over a socketpair end.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_DISTRIBUTED_WORKER_H
#define BRAINY_DISTRIBUTED_WORKER_H

#include "distributed/Tcp.h"
#include "distributed/Transport.h"

#include <atomic>
#include <cstdint>

namespace brainy {
namespace dist {

/// Why serveWorker returned.
enum class WorkerExit {
  /// The coordinator sent Shutdown (or closed the stream at a frame
  /// boundary): the normal end of life.
  Shutdown,
  /// A BRAINY_FAULT=worker:... probe fired on chunk receipt. The caller
  /// must drop the transport abruptly — without a ChunkDone — so the
  /// coordinator sees a genuine worker death.
  SimulatedCrash,
  /// The transport failed mid-protocol (coordinator died, stream
  /// corrupted). Details were logged to stderr.
  TransportLost,
};

/// Runs the worker protocol over \p T until shutdown, crash simulation,
/// or transport loss. Never throws.
///
/// Worker-loss faults are keyed by the chunk's first seed (site `worker`,
/// DESIGN.md §8/§10), so which chunks die is a pure function of the fault
/// spec — independent of the worker count and of which worker drew the
/// chunk — which is what makes fault runs reproducible and testable
/// against ExcludeSeeds.
WorkerExit serveWorker(Transport &T);

/// The `brainy worker --listen` accept loop (DESIGN.md §13): accepts one
/// coordinator connection at a time on \p Listener and runs serveWorker
/// over it; when the connection ends — shutdown, simulated crash, or
/// transport loss — the socket is dropped (a crash thus looks like a real
/// death to the coordinator) and the loop accepts the next connection, so
/// a coordinator respawn of this slot is simply a reconnect, and one
/// long-lived worker process serves any number of training runs.
///
/// Runs until \p Stop (when non-null) becomes true, polling the listener
/// in 100 ms slices; with a null \p Stop it serves forever (the CLI shape
/// — the process is terminated externally). Returns the number of
/// connections served. Never throws: listener errors are logged and end
/// the loop.
uint64_t serveListener(TcpListener &Listener,
                       const std::atomic<bool> *Stop = nullptr);

} // namespace dist
} // namespace brainy

#endif // BRAINY_DISTRIBUTED_WORKER_H
