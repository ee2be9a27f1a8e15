//===- support/ThreadPool.h - Fixed worker pool for training ---*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool with one fan-out helper, built only on the
/// standard library. The training pipeline races seed-derived applications
/// that are pure functions of (seed, config, machine), so the pool's job is
/// plain fan-out: callers dispatch index ranges, workers claim indices from
/// an atomic cursor, and the *caller* merges results in a deterministic
/// order after the join. Scheduling order is never allowed to influence
/// results.
///
/// Nesting contract: a parallelFor issued from inside one of this pool's
/// workers runs inline on that worker (no new tasks), so layered parallel
/// code (e.g. Phase II fan-out inside per-model training fan-out) cannot
/// deadlock the queue.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_SUPPORT_THREADPOOL_H
#define BRAINY_SUPPORT_THREADPOOL_H

#include "support/ThreadSafety.h"

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

namespace brainy {

/// Fixed pool of worker threads. A pool with zero workers is valid: every
/// helper then runs inline on the calling thread (the serial path).
class ThreadPool {
public:
  explicit ThreadPool(unsigned Workers);
  /// Drains the queue (every submitted task still runs) and joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned workers() const { return static_cast<unsigned>(Threads.size()); }

  /// Enqueues a fire-and-forget task. Tasks submitted directly must not
  /// throw; use parallelFor for exception propagation.
  void submit(std::function<void()> Task);

  /// Runs Fn(I) for every I in [Begin, End), one index per claimed unit of
  /// work. The calling thread participates, so a pool with W workers gives
  /// W+1 concurrent executors. Blocks until the whole range is done and
  /// rethrows the first exception any invocation threw. Runs inline when
  /// the pool has no workers or when called from one of this pool's
  /// workers.
  void parallelFor(size_t Begin, size_t End,
                   const std::function<void(size_t)> &Fn);

  /// True when the calling thread is one of this pool's workers.
  bool inWorker() const;

private:
  void workerLoop();

  /// Written only by the constructor and joined by the destructor; never
  /// mutated while workers run, so it needs no capability.
  std::vector<std::thread> Threads;
  Mutex QueueMutex;
  std::deque<std::function<void()>> Queue BRAINY_GUARDED_BY(QueueMutex);
  ConditionVariable QueueCv;
  bool Stopping BRAINY_GUARDED_BY(QueueMutex) = false;
};

} // namespace brainy

#endif // BRAINY_SUPPORT_THREADPOOL_H
