//===- support/ThreadPool.cpp ---------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <atomic>
#include <exception>
#include <memory>

using namespace brainy;

namespace {
/// Set while a thread executes inside a pool's worker loop, so nested
/// helpers from that pool can detect re-entrancy and run inline.
thread_local const ThreadPool *CurrentPool = nullptr;
} // namespace

ThreadPool::ThreadPool(unsigned Workers) {
  Threads.reserve(Workers);
  for (unsigned I = 0; I != Workers; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock Lock(QueueMutex);
    Stopping = true;
  }
  QueueCv.notifyAll();
  for (std::thread &T : Threads)
    T.join();
}

bool ThreadPool::inWorker() const { return CurrentPool == this; }

void ThreadPool::submit(std::function<void()> Task) {
  {
    MutexLock Lock(QueueMutex);
    Queue.push_back(std::move(Task));
  }
  QueueCv.notifyOne();
}

void ThreadPool::workerLoop() {
  CurrentPool = this;
  for (;;) {
    std::function<void()> Task;
    {
      MutexLock Lock(QueueMutex);
      while (!Stopping && Queue.empty())
        QueueCv.wait(QueueMutex);
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
  }
}

void ThreadPool::parallelChunks(size_t Begin, size_t End, size_t ChunkSize,
                                const std::function<void(size_t, size_t)> &Fn) {
  if (Begin >= End)
    return;
  if (ChunkSize == 0)
    ChunkSize = 1;
  size_t NumChunks = (End - Begin + ChunkSize - 1) / ChunkSize;

  if (Threads.empty() || inWorker() || NumChunks == 1) {
    for (size_t C = 0; C != NumChunks; ++C) {
      size_t B = Begin + C * ChunkSize;
      Fn(B, B + ChunkSize < End ? B + ChunkSize : End);
    }
    return;
  }

  // Shared claim/join state. Helpers hold the shared_ptr, so a helper that
  // only starts after the range is exhausted still has valid state to
  // observe (it claims nothing and exits).
  struct Job {
    std::atomic<size_t> NextChunk{0};
    std::atomic<size_t> DoneChunks{0};
    size_t NumChunks = 0;
    size_t Begin = 0;
    size_t End = 0;
    size_t ChunkSize = 1;
    const std::function<void(size_t, size_t)> *Fn = nullptr;
    Mutex DoneMutex;
    ConditionVariable Done;
    std::exception_ptr Error BRAINY_GUARDED_BY(DoneMutex);
  };
  auto J = std::make_shared<Job>();
  J->NumChunks = NumChunks;
  J->Begin = Begin;
  J->End = End;
  J->ChunkSize = ChunkSize;
  J->Fn = &Fn;

  auto RunChunks = [J] {
    for (;;) {
      size_t C = J->NextChunk.fetch_add(1, std::memory_order_relaxed);
      if (C >= J->NumChunks)
        return;
      size_t B = J->Begin + C * J->ChunkSize;
      size_t E = B + J->ChunkSize < J->End ? B + J->ChunkSize : J->End;
      try {
        (*J->Fn)(B, E);
      } catch (...) {
        MutexLock Lock(J->DoneMutex);
        if (!J->Error)
          J->Error = std::current_exception();
      }
      if (J->DoneChunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          J->NumChunks) {
        // Take and drop the lock so the notify cannot race a waiter that
        // already checked the predicate but has not yet blocked.
        { MutexLock Lock(J->DoneMutex); }
        J->Done.notifyAll();
      }
    }
  };

  size_t Helpers = Threads.size() < NumChunks - 1 ? Threads.size()
                                                  : NumChunks - 1;
  for (size_t I = 0; I != Helpers; ++I)
    submit(RunChunks);
  RunChunks(); // The caller participates.
  std::exception_ptr Error;
  {
    MutexLock Lock(J->DoneMutex);
    while (J->DoneChunks.load(std::memory_order_acquire) != J->NumChunks)
      J->Done.wait(J->DoneMutex);
    Error = J->Error;
  }
  if (Error)
    std::rethrow_exception(Error);
}

void ThreadPool::parallelFor(size_t Begin, size_t End,
                             const std::function<void(size_t)> &Fn) {
  parallelChunks(Begin, End, 1,
                 [&Fn](size_t B, size_t E) {
                   for (size_t I = B; I != E; ++I)
                     Fn(I);
                 });
}
