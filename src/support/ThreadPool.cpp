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

void ThreadPool::parallelFor(size_t Begin, size_t End,
                             const std::function<void(size_t)> &Fn) {
  if (Begin >= End)
    return;
  size_t Count = End - Begin;

  if (Threads.empty() || inWorker() || Count == 1) {
    for (size_t I = Begin; I != End; ++I)
      Fn(I);
    return;
  }

  // Shared claim/join state. Helpers hold the shared_ptr, so a helper that
  // only starts after the range is exhausted still has valid state to
  // observe (it claims nothing and exits).
  struct Job {
    std::atomic<size_t> Next{0};
    std::atomic<size_t> DoneCount{0};
    size_t Count = 0;
    size_t Begin = 0;
    const std::function<void(size_t)> *Fn = nullptr;
    Mutex DoneMutex;
    ConditionVariable Done;
    std::exception_ptr Error BRAINY_GUARDED_BY(DoneMutex);
  };
  auto J = std::make_shared<Job>();
  J->Count = Count;
  J->Begin = Begin;
  J->Fn = &Fn;

  auto RunIndices = [J] {
    for (;;) {
      size_t I = J->Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= J->Count)
        return;
      try {
        (*J->Fn)(J->Begin + I);
      } catch (...) {
        MutexLock Lock(J->DoneMutex);
        if (!J->Error)
          J->Error = std::current_exception();
      }
      if (J->DoneCount.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          J->Count) {
        // Take and drop the lock so the notify cannot race a waiter that
        // already checked the predicate but has not yet blocked.
        { MutexLock Lock(J->DoneMutex); }
        J->Done.notifyAll();
      }
    }
  };

  size_t Helpers = Threads.size() < Count - 1 ? Threads.size() : Count - 1;
  for (size_t I = 0; I != Helpers; ++I)
    submit(RunIndices);
  RunIndices(); // The caller participates.
  std::exception_ptr Error;
  {
    MutexLock Lock(J->DoneMutex);
    while (J->DoneCount.load(std::memory_order_acquire) != J->Count)
      J->Done.wait(J->DoneMutex);
    Error = J->Error;
  }
  if (Error)
    std::rethrow_exception(Error);
}
