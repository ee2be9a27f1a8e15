//===- serve/Server.h - The brainy recommendation server --------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `brainy serve` (DESIGN.md §15): a long-lived TCP server answering
/// recommendation queries in the shared line grammar (core/Recommend.h)
/// against a hot-swappable ModelRegistry.
///
/// Thread shape:
///  * one accept thread slicing TcpListener::acceptConnection so shutdown
///    is observed within a poll slice;
///  * connection handlers on the support ThreadPool (one task per live
///    connection; extra connections queue until a worker frees up);
///  * one dispatcher thread that collects the query groups every handler
///    enqueues and answers them through the batched pipeline — handlers
///    park on a condition variable, so queries arriving together across
///    connections are answered by one forward pass per (arch, model).
///
/// Graceful shutdown drains: stop() stops accepting, lets every handler
/// finish its in-flight groups (the dispatcher keeps answering until the
/// handlers are done), and only then retires the dispatcher — no accepted
/// query is ever dropped.
///
/// Protocol: one request line per query (grammar in core/Recommend.h),
/// one response line per request, in order. Lines starting with '!' are
/// control commands: `!reload` re-reads every bundle path (equivalent to
/// SIGHUP in the CLI) and answers with a status line. A line longer than
/// MaxLineBytes (serve/LineChannel.h) gets one `error out-of-range` line
/// after the answers to the lines before it, and the server closes the
/// connection.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_SERVE_SERVER_H
#define BRAINY_SERVE_SERVER_H

#include "distributed/Tcp.h"
#include "serve/ModelRegistry.h"
#include "support/ThreadPool.h"
#include "support/ThreadSafety.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace brainy {
namespace serve {

/// Server configuration.
struct ServeOptions {
  std::vector<std::string> ModelPaths; ///< one v2 bundle per arch
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;                   ///< 0 = ephemeral (see port())
  unsigned ConnWorkers = 8;            ///< concurrent connection handlers
  /// Max queries per dispatch (0 counts as 1). 1 is the per-example
  /// baseline that bench/micro_serving.cpp measures batching against:
  /// every query is its own one-row forward pass, never merged with
  /// another. Answers are byte-identical at any value.
  unsigned MaxBatch = 256;
};

/// Monotonic serving counters (all relaxed; diagnostics only).
struct ServeStats {
  std::atomic<uint64_t> Connections{0};
  std::atomic<uint64_t> Queries{0};
  std::atomic<uint64_t> Batches{0};      ///< dispatcher groups answered
  std::atomic<uint64_t> MaxBatch{0};     ///< largest group observed
  std::atomic<uint64_t> Reloads{0};      ///< successful reload sweeps
};

/// The long-lived recommendation server. Construct, start(), and stop()
/// from one controlling thread; everything in between is internal.
class RecommendServer {
public:
  explicit RecommendServer(ServeOptions Options);
  ~RecommendServer();

  RecommendServer(const RecommendServer &) = delete;
  RecommendServer &operator=(const RecommendServer &) = delete;

  /// Loads every bundle (strict: any failure refuses startup), binds the
  /// listener, and spawns the serving threads.
  Error start();

  /// The bound port (valid after a successful start()).
  uint16_t port() const { return BoundPort; }

  /// Graceful shutdown: stop accepting, drain every in-flight query, join
  /// all threads. Idempotent; also run by the destructor.
  void stop();

  /// Hot-swap entry shared by SIGHUP and the `!reload` control line.
  ReloadOutcome reload();

  const ModelRegistry &registry() const { return Registry; }
  const ServeStats &stats() const { return Stats; }

private:
  /// One enqueued group of at most maxBatch() query lines from one
  /// connection, answered in place by the dispatcher.
  struct PendingBatch {
    std::vector<std::string> Lines;
    std::vector<std::string> Responses;
    bool Done = false;
  };

  void acceptLoop();
  void dispatchLoop();
  void handleConnection(dist::TcpTransport &Conn);

  /// Enqueues every batch of \p Run, in order, and parks until the
  /// dispatcher has marked them all done.
  void awaitBatches(std::vector<PendingBatch> &Run);

  /// Answers one control line ('!'-prefixed) synchronously.
  std::string answerControlLine(const std::string &Line);

  size_t maxBatch() const { return Options.MaxBatch ? Options.MaxBatch : 1; }

  const ServeOptions Options;
  ModelRegistry Registry;
  ServeStats Stats;

  std::unique_ptr<dist::TcpListener> Listener;
  uint16_t BoundPort = 0;

  std::atomic<bool> Stop{false};   ///< handlers/acceptor: wind down
  std::atomic<bool> Started{false};

  Mutex BatchMutex;
  ConditionVariable BatchCv;                       ///< dispatcher wake-up
  ConditionVariable DoneCv;                        ///< handler wake-up
  std::deque<PendingBatch *> BatchQueue BRAINY_GUARDED_BY(BatchMutex);
  bool Draining BRAINY_GUARDED_BY(BatchMutex) = false;

  std::thread Acceptor;
  std::thread Dispatcher;
  std::unique_ptr<ThreadPool> Pool; ///< connection handlers
};

} // namespace serve
} // namespace brainy

#endif // BRAINY_SERVE_SERVER_H
