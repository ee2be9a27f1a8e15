//===- serve/Server.cpp ---------------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "serve/LineChannel.h"
#include "serve/Pipeline.h"

#include <algorithm>
#include <cstdio>
#include <utility>

using namespace brainy;
using namespace brainy::serve;

namespace {

/// Poll slice for accept and read loops: shutdown is observed within this
/// many milliseconds without any wall-clock reads.
constexpr int PollSliceMs = 100;

} // namespace

RecommendServer::RecommendServer(ServeOptions Options)
    : Options(std::move(Options)), Registry(this->Options.ModelPaths) {}

RecommendServer::~RecommendServer() { stop(); }

Error RecommendServer::start() {
  if (Error E = Registry.loadInitial())
    return E;
  try {
    dist::TcpEndpoint Ep;
    Ep.Host = Options.Host;
    Ep.Port = Options.Port;
    Listener = std::make_unique<dist::TcpListener>(Ep);
  } catch (const ErrorException &E) {
    return E.error();
  }
  BoundPort = Listener->port();
  Pool = std::make_unique<ThreadPool>(
      Options.ConnWorkers ? Options.ConnWorkers : 1);
  Dispatcher = std::thread([this] { dispatchLoop(); });
  Acceptor = std::thread([this] { acceptLoop(); });
  Started.store(true);
  return Error::success();
}

void RecommendServer::stop() {
  if (!Started.exchange(false))
    return;
  // Drain order matters: stop accepting first, then let every connection
  // handler finish its in-flight groups (the pool destructor runs every
  // queued task), and only then retire the dispatcher — it must outlive
  // the last handler so every awaitBatches() completes.
  Stop.store(true);
  if (Acceptor.joinable())
    Acceptor.join();
  Pool.reset();
  {
    MutexLock Lock(BatchMutex);
    Draining = true;
  }
  BatchCv.notifyAll();
  if (Dispatcher.joinable())
    Dispatcher.join();
  Listener.reset();
}

ReloadOutcome RecommendServer::reload() {
  ReloadOutcome Outcome = Registry.reload();
  if (Outcome.ok())
    Stats.Reloads.fetch_add(1, std::memory_order_relaxed);
  for (const std::string &Msg : Outcome.Errors)
    std::fprintf(stderr, "brainy serve: reload: %s\n", Msg.c_str());
  return Outcome;
}

void RecommendServer::acceptLoop() {
  while (!Stop.load()) {
    std::unique_ptr<dist::TcpTransport> Conn;
    try {
      Conn = Listener->acceptConnection(PollSliceMs);
    } catch (const ErrorException &E) {
      std::fprintf(stderr, "brainy serve: accept: %s\n",
                   E.error().message().c_str());
      continue;
    }
    if (!Conn)
      continue; // poll slice elapsed; re-check Stop
    Stats.Connections.fetch_add(1, std::memory_order_relaxed);
    // std::function needs a copyable callable, so the connection rides in
    // a shared_ptr; the handler task is its only real owner.
    std::shared_ptr<dist::TcpTransport> Shared = std::move(Conn);
    Pool->submit([this, Shared] {
      try {
        handleConnection(*Shared);
      } catch (const ErrorException &E) {
        // A broken connection (peer reset mid-write, read error) ends its
        // handler; the server keeps serving everyone else.
        std::fprintf(stderr, "brainy serve: connection: %s\n",
                     E.error().message().c_str());
      }
    });
  }
}

void RecommendServer::handleConnection(dist::TcpTransport &Conn) {
  LineChannel Chan(Conn);
  std::vector<std::string> Lines;
  for (;;) {
    Lines.clear();
    LineChannel::ReadStatus Status = Chan.readAvailableLines(Lines, PollSliceMs);
    if (!Lines.empty()) {
      // Answer in request order, preserving execution order too: a control
      // line takes effect after the queries pipelined before it and before
      // the ones after it.
      std::vector<std::string> Out;
      Out.reserve(Lines.size());
      size_t I = 0;
      while (I != Lines.size()) {
        if (Lines[I].empty()) {
          ++I; // blank lines separate groups in files; never answered
          continue;
        }
        if (Lines[I][0] == '!') {
          Out.push_back(answerControlLine(Lines[I]));
          ++I;
          continue;
        }
        // A run of queries goes out in dispatches of at most maxBatch()
        // lines, all enqueued at once so the dispatcher answers them back
        // to back rather than waiting for this handler between them.
        std::vector<PendingBatch> Run;
        while (I != Lines.size() && !Lines[I].empty() && Lines[I][0] != '!') {
          if (Run.empty() || Run.back().Lines.size() == maxBatch())
            Run.emplace_back();
          Run.back().Lines.push_back(std::move(Lines[I++]));
        }
        awaitBatches(Run);
        for (PendingBatch &B : Run)
          for (std::string &R : B.Responses)
            Out.push_back(std::move(R));
      }
      Chan.writeLines(Out);
    }
    if (Status == LineChannel::ReadStatus::TooLong) {
      // The lines before the overlong one are answered; the rest of the
      // stream is never read.
      Chan.writeLine(renderRecommendError(
          Error(ErrCode::OutOfRange, "request line longer than " +
                                         std::to_string(MaxLineBytes) +
                                         " bytes")));
      Conn.shutdownWrite();
      return;
    }
    if (Status == LineChannel::ReadStatus::Eof)
      return; // client finished; everything it sent has been answered
    if (Stop.load())
      return; // shutdown: drained groups above were answered first
  }
}

void RecommendServer::awaitBatches(std::vector<PendingBatch> &Run) {
  MutexLock Lock(BatchMutex);
  for (PendingBatch &B : Run)
    BatchQueue.push_back(&B);
  BatchCv.notifyOne();
  while (!std::all_of(Run.begin(), Run.end(),
                      [](const PendingBatch &B) { return B.Done; }))
    DoneCv.wait(BatchMutex);
}

void RecommendServer::dispatchLoop() {
  for (;;) {
    std::vector<PendingBatch *> Group;
    size_t Queries = 0;
    {
      MutexLock Lock(BatchMutex);
      while (BatchQueue.empty() && !Draining)
        BatchCv.wait(BatchMutex);
      if (BatchQueue.empty())
        return; // draining and nothing left — every handler has finished
      // Natural batching: take everything already waiting, up to
      // maxBatch() queries. Every group holds at most that many, so at 1
      // each query is its own dispatch.
      while (!BatchQueue.empty()) {
        size_t Next = BatchQueue.front()->Lines.size();
        if (Queries + Next > maxBatch())
          break;
        Group.push_back(BatchQueue.front());
        BatchQueue.pop_front();
        Queries += Next;
      }
    }
    std::vector<std::string> Combined;
    Combined.reserve(Queries);
    for (PendingBatch *B : Group)
      for (const std::string &Line : B->Lines)
        Combined.push_back(Line);
    std::vector<std::string> Answers;
    try {
      Answers = answerRequestLines(Registry, Combined, true);
    } catch (const ErrorException &E) {
      Answers.assign(Combined.size(), renderRecommendError(E.error()));
    }
    size_t Offset = 0;
    for (PendingBatch *B : Group) {
      B->Responses.assign(Answers.begin() + Offset,
                          Answers.begin() + Offset + B->Lines.size());
      Offset += B->Lines.size();
    }
    Stats.Batches.fetch_add(1, std::memory_order_relaxed);
    Stats.Queries.fetch_add(Queries, std::memory_order_relaxed);
    uint64_t Prev = Stats.MaxBatch.load(std::memory_order_relaxed);
    while (Prev < Queries && !Stats.MaxBatch.compare_exchange_weak(
                                 Prev, Queries, std::memory_order_relaxed))
      ;
    {
      MutexLock Lock(BatchMutex);
      for (PendingBatch *B : Group)
        B->Done = true;
    }
    DoneCv.notifyAll();
  }
}

std::string RecommendServer::answerControlLine(const std::string &Line) {
  if (Line == "!reload") {
    ReloadOutcome Outcome = reload();
    if (Outcome.ok())
      return "reloaded " + std::to_string(Outcome.Swapped) + " bundle(s)";
    return renderRecommendError(
        Error(ErrCode::IoError,
              "reload swapped " + std::to_string(Outcome.Swapped) +
                  ", failed " + std::to_string(Outcome.Errors.size()) +
                  " (" + Outcome.Errors.front() + ")"));
  }
  if (Line == "!stats") {
    return "stats queries=" +
           std::to_string(Stats.Queries.load(std::memory_order_relaxed)) +
           " batches=" +
           std::to_string(Stats.Batches.load(std::memory_order_relaxed)) +
           " max-batch=" +
           std::to_string(Stats.MaxBatch.load(std::memory_order_relaxed)) +
           " reloads=" +
           std::to_string(Stats.Reloads.load(std::memory_order_relaxed)) +
           " generation=" + std::to_string(Registry.generation());
  }
  return renderRecommendError(
      Error(ErrCode::UnknownKey, "unknown control line '" + Line + "'"));
}
