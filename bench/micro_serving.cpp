//===- bench/micro_serving.cpp - Serving throughput: batched vs not -------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Recommendations/second of a live `brainy serve` pipeline (DESIGN.md
// §15) at 1/2/4/8 client threads, at two dispatch sizes:
//
//  * batched   — MaxBatch 256: handlers enqueue whole pipelined groups,
//    the dispatcher coalesces groups across connections up to MaxBatch,
//    and each (arch, model) bucket is one matrix–matrix forward pass;
//  * unbatched — MaxBatch 1, the per-example baseline: every query is
//    its own dispatch and its own one-row forward pass.
//
// Clients drive real TCP connections with pipelined request groups, so
// the rows price the full path: socket framing, parsing, batch assembly,
// the forward pass, and response rendering. The served bundle is a
// synthetic constant-prediction bundle at the production net width
// (NetConfig::HiddenUnits), so the forward pass costs what a trained
// bundle's does while the whole bench stays deterministic and instant to
// set up. Answers are byte-identical at both sizes — the speedup column
// is the only difference.
//
// --json <path> writes the rows in the stable brainy-bench-v1 schema
// consumed by tools/check_bench_regression.py (BENCH_serving.json).
// --min-speedup X exits 1 unless batched/unbatched throughput at the
// highest client count is at least X (the CI serving-throughput gate).
//
//===----------------------------------------------------------------------===//

#include "core/Recommend.h"
#include "distributed/Tcp.h"
#include "ml/NeuralNet.h"
#include "serve/LineChannel.h"
#include "serve/Server.h"
#include "serve/SyntheticBundle.h"
#include "support/Env.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace brainy;
using namespace brainy::serve;

namespace {

/// Queries per client thread; BRAINY_SCALE multiplies as usual.
size_t queriesPerClient() { return scaledCount(20000, 2000); }

/// Pipelined queries per request group (the client-side batch shape).
constexpr size_t GroupSize = 64;

/// Deterministic query mix cycling original kinds and orderedness.
std::string queryLine(unsigned I) {
  RecommendQuery Q;
  Q.Arch = "core2";
  const DsKind Kinds[] = {DsKind::Vector, DsKind::List, DsKind::Set,
                          DsKind::Map};
  Q.Original = Kinds[I % 4];
  Q.OrderOblivious = (I % 3) != 0;
  for (unsigned F = 0; F != NumFeatures; ++F)
    Q.Features.Values[F] =
        static_cast<double>((I * 31 + F * 7) % 97) / 8.0 - 3.0;
  return formatRecommendQuery(Q);
}

struct Row {
  std::string Name;
  double WallMs = 0;
  double Qps = 0;
};

/// Serves \p PerClient queries on each of \p Clients threads against a
/// fresh server that dispatches at most \p MaxBatch queries at a time;
/// returns the wall time of the client phase.
double runConfig(const std::string &BundlePath, unsigned Clients,
                 unsigned MaxBatch, size_t PerClient,
                 const std::vector<std::string> &RequestGroups) {
  ServeOptions Opts;
  Opts.ModelPaths = {BundlePath};
  Opts.ConnWorkers = 8;
  Opts.MaxBatch = MaxBatch;
  RecommendServer Server(Opts);
  if (Error E = Server.start()) {
    std::fprintf(stderr, "micro_serving: %s\n", E.message().c_str());
    std::exit(1);
  }

  const size_t Groups = PerClient / GroupSize;
  WallTimer Timer;
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      auto Conn = dist::TcpTransport::connectTo(
          dist::TcpEndpoint{"127.0.0.1", Server.port()}, 5000);
      LineChannel Chan(*Conn);
      std::string Line;
      for (size_t G = 0; G != Groups; ++G) {
        const std::string &Request =
            RequestGroups[(C + G) % RequestGroups.size()];
        Conn->writeAll(Request.data(), Request.size());
        for (size_t I = 0; I != GroupSize; ++I)
          while (Chan.readLine(Line, 5000) !=
                 LineChannel::ReadStatus::Line) {
          }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  double Ms = Timer.millis();
  Server.stop();

  const uint64_t Expect =
      static_cast<uint64_t>(Clients) * Groups * GroupSize;
  if (Server.stats().Queries.load() != Expect) {
    std::fprintf(stderr, "micro_serving: answered %llu of %llu queries\n",
                 static_cast<unsigned long long>(
                     Server.stats().Queries.load()),
                 static_cast<unsigned long long>(Expect));
    std::exit(1);
  }
  return Ms;
}

void writeJson(const char *Path, const std::vector<Row> &Rows) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return;
  }
  std::fprintf(F, "{\n  \"schema\": \"brainy-bench-v1\",\n"
                  "  \"bench\": \"serving\",\n"
                  "  \"scale\": %.4f,\n  \"results\": [\n",
               experimentScale());
  for (size_t I = 0; I != Rows.size(); ++I)
    std::fprintf(F,
                 "    {\"name\": \"%s\", \"wall_ms\": %.3f, "
                 "\"qps\": %.0f}%s\n",
                 Rows[I].Name.c_str(), Rows[I].WallMs, Rows[I].Qps,
                 I + 1 == Rows.size() ? "" : ",");
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("\nwrote %s\n", Path);
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = nullptr;
  double MinSpeedup = 0;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc) {
      JsonPath = argv[++I];
    } else if (std::strcmp(argv[I], "--min-speedup") == 0 && I + 1 < argc) {
      MinSpeedup = std::atof(argv[++I]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json <path>] [--min-speedup <x>]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::string BundlePath =
      (std::filesystem::temp_directory_path() / "micro_serving_core2.models")
          .string();
  NetConfig Net; // production width, so the forward pass is realistic
  if (Error E = writeSyntheticBundle(BundlePath, "core2", "bench",
                                     /*WinnerIndex=*/2, Net.HiddenUnits)) {
    std::fprintf(stderr, "micro_serving: %s\n", E.message().c_str());
    return 1;
  }

  const size_t PerClient = (queriesPerClient() / GroupSize) * GroupSize;
  // A rotation of pre-rendered request groups: clients never pay
  // formatting inside the timed region.
  std::vector<std::string> RequestGroups;
  for (unsigned G = 0; G != 16; ++G) {
    std::string Request;
    for (size_t I = 0; I != GroupSize; ++I)
      Request += queryLine(static_cast<unsigned>(G * GroupSize + I)) + "\n";
    RequestGroups.push_back(std::move(Request));
  }

  std::printf("# serving throughput, %zu queries/client, groups of %zu "
              "(BRAINY_SCALE=%.2f)\n",
              PerClient, GroupSize, experimentScale());
  std::printf("%-14s %12s %14s %10s\n", "config", "wall_ms", "recs/sec",
              "speedup");

  std::vector<Row> Rows;
  double Speedup8 = 0;
  for (unsigned Clients : {1u, 2u, 4u, 8u}) {
    double UnbatchedMs = 0;
    for (bool Batched : {false, true}) {
      double Ms = runConfig(BundlePath, Clients, Batched ? 256 : 1,
                            PerClient, RequestGroups);
      double Qps = static_cast<double>(Clients) *
                   static_cast<double>(PerClient) / (Ms / 1e3);
      Row R{std::string(Batched ? "batched" : "unbatched") + "_c" +
                std::to_string(Clients),
            Ms, Qps};
      double Speedup = Batched && Ms > 0 ? UnbatchedMs / Ms : 0;
      if (!Batched)
        UnbatchedMs = Ms;
      std::printf("%-14s %12.1f %14.0f %9.2fx\n", R.Name.c_str(), R.WallMs,
                  R.Qps, Speedup);
      if (Batched && Clients == 8)
        Speedup8 = Speedup;
      Rows.push_back(R);
    }
  }

  if (JsonPath)
    writeJson(JsonPath, Rows);

  if (MinSpeedup > 0 && Speedup8 < MinSpeedup) {
    std::fprintf(stderr,
                 "micro_serving: batched speedup at 8 clients is %.2fx, "
                 "gate requires >= %.2fx\n",
                 Speedup8, MinSpeedup);
    return 1;
  }
  return 0;
}
