//===- perfbench/harness/main.cpp - The benchmark's in-process harness ----===//
//
//   brainy_perf heldout  --machine M --per-family N --first-seed S --jobs J
//                        -o FILE
//       Fig. 9's validation set: for each model family, N generated apps
//       (seeds from S upward, disjoint from training) whose oracle winner
//       clears the 5% margin, with their profiled features and label.
//   brainy_perf accuracy --models BUNDLE --heldout FILE
//       loads BUNDLE through the CRC-checked Brainy::load and prints its
//       accuracy on the held-out set as JSON; exits 1 if it does not load.
//   brainy_perf loadgen  --port P --pool FILE --expect FILE --conns C
//                        --seed S --phases RATE:SECONDS[,RATE:SECONDS...]
//                        --server-pid PID
//       open-loop phases against a running `brainy serve` (LoadGen.h),
//       back to back; prints a JSON array with each phase's figures,
//       including the CPU time the server process PID spent in the phase.
//   brainy_perf trace    ...
//       the traced layer-by-layer run (Layers.cpp).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "LoadGen.h"

#include "core/Brainy.h"
#include "core/Oracle.h"
#include "core/TrainingFramework.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include <dirent.h>

using namespace brainy;
using namespace perfbench;

Args Args::parse(int Argc, char **Argv, int Start) {
  Args A;
  for (int I = Start; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I];
    if (Key == "-o")
      Key = "--out";
    if (Key.rfind("--", 0) != 0) {
      A.Error = "unexpected argument '" + Key + "'";
      return A;
    }
    A.Flags[Key.substr(2)] = Argv[I + 1];
  }
  if ((Argc - Start) % 2 != 0)
    A.Error = std::string("flag '") + Argv[Argc - 1] + "' has no value";
  return A;
}

std::string Args::get(const std::string &Key) const {
  auto It = Flags.find(Key);
  if (It == Flags.end()) {
    std::fprintf(stderr, "brainy_perf: missing --%s\n", Key.c_str());
    std::exit(2);
  }
  return It->second;
}

double Args::num(const std::string &Key) const {
  return std::strtod(get(Key).c_str(), nullptr);
}

bool perfbench::readLines(const std::string &Path,
                          std::vector<std::string> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line))
    Out.push_back(Line);
  return true;
}

MachineConfig perfbench::machineNamed(const std::string &Name) {
  if (Name == "atom")
    return MachineConfig::atom();
  if (Name != "core2") {
    std::fprintf(stderr, "brainy_perf: unknown machine '%s'\n", Name.c_str());
    std::exit(2);
  }
  return MachineConfig::core2();
}

TrainOptions perfbench::cliTrainOptions(unsigned Target, uint64_t Seeds,
                                        unsigned Jobs) {
  // The same options `brainy train` builds from its flags.
  TrainOptions Opts;
  Opts.GenConfig = AppConfig::fromString(AppConfig::sampleConfigText());
  Opts.TargetPerDs = Target;
  Opts.MaxSeeds = Seeds;
  Opts.Jobs = Jobs;
  return Opts;
}

namespace {

struct HeldOutApp {
  unsigned Family = 0;
  bool OrderOblivious = false;
  DsKind Label = DsKind::Vector;
  FeatureVector Features;
};

int cmdHeldOut(const Args &A) {
  MachineConfig Machine = machineNamed(A.get("machine"));
  auto PerFamily = static_cast<size_t>(A.num("per-family"));
  auto FirstSeed = static_cast<uint64_t>(A.num("first-seed"));
  auto Jobs = static_cast<unsigned>(A.num("jobs"));
  TrainOptions Opts = cliTrainOptions(1, 1, 1);
  TrainingFramework Framework(Opts, Machine);

  // Families are independent scans over the same seed range, so they run
  // in parallel and each family's list is still in seed order.
  std::vector<std::vector<HeldOutApp>> Sets(NumModelKinds);
  std::atomic<unsigned> NextFamily{0};
  auto Work = [&] {
    for (unsigned M; (M = NextFamily.fetch_add(1)) < NumModelKinds;) {
      auto Model = static_cast<ModelKind>(M);
      for (uint64_t S = FirstSeed;
           Sets[M].size() < PerFamily && S < FirstSeed + 60 * PerFamily; ++S) {
        if (!Framework.specMatchesModel(S, Model))
          continue;
        AppSpec Spec = AppSpec::fromSeed(S, Opts.GenConfig);
        RaceResult Oracle = oracleBest(Spec, modelOriginal(Model), Machine);
        if (Oracle.Margin < Opts.WinnerMargin)
          continue; // the training set's clear-winner criterion
        ProfiledOutcome Out =
            runAppProfiled(Spec, modelOriginal(Model), Machine);
        Sets[M].push_back({M, Spec.OrderOblivious, Oracle.Best, Out.Features});
      }
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < std::max(1u, std::min(Jobs, NumModelKinds)); ++T)
    Threads.emplace_back(Work);
  for (std::thread &T : Threads)
    T.join();

  std::string Path = A.get("out");
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "brainy_perf: cannot write '%s'\n", Path.c_str());
    return 1;
  }
  std::fprintf(F, "brainy-perf-heldout v1 %s\n", Machine.Name.c_str());
  for (const auto &Set : Sets)
    for (const HeldOutApp &H : Set) {
      std::fprintf(F, "%u %d %s", H.Family, H.OrderOblivious ? 1 : 0,
                   dsKindName(H.Label));
      for (double V : H.Features.Values)
        std::fprintf(F, " %.17g", V);
      std::fprintf(F, "\n");
    }
  return std::fclose(F) == 0 ? 0 : 1;
}

int cmdAccuracy(const Args &A) {
  std::string Models = A.get("models");
  Expected<Brainy> B = Brainy::load(Models);
  if (!B) {
    std::fprintf(stderr, "brainy_perf: bundle '%s' does not load: %s\n",
                 Models.c_str(), B.error().message().c_str());
    return 1;
  }
  std::vector<std::string> Lines;
  if (!readLines(A.get("heldout"), Lines) || Lines.empty()) {
    std::fprintf(stderr, "brainy_perf: cannot read the held-out set\n");
    return 1;
  }
  std::istringstream Header(Lines[0]);
  std::string Magic, Version, Machine;
  Header >> Magic >> Version >> Machine;
  if (Magic != "brainy-perf-heldout" || B->machineName() != Machine) {
    std::fprintf(stderr,
                 "brainy_perf: bundle is for '%s', held-out set is '%s'\n",
                 B->machineName().c_str(), Lines[0].c_str());
    return 1;
  }
  uint64_t Correct = 0, Total = 0;
  for (size_t I = 1; I != Lines.size(); ++I) {
    std::istringstream In(Lines[I]);
    unsigned Family = 0;
    int Oo = 0;
    std::string Label;
    FeatureVector Features;
    In >> Family >> Oo >> Label;
    for (double &V : Features.Values)
      In >> V;
    DsKind Want = DsKind::Vector;
    if (!In || Family >= NumModelKinds ||
        !dsKindFromName(Label.c_str(), Want)) {
      std::fprintf(stderr, "brainy_perf: bad held-out line %zu\n", I);
      return 1;
    }
    DsKind Pick =
        B->model(static_cast<ModelKind>(Family)).predict(Features, Oo != 0);
    Correct += Pick == Want;
    ++Total;
  }
  if (!Total) {
    std::fprintf(stderr, "brainy_perf: empty held-out set\n");
    return 1;
  }
  std::printf("{\"accuracy_pct\": %.6f, \"examples\": %llu}\n",
              100.0 * double(Correct) / double(Total),
              static_cast<unsigned long long>(Total));
  return 0;
}

/// CPU time every live thread of process \p Pid has used, in ns (the first
/// field of each /proc/PID/task/TID/schedstat); -1 if it cannot be read.
int64_t processCpuNs(long Pid) {
  std::string Dir = "/proc/" + std::to_string(Pid) + "/task";
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return -1;
  int64_t Total = 0;
  while (dirent *E = ::readdir(D)) {
    if (E->d_name[0] == '.')
      continue;
    std::ifstream In(Dir + "/" + E->d_name + "/schedstat");
    long long Ns = 0;
    if (In >> Ns)
      Total += Ns;
  }
  ::closedir(D);
  return Total;
}

std::string loadResultJson(const LoadResult &R, double ServerCpuUs) {
  char Buf[1024];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"sent\": %llu, \"answered\": %llu, \"wrong\": %llu, "
      "\"unanswered\": %llu, \"p50_ms\": %.6f, \"p99_ms\": %.6f, "
      "\"max_ms\": %.6f, \"samples\": %llu, \"lag_p99_ms\": %.6f, "
      "\"lag_max_ms\": %.6f, \"write_us\": %.4f, \"read_wait_us\": %.4f, "
      "\"drain_ms\": %.6f, \"answered_qps\": %.3f, "
      "\"server_cpu_us\": %.3f}",
      static_cast<unsigned long long>(R.Sent),
      static_cast<unsigned long long>(R.Answered),
      static_cast<unsigned long long>(R.Wrong),
      static_cast<unsigned long long>(R.Unanswered), R.P50Ms, R.P99Ms,
      R.MaxMs, static_cast<unsigned long long>(R.LatencySamples), R.LagP99Ms,
      R.LagMaxMs, R.WriteUs, R.ReadWaitUs, R.DrainMs, R.AnsweredQps,
      ServerCpuUs);
  return Buf;
}

int cmdLoadGen(const Args &A) {
  std::vector<std::string> Pool, Expect;
  if (!readLines(A.get("pool"), Pool) || !readLines(A.get("expect"), Expect)) {
    std::fprintf(stderr, "brainy_perf: cannot read the query pool\n");
    return 1;
  }
  // --phases RATE:SECONDS,... runs back to back, each on fresh
  // connections once the previous one is fully answered.
  std::vector<LoadSpec> Phases;
  std::istringstream List(A.get("phases"));
  for (std::string Item; std::getline(List, Item, ',');) {
    LoadSpec Spec;
    Spec.Port = static_cast<uint16_t>(A.num("port"));
    Spec.Conns = static_cast<unsigned>(A.num("conns"));
    Spec.Seed = static_cast<uint64_t>(A.num("seed")) + Phases.size();
    if (std::sscanf(Item.c_str(), "%lf:%lf", &Spec.Rate, &Spec.Seconds) != 2) {
      std::fprintf(stderr, "brainy_perf: bad phase '%s'\n", Item.c_str());
      return 2;
    }
    Phases.push_back(Spec);
  }
  const long ServerPid = static_cast<long>(A.num("server-pid"));
  std::string Out = "[";
  for (const LoadSpec &Spec : Phases) {
    int64_t CpuBefore = processCpuNs(ServerPid);
    LoadResult R = runOpenLoop(Spec, Pool, Expect);
    int64_t CpuAfter = processCpuNs(ServerPid);
    if (!R.Error.empty()) {
      std::fprintf(stderr, "brainy_perf: loadgen: %s\n", R.Error.c_str());
      return 1;
    }
    if (CpuBefore < 0 || CpuAfter < CpuBefore) {
      std::fprintf(stderr, "brainy_perf: loadgen: cannot read the CPU time "
                           "of server process %ld\n", ServerPid);
      return 1;
    }
    Out += (Out.size() > 1 ? ", " : "") +
           loadResultJson(R, double(CpuAfter - CpuBefore) / 1e3);
  }
  std::printf("%s]\n", Out.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr,
                 "usage: brainy_perf heldout|accuracy|loadgen|trace ...\n");
    return 2;
  }
  std::string Cmd = Argv[1];
  Args A = Args::parse(Argc, Argv, 2);
  if (!A.Error.empty()) {
    std::fprintf(stderr, "brainy_perf: %s\n", A.Error.c_str());
    return 2;
  }
  if (Cmd == "heldout")
    return cmdHeldOut(A);
  if (Cmd == "accuracy")
    return cmdAccuracy(A);
  if (Cmd == "loadgen")
    return cmdLoadGen(A);
  if (Cmd == "trace")
    return runTrace(A);
  std::fprintf(stderr, "brainy_perf: unknown command '%s'\n", Cmd.c_str());
  return 2;
}
