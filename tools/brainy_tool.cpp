//===- tools/brainy_tool.cpp - the brainy command-line tool ---------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// The install-time workflow the paper envisions (Section 1: "the synthetic
// program generation tool ... can be used to tune a cost model once for
// each target system at install-time"), packaged as one CLI:
//
//   brainy machines
//       print the available simulated microarchitectures
//   brainy appgen --seed N [--ds KIND] [--config FILE] [-o FILE]
//       emit one synthetic training application as compilable C++
//   brainy train --machine NAME -o MODELS [--target N] [--seeds N]
//                [--config FILE] [--workers N]
//       run the two-phase training framework and save the model bundle;
//       --workers N shards Phase I over N worker subprocesses
//       (bit-identical bundle, DESIGN.md §10)
//   brainy trainset --machine NAME --model FAMILY -o FILE
//       run Phases I+II for one family and write the training-set file
//   brainy eval --models MODELS --trainset FILE
//       score a saved bundle against a training-set trace file
//   brainy survey FILE...
//       count STL container references in real source files (Figure 2
//       methodology)
//   brainy check [--json] [--jobs N] FILE...
//       per-variable container usage analysis and replacement-legality
//       verdicts (DESIGN.md §11)
//   brainy recommend --source FILE [FILE...]
//       Table 1 replacement candidates per variable, filtered by the
//       legality verdicts (illegal targets printed with the reason)
//   brainy recommend --models BUNDLE[,...] --queries FILE
//       answer profiled-feature query lines one-shot (the byte-for-byte
//       reference output for `brainy serve`)
//   brainy serve --models BUNDLE[,...] [--host H] [--port P]
//       long-lived recommendation server: batched forward passes over a
//       hot-swappable per-arch registry (SIGHUP or `!reload` re-reads the
//       bundles; SIGINT/SIGTERM drains and exits) (DESIGN.md §15)
//
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"
#include "analysis/Rewrite.h"
#include "analysis/UsageAnalysis.h"
#include "appgen/CppEmitter.h"
#include "core/Brainy.h"
#include "core/Recommend.h"
#include "distributed/Coordinator.h"
#include "distributed/Launch.h"
#include "distributed/Tcp.h"
#include "distributed/Worker.h"
#include "serve/Pipeline.h"
#include "serve/Server.h"
#include "support/Env.h"
#include "support/FaultInjector.h"
#include "support/FramedFile.h"
#include "survey/Survey.h"

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace brainy;

namespace {

/// Minimal flag parser: --key value pairs plus positional arguments.
/// Value flags take the next argv entry; boolean flags (per-command list)
/// take none. Each command validates against its own lists of known flags
/// so a typo is a usage error, not a silently ignored (or silently
/// swallowed) argument.
struct Args {
  std::map<std::string, std::string> Flags;
  std::vector<std::string> Positional;
  std::string Error; ///< Non-empty = parse failed; use the message.

  static Args parse(int Argc, char **Argv, int Start,
                    const std::vector<std::string> &Known,
                    const std::vector<std::string> &KnownBool = {}) {
    Args A;
    auto In = [](const std::vector<std::string> &List,
                 const std::string &Key) {
      for (const std::string &K : List)
        if (Key == K)
          return true;
      return false;
    };
    for (int I = Start; I < Argc; ++I) {
      std::string Arg = Argv[I];
      std::string Key;
      if (Arg == "-o") {
        Key = "out";
      } else if (Arg.rfind("--", 0) == 0) {
        Key = Arg.substr(2);
      } else {
        A.Positional.push_back(Arg);
        continue;
      }
      if (In(KnownBool, Key)) {
        // A string, not the literal: GCC 12 at -O3 warns -Wrestrict
        // (a false positive) on assigning a one-character literal here.
        A.Flags[Key] = std::string("1");
        continue;
      }
      if (!In(Known, Key)) {
        A.Error = "unknown flag '" + Arg + "'";
        return A;
      }
      // The next argv entry is the flag's value — unless it is another
      // flag or the end of the command line, both of which mean the value
      // is missing. Without the "--" check, `--target --seeds 100` would
      // silently parse "--seeds" as the target.
      if (I + 1 >= Argc || std::strncmp(Argv[I + 1], "--", 2) == 0) {
        A.Error = "flag '" + Arg + "' requires a value";
        return A;
      }
      A.Flags[Key] = Argv[++I];
    }
    return A;
  }

  std::string get(const std::string &Key, const std::string &Def = "") const {
    auto It = Flags.find(Key);
    return It == Flags.end() ? Def : It->second;
  }
  bool has(const std::string &Key) const { return Flags.count(Key) != 0; }
  /// Strict numeric flag: range errors, signs, trailing junk and values
  /// \p T cannot hold are usage errors (exit 2), not silently truncated
  /// values.
  template <typename T> T getInt(const std::string &Key, T Def) const {
    auto It = Flags.find(Key);
    if (It == Flags.end())
      return Def;
    const char *Begin = It->second.c_str();
    char *End = nullptr;
    errno = 0;
    uint64_t V = std::strtoull(Begin, &End, 10);
    if (!std::isdigit(static_cast<unsigned char>(*Begin)) || errno == ERANGE ||
        *End != '\0' || V > std::numeric_limits<T>::max()) {
      std::fprintf(stderr, "brainy: flag '--%s': invalid number '%s'\n",
                   Key.c_str(), Begin);
      std::exit(2);
    }
    return static_cast<T>(V);
  }
};

int usage() {
  std::fprintf(
      stderr,
      "usage: brainy <command> [options]\n"
      "  machines\n"
      "  appgen --seed N [--ds KIND] [--config FILE] [-o FILE]\n"
      "  train --machine core2|atom -o MODELS [--target N] [--seeds N]\n"
      "        [--config FILE] [--jobs N] [--workers N|HOST:PORT,...]\n"
      "        [--measurement-cache FILE]\n"
      "  worker --listen HOST:PORT\n"
      "  trainset --machine core2|atom --model FAMILY -o FILE\n"
      "           [--target N] [--seeds N] [--config FILE] [--jobs N]\n"
      "  eval --models MODELS --trainset FILE [--model FAMILY]\n"
      "  survey FILE...\n"
      "  check [--json] [--jobs N] FILE...\n"
      "  recommend --source FILE [FILE...]\n"
      "  recommend --models BUNDLE[,BUNDLE...] --queries FILE|-\n"
      "  apply [--dry-run] [--json] [--in-place] [--prefer LIST]\n"
      "        [--jobs N] FILE...\n"
      "  serve --models BUNDLE[,BUNDLE...] [--host H] [--port P]\n"
      "        [--conn-workers N] [--max-batch N]\n");
  return 2;
}

bool pickMachine(const std::string &Name, MachineConfig &Out) {
  if (Name == "core2") {
    Out = MachineConfig::core2();
    return true;
  }
  if (Name == "atom") {
    Out = MachineConfig::atom();
    return true;
  }
  return false;
}

AppConfig loadGenConfig(const Args &A) {
  std::string Path = A.get("config");
  if (Path.empty())
    return AppConfig::fromString(AppConfig::sampleConfigText());
  Config C = Config::fromFile(Path);
  if (C.hasErrors()) {
    for (const std::string &E : C.errors())
      std::fprintf(stderr, "config: %s\n", E.c_str());
  }
  return AppConfig::fromConfig(C);
}

int cmdMachines() {
  for (const MachineConfig &M :
       {MachineConfig::core2(), MachineConfig::atom()}) {
    std::printf("%-6s  L1 %lluKB/%u-way  L2 %lluKB/%u-way  %.1f GHz  "
                "mispredict %.0f cyc  CPI %.2f\n",
                M.Name.c_str(),
                (unsigned long long)(M.L1.SizeBytes / 1024),
                M.L1.Associativity,
                (unsigned long long)(M.L2.SizeBytes / 1024),
                M.L2.Associativity, M.ClockGhz, M.MispredictPenalty,
                M.BaseCpi);
  }
  return 0;
}

int cmdAppgen(const Args &A) {
  uint64_t Seed = A.getInt<uint64_t>("seed", 1);
  DsKind Kind = DsKind::Vector;
  std::string DsName = A.get("ds", "vector");
  if (!dsKindFromName(DsName.c_str(), Kind)) {
    std::fprintf(stderr, "unknown data structure '%s'\n", DsName.c_str());
    return 2;
  }
  AppSpec Spec = AppSpec::fromSeed(Seed, loadGenConfig(A));
  std::string Out = A.get("out");
  if (Out.empty()) {
    std::string Source = emitCppSource(Spec, Kind);
    std::fwrite(Source.data(), 1, Source.size(), stdout);
    return 0;
  }
  if (!emitCppFile(Spec, Kind, Out)) {
    std::fprintf(stderr, "cannot write '%s'\n", Out.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (seed %llu, %s)\n", Out.c_str(),
               (unsigned long long)Seed, dsKindName(Kind));
  return 0;
}

/// Splits a comma-separated flag value ("a.models,b.models").
std::vector<std::string> splitList(const std::string &Spec) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Spec.size();
    if (Comma != Pos)
      Out.push_back(Spec.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

/// The running binary's path, for respawning ourselves as `brainy worker`
/// subprocesses. /proc/self/exe survives PATH-relative and $0-less
/// invocations; argv[0] is the fallback.
std::string selfExePath(const char *Argv0) {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N > 0) {
    Buf[N] = '\0';
    return Buf;
  }
  return Argv0;
}

int cmdTrain(const Args &A, const std::string &ExePath) {
  MachineConfig Machine;
  if (!pickMachine(A.get("machine", "core2"), Machine))
    return usage();
  std::string Out = A.get("out");
  if (Out.empty())
    return usage();

  TrainOptions Opts;
  Opts.GenConfig = loadGenConfig(A);
  Opts.TargetPerDs = A.getInt<unsigned>("target", 60);
  Opts.MaxSeeds = A.getInt<uint64_t>("seeds", 8000);
  // 0 falls back to BRAINY_JOBS, then serial.
  Opts.Jobs = A.getInt<unsigned>("jobs", 0);
  // Set before the Coordinator is built: the coordinator preloads the
  // same file so warm distributed runs skip worker-side simulation too.
  // Phase I saves it as it goes, so a killed run rerun with the same flags
  // replays its merged prefix from it and emits a byte-identical bundle
  // (DESIGN.md §13).
  Opts.MeasurementCacheFile = A.get("measurement-cache");
  // --workers N shards over local `brainy worker` subprocesses;
  // --workers host:port,... connects to a fleet of `brainy worker
  // --listen` processes, one slot per endpoint (DESIGN.md §13).
  std::string WorkersSpec = A.get("workers");
  unsigned Workers = 0;
  dist::WorkerLauncher Launcher;
  if (WorkersSpec.find(':') != std::string::npos) {
    std::vector<std::string> Endpoints = splitList(WorkersSpec);
    try {
      Launcher = dist::tcpLauncher(Endpoints);
    } catch (const ErrorException &E) {
      std::fprintf(stderr, "brainy: --workers: %s\n", E.what());
      return 2;
    }
    Workers = static_cast<unsigned>(Endpoints.size());
  } else {
    Workers = A.getInt<unsigned>("workers", 0);
    if (Workers)
      Launcher = dist::processLauncher(ExePath);
  }
  std::unique_ptr<dist::Coordinator> Coord;
  if (Workers) {
    // Distributed Phase I: shard chunks over the worker fleet
    // (DESIGN.md §10/§13). Phase II and model training stay local under
    // Jobs.
    Coord = std::make_unique<dist::Coordinator>(Machine, Opts, Workers,
                                                std::move(Launcher));
    Opts.Distribution = Coord.get();
  }
  std::fprintf(stderr,
               "training on %s: target %u winners/DS, up to %llu seeds, "
               "%u job(s), %u worker(s)...\n",
               Machine.Name.c_str(), Opts.TargetPerDs,
               (unsigned long long)Opts.MaxSeeds, resolveJobs(Opts.Jobs),
               Workers);
  PhaseOneStats Phase1;
  Brainy B = Brainy::train(Opts, Machine, &Phase1);
  std::fprintf(stderr,
               "phase I: %llu seed(s) merged, %llu evaluated past the stop, "
               "evaluators waited %.2f s for the window, %llu simulation(s) "
               "run, %llu stopped early by the race\n",
               (unsigned long long)Phase1.SeedsCommitted,
               (unsigned long long)(Phase1.SeedsClaimed -
                                    Phase1.SeedsCommitted),
               Phase1.IdleSeconds, (unsigned long long)Phase1.Simulations,
               (unsigned long long)Phase1.StoppedEarly);
  if (Coord)
    std::fprintf(stderr,
                 "distributed: %llu seeds lost to worker failures, "
                 "%llu worker respawn(s), %llu slot(s) declared dead\n",
                 (unsigned long long)Coord->lostSeeds(),
                 (unsigned long long)Coord->respawns(),
                 (unsigned long long)Coord->declaredDead());
  FaultInjector &FI = FaultInjector::instance();
  for (unsigned S = 0; S != NumFaultSites; ++S) {
    auto Site = static_cast<FaultSite>(S);
    if (FI.enabled(Site) && FI.injectedCount(Site))
      std::fprintf(stderr, "fault injection: %llu %s fault(s) injected\n",
                   (unsigned long long)FI.injectedCount(Site),
                   faultSiteName(Site));
  }
  if (Error E = B.save(Out)) {
    std::fprintf(stderr, "cannot write '%s': %s\n", Out.c_str(),
                 E.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "saved models to %s\n", Out.c_str());
  return 0;
}

int cmdTrainset(const Args &A) {
  // Phase I + II for one model family, written to the paper's
  // "designated training set file" format (readable by `brainy eval`).
  MachineConfig Machine;
  if (!pickMachine(A.get("machine", "core2"), Machine))
    return usage();
  std::string Out = A.get("out");
  if (Out.empty())
    return usage();
  std::string FamilyName = A.get("model", "oo-vector");
  for (unsigned I = 0; I != NumModelKinds; ++I) {
    auto Kind = static_cast<ModelKind>(I);
    if (FamilyName != modelKindName(Kind))
      continue;
    TrainOptions Opts;
    Opts.GenConfig = loadGenConfig(A);
    Opts.TargetPerDs = A.getInt<unsigned>("target", 40);
    Opts.MaxSeeds = A.getInt<uint64_t>("seeds", 6000);
    Opts.Jobs = A.getInt<unsigned>("jobs", 0);
    TrainingFramework Framework(Opts, Machine);
    std::fprintf(stderr, "phase I (%s on %s)...\n", modelKindName(Kind),
                 Machine.Name.c_str());
    PhaseOneResult Phase1 = Framework.phaseOne(Kind);
    std::fprintf(stderr, "phase II: profiling %zu recorded seeds...\n",
                 Phase1.SeedDsPairs.size());
    std::vector<TrainExample> Examples = Framework.phaseTwo(Kind, Phase1);
    if (!writeTrainingSet(Out, Examples)) {
      std::fprintf(stderr, "cannot write '%s'\n", Out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu examples to %s\n", Examples.size(),
                 Out.c_str());
    return 0;
  }
  std::fprintf(stderr, "unknown model family '%s'\n", FamilyName.c_str());
  return 2;
}

int cmdEval(const Args &A) {
  Expected<Brainy> B = Brainy::load(A.get("models"));
  if (!B) {
    std::fprintf(stderr, "cannot load models '%s': %s\n",
                 A.get("models").c_str(), B.error().message().c_str());
    return 1;
  }
  std::vector<TrainExample> Examples;
  if (!readTrainingSet(A.get("trainset"), Examples)) {
    std::fprintf(stderr, "cannot read training set '%s'\n",
                 A.get("trainset").c_str());
    return 1;
  }
  std::string FamilyName = A.get("model", "oo-vector");
  for (unsigned I = 0; I != NumModelKinds; ++I) {
    auto Kind = static_cast<ModelKind>(I);
    if (FamilyName != modelKindName(Kind))
      continue;
    double Acc = B->model(Kind).accuracy(Examples,
                                         modelIsOrderOblivious(Kind));
    std::printf("%s: %.2f%% over %zu examples (machine %s)\n",
                modelKindName(Kind), Acc * 100, Examples.size(),
                B->machineName().c_str());
    return 0;
  }
  std::fprintf(stderr, "unknown model family '%s'\n", FamilyName.c_str());
  return 2;
}

int cmdSurvey(const Args &A) {
  if (A.Positional.empty()) {
    std::fprintf(stderr, "survey: no files given\n");
    return 2;
  }
  std::map<std::string, uint64_t> Totals;
  for (const std::string &Path : A.Positional) {
    Expected<std::string> Text = readFile(Path);
    if (!Text) {
      std::fprintf(stderr, "%s\n", Text.error().message().c_str());
      continue;
    }
    mergeCounts(Totals, countContainerRefs(*Text));
  }
  for (const auto &KV : Totals)
    if (KV.second)
      std::printf("%-10s %llu\n", KV.first.c_str(),
                  (unsigned long long)KV.second);
  return 0;
}

/// Reads every path into (path, bytes) pairs; reports and returns false
/// if any is unreadable.
bool readSources(const std::vector<std::string> &Paths,
                 std::vector<std::pair<std::string, std::string>> &Out) {
  bool Ok = true;
  for (const std::string &Path : Paths) {
    Expected<std::string> Text = readFile(Path);
    if (!Text) {
      std::fprintf(stderr, "brainy: %s\n", Text.error().message().c_str());
      Ok = false;
      continue;
    }
    Out.emplace_back(Path, std::move(*Text));
  }
  return Ok;
}

/// Reads every path, exiting 2 if any is unreadable, then runs the usage
/// analysis (fanned out over --jobs; byte-identical for every job count).
bool analyzePaths(const std::vector<std::string> &Paths, unsigned Jobs,
                  std::vector<analysis::FileAnalysis> &Out) {
  std::vector<std::pair<std::string, std::string>> Sources;
  if (!readSources(Paths, Sources))
    return false;
  Out = analysis::analyzeSources(Sources, Jobs);
  return true;
}

int cmdCheck(const Args &A) {
  if (A.Positional.empty()) {
    std::fprintf(stderr, "check: no files given\n");
    return 2;
  }
  std::vector<analysis::FileAnalysis> Files;
  if (!analyzePaths(A.Positional, A.getInt<unsigned>("jobs", 0), Files))
    return 2;
  std::string Report = A.has("json") ? analysis::renderJson(Files)
                                     : analysis::renderText(Files);
  std::fwrite(Report.data(), 1, Report.size(), stdout);
  // Built-in self-consistency: the conservatism rule guarantees the
  // declared container is legal for its own profile; a violation means
  // the analysis itself is broken, and CI treats it as a failure.
  std::vector<std::string> Bad = analysis::selfConsistencyViolations(Files);
  for (const std::string &V : Bad)
    std::fprintf(stderr,
                 "brainy check: self-consistency violation: %s is not "
                 "legal for its own declared type\n",
                 V.c_str());
  return Bad.empty() ? 0 : 1;
}

/// foo.cpp -> foo.brainy.cpp (the default non-destructive output of
/// `brainy apply`).
std::string applySiblingPath(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  size_t Dot = Path.find_last_of('.');
  if (Dot == std::string::npos ||
      (Slash != std::string::npos && Dot < Slash))
    return Path + ".brainy";
  return Path.substr(0, Dot) + ".brainy" + Path.substr(Dot);
}

int cmdApply(const Args &A) {
  if (A.Positional.empty()) {
    std::fprintf(stderr, "apply: no files given\n");
    return 2;
  }
  analysis::ApplyOptions Opts;
  std::string PreferSpec = A.get("prefer");
  if (!PreferSpec.empty()) {
    std::string Err;
    if (!analysis::parsePreferList(PreferSpec, Opts.Prefer, Err)) {
      std::fprintf(stderr, "apply: %s\n", Err.c_str());
      return 2;
    }
  }
  std::vector<std::pair<std::string, std::string>> Sources;
  if (!readSources(A.Positional, Sources))
    return 2;
  std::vector<analysis::FileRewrite> Files =
      analysis::rewriteSources(Sources, Opts, A.getInt<unsigned>("jobs", 0));

  bool DryRun = A.has("dry-run");
  std::string Report = A.has("json")
                           ? analysis::renderApplyJson(Files)
                           : analysis::renderApplyText(Files, DryRun);
  std::fwrite(Report.data(), 1, Report.size(), stdout);

  // A rejected patch is a hard failure: the planner committed to a
  // rewrite and the verifier refused it, which CI gates on.
  int Exit = 0;
  for (const analysis::FileRewrite &FR : Files)
    if (FR.Rejected || !FR.Error.empty())
      Exit = 1;

  if (!DryRun) {
    for (const analysis::FileRewrite &FR : Files) {
      if (FR.Diff.empty())
        continue;
      std::string OutPath =
          A.has("in-place") ? FR.Path : applySiblingPath(FR.Path);
      Error E = writeFileAtomic(OutPath, FR.Patched);
      if (E) {
        std::fprintf(stderr, "apply: %s\n", E.message().c_str());
        Exit = 1;
      } else {
        std::fprintf(stderr, "apply: wrote %s\n", OutPath.c_str());
      }
    }
  }
  return Exit;
}

/// Reads a whole file ("-" = stdin) into \p Out.
bool readWholeFile(const std::string &Path, std::string &Out) {
  if (Path != "-") {
    Expected<std::string> Text = readFile(Path);
    if (!Text) {
      std::fprintf(stderr, "brainy: %s\n", Text.error().message().c_str());
      return false;
    }
    Out = std::move(*Text);
    return true;
  }
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), stdin)) != 0)
    Out.append(Buf, N);
  if (!std::ferror(stdin))
    return true;
  std::fprintf(stderr, "brainy: read error on stdin\n");
  return false;
}

/// The bundle paths of a serving-shaped command: --models is a
/// comma-separated list, and bare positionals extend it.
std::vector<std::string> modelPathList(const Args &A) {
  std::vector<std::string> Paths = splitList(A.get("models"));
  Paths.insert(Paths.end(), A.Positional.begin(), A.Positional.end());
  return Paths;
}

/// One-shot query mode: answers a request-line file against loaded
/// bundles through the exact pipeline the server runs, so its output is
/// the byte-for-byte reference for `brainy serve` (the CI serve gate
/// diffs the two).
int cmdRecommendQueries(const Args &A) {
  std::vector<std::string> Paths = modelPathList(A);
  if (Paths.empty()) {
    std::fprintf(stderr, "recommend: --queries needs --models BUNDLE\n");
    return 2;
  }
  serve::ModelRegistry Registry(Paths);
  if (Error E = Registry.loadInitial()) {
    std::fprintf(stderr, "recommend: %s\n", E.message().c_str());
    return 1;
  }
  std::string Text;
  if (!readWholeFile(A.get("queries"), Text))
    return 2;
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    size_t End = Eol;
    if (End != Pos && Text[End - 1] == '\r')
      --End;
    if (End != Pos) // blank lines are separators, never queries
      Lines.push_back(Text.substr(Pos, End - Pos));
    Pos = Eol + 1;
  }
  std::vector<std::string> Responses =
      serve::answerRequestLines(Registry, Lines, true);
  for (const std::string &R : Responses)
    std::printf("%s\n", R.c_str());
  return 0;
}

int cmdRecommend(const Args &A) {
  if (A.has("queries"))
    return cmdRecommendQueries(A);
  // Static mode: start from the full order-oblivious Table 1 row for each
  // variable's declared type, then let the legality verdicts veto targets
  // the usage profile rules out — with the reason printed, so a filtered
  // candidate is explainable, not silently absent.
  std::vector<std::string> Paths;
  if (A.has("source"))
    Paths.push_back(A.get("source"));
  Paths.insert(Paths.end(), A.Positional.begin(), A.Positional.end());
  if (Paths.empty()) {
    std::fprintf(stderr, "recommend: no --source files given\n");
    return 2;
  }
  std::vector<analysis::FileAnalysis> Files;
  if (!analyzePaths(Paths, A.getInt<unsigned>("jobs", 0), Files))
    return 2;
  std::string Report = renderSourceRecommendations(Files);
  std::fwrite(Report.data(), 1, Report.size(), stdout);
  return 0;
}

int cmdServe(const Args &A) {
  serve::ServeOptions Opts;
  Opts.ModelPaths = modelPathList(A);
  if (Opts.ModelPaths.empty()) {
    std::fprintf(stderr, "serve: no --models bundles given\n");
    return 2;
  }
  Opts.Host = A.get("host", "127.0.0.1");
  Opts.Port = A.getInt<uint16_t>("port", 0);
  Opts.ConnWorkers = A.getInt<unsigned>("conn-workers", 8);
  Opts.MaxBatch = A.getInt<unsigned>("max-batch", 256);

  // Route the control signals through sigwait on this thread: block them
  // before start() so every serving thread inherits the mask and none of
  // them races the handler-free delivery below. SIGHUP = hot-swap,
  // SIGINT/SIGTERM = graceful drain; a vanished client is EPIPE on its
  // own handler, never a process-wide SIGPIPE.
  sigset_t Control;
  sigemptyset(&Control);
  sigaddset(&Control, SIGHUP);
  sigaddset(&Control, SIGINT);
  sigaddset(&Control, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &Control, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  serve::RecommendServer Server(Opts);
  if (Error E = Server.start()) {
    std::fprintf(stderr, "serve: %s\n", E.message().c_str());
    return 1;
  }
  // Scripts read this line to learn an ephemeral port.
  std::printf("brainy serve: listening on %s:%u\n", Opts.Host.c_str(),
              Server.port());
  std::fflush(stdout);
  for (;;) {
    int Sig = 0;
    if (sigwait(&Control, &Sig) != 0)
      break;
    if (Sig == SIGHUP) {
      serve::ReloadOutcome Outcome = Server.reload();
      std::fprintf(stderr, "brainy serve: reload: swapped %u, %zu error(s)\n",
                   Outcome.Swapped, Outcome.Errors.size());
      continue;
    }
    break;
  }
  Server.stop();
  const serve::ServeStats &S = Server.stats();
  std::fprintf(stderr,
               "brainy serve: drained; %llu queries in %llu batches "
               "(max %llu), %llu reload(s)\n",
               static_cast<unsigned long long>(S.Queries.load()),
               static_cast<unsigned long long>(S.Batches.load()),
               static_cast<unsigned long long>(S.MaxBatch.load()),
               static_cast<unsigned long long>(S.Reloads.load()));
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];

  // The distributed Phase I worker runtime. Two shapes (DESIGN.md §10,
  // §13): spawned by a same-host coordinator with requests on stdin and
  // replies on stdout (hidden; it speaks the binary wire protocol), or
  // `worker --listen HOST:PORT` — a long-lived fleet member that serves
  // any number of remote coordinators, one connection at a time, until
  // the process is terminated externally.
  if (Cmd == "worker") {
    // A coordinator dying mid-read must surface as EPIPE on this worker's
    // transport, not kill the process.
    std::signal(SIGPIPE, SIG_IGN);
    Args A = Args::parse(Argc, Argv, 2, {"listen"});
    if (!A.Error.empty()) {
      std::fprintf(stderr, "brainy: %s\n", A.Error.c_str());
      return usage();
    }
    std::string Listen = A.get("listen");
    if (!Listen.empty()) {
      try {
        dist::TcpEndpoint Ep = dist::parseEndpoint(Listen);
        dist::TcpListener Listener(Ep);
        std::fprintf(stderr, "brainy: worker listening on %s:%u\n",
                     Ep.Host.c_str(), Listener.port());
        dist::serveListener(Listener);
        return 0;
      } catch (const ErrorException &E) {
        std::fprintf(stderr, "brainy: worker --listen %s: %s\n",
                     Listen.c_str(), E.what());
        return 1;
      }
    }
    dist::FdTransport Link(/*ReadFd=*/0, /*WriteFd=*/1, /*Owned=*/false);
    switch (dist::serveWorker(Link)) {
    case dist::WorkerExit::Shutdown:
      return 0;
    case dist::WorkerExit::SimulatedCrash:
      // Exit without replying: process teardown closes the transport
      // abruptly, which is exactly what the coordinator must observe.
      return 3;
    case dist::WorkerExit::TransportLost:
      return 1;
    }
    return 1;
  }

  std::vector<std::string> Known;
  std::vector<std::string> KnownBool;
  if (Cmd == "appgen")
    Known = {"seed", "ds", "config", "out"};
  else if (Cmd == "train")
    Known = {"machine", "out", "target", "seeds", "config", "jobs",
             "workers", "measurement-cache"};
  else if (Cmd == "trainset")
    Known = {"machine", "model", "out", "target", "seeds", "config", "jobs"};
  else if (Cmd == "eval")
    Known = {"models", "trainset", "model"};
  else if (Cmd == "check") {
    Known = {"jobs"};
    KnownBool = {"json"};
  } else if (Cmd == "recommend") {
    Known = {"source", "jobs", "models", "queries"};
  } else if (Cmd == "apply") {
    Known = {"jobs", "prefer"};
    KnownBool = {"json", "dry-run", "in-place"};
  } else if (Cmd == "serve") {
    Known = {"models", "host", "port", "conn-workers", "max-batch"};
  } else if (Cmd != "machines" && Cmd != "survey")
    return usage();

  Args A = Args::parse(Argc, Argv, 2, Known, KnownBool);
  if (!A.Error.empty()) {
    std::fprintf(stderr, "brainy: %s\n", A.Error.c_str());
    return usage();
  }
  if (Cmd == "machines")
    return cmdMachines();
  if (Cmd == "appgen")
    return cmdAppgen(A);
  if (Cmd == "train")
    return cmdTrain(A, selfExePath(Argv[0]));
  if (Cmd == "trainset")
    return cmdTrainset(A);
  if (Cmd == "eval")
    return cmdEval(A);
  if (Cmd == "check")
    return cmdCheck(A);
  if (Cmd == "recommend")
    return cmdRecommend(A);
  if (Cmd == "apply")
    return cmdApply(A);
  if (Cmd == "serve")
    return cmdServe(A);
  return cmdSurvey(A);
}
