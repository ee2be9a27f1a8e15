//===- perfbench/harness/Layers.cpp - The traced layer-by-layer run -------===//
//
// Times calls into each module's public functions from outside the
// program, with a span around every call (Trace.h), and turns the spans
// and the counters read at the same boundaries into the per-layer metrics.
// Every layer runs on every workload, so each metric can be checked on a
// workload whose optimisation should not move it.
//
//   brainy_perf trace --seed S --target T --seeds N --jobs J --workers W
//                     --brainy EXE --bundles CORE2,ATOM --pool FILE
//                     --expect FILE --rate QPS --serve-seconds X --conns C
//                     --out DIR
//
// Writes DIR/trace.json (Chrome trace events) and DIR/spans.json (count,
// total and self time per span name); prints the metrics as one JSON line.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "LoadGen.h"
#include "Trace.h"

#include "core/Brainy.h"
#include "core/Recommend.h"
#include "distributed/Coordinator.h"
#include "distributed/Launch.h"
#include "serve/Pipeline.h"
#include "serve/Server.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

using namespace brainy;
using namespace perfbench;

namespace {

/// Metric name -> value, in the order measured.
class MetricList {
public:
  void add(std::string Name, double Value) {
    List.emplace_back(std::move(Name), Value);
  }
  std::string json() const {
    std::string Out = "{";
    char Buf[160];
    for (size_t I = 0; I != List.size(); ++I) {
      std::snprintf(Buf, sizeof(Buf), "%s\"%s\": %.9g", I ? ", " : "",
                    List[I].first.c_str(), List[I].second);
      Out += Buf;
    }
    return Out + "}";
  }

private:
  std::vector<std::pair<std::string, double>> List;
};

double meanMs(const SpanAggregate &A) {
  return A.Count ? A.TotalMs / double(A.Count) : 0;
}

bool samePairs(const std::array<PhaseOneResult, NumModelKinds> &X,
               const std::array<PhaseOneResult, NumModelKinds> &Y) {
  for (unsigned M = 0; M != NumModelKinds; ++M) {
    if (X[M].SeedDsPairs.size() != Y[M].SeedDsPairs.size() ||
        X[M].MarginRejects != Y[M].MarginRejects)
      return false;
    for (size_t I = 0; I != X[M].SeedDsPairs.size(); ++I)
      if (X[M].SeedDsPairs[I].Seed != Y[M].SeedDsPairs[I].Seed ||
          X[M].SeedDsPairs[I].BestDs != Y[M].SeedDsPairs[I].BestDs)
        return false;
  }
  return true;
}

/// Forwards to the fleet coordinator and times every wave it dispatches.
class TimedService : public ChunkEvalService {
public:
  explicit TimedService(dist::Coordinator &Inner) : Inner(Inner) {}
  unsigned width() const override { return Inner.width(); }
  std::vector<SeedEvalResult>
  evalWave(uint64_t BeginSeed, uint64_t EndSeed,
           const std::array<bool, NumModelKinds> &Wanted) override {
    Span S("distributed.evalWave");
    ++Waves;
    return Inner.evalWave(BeginSeed, EndSeed, Wanted);
  }
  const MeasurementCache *measurements() const override {
    return Inner.measurements();
  }
  uint64_t Waves = 0;

private:
  dist::Coordinator &Inner;
};

/// Phase I once more at Jobs=1, replaying the ordered merge's bookkeeping
/// so that each seed is evaluated with the Wanted mask the merge had at
/// that seed, and timing each PhaseOneChunk of seeds. This is the serial
/// path of phaseOneAll. Returns the seed offset at which the scan stopped.
uint64_t serialChunkPass(const TrainOptions &Opts, const MachineConfig &Machine,
                         std::array<PhaseOneResult, NumModelKinds> &Results) {
  TrainOptions O1 = Opts;
  O1.Jobs = 1;
  TrainingFramework F(O1, Machine);
  MeasurementCache::Shard Shard = F.measurements().shard();
  std::array<std::array<unsigned, NumDsKinds>, NumModelKinds> Wins{};
  auto Full = [&](unsigned M) {
    for (DsKind K : modelCandidates(static_cast<ModelKind>(M)))
      if (Wins[M][static_cast<unsigned>(K)] < Opts.TargetPerDs)
        return false;
    return true;
  };
  auto AllFull = [&] {
    for (unsigned M = 0; M != NumModelKinds; ++M)
      if (!Full(M))
        return false;
    return true;
  };
  uint64_t Offset = 0;
  Span Serial("core.phase1.serial");
  while (Offset < Opts.MaxSeeds && !AllFull()) {
    Span Chunk("core.phase1.chunk");
    uint64_t End = std::min(Opts.MaxSeeds, Offset + PhaseOneChunk);
    for (; Offset != End && !AllFull(); ++Offset) {
      uint64_t Seed = Opts.FirstSeed + Offset;
      std::array<bool, NumModelKinds> Wanted{};
      for (unsigned M = 0; M != NumModelKinds; ++M)
        Wanted[M] = !Full(M);
      std::array<SeedOutcome, NumModelKinds> Out{};
      if (!F.tryEvalSeed(Seed, Wanted, Shard, Out)) {
        for (unsigned M = 0; M != NumModelKinds; ++M)
          if (Wanted[M])
            Results[M].SkippedSeeds.push_back(Seed);
        continue;
      }
      for (unsigned M = 0; M != NumModelKinds; ++M) {
        if (!Wanted[M] || !Out[M].Matched)
          continue;
        ++Results[M].SeedsScanned;
        if (Out[M].NumCandidates > 1 && Out[M].Margin < Opts.WinnerMargin) {
          ++Results[M].MarginRejects;
          continue;
        }
        ++Wins[M][static_cast<unsigned>(Out[M].Best)];
        Results[M].SeedDsPairs.push_back({Seed, Out[M].Best});
      }
    }
  }
  return Offset;
}

std::vector<std::string> splitComma(const std::string &S) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = std::min(S.find(',', Pos), S.size());
    if (Comma > Pos)
      Out.push_back(S.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

} // namespace

int perfbench::runTrace(const Args &A) {
  const auto Seed = static_cast<uint64_t>(A.num("seed"));
  const auto Jobs = static_cast<unsigned>(A.num("jobs"));
  const auto Workers = static_cast<unsigned>(A.num("workers"));
  const std::string OutDir = A.get("out");
  const std::vector<std::string> BundlePaths = splitComma(A.get("bundles"));
  const MachineConfig Machine = MachineConfig::core2();
  const TrainOptions Opts =
      cliTrainOptions(static_cast<unsigned>(A.num("target")),
                      static_cast<uint64_t>(A.num("seeds")), Jobs);
  std::vector<std::string> Pool, Expect;
  if (BundlePaths.empty() || !readLines(A.get("pool"), Pool) ||
      !readLines(A.get("expect"), Expect) || Pool.size() != Expect.size() ||
      Pool.size() < 256) {
    std::fprintf(stderr, "brainy_perf: trace: bad bundles or query pool\n");
    return 2;
  }

  MetricList Out;
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  auto Fail = [&](const char *What) {
    std::fprintf(stderr, "brainy_perf: trace: check failed: %s\n", What);
    Correct = false;
  };
  Tracer &T = Tracer::instance();

  // Probe apps come from the workload seed, far from the training seeds
  // (1..--seeds) and the held-out set.
  const uint64_t ProbeBase = 5000000 + (Seed % 100000) * 1000;
  // The appgen layer doubles as the tracing-overhead probe: each round
  // makes the same apps once without spans and once with a span around
  // each call, the order alternating, so the difference is what the spans
  // cost on like work.
  std::vector<AppSpec> Probes;
  std::vector<double> SpanCostNs;
  {
    Span Layer("appgen");
    constexpr uint64_t PerRound = 200;
    uint64_t Sink = 0;
    for (uint64_t Round = 0; Round != 10; ++Round) {
      const uint64_t First = ProbeBase + Round * PerRound;
      auto Plain = [&] {
        int64_t Start = nowNs();
        for (uint64_t I = First; I != First + PerRound; ++I)
          Sink += AppSpec::fromSeed(I, Opts.GenConfig).Seed;
        return nowNs() - Start;
      };
      auto Traced = [&] {
        int64_t Start = nowNs();
        for (uint64_t I = First; I != First + PerRound; ++I) {
          Span S("appgen.fromSeed");
          AppSpec Spec = AppSpec::fromSeed(I, Opts.GenConfig);
          if (Probes.size() < 12)
            Probes.push_back(Spec);
          Sink += Spec.Seed;
        }
        return nowNs() - Start;
      };
      int64_t PlainNs, TracedNs;
      if (Round % 2) {
        TracedNs = Traced();
        PlainNs = Plain();
      } else {
        PlainNs = Plain();
        TracedNs = Traced();
      }
      SpanCostNs.push_back(double(TracedNs - PlainNs) / double(PerRound));
    }
    if (Sink == 0)
      Fail("appgen made no apps");
  }

  double Events = 0, EventMs = 0;
  {
    Span Layer("machine");
    for (unsigned K = 0; K != NumDsKinds; ++K) {
      auto Kind = static_cast<DsKind>(K);
      std::string Name = std::string("machine.runApp.") + dsKindName(Kind);
      for (const AppSpec &Spec : Probes) {
        Span S(Name);
        RunOutcome R = runApp(Spec, Kind, Machine);
        EventMs += S.elapsedMs();
        Events += double(R.Hw.L1Accesses + R.Hw.Branches +
                         R.Hw.Allocations + R.Hw.Frees);
      }
    }
  }
  {
    Span Layer("profile");
    for (const AppSpec &Spec : Probes) {
      Span S("profile.runAppProfiled");
      runAppProfiled(Spec, DsKind::Vector, Machine);
    }
  }

  // Training, layer by layer: the same calls Brainy::train makes.
  TrainingFramework Local(Opts, Machine);
  std::array<PhaseOneResult, NumModelKinds> P1;
  {
    Span S("core.phaseOneAll");
    P1 = Local.phaseOneAll();
  }
  uint64_t Examples = 0;
  for (unsigned M = 0; M != NumModelKinds; ++M) {
    auto Kind = static_cast<ModelKind>(M);
    std::vector<TrainExample> Ex;
    {
      Span S("core.phaseTwo");
      Ex = Local.phaseTwo(Kind, P1[M]);
    }
    Examples += Ex.size();
    Span S("ml.train");
    BrainyModel Model = BrainyModel::train(Kind, Ex, Opts.Net);
    if (!Model.trained() && !Ex.empty())
      Fail("a model family did not train");
  }
  {
    Expected<Brainy> Loaded = Brainy::load(BundlePaths[0]);
    if (!Loaded) {
      Fail("served core2 bundle does not load");
    } else {
      for (int I = 0; I != 5; ++I) {
        {
          Span S("core.bundle.save");
          if (Loaded->save(OutDir + "/resaved.models"))
            Fail("bundle save");
        }
        Span S("core.bundle.load");
        if (!Brainy::load(OutDir + "/resaved.models"))
          Fail("bundle reload");
      }
    }
  }

  std::array<PhaseOneResult, NumModelKinds> Serial;
  uint64_t StopOffset = serialChunkPass(Opts, Machine, Serial);
  if (!samePairs(Serial, P1))
    Fail("serial Phase I replay differs from phaseOneAll");

  std::array<PhaseOneResult, NumModelKinds> PD;
  uint64_t Lost = 0, Respawns = 0, Waves = 0;
  {
    dist::Coordinator Coord(Machine, Opts, Workers,
                            dist::processLauncher(A.get("brainy")));
    TimedService Timed(Coord);
    TrainOptions DOpts = Opts;
    DOpts.Distribution = &Timed;
    TrainingFramework Dist(DOpts, Machine);
    {
      Span S("distributed.phaseOneAll");
      PD = Dist.phaseOneAll();
    }
    Lost = Coord.lostSeeds();
    Respawns = Coord.respawns();
    Waves = Timed.Waves;
  }
  if (!samePairs(PD, P1))
    Fail("distributed Phase I differs from the local one");

  // Serving layers, in process.
  std::unique_ptr<serve::ModelRegistry> Registry;
  for (int I = 0; I != 5; ++I) {
    Span S("serve.registry.loadInitial");
    Registry = std::make_unique<serve::ModelRegistry>(BundlePaths);
    if (Error E = Registry->loadInitial()) {
      Fail("registry load");
      return 1;
    }
  }
  std::vector<RecommendQuery> Parsed(Pool.size());
  std::vector<bool> ParsedOk(Pool.size());
  for (size_t B = 0; B < Pool.size(); B += 64) {
    Span S("serve.parse64");
    for (size_t I = B; I != std::min(Pool.size(), B + 64); ++I)
      ParsedOk[I] = !parseRecommendQuery(Pool[I], Parsed[I]);
  }
  for (size_t B = 0; B < Pool.size(); B += 64) {
    Span S("serve.render64");
    for (size_t I = B; I != std::min(Pool.size(), B + 64); ++I)
      if (ParsedOk[I])
        (void)renderRecommendation(Parsed[I], Parsed[I].Original);
  }
  for (size_t G : {size_t(1), size_t(8), size_t(64)}) {
    std::string Name = "serve.pipeline.g" + std::to_string(G);
    size_t Groups = std::max<size_t>(64, 4096 / G);
    for (size_t R = 0; R != Groups; ++R) {
      size_t Begin = (R * G) % (Pool.size() - G);
      std::vector<std::string> Lines(Pool.begin() + Begin,
                                     Pool.begin() + Begin + G);
      std::vector<std::string> Resp;
      {
        Span S(Name);
        Resp = serve::answerRequestLines(*Registry, Lines, true);
      }
      Attempted += G;
      for (size_t I = 0; I != G; ++I)
        if (Resp[I] != Expect[Begin + I]) {
          ++Failed;
          Fail("pipeline answer differs from the reference");
        }
    }
  }
  // The g64 pipeline again, decomposed: its self time beyond parse,
  // forward and render is the bucketing.
  for (size_t R = 0; R != 64; ++R) {
    size_t Begin = (R * 64) % (Pool.size() - 64);
    Span Group("serve.decomposed.g64");
    std::vector<RecommendQuery> Qs(64);
    std::vector<bool> Ok(64);
    {
      Span S("serve.decomposed.parse");
      for (size_t I = 0; I != 64; ++I)
        Ok[I] = !parseRecommendQuery(Pool[Begin + I], Qs[I]);
    }
    std::map<std::pair<std::string, ModelKind>, std::vector<size_t>> Buckets;
    for (size_t I = 0; I != 64; ++I)
      if (Ok[I])
        Buckets[{Qs[I].Arch, modelFor(Qs[I].Original, Qs[I].OrderOblivious)}]
            .push_back(I);
    std::vector<DsKind> Targets(64, DsKind::Vector);
    for (auto &[Key, Idx] : Buckets) {
      std::shared_ptr<const Brainy> B = Registry->lookup(Key.first);
      if (!B)
        continue;
      std::vector<const FeatureVector *> F;
      std::vector<bool> Oo;
      for (size_t I : Idx) {
        F.push_back(&Qs[I].Features);
        Oo.push_back(Qs[I].OrderOblivious);
      }
      std::vector<DsKind> Picks;
      Span S("serve.decomposed.forward");
      B->recommendBatch(Key.second, F, Oo, Picks);
      for (size_t J = 0; J != Idx.size(); ++J)
        Targets[Idx[J]] = Picks[J];
    }
    Span S("serve.decomposed.render");
    for (size_t I = 0; I != 64; ++I)
      if (Ok[I])
        (void)renderRecommendation(Qs[I], Targets[I]);
  }
  {
    std::shared_ptr<const Brainy> B = Registry->lookup("core2");
    std::vector<const FeatureVector *> All;
    for (size_t I = 0; I != Pool.size(); ++I)
      if (ParsedOk[I])
        All.push_back(&Parsed[I].Features);
    for (size_t Batch : {size_t(1), size_t(64), size_t(256)}) {
      std::string Name = "ml.forward.b" + std::to_string(Batch);
      size_t Reps = std::max<size_t>(32, 8192 / Batch);
      for (size_t R = 0; R != Reps; ++R) {
        size_t Begin = (R * Batch) % (All.size() - Batch);
        std::vector<const FeatureVector *> F(All.begin() + Begin,
                                             All.begin() + Begin + Batch);
        std::vector<bool> Oo(Batch, false);
        std::vector<DsKind> Picks;
        Span S(Name);
        B->recommendBatch(ModelKind::Vector, F, Oo, Picks);
      }
    }
  }

  LoadResult Load;
  uint64_t Queries = 0, Batches = 0, MaxBatch = 0;
  {
    serve::ServeOptions SO;
    SO.ModelPaths = BundlePaths;
    serve::RecommendServer Server(SO);
    if (Error E = Server.start()) {
      Fail("in-process server start");
      return 1;
    }
    LoadSpec L;
    L.Port = Server.port();
    L.Rate = A.num("rate");
    L.Seconds = A.num("serve-seconds");
    L.Conns = static_cast<unsigned>(A.num("conns"));
    L.Seed = Seed;
    {
      Span S("serve.inprocess.load");
      Load = runOpenLoop(L, Pool, Expect);
    }
    Server.stop();
    Queries = Server.stats().Queries.load();
    Batches = Server.stats().Batches.load();
    MaxBatch = Server.stats().MaxBatch.load();
  }
  Attempted += Load.Sent;
  Failed += Load.Wrong + Load.Unanswered;
  if (!Load.Error.empty() || Load.Wrong || Load.Unanswered)
    Fail("in-process serving answers");

  // Metrics from the spans.
  std::map<std::string, SpanAggregate> Agg = T.aggregate();
  auto MeanOf = [&](const std::string &N) { return meanMs(Agg[N]); };
  auto TotalOf = [&](const std::string &N) { return Agg[N].TotalMs; };
  Out.add("appgen.from_seed_us", MeanOf("appgen.fromSeed") * 1e3);
  for (unsigned K = 0; K != NumDsKinds; ++K) {
    const char *N = dsKindName(static_cast<DsKind>(K));
    Out.add(std::string("machine.run_app_ms.") + N,
            MeanOf(std::string("machine.runApp.") + N));
  }
  Out.add("machine.events_per_s", Events / (EventMs / 1e3));
  Out.add("profile.run_app_profiled_ms", MeanOf("profile.runAppProfiled"));

  double Phase1S = TotalOf("core.phaseOneAll") / 1e3;
  uint64_t Pairs = 0, Rejects = 0, Skipped = 0;
  for (const PhaseOneResult &R : P1) {
    Pairs += R.SeedDsPairs.size();
    Rejects += R.MarginRejects;
    Skipped += R.SkippedSeeds.size();
  }
  const uint64_t WaveSeeds = PhaseOneChunk * std::max(1u, Local.jobs());
  uint64_t Measured = std::min<uint64_t>(
      Opts.MaxSeeds, (StopOffset + WaveSeeds - 1) / WaveSeeds * WaveSeeds);
  Attempted += StopOffset;
  Failed += Skipped;
  Out.add("core.phase1_s", Phase1S);
  Out.add("core.phase1.speedup",
          TotalOf("core.phase1.serial") / TotalOf("core.phaseOneAll"));
  Out.add("core.phase1.seeds_scanned", double(StopOffset));
  Out.add("core.phase1.seeds_measured", double(Measured));
  Out.add("core.phase1.useful_ratio",
          Measured ? double(StopOffset) / double(Measured) : 0);
  Out.add("core.phase1.fresh_measurements",
          double(Local.measurements().freshMeasurements()));
  Out.add("core.phase1.pairs", double(Pairs));
  Out.add("core.phase1.margin_rejects", double(Rejects));
  const std::vector<double> &Chunks = Agg["core.phase1.chunk"].DurationsMs;
  Out.add("core.phase1.chunk_ms.p50", percentile(Chunks, 50));
  Out.add("core.phase1.chunk_ms.p99", percentile(Chunks, 99));
  Out.add("core.phase1.chunk_ms.max", percentile(Chunks, 100));
  Out.add("core.phase2_ms", TotalOf("core.phaseTwo"));
  Out.add("core.phase2.examples", double(Examples));
  Out.add("ml.train_ms", TotalOf("ml.train"));
  Out.add("core.bundle_save_ms", MeanOf("core.bundle.save"));
  Out.add("core.bundle_load_ms", MeanOf("core.bundle.load"));

  const std::vector<double> &WaveMs = Agg["distributed.evalWave"].DurationsMs;
  Out.add("distributed.phase1_s", TotalOf("distributed.phaseOneAll") / 1e3);
  Out.add("distributed.waves", double(Waves));
  Out.add("distributed.wave_ms.p50", percentile(WaveMs, 50));
  Out.add("distributed.wave_ms.p99", percentile(WaveMs, 99));
  Out.add("distributed.lost_seeds", double(Lost));
  Out.add("distributed.respawns", double(Respawns));
  Failed += Lost;

  const double Lines = double(Pool.size());
  double ParseUs = TotalOf("serve.parse64") * 1e3 / Lines;
  double RenderUs = TotalOf("serve.render64") * 1e3 / Lines;
  Out.add("serve.registry_load_ms", MeanOf("serve.registry.loadInitial"));
  Out.add("serve.parse_us", ParseUs);
  Out.add("serve.render_us", RenderUs);
  for (const char *G : {"g1", "g8", "g64"})
    Out.add(std::string("serve.pipeline_us.") + G,
            MeanOf(std::string("serve.pipeline.") + G) * 1e3);
  double Decomposed = TotalOf("serve.decomposed.parse") +
                      TotalOf("serve.decomposed.forward") +
                      TotalOf("serve.decomposed.render");
  double GroupsDone = double(Agg["serve.decomposed.g64"].Count);
  Out.add("serve.bucket_us",
          MeanOf("serve.pipeline.g64") * 1e3 - Decomposed * 1e3 / GroupsDone);
  for (const char *B : {"b1", "b64", "b256"})
    Out.add(std::string("ml.forward_us.") + B,
            MeanOf(std::string("ml.forward.") + B) * 1e3);
  Out.add("serve.mean_batch", Batches ? double(Queries) / double(Batches) : 0);
  Out.add("serve.max_batch", double(MaxBatch));
  Out.add("serve.client.write_us", Load.WriteUs);
  Out.add("serve.client.read_wait_us", Load.ReadWaitUs);
  Out.add("serve.gen_lag_ms.p99", Load.LagP99Ms);

  // Tracing overhead: the per-span cost measured on like work, times the
  // spans this run recorded.
  const double SpanNs = percentile(SpanCostNs, 50);
  Out.add("trace.span_overhead_us", SpanNs / 1e3);
  Out.add("trace.overhead_s", SpanNs * double(T.spans().size()) / 1e9);

  if (!T.writeChromeTrace(OutDir + "/trace.json"))
    Fail("trace write");
  if (std::FILE *F = std::fopen((OutDir + "/spans.json").c_str(), "w")) {
    std::fprintf(F, "{");
    bool First = true;
    for (const auto &[Name, S] : T.aggregate()) {
      std::fprintf(F,
                   "%s\n  \"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                   "\"self_ms\": %.6f}",
                   First ? "" : ",", Name.c_str(),
                   static_cast<unsigned long long>(S.Count), S.TotalMs,
                   S.SelfMs);
      First = false;
    }
    std::fprintf(F, "\n}\n");
    std::fclose(F);
  } else {
    Fail("span summary write");
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"spans\": %zu, \"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), T.spans().size(),
              Out.json().c_str());
  return 0;
}
