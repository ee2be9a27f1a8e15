//===- core/TrainingFramework.cpp -----------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
//
// Phase I's parallel structure: evaluators claim runs of seeds from a
// PhaseOneWindow and evaluate them from pure inputs only — the spec, the
// machine, and a private MeasurementCache shard — so a seed's outcome never
// depends on scheduling. The win-count bookkeeping (early stopping, margin
// rejects, SeedsScanned) is applied by a single ordered merge that commits
// each run as soon as every earlier run is in, which makes every run
// bit-identical to the serial one: the merge stops at exactly the seed
// where a serial scan stops. The price of parallelism is a bounded amount
// of speculation past that seed.
//
//===----------------------------------------------------------------------===//

#include "core/TrainingFramework.h"

#include "core/MeasurementStore.h"
#include "support/Env.h"
#include "support/FaultInjector.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <exception>

using namespace brainy;

namespace {

/// Salt offset separating Phase II eval-fault decisions from Phase I's
/// (which use Salt = attempt index). Keeps `BRAINY_FAULT=eval:...` able to
/// hit both phases without one phase's survival implying the other's.
constexpr uint64_t PhaseTwoSalt = uint64_t(1) << 16;

/// Matches an already-derived spec against a family (the seed-taking
/// public specMatchesModel wraps this).
bool specMatches(const AppSpec &Spec, ModelKind Model) {
  switch (Model) {
  case ModelKind::Vector:
  case ModelKind::List:
    return !Spec.OrderOblivious;
  case ModelKind::VectorOO:
  case ModelKind::ListOO:
    return Spec.OrderOblivious;
  case ModelKind::Set:
  case ModelKind::Map:
    // The set/map models serve both usages; the candidate list narrows to
    // order-preserving replacements for order-sensitive apps.
    return true;
  }
  return false;
}

/// Appends \p Model's Phase II replays to \p Out. The per-class cap
/// depends only on the recorded order, so it is decided here, up front;
/// the expensive profiled replays then fan out freely while the output
/// keeps the recorded (serial) order.
void acceptReplays(ModelKind Model, const PhaseOneResult &Pairs,
                   const TrainOptions &Options,
                   std::vector<std::pair<ModelKind, SeedBest>> &Out) {
  unsigned Cap =
      Options.MaxPerDsPhase2 ? Options.MaxPerDsPhase2 : Options.TargetPerDs;
  std::array<unsigned, NumDsKinds> Taken{};
  for (const SeedBest &Pair : Pairs.SeedDsPairs) {
    unsigned &Count = Taken[static_cast<unsigned>(Pair.BestDs)];
    // "Phase II does not accept the rest": drop surplus examples of an
    // already-full class before paying for feature profiling.
    if (Count >= Cap)
      continue;
    ++Count;
    Out.emplace_back(Model, Pair);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// PhaseOneWindow
//===----------------------------------------------------------------------===//

PhaseOneWindow::PhaseOneWindow(const TrainOptions &Options,
                               const MachineConfig &Machine,
                               std::vector<ModelKind> Models, uint64_t Grain,
                               uint64_t Depth, bool FixedSpeculation,
                               const MeasurementCache *Persisted)
    : Options(Options), Machine(Machine), Models(std::move(Models)),
      Grain(std::max<uint64_t>(1, Grain)), Depth(std::max<uint64_t>(1, Depth)),
      NumRuns((Options.MaxSeeds + this->Grain - 1) / this->Grain),
      FixedSpeculation(FixedSpeculation), Persisted(Persisted) {
  MutexLock Lock(M);
  if (FixedSpeculation)
    Masks.assign(this->Depth, wantedNow());
  // A scan that starts with every family full admits nothing.
  Stopped = allFull();
  Admitted = Stopped ? 0 : std::min(NumRuns, this->Depth);
}

bool PhaseOneWindow::modelFull(ModelKind Model) const {
  auto I = static_cast<unsigned>(Model);
  for (DsKind Kind : modelCandidates(Model))
    if (WinCount[I][static_cast<unsigned>(Kind)] < Options.TargetPerDs)
      return false;
  return true;
}

bool PhaseOneWindow::allFull() const {
  for (ModelKind Model : Models)
    if (!modelFull(Model))
      return false;
  return true;
}

PhaseOneWindow::WantedMask PhaseOneWindow::wantedNow() const {
  WantedMask Wanted{};
  for (ModelKind Model : Models)
    Wanted[static_cast<unsigned>(Model)] = !modelFull(Model);
  return Wanted;
}

bool PhaseOneWindow::claim(SeedClaim &Out) {
  MutexLock Lock(M);
  if (Claimed == Admitted && Admitted != NumRuns && !Stopped) {
    // Depth runs are out and the oldest is not committed yet.
    WallTimer Idle;
    while (Claimed == Admitted && Admitted != NumRuns && !Stopped)
      Cv.wait(M);
    Stats.IdleSeconds += Idle.seconds();
  }
  if (Claimed == Admitted || (Stopped && !FixedSpeculation))
    return false;
  uint64_t Run = Claimed++;
  uint64_t First = Run * Grain;
  Out.BeginSeed = Options.FirstSeed + First;
  Out.EndSeed = Options.FirstSeed + std::min(Options.MaxSeeds, First + Grain);
  if (FixedSpeculation) {
    // The mask as of the commit that admitted this run, not the latest
    // one: how far the merge has got by now is a matter of timing.
    uint64_t AdmittedAt = Run + 1 > Depth ? Run + 1 - Depth : 0;
    Out.Wanted = Masks[AdmittedAt % Depth];
  } else {
    Out.Wanted = wantedNow();
  }
  Stats.SeedsClaimed += Out.EndSeed - Out.BeginSeed;
  return true;
}

void PhaseOneWindow::complete(const SeedClaim &Claim,
                              std::vector<SeedEvalResult> Slots) {
  MutexLock Lock(M);
  if (Stopped)
    return;
  uint64_t Run = (Claim.BeginSeed - Options.FirstSeed) / Grain;
  Slots.resize(static_cast<size_t>(Claim.EndSeed - Claim.BeginSeed));
  Done.emplace(Run, std::move(Slots));
  if (Run != Committed)
    return;
  try {
    commitReady();
  } catch (...) {
    // A merge that cannot finish (out of memory) must not leave evaluators
    // waiting for a commit that never comes: close the window, rethrow.
    Stopped = true;
    Done.clear();
    Cv.notifyAll();
    throw;
  }
  Cv.notifyAll();
}

void PhaseOneWindow::mergeSeed(uint64_t Seed, const SeedEvalResult &Slot) {
  for (ModelKind Model : Models) {
    if (modelFull(Model))
      continue;
    auto I = static_cast<unsigned>(Model);
    PhaseOneResult &R = Results[I];
    // A skipped seed is invisible to the merge: not scanned, not raced,
    // but recorded per still-hungry family so callers can reconcile fault
    // runs with fault-free runs over the surviving seed set.
    if (!Slot.Ok) {
      R.SkippedSeeds.push_back(Seed);
      continue;
    }
    const SeedOutcome &O = Slot.Outcomes[I];
    if (!O.Matched)
      continue;
    ++R.SeedsScanned;
    // Footnote 2: only record clear winners, so marginal apps do not teach
    // the model noise.
    if (O.NumCandidates > 1 && O.Margin < Options.WinnerMargin) {
      ++R.MarginRejects;
      continue;
    }
    ++WinCount[I][static_cast<unsigned>(O.Best)];
    R.SeedDsPairs.push_back({Seed, O.Best});
  }
}

void PhaseOneWindow::commitReady() {
  while (!Stopped && !Done.empty() && Done.begin()->first == Committed) {
    std::vector<SeedEvalResult> Slots = std::move(Done.begin()->second);
    Done.erase(Done.begin());
    uint64_t Offset = Committed * Grain;
    for (const SeedEvalResult &Slot : Slots) {
      mergeSeed(Options.FirstSeed + Offset, Slot);
      NextOffset = ++Offset;
      // The serial scan checks fullness before every seed; stopping here
      // leaves the next seed unconsumed, exactly as it would.
      if ((Stopped = allFull()))
        break;
    }
    if (Stopped)
      break;
    ++Committed;
    Admitted = std::min(NumRuns, Committed + Depth);
    if (FixedSpeculation)
      Masks[Committed % Depth] = wantedNow();
  }
  if (Stopped)
    Done.clear();
  Stats.SeedsCommitted = NextOffset;
  // A resume point (DESIGN.md §13): the merge is a pure function of the
  // seed stream and the measurements, so a rerun replays the committed
  // prefix from the saved cache. The phase's end saves once more after
  // every evaluator has joined.
  if (Persisted && NextOffset - SavedOffset >= PhaseOneSaveEvery)
    persist();
}

bool PhaseOneWindow::persist() {
  SavedOffset = NextOffset;
  Error E = saveMeasurements(Options.MeasurementCacheFile, *Persisted,
                             Options.GenConfig, Machine);
  // A failed save costs resumability, not correctness.
  if (E)
    std::fprintf(stderr, "brainy: could not save measurement cache: %s\n",
                 E.message().c_str());
  return !E;
}

void ChunkEvalService::run(PhaseOneWindow &Window) {
  std::vector<SeedClaim> Wave;
  for (;;) {
    Wave.clear();
    SeedClaim Claim;
    while (Wave.size() < std::max(1u, width()) && Window.claim(Claim))
      Wave.push_back(Claim);
    if (Wave.empty())
      return;
    // Claims taken back to back are contiguous, and the first one carries
    // the oldest mask, a superset of the others'.
    uint64_t First = Wave.front().BeginSeed;
    std::vector<SeedEvalResult> Slots =
        evalWave(First, Wave.back().EndSeed, Wave.front().Wanted);
    Slots.resize(static_cast<size_t>(Wave.back().EndSeed - First));
    for (const SeedClaim &C : Wave)
      Window.complete(C, std::vector<SeedEvalResult>(
                             Slots.begin() + (C.BeginSeed - First),
                             Slots.begin() + (C.EndSeed - First)));
  }
}

//===----------------------------------------------------------------------===//
// TrainingFramework
//===----------------------------------------------------------------------===//

TrainingFramework::TrainingFramework(TrainOptions Options,
                                     MachineConfig Machine)
    : Options(std::move(Options)), Machine(std::move(Machine)),
      ResolvedJobs(resolveJobs(this->Options.Jobs)) {
  if (this->Options.MeasurementCacheFile.empty())
    return;
  // Warm start: restore persisted Phase I measurements. Any defect beyond
  // a simply-missing file (corruption, truncation, config/machine
  // mismatch) is reported and the cache recomputed from scratch — stale or
  // torn measurements must never steer training silently.
  Expected<size_t> Count = loadMeasurements(
      this->Options.MeasurementCacheFile, Cache, this->Options.GenConfig,
      this->Machine);
  if (Count)
    LoadedMeasurements = *Count;
  else if (Count.error().code() != ErrCode::IoError)
    std::fprintf(stderr, "brainy: recomputing measurements: %s\n",
                 Count.error().message().c_str());
}

ThreadPool &TrainingFramework::pool() const {
  MutexLock Lock(PoolMutex);
  if (!Pool)
    Pool = std::make_unique<ThreadPool>(ResolvedJobs > 0 ? ResolvedJobs - 1
                                                         : 0);
  return *Pool;
}

bool TrainingFramework::specMatchesModel(uint64_t Seed,
                                         ModelKind Model) const {
  return specMatches(AppSpec::fromSeed(Seed, Options.GenConfig), Model);
}

std::array<SeedOutcome, NumModelKinds>
TrainingFramework::evalSeed(uint64_t Seed,
                            const std::array<bool, NumModelKinds> &Wanted,
                            MeasurementCache::Shard &Shard) const {
  std::array<SeedOutcome, NumModelKinds> Out{};
  AppSpec Spec = AppSpec::fromSeed(Seed, Options.GenConfig);
  auto CyclesUnder = [&](DsKind Kind, const CycleCap *Cap) {
    return Shard.cyclesOf(Seed, Kind, Cap, [&] {
      return runApp(Spec, Kind, Machine, /*Observer=*/nullptr, Cap);
    });
  };
  for (unsigned M = 0; M != NumModelKinds; ++M) {
    if (!Wanted[M])
      continue;
    auto Model = static_cast<ModelKind>(M);
    if (!specMatches(Spec, Model))
      continue;
    std::vector<DsKind> Candidates =
        replacementCandidates(modelOriginal(Model), Spec.OrderOblivious);
    // Bounded: only the winner and the verdict on the margin reach the
    // merge, and the bounded race gets both right (core/Oracle.h).
    RaceResult Race = raceWith(Candidates, Options.WinnerMargin, CyclesUnder);
    Out[M].Matched = true;
    Out[M].Best = Race.Best;
    Out[M].Margin = Race.Margin;
    Out[M].NumCandidates = static_cast<unsigned>(Candidates.size());
  }
  return Out;
}

bool TrainingFramework::tryEvalSeed(
    uint64_t Seed, const std::array<bool, NumModelKinds> &Wanted,
    MeasurementCache::Shard &Shard,
    std::array<SeedOutcome, NumModelKinds> &Out) const {
  // Excluded seeds behave exactly like seeds that failed every retry,
  // minus the log noise — the distributed worker-loss hook.
  if (Options.ExcludeSeeds.count(Seed))
    return false;
  unsigned Attempts = Options.EvalRetries + 1;
  for (unsigned Attempt = 0; Attempt != Attempts; ++Attempt) {
    try {
      // Keyed by (seed, attempt) only: which seeds survive is a pure
      // function of the fault spec, independent of Jobs or scheduling.
      FaultInjector::instance().maybeThrow(FaultSite::Eval, Seed, Attempt,
                                           "seed evaluation");
      Out = evalSeed(Seed, Wanted, Shard);
      return true;
    } catch (const std::exception &E) {
      if (Attempt + 1 == Attempts)
        std::fprintf(
            stderr, "brainy: phase I: seed %llu skipped after %u attempts: %s\n",
            static_cast<unsigned long long>(Seed), Attempts, E.what());
      else
        std::fprintf(
            stderr,
            "brainy: phase I: seed %llu attempt %u/%u failed, retrying: %s\n",
            static_cast<unsigned long long>(Seed), Attempt + 1, Attempts,
            E.what());
      // brainy-lint: allow(catch-all): the documented skip-and-log fault
      // isolation path (DESIGN.md 8) - the seed is reported failed to the
      // caller via the return value, so nothing is silently swallowed.
    } catch (...) {
      if (Attempt + 1 == Attempts)
        std::fprintf(
            stderr, "brainy: phase I: seed %llu skipped after %u attempts\n",
            static_cast<unsigned long long>(Seed), Attempts);
    }
  }
  return false;
}

void TrainingFramework::evaluateClaims(PhaseOneWindow &Window) const {
  SeedClaim Claim;
  while (Window.claim(Claim)) {
    std::vector<SeedEvalResult> Slots(
        static_cast<size_t>(Claim.EndSeed - Claim.BeginSeed));
    MeasurementCache::Shard Shard = Cache.shard();
    for (uint64_t Seed = Claim.BeginSeed; Seed != Claim.EndSeed; ++Seed) {
      SeedEvalResult &Slot = Slots[Seed - Claim.BeginSeed];
      Slot.Ok = tryEvalSeed(Seed, Claim.Wanted, Shard, Slot.Outcomes);
    }
    // Complete before folding the shard: if the fold throws, no evaluator
    // is left waiting on this claim.
    Window.complete(Claim, std::move(Slots));
    Cache.merge(std::move(Shard));
  }
}

std::array<PhaseOneResult, NumModelKinds>
TrainingFramework::phaseOneImpl(const std::vector<ModelKind> &Models,
                                PhaseOneStats *Stats) const {
  // Local evaluators claim one seed at a time with the latest mask, so
  // Jobs=1 is exactly the serial scan. Each extra evaluator adds
  // PhaseOneLookahead seeds of window. Remote evaluators claim wire-sized
  // chunks, two per worker so a worker's next chunk is ready when it
  // finishes one, under fixed speculation: a fleet's measurements depend
  // on its shape alone, so a warm rerun of it simulates nothing. The merge
  // is the only consumer of either evaluator, so local, distributed and
  // serial runs are bit-identical by construction.
  ChunkEvalService *Service = Options.Distribution;
  uint64_t Width = std::max(1u, Service ? Service->width() : jobs());
  uint64_t Grain = Service ? PhaseOneChunk : 1;
  uint64_t Depth = Service ? 2 * Width : 1 + PhaseOneLookahead * (Width - 1);
  // The cache that records the scan's measurements: the scan's share of
  // its simulation tallies is reported, and with MeasurementCacheFile set
  // it is saved as the run's resume point (DESIGN.md §13).
  const MeasurementCache *Measured =
      Service ? Service->measurements() : &Cache;
  bool Persist = Measured && !Options.MeasurementCacheFile.empty();
  uint64_t Simulated0 = Measured ? Measured->freshMeasurements() : 0;
  uint64_t Stopped0 = Measured ? Measured->stoppedEarly() : 0;
  PhaseOneWindow Window(Options, Machine, Models, Grain, Depth,
                        /*FixedSpeculation=*/Service != nullptr,
                        Persist ? Measured : nullptr);
  if (Service)
    Service->run(Window);
  else
    pool().parallelFor(0, Width, [&](size_t) { evaluateClaims(Window); });

  MutexLock Lock(Window.M);
  if (Persist) {
    // Every evaluator has joined, so every shard is folded and every
    // worker record merged: this save holds the whole scan.
    size_t Saved = Window.persist() ? Measured->seeds() : 0;
    std::fprintf(stderr,
                 "brainy: measurement cache: loaded %zu record(s), %" PRIu64
                 " fresh measurement(s), saved %zu record(s) to %s\n",
                 LoadedMeasurements, Measured->freshMeasurements(), Saved,
                 Options.MeasurementCacheFile.c_str());
  }
  if (Stats) {
    *Stats = Window.Stats;
    if (Measured) {
      Stats->Simulations = Measured->freshMeasurements() - Simulated0;
      Stats->StoppedEarly = Measured->stoppedEarly() - Stopped0;
    }
  }
  return std::move(Window.Results);
}

PhaseOneResult TrainingFramework::phaseOne(ModelKind Model,
                                           PhaseOneStats *Stats) const {
  return std::move(phaseOneImpl({Model}, Stats)[static_cast<unsigned>(Model)]);
}

std::array<PhaseOneResult, NumModelKinds>
TrainingFramework::phaseOneAll(PhaseOneStats *Stats) const {
  std::vector<ModelKind> Models;
  Models.reserve(NumModelKinds);
  for (unsigned M = 0; M != NumModelKinds; ++M)
    Models.push_back(static_cast<ModelKind>(M));
  return phaseOneImpl(Models, Stats);
}

std::vector<TrainExample>
TrainingFramework::phaseTwo(ModelKind Model,
                            const PhaseOneResult &Pairs) const {
  std::vector<Replay> Accepted;
  acceptReplays(Model, Pairs, Options, Accepted);
  return std::move(profileAccepted(Accepted)[static_cast<unsigned>(Model)]);
}

std::array<std::vector<TrainExample>, NumModelKinds>
TrainingFramework::phaseTwoAll(
    const std::array<PhaseOneResult, NumModelKinds> &Pairs) const {
  std::vector<Replay> Accepted;
  for (unsigned M = 0; M != NumModelKinds; ++M)
    acceptReplays(static_cast<ModelKind>(M), Pairs[M], Options, Accepted);
  return profileAccepted(Accepted);
}

std::array<std::vector<TrainExample>, NumModelKinds>
TrainingFramework::profileAccepted(const std::vector<Replay> &Accepted) const {
  // Each accepted pair profiles into its own slot; a replay that fails
  // every retry leaves its slot unset and is dropped at the end, so one
  // bad seed costs one example, not the phase. Fault decisions are keyed
  // by (seed, PhaseTwoSalt + attempt): schedule-independent.
  std::vector<TrainExample> Slots(Accepted.size());
  std::vector<char> Ok(Accepted.size(), 0);
  unsigned Attempts = Options.EvalRetries + 1;
  auto ProfileOne = [&](size_t I) {
    const SeedBest &Pair = Accepted[I].second;
    for (unsigned Attempt = 0; Attempt != Attempts; ++Attempt) {
      try {
        FaultInjector::instance().maybeThrow(FaultSite::Eval, Pair.Seed,
                                             PhaseTwoSalt + Attempt,
                                             "phase II profiling");
        AppSpec Spec = AppSpec::fromSeed(Pair.Seed, Options.GenConfig);
        ProfiledOutcome Out =
            runAppProfiled(Spec, modelOriginal(Accepted[I].first), Machine);
        Slots[I].Features = Out.Features;
        Slots[I].BestDs = Pair.BestDs;
        Slots[I].Seed = Pair.Seed;
        Ok[I] = 1;
        return;
      } catch (const std::exception &E) {
        if (Attempt + 1 == Attempts)
          std::fprintf(
              stderr,
              "brainy: phase II: seed %llu example dropped after %u attempts: %s\n",
              static_cast<unsigned long long>(Pair.Seed), Attempts, E.what());
        // brainy-lint: allow(catch-all): skip-and-log fault isolation; the
        // dropped example stays Ok[I]=0 and is compacted away, so the
        // failure is visible in the surviving-example merge.
      } catch (...) {
        if (Attempt + 1 == Attempts)
          std::fprintf(
              stderr,
              "brainy: phase II: seed %llu example dropped after %u attempts\n",
              static_cast<unsigned long long>(Pair.Seed), Attempts);
      }
    }
  };
  // ProfileOne never throws, so one flat fan-out over every family's
  // replays keeps the pool busy until the last one is done.
  pool().parallelFor(0, Accepted.size(), ProfileOne);
  // Compact away dropped slots; survivors keep the recorded order.
  std::array<std::vector<TrainExample>, NumModelKinds> Examples;
  for (size_t I = 0, E = Accepted.size(); I != E; ++I)
    if (Ok[I])
      Examples[static_cast<unsigned>(Accepted[I].first)].push_back(
          std::move(Slots[I]));
  return Examples;
}

Dataset brainy::examplesToDataset(const std::vector<TrainExample> &Examples,
                                  const std::vector<DsKind> &Candidates) {
  // Candidate -> label lookup table, replacing a linear find per example.
  std::array<int, NumDsKinds> LabelOf;
  LabelOf.fill(-1);
  for (size_t I = 0, E = Candidates.size(); I != E; ++I) {
    auto K = static_cast<unsigned>(Candidates[I]);
    if (LabelOf[K] < 0)
      LabelOf[K] = static_cast<int>(I);
  }
  Dataset Data;
  Data.Rows.reserve(Examples.size());
  Data.Labels.reserve(Examples.size());
  for (const TrainExample &Ex : Examples) {
    int Label = LabelOf[static_cast<unsigned>(Ex.BestDs)];
    if (Label < 0)
      continue;
    std::vector<double> Row(Ex.Features.Values.begin(),
                            Ex.Features.Values.end());
    Data.add(std::move(Row), static_cast<unsigned>(Label));
  }
  return Data;
}
