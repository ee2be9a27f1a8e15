//===- core/TrainingFramework.h - Two-phase training (Alg. 1&2) -*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's training framework (Section 4.3, Figures 4 & 5):
///
///  * Phase I (Algorithm 1): generate application sets from successive
///    seeds, run every legal candidate, and record (seed, bestDS) pairs —
///    only when the winner beats every alternative by the 5% margin
///    (footnote 2). Stop once each candidate has enough winning apps.
///  * Phase II (Algorithm 2): regenerate each recorded seed's application,
///    run it on the *original* structure with profiling, and emit
///    (features, bestDS) training examples. Regeneration-from-seed is what
///    lets millions of training apps exist without disk space.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_CORE_TRAININGFRAMEWORK_H
#define BRAINY_CORE_TRAININGFRAMEWORK_H

#include "core/MeasurementCache.h"
#include "core/Oracle.h"
#include "ml/NeuralNet.h"
#include "profile/TraceFile.h"
#include "support/ThreadPool.h"

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace brainy {

/// Seeds per distributed Phase I chunk — the unit a dist::Coordinator
/// sends over the wire (DESIGN.md §10). Purely a scheduling knob: results
/// are identical for any value, it only balances claim overhead against
/// tail waste.
constexpr uint64_t PhaseOneChunk = 16;

/// Committed seeds between two saves of TrainOptions::MeasurementCacheFile
/// during Phase I, the resume points of a killed run (DESIGN.md §13). A
/// save writes the whole cache under the window's lock (11-13 ms for 8000
/// records), so saves stay rare: about 8 in a default run. A resume then
/// re-simulates about this many seeds' work at most. Like PhaseOneChunk,
/// results are identical for any value.
constexpr uint64_t PhaseOneSaveEvery = 1024;

/// Seeds of window each local Phase I evaluator beyond the first adds
/// (DESIGN.md §7). A single seed can cost a hundred times its neighbours
/// (1.5 s against a 20 ms median with the default generator config), and
/// the others keep claiming past it only while the window has room: on a
/// 4-vCPU host, at 16 seeds per evaluator 4 evaluators spent a sixth of a
/// 3000-seed scan waiting; at 64 they wait well under 1%. Like
/// PhaseOneChunk, results are identical for any value.
constexpr uint64_t PhaseOneLookahead = 64;

/// One seed's Phase I evaluation for one family, computed from pure
/// measurements only (no dependence on win-count state). This is the unit
/// that crosses the distributed wire: outcomes are a pure function of
/// (seed, config, machine, WinnerMargin), so where they were computed
/// cannot matter.
struct SeedOutcome {
  bool Matched = false;
  DsKind Best = DsKind::Vector;
  /// The bounded race's margin (RaceResult::Margin): the race's margin
  /// clamped at WinnerMargin, which leaves its verdict unchanged.
  double Margin = 0;
  unsigned NumCandidates = 0;
};

/// A seed's evaluation slot as produced by local evaluators or streamed
/// back from distributed ones. Ok=false means the seed is skipped — the
/// default, so a chunk that dies mid-flight (worker loss, transport error)
/// leaves its unevaluated seeds skipped rather than poisoning the scan.
struct SeedEvalResult {
  bool Ok = false;
  std::array<SeedOutcome, NumModelKinds> Outcomes{};
};

/// A run of consecutive seeds handed to one Phase I evaluator, with the
/// Wanted mask to evaluate them against.
struct SeedClaim {
  uint64_t BeginSeed = 0;
  uint64_t EndSeed = 0;
  std::array<bool, NumModelKinds> Wanted{};
};

/// What one Phase I scan did, for reporting (`brainy train` prints it).
struct PhaseOneStats {
  /// Seeds handed to evaluators, including those evaluated past the stop.
  uint64_t SeedsClaimed = 0;
  /// Seeds the ordered merge consumed (scanned or skipped).
  uint64_t SeedsCommitted = 0;
  /// Evaluator wall time spent waiting for the window to open (depth runs
  /// out, the oldest not yet committed). Reporting only; never feeds a
  /// result.
  double IdleSeconds = 0;
  /// Fresh simulations the scan ran, and how many of them the bounded
  /// race stopped early: the framework's cache tallies for a local scan,
  /// the service's for a fleet. Reporting only.
  uint64_t Simulations = 0;
  uint64_t StoppedEarly = 0;
};

class PhaseOneWindow;

/// Evaluates Phase I seeds on behalf of the framework — the seam between
/// core and src/distributed/ (which implements it with worker processes)
/// kept abstract here so core never depends on the transport layer.
///
/// The framework hands the service its PhaseOneWindow, whose claims are
/// PhaseOneChunk-seed chunks. Every seed is evaluated purely and comes back
/// as one slot in seed order. Slots for seeds lost to worker death/timeout
/// come back Ok=false and turn into PhaseOneResult::SkippedSeeds during the
/// ordered merge, exactly like a locally failed evaluation.
class ChunkEvalService {
public:
  virtual ~ChunkEvalService() = default;

  /// Number of chunk evaluators (the local path's jobs() analogue). The
  /// window admits 2 * width() chunks past its commit point.
  virtual unsigned width() const = 0;

  /// Evaluates seeds [\p BeginSeed, \p EndSeed) against \p Wanted, fanned
  /// out over the service's evaluators, and returns once all are done.
  /// Returns EndSeed - BeginSeed slots in seed order; a short reply is
  /// treated as trailing skips by the caller.
  virtual std::vector<SeedEvalResult>
  evalWave(uint64_t BeginSeed, uint64_t EndSeed,
           const std::array<bool, NumModelKinds> &Wanted) = 0;

  /// Drains \p Window: claims chunks until claim() returns false and
  /// completes each one. The default claims width() chunks at a time and
  /// evaluates them as one evalWave, which is correct for any service but
  /// idles at every join; dist::Coordinator overrides it with one driver
  /// per worker, each claiming its next chunk as soon as it is free.
  virtual void run(PhaseOneWindow &Window);

  /// The measurement cache that records this service's evaluations, or
  /// null if it keeps none. The framework reports the scan's simulations
  /// from it and, when TrainOptions::MeasurementCacheFile is set, saves it
  /// to that file (DESIGN.md §13), so a distributed run saves the same
  /// records a local one would.
  virtual const MeasurementCache *measurements() const { return nullptr; }
};

/// Knobs for both training phases.
struct TrainOptions {
  AppConfig GenConfig;
  /// Seeds are consumed from FirstSeed upward.
  uint64_t FirstSeed = 1;
  /// Phase I's "need more sets" threshold: stop once every candidate DS of
  /// the model family has this many winning applications (the paper's
  /// adjustable per-DS threshold, default "e.g., ten thousand").
  unsigned TargetPerDs = 60;
  /// Safety cap on seeds consumed by one Phase I run.
  uint64_t MaxSeeds = 20000;
  /// Footnote 2: record a best DS only when it is at least this much
  /// faster than every alternative.
  double WinnerMargin = 0.05;
  /// Phase II cap per best-DS class ("the two-phase training framework can
  /// prevent extra applications ... from being fed into Phase II").
  unsigned MaxPerDsPhase2 = 0; ///< 0 = same as TargetPerDs
  /// Worker threads for Phase I racing, Phase II profiling, and per-model
  /// training. 0 = take the BRAINY_JOBS environment variable, or 1 when it
  /// is unset. 1 runs everything on the calling thread. Results are
  /// bit-identical for every value.
  unsigned Jobs = 0;
  /// A seed evaluation that throws (or is fault-injected) is retried this
  /// many times before the seed is skipped. Retries are keyed by
  /// (seed, attempt), so which seeds survive is deterministic and
  /// independent of Jobs.
  unsigned EvalRetries = 2;
  /// Seeds excluded up front. An excluded seed is treated exactly like a
  /// seed whose evaluation failed every retry: recorded as skipped without
  /// perturbing the ordered merge for the surviving seeds. This is the
  /// worker-loss hook for distributed Phase I, and how fault-run
  /// determinism is asserted in tests.
  std::set<uint64_t> ExcludeSeeds;
  /// When set, Phase I evaluation is delegated to this service — in
  /// practice a dist::Coordinator fanning chunks out to worker processes —
  /// instead of the local thread pool; Jobs then governs only Phase II and
  /// model training. Non-owning: the service must outlive the framework.
  /// The ordered merge is shared with the local path, so results stay
  /// bit-identical to Jobs=1 minus any seeds the service reports lost.
  ChunkEvalService *Distribution = nullptr;
  /// When non-empty, the persistent measurement cache (DESIGN.md §12):
  /// Phase I cycle measurements are preloaded from this file at framework
  /// construction (and by a distributed Coordinator into its served cache)
  /// and saved back from the cache that records the scan every
  /// PhaseOneSaveEvery committed seeds and when Phase I ends. Measurements
  /// are pure, so a warm cache skips simulation without changing a single
  /// bundle byte, and a killed run rerun with the same file replays its
  /// merged prefix from it (DESIGN.md §13). A file recorded under a
  /// different generator config or machine is rejected by fingerprint and
  /// ignored.
  std::string MeasurementCacheFile;
  /// Network hyperparameters for the final model.
  NetConfig Net;
};

/// A recorded Phase I winner.
struct SeedBest {
  uint64_t Seed = 0;
  DsKind BestDs = DsKind::Vector;
};

/// Phase I result for one model family.
struct PhaseOneResult {
  std::vector<SeedBest> SeedDsPairs;
  /// Seeds whose app belongs to this family, raced while the family still
  /// wanted winners: each one is a recorded pair or a margin reject.
  uint64_t SeedsScanned = 0;
  /// Apps whose winner failed the 5% margin (discarded).
  uint64_t MarginRejects = 0;
  /// Seeds dropped while this family still wanted data — evaluation failed
  /// every retry, or the seed was in ExcludeSeeds. In seed order. Skipped
  /// seeds do not count into SeedsScanned: the surviving merge is
  /// bit-identical to a run over a seed stream that never contained them.
  std::vector<uint64_t> SkippedSeeds;
};

/// Phase I's ordered-commit sliding window (DESIGN.md §7). Evaluators claim
/// consecutive runs of seeds from a cursor and hand each one back through
/// complete(); a run is committed into the ordered merge as soon as every
/// earlier run has been, by whichever evaluator completes the prefix, so
/// no evaluator waits for its peers to finish.
///
/// Speculation is bounded: run c may be claimed only once run c - depth()
/// is committed. Each claim carries a Wanted mask taken from the merge at
/// some commit before it; fullness only grows, so that mask is a superset
/// of what the merge needs at the claim's seeds, and the merge, which
/// re-checks fullness seed by seed, is bit-identical to a serial scan.
/// Which mask, and what happens at the stop, depends on the mode:
///
///  * latest (local evaluators): the mask as of the latest commit, and no
///    claim is handed out once every family is full. Least waste, but
///    which (seed, kind) pairs get measured depends on timing.
///  * fixed (distributed evaluators): the mask as of the commit that
///    admitted the run (run c - depth()), and the runs admitted before the
///    stop are still handed out, evaluated and discarded. Which pairs get
///    measured is then a function of (options, grain, depth) alone, so a
///    warm rerun of the same fleet finds every measurement on disk.
///
/// Thread-safe: any number of evaluators may claim and complete
/// concurrently. Every claimed run must be completed exactly once, or later
/// claims wait forever.
class PhaseOneWindow {
public:
  PhaseOneWindow(const PhaseOneWindow &) = delete;
  PhaseOneWindow &operator=(const PhaseOneWindow &) = delete;

  /// Claims the next run. Waits while depth() runs are claimed but not yet
  /// committed; returns false once the scan is over: no seeds left, or
  /// every family full (in the fixed mode, once every run admitted before
  /// that is handed out).
  bool claim(SeedClaim &Out) BRAINY_EXCLUDES(M);

  /// Hands back \p Claim's slots, one per seed in seed order; a short
  /// vector leaves the trailing seeds Ok=false (skipped). Commits every run
  /// whose predecessors are all committed. Runs completed after the stop
  /// are discarded.
  void complete(const SeedClaim &Claim, std::vector<SeedEvalResult> Slots)
      BRAINY_EXCLUDES(M);

  /// Runs that may be claimed ahead of the commit point.
  uint64_t depth() const { return Depth; }

private:
  friend class TrainingFramework;
  using WantedMask = std::array<bool, NumModelKinds>;

  /// Scans seed offsets [0, Options.MaxSeeds) (relative to
  /// Options.FirstSeed) in runs of \p Grain; \p FixedSpeculation selects
  /// the fixed mode. A non-null \p Persisted is saved to
  /// Options.MeasurementCacheFile each time PhaseOneSaveEvery more seeds
  /// are committed.
  PhaseOneWindow(const TrainOptions &Options, const MachineConfig &Machine,
                 std::vector<ModelKind> Models, uint64_t Grain,
                 uint64_t Depth, bool FixedSpeculation,
                 const MeasurementCache *Persisted);

  bool modelFull(ModelKind Model) const BRAINY_REQUIRES(M);
  bool allFull() const BRAINY_REQUIRES(M);
  WantedMask wantedNow() const BRAINY_REQUIRES(M);
  void mergeSeed(uint64_t Seed, const SeedEvalResult &Slot)
      BRAINY_REQUIRES(M);
  /// Merges completed runs in order from the commit point.
  void commitReady() BRAINY_REQUIRES(M);
  /// The one save site of Options.MeasurementCacheFile: saves Persisted,
  /// logs a failure, and returns whether the save landed. Lock order: M,
  /// then the cache's own mutex, which no path holds while it takes M.
  bool persist() BRAINY_REQUIRES(M);

  const TrainOptions &Options;
  const MachineConfig &Machine;
  const std::vector<ModelKind> Models;
  const uint64_t Grain, Depth, NumRuns;
  const bool FixedSpeculation;
  const MeasurementCache *const Persisted;

  Mutex M;
  ConditionVariable Cv;
  std::array<PhaseOneResult, NumModelKinds> Results BRAINY_GUARDED_BY(M);
  std::array<std::array<unsigned, NumDsKinds>, NumModelKinds>
      WinCount BRAINY_GUARDED_BY(M){};
  /// Runs handed out, runs committed, and runs that may be handed out
  /// (Committed + Depth, frozen once the merge stops).
  uint64_t Claimed BRAINY_GUARDED_BY(M) = 0;
  uint64_t Committed BRAINY_GUARDED_BY(M) = 0;
  uint64_t Admitted BRAINY_GUARDED_BY(M) = 0;
  /// Every family is full: nothing more is committed.
  bool Stopped BRAINY_GUARDED_BY(M) = false;
  /// Seed offset just past the last consumed seed, and where it stood at
  /// the last save.
  uint64_t NextOffset BRAINY_GUARDED_BY(M) = 0;
  uint64_t SavedOffset BRAINY_GUARDED_BY(M) = 0;
  /// Completed runs waiting for their predecessors, by run index.
  std::map<uint64_t, std::vector<SeedEvalResult>> Done BRAINY_GUARDED_BY(M);
  /// Fixed mode: Masks[k % Depth] is the Wanted mask after k committed
  /// runs.
  std::vector<WantedMask> Masks BRAINY_GUARDED_BY(M);
  PhaseOneStats Stats BRAINY_GUARDED_BY(M);
};

/// Runs both training phases for the six model families of one machine.
///
/// Concurrency: with Jobs > 1 both phases fan work out over a shared
/// ThreadPool — Phase I through its PhaseOneWindow — and merge in seed
/// order, so every result — (seed, bestDS) pairs, win-count early
/// stopping, margin-reject counts — is bit-identical to the Jobs=1 run.
/// Per-(seed, kind) cycle measurements are memoised in a MeasurementCache
/// shared across model families, phases, threads, and repeated phaseOne
/// calls.
class TrainingFramework {
public:
  TrainingFramework(TrainOptions Options, MachineConfig Machine);

  /// Algorithm 1 for \p Model: scans seeds, races candidates, records
  /// margin-passing winners until every candidate reaches TargetPerDs or
  /// MaxSeeds is exhausted. When \p Stats is non-null it receives what the
  /// scan did.
  PhaseOneResult phaseOne(ModelKind Model,
                          PhaseOneStats *Stats = nullptr) const;

  /// Algorithm 1 for every model family in a single seed sweep. Each
  /// candidate kind runs an application at most once per seed and the
  /// measurement is shared by every family racing it — e.g. the vector and
  /// list families race the same {vector, list, deque} runs. Produces the
  /// same winners as per-family phaseOne at a fraction of the cost. When
  /// \p Stats is non-null it receives what the scan did.
  std::array<PhaseOneResult, NumModelKinds>
  phaseOneAll(PhaseOneStats *Stats = nullptr) const;

  /// Algorithm 2: regenerates each recorded seed, profiles the app on the
  /// model's *original* structure, and emits training examples.
  std::vector<TrainExample> phaseTwo(ModelKind Model,
                                     const PhaseOneResult &Pairs) const;

  /// Algorithm 2 for every family, element M equal to
  /// phaseTwo(M, Pairs[M]). All families' replays fan out as one list, so
  /// the pool stays busy until the last replay, not the largest family.
  std::array<std::vector<TrainExample>, NumModelKinds>
  phaseTwoAll(const std::array<PhaseOneResult, NumModelKinds> &Pairs) const;

  /// Whether the app generated from \p Seed belongs to \p Model's family
  /// (original-DS usage with matching order-obliviousness).
  bool specMatchesModel(uint64_t Seed, ModelKind Model) const;

  const TrainOptions &options() const { return Options; }
  const MachineConfig &machine() const { return Machine; }

  /// Resolved worker count (Options.Jobs with the BRAINY_JOBS fallback).
  unsigned jobs() const { return ResolvedJobs; }

  /// The pool shared by both phases and by Brainy::train's per-model
  /// fan-out. Lazily created with jobs()-1 workers (the caller participates
  /// in every parallelFor, giving jobs() concurrent executors). Creation is
  /// guarded by PoolMutex, so first use may come from any thread.
  ThreadPool &pool() const;

  /// The shared (seed, kind) -> cycles memo (exposed for tests/benches).
  const MeasurementCache &measurements() const { return Cache; }

  /// Records restored into Cache from Options.MeasurementCacheFile at
  /// construction (0 when unset, missing, or rejected).
  size_t loadedMeasurements() const { return LoadedMeasurements; }

  /// One seed's pure Phase I evaluation. Public for the distributed worker
  /// runtime, which evaluates chunks through exactly this entry point so a
  /// remote seed's outcome is the same bits a local run would produce.
  std::array<SeedOutcome, NumModelKinds>
  evalSeed(uint64_t Seed, const std::array<bool, NumModelKinds> &Wanted,
           MeasurementCache::Shard &Shard) const;

  /// evalSeed with the fault-isolation wrapper: excluded seeds are refused
  /// immediately; a throwing evaluation (injected or real) is retried up
  /// to Options.EvalRetries times, then logged and reported as failed.
  /// Never throws. Returns false when the seed must be skipped. Public for
  /// the distributed worker runtime (same rationale as evalSeed).
  bool tryEvalSeed(uint64_t Seed,
                   const std::array<bool, NumModelKinds> &Wanted,
                   MeasurementCache::Shard &Shard,
                   std::array<SeedOutcome, NumModelKinds> &Out) const;

private:
  /// A Phase II replay: a recorded pair of the given family.
  using Replay = std::pair<ModelKind, SeedBest>;

  /// One local evaluator: claims seeds from \p Window until it closes,
  /// evaluating each claim into a private cache shard that is folded back
  /// once the claim is complete.
  void evaluateClaims(PhaseOneWindow &Window) const;

  /// Profiles every replay over the pool; returns each family's examples
  /// in replay order, minus replays that failed every retry.
  std::array<std::vector<TrainExample>, NumModelKinds>
  profileAccepted(const std::vector<Replay> &Accepted) const;

  std::array<PhaseOneResult, NumModelKinds>
  phaseOneImpl(const std::vector<ModelKind> &Models,
               PhaseOneStats *Stats) const;

  TrainOptions Options;
  MachineConfig Machine;
  unsigned ResolvedJobs = 1;
  size_t LoadedMeasurements = 0;
  /// Internally synchronised.
  mutable MeasurementCache Cache;
  /// Guards only the lazy creation of Pool; the pool itself is internally
  /// synchronised once constructed.
  mutable Mutex PoolMutex;
  mutable std::unique_ptr<ThreadPool> Pool BRAINY_GUARDED_BY(PoolMutex);
};

/// Converts training examples into an ML dataset over \p Candidates
/// (labels = index into Candidates). Examples whose label is not in
/// \p Candidates are skipped.
Dataset examplesToDataset(const std::vector<TrainExample> &Examples,
                          const std::vector<DsKind> &Candidates);

} // namespace brainy

#endif // BRAINY_CORE_TRAININGFRAMEWORK_H
