//===- sched/ScheduleExplorer.h - Worst-case schedule exploration -*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pitchfork's schedule generation (§4.1, Definition B.18): a bounded set
/// of *worst-case attacker schedules* that is sound — if any well-formed
/// schedule exhibits a secret-labelled observation, some explored schedule
/// does too (Theorem B.20).
///
/// The schedules eagerly fetch until the reorder buffer holds
/// `SpeculationBound` entries, execute everything as soon as data allows,
/// and fork at the genuine decision points:
///  - both guesses of every conditional branch (the mispredicted guess is
///    resolved as late as possible, maximising wrong-path execution);
///  - for every store, resolving its address eagerly vs. delaying it past
///    younger loads (the §3.4 store-forwarding hazards; Spectre v4);
///  - optionally, alias-predicted forwards `execute i : fwd j` (§3.5);
///  - optionally, attacker-chosen indirect-jump targets (Spectre v2) and
///    RSB-underflow return targets (ret2spec), which the original
///    Pitchfork does not explore (§4, "Pitchfork only exercises a subset
///    of our semantics").
///
/// Every step's observation is checked for a secret label; each finding is
/// reported with the complete directive schedule that reaches it, so a
/// violation is a replayable witness.
///
/// Exploration is engine-shaped: an explicit frontier of `ExploreNode`s
/// (schedule prefix + forked configuration) drained by a pool of worker
/// threads.  A fork stores a copy of its configuration — cheap, since
/// memory and the reorder buffer are copy-on-write and structurally
/// shared.  The frontier is *sharded* at every thread count: each of the
/// `Threads` workers (the calling thread is worker 0) owns a
/// Chase-Lev-style deque (sched/WorkDeque.h) it pushes and pops LIFO, and
/// steals the oldest half of a random victim's deque when its own runs
/// dry; at `Threads <= 1` that is one deque drained by the calling
/// thread.  Optionally a cross-schedule seen-state table
/// (`PruneSeen`, sched/SeenStates.h) keyed on `Configuration::hash()`
/// drops frontier candidates whose configuration was already visited on
/// any schedule — v4-mode hazard re-executions converge onto previously
/// forked states constantly, and identical configurations have identical
/// subtrees.
///
/// **Determinism contract.**  `Threads <= 1` drains the frontier's one
/// deque on the calling thread in the legacy depth-first order:
/// schedules complete in a fixed sequence and every counter in
/// `ExploreResult` is reproducible run-to-run (with `PruneSeen` on — the default — still deterministic:
/// the same duplicates are pruned at the same points).  `Threads = N > 1`
/// drains in a racy order but produces the **identical deduplicated leak
/// set** for any N: schedule-tree forks are independent of drain order,
/// per-worker leak buffers merge through `LeakRecord::key()`, and the
/// MaxLeaks budget counts globally-unique keys.  With `PruneSeen` off,
/// `TotalSteps`/`SchedulesCompleted` are also N-independent (work
/// conservation); with it on (the default) they shrink and, under N > 1,
/// may vary run-to-run by which racing twin got pruned — the leak set
/// still does not.
///
/// **Thread-safety.**  One `explore()` call builds its own workers,
/// frontier, and seen table; concurrent `explore()` calls (as
/// CheckSession::checkMany issues) share nothing but the immutable
/// Machine and Program.  The Configuration's COW memory is safe to share
/// between workers: forks unshare before their first store.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_SCHED_SCHEDULEEXPLORER_H
#define SCT_SCHED_SCHEDULEEXPLORER_H

#include "sched/Executor.h"
#include "sched/SeenStates.h"
#include "support/Hashing.h"

namespace sct {

/// Exploration knobs (§4.2.1's two configurations are:
/// {Bound=250, Hazards=false} and {Bound=20, Hazards=true}).
struct ExplorerOptions {
  /// Reorder-buffer size limit; bounds the depth of speculation.
  unsigned SpeculationBound = 20;
  /// Delay store-address resolution and explore forwarding hazards
  /// (Spectre v4).  The paper's "forwarding hazard detection": stores
  /// resolve their addresses as late as possible, younger loads read
  /// stale memory, and the forced resolution raises hazards that roll
  /// back and re-execute with the forwarded value — so both the stale and
  /// the fresh outcome of every store/load pair are explored.
  bool ExploreForwardingHazards = true;
  /// Fork Pitchfork's explicit [execute s_i : addr; execute l] schedules
  /// (§4.1) for *every* earlier unresolved store.  By default the forks
  /// are taken only for stores sitting in the shadow of unresolved
  /// control flow — stores a rollback would squash before their forced
  /// resolution, i.e. exactly the cases the forced-resolution rollbacks
  /// cannot cover (Spectre v1.1).  Architectural-path stores are covered
  /// by the forced resolution's hazard re-execution, so skipping their
  /// forks loses no leaks and avoids exponential blow-up on store-heavy
  /// straight-line code.
  bool ExhaustiveForwardForks = false;
  /// Mispredict/mistrain forks stop once this many unresolved branches or
  /// indirect jumps are in flight, bounding nested wrong-path loop
  /// unrolling (the paper's "explosion in state space", §4.2).
  unsigned MaxBranchDepth = 4;
  /// Fork on alias-predicted forwards (§3.5's hypothetical predictor).
  bool ExploreAliasPrediction = false;
  /// Extra attacker-chosen targets for indirect jumps (Spectre v2
  /// mistraining).  Empty = predict correctly, as Pitchfork does.
  std::vector<PC> IndirectTargets;
  /// Extra attacker-chosen targets for ret on RSB underflow (ret2spec).
  std::vector<PC> RsbUnderflowTargets;
  /// Budgets, shared atomically between workers.  Exhausting any of them
  /// marks the result `Truncated` (found leaks stay trustworthy; a clean
  /// verdict does not).
  uint64_t MaxSchedules = 1 << 20;
  uint64_t MaxStepsPerSchedule = 1 << 14;
  uint64_t MaxTotalSteps = 8ull << 20;
  size_t MaxLeaks = 4096;
  /// Stop the whole exploration at the first leak.
  bool StopAtFirstLeak = false;
  /// Worker threads draining the exploration frontier.  0 means "unset":
  /// explore() runs sequentially, and a CheckSession substitutes its own
  /// thread share.  0 or 1 explores on the calling thread in
  /// deterministic depth-first order; N > 1 produces the identical
  /// deduplicated leak set (per-worker leak buffers are merged through
  /// LeakRecord::key()).
  unsigned Threads = 0;
  /// Cross-schedule state pruning: fingerprint every frontier candidate
  /// with Configuration::hash() and drop candidates whose configuration
  /// was already visited on any schedule; additionally cut a path short
  /// when a forwarding-hazard rollback re-converges onto a visited state.
  /// Sound up to 64-bit fingerprint collisions (a collision would skip a
  /// never-visited subtree; tests/SeenStateTest.cpp keeps the suite
  /// corpus empirically collision-free) and budget accounting: a pruned
  /// twin inherits the first visitor's per-schedule step budget, so a
  /// run that would truncate anyway may truncate at a different point —
  /// `Truncated` reports it either way.  On by default (it preserves the
  /// leak set everywhere tested and completes previously budget-truncated
  /// trees, see BENCH_CONTENTION.json); opt out with `--no-prune-seen` or
  /// `PruneSeen = false` when exploration statistics must match the
  /// unpruned engine exactly.
  bool PruneSeen = true;
  /// Collect ExploreStats (engages `ExploreResult::Stats`).  Off by
  /// default: the per-depth tallies cost a few atomics per fork, and the
  /// counters are a diagnosis tool (`sctcheck --stats`), not part of any
  /// verdict.
  bool CollectStats = false;
};

/// Diagnostic counters for one exploration (ExplorerOptions::CollectStats;
/// surfaced by `sctcheck --stats`).  Built to answer one question about a
/// budget-blown tree: is it hash-table pressure (long probe sequences),
/// missed recurrence detection (every fork insert is fresh), or a
/// genuinely exponential schedule tree (distinct-state growth per depth
/// keeps multiplying)?
struct ExploreStats {
  /// Seen-state table occupancy and probe lengths (sched/SeenStates.h).
  /// Probes / Lookups ≈ 1 means the flat table is healthy; growth here
  /// with a stable state count means table pressure, not tree growth.
  SeenTableStats Seen;
  /// Fork-filter verdicts: candidate nodes whose configuration was fresh
  /// (claimed and explored) vs. already claimed (pruned as duplicates).
  /// A near-zero duplicate share on a blown budget says the tree really
  /// is that big; a high share says pruning is working and the budget
  /// went to the fringe between duplicates.
  uint64_t ForkInsertNew = 0;
  uint64_t ForkInsertDup = 0;
  /// Hazard-rollback convergence probes (the tryStep pure query) and how
  /// many of them cut the path short.
  uint64_t ConvergenceChecks = 0;
  uint64_t ConvergencePrunes = 0;
  /// NewStatesPerDepth[d] counts fork-filter inserts of fresh states whose
  /// schedule prefix held d directives (bucketed by prefix length /
  /// DepthBucket).  A per-depth sequence that keeps multiplying by a
  /// constant factor is the signature of genuine exponential blowup;
  /// flat or shrinking tails mean recurrence pruning is containing it.
  static constexpr size_t DepthBucket = 64;
  std::vector<uint64_t> NewStatesPerDepth;
};

/// The target unresolved control flow \p T (a Branch or JumpI entry, live
/// at buffer index \p At or about to be fetched there) takes when it
/// executes: a branch's static target by its condition, an indirect
/// jump's evaluated address.  The execute rules' computation without the
/// step; std::nullopt while an operand is unresolved.
std::optional<PC> actualTarget(const Machine &M, const Configuration &C,
                               BufIdx At, const TransientInstr &T);

/// Whether guessing true for the conditional branch at `C.N` is the
/// correct prediction, decided on \p C itself: no copy, no step.
/// std::nullopt when the branch could not execute right after its fetch
/// (a fence in flight, or an unresolved condition operand), so
/// correctness is unknowable yet.
std::optional<bool> probeBranchCorrect(const Machine &M,
                                       const Configuration &C);

/// One secret-labelled observation with its replayable witness schedule.
struct LeakRecord {
  Schedule Sched;    ///< Directives up to and including the leaking step.
  Observation Obs;   ///< The secret-labelled observation.
  PC Origin;         ///< Program point of the leaking instruction.
  RuleId Rule;       ///< Rule that produced the observation.
  /// Minimized witness: empty unless witness minimization ran
  /// (engine/WitnessMinimizer.h, requested via
  /// CheckRequest::MinimizeWitnesses).  When set, it replays from the
  /// same initial configuration to an observation with the identical
  /// key(), in far fewer directives than the raw exploration prefix.
  Schedule MinSched;

  /// Key used to deduplicate leaks across schedules: a 64-bit hash-combine
  /// over (origin, observation kind, rule, taint mask).  Each field is
  /// avalanched through a splitmix64 finalizer (support/Hashing.h) before
  /// combining, so fields that overlap 8-bit boundaries (large Origin
  /// values, wide taint masks) cannot cancel the way the old shifted-XOR
  /// packing allowed.
  uint64_t key() const {
    return hashFields({uint64_t(Origin), uint64_t(Obs.K), uint64_t(Rule),
                       Obs.Payload.Taint.mask()});
  }
};

/// Result of an exploration.
struct ExploreResult {
  /// Unique leaks (deduplicated by origin/kind/rule/taint).
  std::vector<LeakRecord> Leaks;
  /// Total secret observations seen, including duplicates.
  uint64_t LeakEvents = 0;
  /// Number of complete schedules driven to a final configuration.
  uint64_t SchedulesCompleted = 0;
  uint64_t TotalSteps = 0;
  /// Frontier candidates dropped by the seen-state table (PruneSeen):
  /// forks and continuations whose configuration was already visited,
  /// plus hazard re-executions cut short at a visited state.
  uint64_t PrunedNodes = 0;
  /// Successful steal operations between frontier shards (Threads > 1;
  /// each may move many nodes at once).
  uint64_t Steals = 0;
  /// Schedule-tree forks: how many configurations were copied at fork
  /// sites, the reorder-buffer bytes those copies actually moved
  /// (chunk references plus the private tail, under the structurally
  /// shared chunked layout), and what the same copies would have cost
  /// under a flat per-entry slab.  Flat / Copied is the sharing factor
  /// `sctcheck --stats` reports; always collected (three relaxed adds
  /// per fork), unlike the CollectStats-gated tallies.
  uint64_t ConfigsForked = 0;
  uint64_t RobBytesCopied = 0;
  uint64_t RobBytesFlat = 0;
  /// Diagnostic counters; engaged iff `ExplorerOptions::CollectStats`.
  std::optional<ExploreStats> Stats;
  /// True iff some budget was exhausted (exploration incomplete).
  bool Truncated = false;

  bool secure() const { return Leaks.empty(); }
};

/// Explores the worst-case schedules of \p M from \p Init.  Throws
/// std::invalid_argument when `Opts.SpeculationBound` is 0: nothing could
/// ever be fetched, and no budget would stop the stalled schedule.
ExploreResult explore(const Machine &M, Configuration Init,
                      const ExplorerOptions &Opts);

} // namespace sct

#endif // SCT_SCHED_SCHEDULEEXPLORER_H
