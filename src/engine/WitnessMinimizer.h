//===- engine/WitnessMinimizer.h - Minimal leak witnesses ------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Witness minimization: shrink a leaking directive schedule to a short,
/// readable attack.  The explorer's raw witnesses are full exploration
/// prefixes — every directive the engine issued on the path from the
/// initial configuration to the leaking step, frequently hundreds or
/// thousands of directives on real trees — while the *attack* they
/// contain is usually a handful: mispredict one branch, fetch the gadget
/// loads, execute them.  Pitchfork reports exactly such attack schedules;
/// this pass recovers them from ours.
///
/// The algorithm is delta debugging (Zeller's ddmin) over the directive
/// sequence, specialized to the semantics in three ways:
///
///  - **Excursion slicing.**  Before chunk ddmin runs, a dedicated pass
///    deletes an entire wrong-path excursion as one candidate: the
///    misprediction fetch is flipped to the resolving prediction, every
///    wrong-path fetch and transient execute between it and the rollback
///    is dropped, and the rollback execute is kept (it now resolves
///    correct — the machine re-inserts the resolved jump at the same
///    buffer index either way, so the post-rollback suffix replays
///    verbatim).  ddmin removes the same junk one cascading deletion at a
///    time; the slice removes it in one replay per excursion, which is
///    what cuts nested-speculation witnesses down fast.
///  - **Buffer-index repair.**  Reorder-buffer indices are monotone over a
///    run, so deleting a fetch shifts the index of every later-allocated
///    entry.  A naive ddmin candidate would then issue `execute i` against
///    the wrong entry and almost always fail, trapping the search at the
///    raw schedule.  The minimizer records how many buffer slots each
///    fetch directive allocated when the current schedule last replayed,
///    cascades the deletion of a fetch to every directive that names one
///    of its entries, and renumbers the surviving `execute` directives.
///  - **Per-directive canonicalization.**  After ddmin reaches a
///    1-minimal schedule, each remaining directive is rewritten to the
///    simplest form that still reproduces the leak: plain `fetch` or
///    `retire` over the fork directives (`fetch: b`, `fetch: n`), plain
///    `execute i` over `execute i : addr/value/fwd j`.  The surviving
///    fork directives are exactly the predictions the attack needs.
///
/// Candidates are validated by lenient replay through `Machine::step`:
/// inapplicable directives are skipped (garbage-collecting whatever a
/// deletion or guess-flip orphaned), and a candidate counts as
/// reproducing iff some step emits a secret-labelled observation whose
/// `LeakRecord::key()` — origin, observation kind, rule, taint mask —
/// equals the original leak's.  What gets adopted is the *effective*
/// schedule — exactly the directives that applied, truncated at the
/// reproducing step — which by construction replays strictly,
/// end-to-end, to the same leak; soundness never depends on the repair
/// heuristics.  Slicing + ddmin + canonicalization iterate to a fixpoint,
/// so minimization is idempotent (minimizing a minimized witness returns
/// it unchanged), budget permitting.
///
/// **Rung-seeded replays.**  Every candidate differs from the current
/// schedule only from its first edited position onward, so the replay
/// needs the state *at* that position, not a walk from the initial
/// configuration.  The minimizer keeps a ladder of mid-schedule states —
/// rungs recorded every four kept directives while prefixes replay — and
/// starts each candidate replay
/// from the newest rung at or below the candidate's first edit (the
/// prefix-validity bar: a rung is only used when the candidate has not
/// edited any directive at or before it; rungs above an adopted edit are
/// discarded).  Seeding changes which machine steps run, never the
/// outcome: the skipped prefix is byte-identical to the current
/// schedule's, which is known to replay strictly with its only
/// target-key observation at its final step.  `MinimizeStats` reports
/// the steps executed and the steps seeding skipped.  A memo of failed
/// candidates (exact directive sequences) skips the replays the fixpoint
/// loop re-proposes; a hit still counts against the budget, so the
/// search visits the same candidates either way.
///
/// The pipeline is fixed: slicing, ddmin, canonicalization, the
/// slice-polish round, rung seeding and the memo always run, and only
/// the replay budget and the worker count are options.
/// `detail::minimizeWitnessFromInitial` replays every candidate from the
/// initial configuration with no rungs and no memo; tests and
/// bench/MinimizerBench use it as the byte-identity reference.
///
/// Every candidate costs one replay of at most |schedule| machine steps;
/// `MinimizeOptions::MaxReplays` bounds the total per witness.  When the
/// budget runs out the best schedule found so far is returned — it is
/// still a valid witness, just possibly not 1-minimal.
///
/// **Parallel minimization.**  The per-leak searches are independent and
/// never create more work, so `minimizeWitnesses` runs them through the
/// library's one worker helper (`forEachIndex`, sched/WorkDeque.h) on
/// min(`MinimizeOptions::Threads`, leaks) workers, the calling thread
/// among them: workers take leak indices from a shared counter and replay
/// through their own `Configuration`s (copy-on-write forks of the shared
/// initial state).  Each leak's result is a pure function of (machine,
/// initial configuration, leak, options), so the minimized schedules are
/// byte-identical at any thread count; `Threads <= 1` runs the leaks in
/// order on the calling thread.  Per-worker `MinimizeStats` merge by
/// summation, which is order-independent.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_ENGINE_WITNESSMINIMIZER_H
#define SCT_ENGINE_WITNESSMINIMIZER_H

#include "sched/ScheduleExplorer.h"

namespace sct {

/// Minimization knobs.
struct MinimizeOptions {
  /// Replay budget per witness: each candidate schedule costs one replay
  /// (seeded or not — seeding shortens a replay, it does not refund one).
  /// ddmin needs O(n log n) replays on well-behaved inputs and O(n^2) in
  /// the worst case; the default comfortably minimizes every witness in
  /// the repo's suites.
  uint64_t MaxReplays = 1 << 14;
  /// Worker threads for `minimizeWitnesses` batches: 0 or 1 minimizes
  /// leaks sequentially in order; N > 1 spreads per-leak jobs over
  /// min(N, leaks) workers.  0 additionally means "unset" to CheckSession,
  /// which substitutes the session's frontier thread share.
  unsigned Threads = 0;
};

/// What one (or an aggregated batch of) minimization(s) did.
struct MinimizeStats {
  /// Directives in the raw witness prefix(es).
  uint64_t RawDirectives = 0;
  /// Directives in the minimized schedule(s).
  uint64_t MinimizedDirectives = 0;
  /// Candidate replays spent.
  uint64_t Replays = 0;
  /// Machine steps actually executed across all candidate replays.
  uint64_t ReplayedSteps = 0;
  /// Directives rung seeding skipped instead of re-executing (the
  /// from-initial baseline would have replayed these too).
  uint64_t SeededSteps = 0;
  /// Wrong-path excursions removed by the slice pass.
  uint64_t SlicedExcursions = 0;
  /// True iff some witness hit MaxReplays before reaching a fixpoint (its
  /// minimized schedule is valid but possibly not 1-minimal).
  bool BudgetExhausted = false;

  /// Accumulates \p Other (summation — order-independent, so per-worker
  /// stats merge to the same totals at any thread count).
  void merge(const MinimizeStats &Other) {
    RawDirectives += Other.RawDirectives;
    MinimizedDirectives += Other.MinimizedDirectives;
    Replays += Other.Replays;
    ReplayedSteps += Other.ReplayedSteps;
    SeededSteps += Other.SeededSteps;
    SlicedExcursions += Other.SlicedExcursions;
    BudgetExhausted |= Other.BudgetExhausted;
  }
};

/// Minimizes \p L's witness schedule against \p M from \p Init.  Returns
/// a schedule that strictly replays to an observation with the identical
/// `LeakRecord::key()`; empty only if even the raw schedule fails to
/// reproduce (never the case for explorer-produced witnesses) or the
/// budget is exhausted before the first replay — such a witness counts
/// at its raw length in `MinimizeStats::MinimizedDirectives`.  \p Stats,
/// when non-null, accumulates (does not reset) counters so batch callers
/// can aggregate.
Schedule minimizeWitness(const Machine &M, const Configuration &Init,
                         const LeakRecord &L,
                         const MinimizeOptions &Opts = {},
                         MinimizeStats *Stats = nullptr);

/// Minimizes every leak in \p Leaks in place, filling each
/// `LeakRecord::MinSched`; returns the aggregated stats.  With
/// `Opts.Threads > 1` the per-leak jobs run on that many workers
/// (`forEachIndex`); the filled schedules are byte-identical to the
/// sequential order (each job is independent and deterministic).
MinimizeStats minimizeWitnesses(const Machine &M, const Configuration &Init,
                                std::vector<LeakRecord> &Leaks,
                                const MinimizeOptions &Opts = {});

namespace detail {
/// The identity reference for tests and benches: `minimizeWitness` with
/// every candidate replayed from the initial configuration, no rungs and
/// no failure memo.  Returns the same schedule and the same `Replays`;
/// only the executed steps differ.  `Opts.Threads` is ignored.
Schedule minimizeWitnessFromInitial(const Machine &M,
                                    const Configuration &Init,
                                    const LeakRecord &L,
                                    const MinimizeOptions &Opts = {},
                                    MinimizeStats *Stats = nullptr);
} // namespace detail

} // namespace sct

#endif // SCT_ENGINE_WITNESSMINIMIZER_H
