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
/// rungs recorded every `MinimizeOptions::SeedInterval` kept directives
/// while prefixes replay — and starts each candidate replay
/// from the newest rung at or below the candidate's first edit (the
/// prefix-validity bar: a rung is only used when the candidate has not
/// edited any directive at or before it; rungs above an adopted edit are
/// discarded).  Seeding changes which machine steps run, never the
/// outcome: the skipped prefix is byte-identical to the current
/// schedule's, which is known to replay strictly with its only
/// target-key observation at its final step.  `MinimizeStats` reports
/// the steps executed and the steps seeding skipped.
///
/// **Suffix convergence.**  Seeding removes the *prefix* a candidate
/// shares with the current witness; the mirror-image optimization removes
/// the shared *suffix*.  Every successful replay records the incremental
/// state fingerprint after each kept directive, so the adopted witness
/// carries a per-position hash stream.  When a later candidate's replay
/// reaches a state whose fingerprint matches position p of that stream
/// and the candidate's remaining directives equal the witness's remaining
/// suffix `Cur[p..]`, the replay stops: the witness already proved that
/// suffix replays strictly from that state to the target leak, so the
/// candidate adopts `applied-prefix + Cur[p..]` unexecuted (see
/// `MinimizeOptions::SuffixConverge` for the fingerprint caveat and
/// `MinimizeStats::SuffixSkippedSteps` for the win).
///
/// Every candidate costs one replay of at most |schedule| machine steps;
/// `MinimizeOptions::MaxReplays` bounds the total per witness.  When the
/// budget runs out the best schedule found so far is returned — it is
/// still a valid witness, just possibly not 1-minimal.
///
/// **Parallel minimization.**  The per-leak searches are independent, so
/// `minimizeWitnesses` drains them as jobs from the same work-stealing
/// deques the explorer's frontier uses (sched/WorkDeque.h) when
/// `MinimizeOptions::Threads > 1`: each worker owns a deque of leak
/// indices, steals half a random victim's when dry, and replays through
/// its own per-worker `Configuration`s (copy-on-write forks of the shared
/// initial state).  Each leak's result is a pure function of (machine,
/// initial configuration, leak, options), so the minimized schedules are
/// byte-identical at any thread count; `Threads <= 1` keeps the
/// deterministic sequential order.  Per-worker `MinimizeStats` merge by
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
  /// Run the per-directive canonicalization pass after ddmin.
  bool Canonicalize = true;
  /// Run the excursion slice pass before each ddmin pass.
  bool SliceExcursions = true;
  /// After the slice+ddmin+canonicalize fixpoint, run a polish round that
  /// hops basins: each surviving branch guess is flipped at *equal*
  /// length (the fixpoint's guess-flips only ever adopt strict shrinks)
  /// and the no-slice passes rerun from there; the polished schedule is
  /// kept only if strictly shorter, else the fixpoint result is restored
  /// byte-for-byte.  Closes the ±2-directive gap the slice pass's own
  /// 1-minimal fixpoint can leave against the no-slice optimum on some
  /// bloated witnesses (same leak key; never longer; idempotence
  /// preserved by the restore).
  bool SlicePolish = true;
  /// Seed candidate replays from mid-schedule rungs the minimizer records
  /// along its own replays instead of always replaying from the initial
  /// configuration.  Off
  /// reproduces the from-initial replay cost exactly; the minimized
  /// schedules are identical either way.
  bool SeedReplays = true;
  /// Early-accept a candidate replay as soon as its state *rejoins* the
  /// adopted witness's state stream — fingerprint equality against the
  /// per-position hashes recorded along the current witness — at a
  /// position whose remaining directives are byte-identical to the
  /// candidate's remaining suffix.  The rest of the replay is then known:
  /// the adopted witness already proved that exact suffix replays
  /// strictly from that exact state to the leak, so the candidate adopts
  /// `applied-prefix + witness-suffix` without executing the suffix
  /// again.  ddmin and canonicalize candidates edit a few positions and
  /// keep long common tails, so most of their replay cost is this
  /// re-execution; the rejoin check makes it O(1) per step (the
  /// fingerprints are the engine's incremental hashes).  A hit still
  /// counts one replay against MaxReplays and the minimized schedules
  /// are byte-identical either way — only executed steps drop
  /// (MinimizeStats::SuffixSkippedSteps).  Validity of a hit rests on
  /// 64-bit fingerprint equality, the same avalanched-hash caveat as the
  /// explorer's seen-state pruning; off restores the pure strict-replay
  /// oracle.
  bool SuffixConverge = true;
  /// Remember failed candidates (exact directive sequences) and skip
  /// their replays when the fixpoint loop re-proposes them — the
  /// verification pass and canonicalize retries are then nearly free.
  /// A memo hit still counts against MaxReplays, so the search visits
  /// the same candidates in the same order with the memo on or off and
  /// the minimized schedules are identical either way.
  bool MemoizeCandidates = true;
  /// Record a ladder rung every this many kept directives while a
  /// candidate's unedited prefix replays (0 is treated as 1).  Smaller =
  /// denser seeding, more state copies; the default follows the
  /// committed BENCH_MINIMIZER.json sweep.
  unsigned SeedInterval = 4;
  /// Worker threads for `minimizeWitnesses` batches: 0 or 1 minimizes
  /// leaks sequentially in order; N > 1 drains per-leak jobs from
  /// work-stealing deques.  0 additionally means "unset" to CheckSession,
  /// which substitutes the session's frontier thread share.
  unsigned Threads = 0;
  /// Upper bound on slice+ddmin+canonicalization fixpoint iterations
  /// (each pass is a no-op once the schedule is stable; this is a safety
  /// rail, not a tuning knob).
  unsigned MaxPasses = 8;
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
  /// Candidate replays early-accepted by a suffix-convergence rejoin
  /// (MinimizeOptions::SuffixConverge).
  uint64_t SuffixConvergences = 0;
  /// Directives those rejoins skipped instead of re-executing.
  uint64_t SuffixSkippedSteps = 0;
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
    SuffixConvergences += Other.SuffixConvergences;
    SuffixSkippedSteps += Other.SuffixSkippedSteps;
    BudgetExhausted |= Other.BudgetExhausted;
  }
};

/// Minimizes \p L's witness schedule against \p M from \p Init.  Returns
/// a schedule that strictly replays to an observation with the identical
/// `LeakRecord::key()`; empty only if even the raw schedule fails to
/// reproduce (never the case for explorer-produced witnesses) or the
/// budget is exhausted before the first replay.  \p Stats, when non-null,
/// accumulates (does not reset) counters so batch callers can aggregate.
Schedule minimizeWitness(const Machine &M, const Configuration &Init,
                         const LeakRecord &L,
                         const MinimizeOptions &Opts = {},
                         MinimizeStats *Stats = nullptr);

/// Minimizes every leak in \p Leaks in place, filling each
/// `LeakRecord::MinSched`; returns the aggregated stats.  With
/// `Opts.Threads > 1` the per-leak jobs run on a work-stealing worker
/// pool; the filled schedules are byte-identical to the sequential order
/// (each job is independent and deterministic).
MinimizeStats minimizeWitnesses(const Machine &M, const Configuration &Init,
                                std::vector<LeakRecord> &Leaks,
                                const MinimizeOptions &Opts = {});

} // namespace sct

#endif // SCT_ENGINE_WITNESSMINIMIZER_H
