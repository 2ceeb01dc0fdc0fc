//===- engine/CheckSession.h - Unified analysis API ------------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine layer: one API every analysis driver goes through.  A
/// CheckSession owns a thread budget and turns CheckRequests (program +
/// exploration options) into CheckResults (exploration outcome + timing).
///
/// Two axes of parallelism share the budget:
///  - a single check spreads its schedule-tree frontier across the
///    session's workers (ExplorerOptions::Threads), and when witness
///    minimization is requested the same thread share then drains the
///    per-leak minimization jobs (engine/WitnessMinimizer.h) — one
///    `--threads N` budget governs both phases of a check;
///  - checkMany() fans a batch of programs out over a pool of session
///    workers, splitting the thread budget between concurrent programs.
///
/// Program-level fan-out amortizes better than frontier-level (workers
/// never touch each other's frontiers at all), so checkMany prefers it:
/// with W session threads and N programs, min(W, N) programs run
/// concurrently and each gets max(1, W / min(W, N)) frontier workers.
/// Within one check, frontier-level parallelism is the work-stealing
/// sharded engine of sched/ScheduleExplorer.h; its `PruneSeen` knob rides
/// in through `CheckRequest::Opts` (or the session defaults, which the
/// flag table in engine/SessionArgs.h fills from `--prune-seen`).
///
/// **The audit service.**  `SessionOptions::CacheDir` turns checkMany
/// into a persistent audit service (docs/ARCHITECTURE.md, "life of a
/// cached audit"): it opens a content-addressed ResultCache
/// (engine/ResultCache.h), and before exploring, each request's canonical
/// program hash + options fingerprint is looked up, so an unchanged case
/// is served from disk (`CheckResult::FromCache`) instead of re-explored;
/// fresh results are stored back atomically.  The key is computed from
/// the *serialized* request (engine/Serialization.h), which is why a
/// request's pass options are one closed `PassConfig` value rather than
/// session-inherited booleans.
///
/// **Thread-safety.**  A CheckSession is immutable after construction:
/// `check()` and `checkMany()` are const, allocate all mutable state per
/// call, and may be invoked concurrently from any number of threads (each
/// call starts its own workers through `forEachIndex` and `runWorkers`,
/// sched/WorkDeque.h, the calling thread being worker 0, so concurrent
/// calls multiply thread counts — prefer one batched checkMany).
/// Requests are taken by span/reference and must outlive the call;
/// results are returned by value in request order.  The result cache is
/// safe for concurrent use (lookups read immutable files; stores are
/// atomic renames).
///
/// **Determinism.**  A check with Threads <= 1 (session and request) is
/// fully reproducible, counters included.  With parallelism anywhere, the
/// deduplicated leak set of every result is still independent of thread
/// count — the engine's contract (sched/ScheduleExplorer.h); wall-clock
/// `Seconds` and, under PruneSeen, step counters are the only racy
/// quantities.  The same contract is what lets the cache fingerprint
/// exclude Threads: a cached verdict is valid at any thread count
/// (counters are the stored run's).
///
/// Layering: isa → core → sched → engine → checker → workloads.  The
/// checkers and every bench/example driver sit on top of this seam;
/// docs/ARCHITECTURE.md walks a CheckRequest through the whole stack.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_ENGINE_CHECKSESSION_H
#define SCT_ENGINE_CHECKSESSION_H

#include "checker/SpsChecker.h"
#include "engine/WitnessMinimizer.h"
#include "sched/ScheduleExplorer.h"

#include <memory>
#include <span>
#include <string>

namespace sct {

class ResultCache;

/// The optional analysis passes of a check, as one closed value: witness
/// minimization (engine/WitnessMinimizer.h) and the SPS proof backend
/// (checker/SpsChecker.h), each with its knobs.  A PassConfig fully
/// describes "which passes ran and how" — the cache fingerprint and
/// CheckSession::runOne consume the same resolved value, so what
/// actually ran is never scattered across structs.
struct PassConfig {
  /// Delta-debug every witness after exploration: each leak's `MinSched`
  /// is filled with a minimized schedule replaying to the identical
  /// `LeakRecord::key()`, and `CheckResult::Minimization` reports the
  /// aggregate shrink.
  bool MinimizeWitnesses = false;
  /// Minimization budget and knobs.
  MinimizeOptions Minimize;
  /// Run the SPS proof backend before exploring.  A conclusive SPS
  /// verdict — Proved or CounterExample — settles the request without
  /// running the explorer at all; Inconclusive (options outside the
  /// supported fragment, budgets, custom Init) falls back to the
  /// ordinary exploration transparently.
  bool ProveSps = false;
  /// Tape-enumeration budgets for the SPS pass.
  SpsOptions Sps;
};

/// Session-wide knobs.
struct SessionOptions {
  /// Total worker-thread budget shared by frontier- and program-level
  /// parallelism.  0 or 1 = fully sequential.
  unsigned Threads = 1;
  /// Defaults applied by the Program-only conveniences.
  ExplorerOptions DefaultOpts;
  MachineOptions DefaultMOpts;
  /// Passes applied to every request that does not pin its own
  /// (`CheckRequest::Passes`); see CheckRequest::resolved.
  PassConfig Passes;
  /// Directory of the persistent content-addressed result cache
  /// (engine/ResultCache.h); empty = caching off.  Created on demand.
  std::string CacheDir;
};

/// One unit of analysis work: a program plus how to explore it.
struct CheckRequest {
  /// Caller-chosen identifier, echoed in the result (suite case ids,
  /// file names, ...).
  std::string Id;
  /// The program to check.  Stored by value: requests outlive the Machine
  /// that references them for the duration of the check.
  Program Prog;
  /// Exploration knobs.  Threads == 0 means "inherit the session share";
  /// a nonzero value pins this request's frontier workers explicitly.
  ExplorerOptions Opts;
  MachineOptions MOpts;
  /// Start from this configuration instead of Configuration::initial —
  /// lets differential drivers check mutated-secret variants through the
  /// same API.  Custom-init requests are never cached.
  std::optional<Configuration> Init;
  /// Pass configuration override.  Disengaged (the default) inherits the
  /// session's `SessionOptions::Passes`; an engaged value replaces it
  /// wholesale — there is no field-wise merging, so `resolved()` is the
  /// single place "what runs" is decided.
  std::optional<PassConfig> Passes;

  /// The passes this request actually runs under session \p SOpts:
  /// request-overrides-session, as one explicit function shared by
  /// runOne and the cache fingerprint.
  const PassConfig &resolved(const SessionOptions &SOpts) const {
    return Passes ? *Passes : SOpts.Passes;
  }
};

/// The outcome of one CheckRequest.
struct CheckResult {
  std::string Id;
  ExploreResult Exploration;
  /// The options the exploration actually ran with (thread share
  /// resolved).
  ExplorerOptions Opts;
  /// Wall-clock seconds spent exploring.  A cache hit reports the
  /// *stored* run's seconds (so serialized results round-trip
  /// byte-identically); `FromCache` tells the two apart.
  double Seconds = 0;
  /// Aggregate witness-minimization outcome; engaged iff minimization ran
  /// (raw and minimized directive totals, replays spent, budget state).
  std::optional<MinimizeStats> Minimization;
  /// SPS proof-backend report; engaged iff the request asked for ProveSps.
  /// A conclusive report is the verdict of record (`Exploration` is then
  /// empty — the explorer never ran); an inconclusive one means the
  /// explorer ran as usual and `Exploration` decides.
  std::optional<SpsReport> Sps;
  /// True iff this result was served from the session's ResultCache
  /// rather than computed.  Not serialized — the stored bytes are those
  /// of the original run, which is what keeps warm and cold audits
  /// byte-comparable.
  bool FromCache = false;

  bool secure() const {
    if (Sps && Sps->conclusive())
      return Sps->proved();
    return Exploration.secure();
  }
};

/// The unified entry point for running checks.
class CheckSession {
public:
  explicit CheckSession(SessionOptions Opts = {});
  ~CheckSession();
  CheckSession(CheckSession &&) noexcept;
  CheckSession &operator=(CheckSession &&) noexcept;

  const SessionOptions &options() const { return Opts; }

  /// The session's result cache, or null when `CacheDir` is empty or the
  /// directory could not be created.  Exposes hit/miss/store counters.
  const ResultCache *cache() const { return Cache.get(); }

  /// Checks one request; the frontier spreads over the session's whole
  /// thread budget unless the request pins its own.  Consults the result
  /// cache (when open) before exploring.
  CheckResult check(const CheckRequest &Req) const;

  /// Convenience: checks \p P under the session defaults.
  CheckResult check(const Program &P) const;
  CheckResult check(const Program &P, const ExplorerOptions &EOpts) const;

  /// Batch entry point: cache lookups first, spread over the session's
  /// threads, then the misses fan out over the session's thread pool.
  /// Results are returned in request order regardless of which worker
  /// finished first.
  std::vector<CheckResult> checkMany(std::span<const CheckRequest> Reqs) const;

  /// Batch convenience: checks each program under the session defaults.
  std::vector<CheckResult> checkMany(std::span<const Program> Progs) const;

private:
  SessionOptions Opts;
  std::unique_ptr<ResultCache> Cache;

  CheckResult runOne(const CheckRequest &Req, unsigned FrontierThreads) const;
  /// runOne plus cache lookup/store (no-op without an open cache).
  CheckResult runOneCached(const CheckRequest &Req,
                           unsigned FrontierThreads) const;
};

/// Session options for a CLI driver, parsed by the declarative flag table
/// in engine/SessionArgs.h (`--threads`, `--prune-seen` /
/// `--no-prune-seen`, the `--minimize-*` family, `--prove-sps` /
/// `--sps-max-tapes`, `--cache-dir`),
/// defaulting the thread budget to the hardware concurrency.  Unknown
/// arguments are ignored — drivers with their own flags use
/// parseSessionArgs to see what was consumed.  A malformed flag value
/// prints an error naming the flag and exits with status 2.  Shared by
/// the bench mains.
SessionOptions sessionOptionsFromArgs(int Argc, char **Argv);

} // namespace sct

#endif // SCT_ENGINE_CHECKSESSION_H
