//===- sched/ScheduleExplorer.cpp - Worst-case schedule exploration ---------===//
//
// The exploration engine: an explicit work queue of ExploreNodes (schedule
// prefix + forked configuration) drained by worker threads.  A worker pops
// a node, moves its configuration out, and runs the path forward.
// Decision points (Definition B.18's schedule-set forks) do not recurse:
// the fork's probed configuration becomes a new node, the worker switches
// to the first fork and pushes the rest plus its own continuation.
//
// One drain serves every thread count: per-worker work-stealing deques
// (sched/WorkDeque.h) on runWorkers' threads, the calling thread being
// worker 0.  Owners pop LIFO, thieves steal the oldest half of a random
// victim.  At Threads <= 1 that is one deque drained LIFO by the calling
// thread — exactly depth-first, the deterministic legacy order.
// Termination is a global in-flight count: nodes queued plus paths
// running; when it hits zero no work exists or can appear.
//
// Budgets and tallies are shared atomics; leaks collect in per-worker
// buffers merged through LeakRecord::key() at the end, so the deduplicated
// leak set is independent of drain order.  With ExplorerOptions::PruneSeen
// a cross-schedule seen-state table (sched/SeenStates.h) keyed on
// Configuration::hash() drops frontier candidates whose configuration was
// already visited and cuts hazard re-executions short when they converge
// onto a visited state — identical configurations have identical subtrees,
// so the first visitor's exploration covers the twin's.
//
//===----------------------------------------------------------------------===//

#include "sched/ScheduleExplorer.h"

#include "sched/SeenStates.h"
#include "sched/WorkDeque.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

using namespace sct;

namespace {

/// One immutable segment of a schedule prefix.  A path's schedule is the
/// concatenation of its chain's segments (oldest ancestor first) plus a
/// mutable per-path suffix.  At every fork point the parent's suffix
/// seals into one spine node shared by the continuation and every
/// sibling, so forking is O(1) in schedule depth — the old representation
/// copied the whole directive vector per fork, which dominated fork cost
/// on deep trees.  Total storage is one directive per step of genuinely
/// distinct schedule, not one per step per fork.
struct SchedChain {
  const SchedChain *Parent = nullptr;
  /// Directives on the chain strictly before Seg.
  size_t StartLen = 0;
  std::vector<Directive> Seg;

  size_t endLen() const { return StartLen + Seg.size(); }
};

/// Engine-scoped slab allocator for SchedChain nodes: per-worker chunk
/// lists, each appended only by its owning worker (no lock), all freed
/// together when the engine dies.  Nodes are immutable once made and
/// become visible to other workers only through the frontier queues,
/// whose synchronization publishes them.  Chain nodes are never freed
/// individually: a node's directives are live as long as any descendant
/// path or recorded leak may flatten through it, and one Directive per
/// explored step is the floor any representation pays anyway.
class SchedChainArena {
public:
  explicit SchedChainArena(unsigned Workers) : Pools(Workers) {}

  const SchedChain *make(unsigned WorkerId, const SchedChain *Parent,
                         std::vector<Directive> Seg) {
    Pool &P = Pools[WorkerId];
    if (P.Chunks.empty() || P.Used == ChunkSize) {
      P.Chunks.push_back(std::make_unique<SchedChain[]>(ChunkSize));
      P.Used = 0;
    }
    SchedChain *N = &P.Chunks.back()[P.Used++];
    N->Parent = Parent;
    N->StartLen = Parent ? Parent->endLen() : 0;
    N->Seg = std::move(Seg);
    return N;
  }

private:
  static constexpr size_t ChunkSize = 256;
  /// Cache-line separated so workers' bump pointers do not false-share.
  struct alignas(64) Pool {
    std::vector<std::unique_ptr<SchedChain[]>> Chunks;
    size_t Used = 0;
  };
  std::vector<Pool> Pools;
};

/// Appends the schedule represented by \p Prefix + \p Suffix onto \p Out.
void flatten(const SchedChain *Prefix, const Schedule &Suffix, Schedule &Out) {
  std::vector<const SchedChain *> Nodes; // Newest first.
  for (const SchedChain *N = Prefix; N; N = N->Parent)
    Nodes.push_back(N);
  for (auto It = Nodes.rbegin(); It != Nodes.rend(); ++It)
    Out.insert(Out.end(), (*It)->Seg.begin(), (*It)->Seg.end());
  Out.insert(Out.end(), Suffix.begin(), Suffix.end());
}

/// One frontier entry: a point in the schedule tree still to be explored.
struct ExploreNode {
  /// The configuration at this point.
  Configuration C;
  /// Directive prefix reaching this point (the witness prefix): the
  /// sealed chain up to the last fork point plus the directives issued
  /// since.
  const SchedChain *Prefix = nullptr;
  Schedule Suffix;
  /// Steps spent on this path (per-schedule budget accounting).
  size_t PathSteps = 0;
};

/// The work-queue exploration engine.
class Engine {
public:
  Engine(const Machine &M, const ExplorerOptions &Opts)
      : M(M), P(M.program()), Opts(Opts),
        NumWorkers(Opts.Threads > 1 ? Opts.Threads : 1), Deques(NumWorkers),
        Workers(NumWorkers) {}

  ExploreResult run(Configuration Init) {
    ExploreNode Root;
    Root.C = std::move(Init);
    InFlight.fetch_add(1);
    Deques.push(0, std::move(Root));
    runWorkers(NumWorkers, [this](unsigned Id) {
      try {
        workerLoop(Id);
      } catch (...) {
        // The failed path stays in flight; release the other workers.
        stopAll(/*Truncated=*/false);
        throw;
      }
    });
    return harvest();
  }

private:
  /// Per-path state a worker advances.
  struct Path {
    Configuration C;
    /// The schedule reaching C: sealed fork-point chain + directives
    /// issued since (see SchedChain).  tryStep appends to Suffix;
    /// recordLeak and materialization flatten.
    const SchedChain *Prefix = nullptr;
    Schedule Suffix;
    size_t Steps = 0;
    /// How much of Steps has been added to the engine-wide TotalSteps.
    /// tryStep only bumps the path-local count; runPath publishes the
    /// delta at loop boundaries (one relaxed fetch_add per fetch round
    /// instead of one per step — the counter was a measurable share of
    /// the step loop).  Forks start with StepsFlushed == Steps: the
    /// inherited prefix was published by the ancestors that stepped it.
    size_t StepsFlushed = 0;
    unsigned WorkerId = 0;

    /// Total directives in the schedule so far.
    size_t schedLen() const {
      return (Prefix ? Prefix->endLen() : 0) + Suffix.size();
    }
    /// Set when the seen-state table proves this path converged onto an
    /// already-visited configuration (its subtree belongs to the first
    /// visitor); the path stops without completing a schedule.
    bool Dead = false;
  };

  /// Per-worker leak buffer.  Uniqueness is decided against the global
  /// key set (leaks are rare relative to steps, so the lock is cold);
  /// the buffers themselves stay worker-local and merge at harvest.
  struct Worker {
    std::vector<LeakRecord> Leaks;
    /// CollectStats: first-visit states bucketed by schedule depth
    /// (ExploreStats::DepthBucket directives per bucket); merged at
    /// harvest.
    std::vector<uint64_t> NewStatesPerDepth;
  };

  const Machine &M;
  const Program &P;
  const ExplorerOptions &Opts;
  const unsigned NumWorkers;

  // Sharded frontier: one work-stealing deque per worker.
  StealQueue<ExploreNode> Deques;
  /// Nodes queued in any deque plus paths currently being run.  Zero
  /// means exploration is complete: no node exists and no running path
  /// can create one.
  std::atomic<uint64_t> InFlight{0};

  // Shared tallies and stop signals.
  std::atomic<uint64_t> TotalSteps{0};
  std::atomic<uint64_t> LeakEvents{0};
  std::atomic<uint64_t> SchedulesCompleted{0};
  std::atomic<uint64_t> PrunedNodes{0};
  std::atomic<uint64_t> Steals{0};
  std::atomic<uint64_t> ConfigsForked{0};
  std::atomic<uint64_t> RobBytesCopied{0};
  std::atomic<uint64_t> RobBytesFlat{0};
  std::atomic<bool> StopFlag{false};
  std::atomic<bool> TruncatedFlag{false};

  /// Cross-schedule seen-state table (consulted only under
  /// Opts.PruneSeen; constructed unconditionally — 64 empty shards).
  SeenStateTable Seen;

  /// Global leak dedup, shared by all workers under LeakMu so the
  /// MaxLeaks budget counts globally-unique keys exactly — a per-worker
  /// tally would double-count cross-worker duplicates and truncate
  /// early, breaking Threads-independence of the leak set.
  std::mutex LeakMu;
  std::set<uint64_t> SeenLeaks;

  std::vector<Worker> Workers;

  /// Slab storage for the schedule-prefix chain; lives exactly as long as
  /// the engine (every frontier node and path dies before harvest
  /// returns, and leaks flatten their schedules out of the chain).
  SchedChainArena Arena{NumWorkers};

  // Blowup-diagnosis tallies (only written under Opts.CollectStats).
  std::atomic<uint64_t> ConvChecks{0};
  std::atomic<uint64_t> ConvPrunes{0};
  std::atomic<uint64_t> ForkNew{0};
  std::atomic<uint64_t> ForkDup{0};

  /// CollectStats: tallies a first-visit state at schedule depth \p Depth
  /// into the owning worker's histogram.
  void noteNewState(unsigned WorkerId, size_t Depth) {
    std::vector<uint64_t> &V = Workers[WorkerId].NewStatesPerDepth;
    size_t B = Depth / ExploreStats::DepthBucket;
    if (V.size() <= B)
      V.resize(B + 1, 0);
    ++V[B];
  }

  //===------------------------------------------------------ queueing ---===//

  void enqueueNode(Path &&Pth) {
    ExploreNode N;
    N.C = std::move(Pth.C);
    N.Prefix = Pth.Prefix;
    N.Suffix = std::move(Pth.Suffix);
    N.PathSteps = Pth.Steps;
    InFlight.fetch_add(1);
    Deques.push(Pth.WorkerId, std::move(N));
  }

  /// Reconstructs the node's path: the node's configuration and schedule
  /// move into it.
  Path materialize(ExploreNode &&N, unsigned WorkerId) {
    Path Pth;
    Pth.C = std::move(N.C);
    Pth.Prefix = N.Prefix;
    Pth.Suffix = std::move(N.Suffix);
    Pth.Steps = N.PathSteps;
    Pth.StepsFlushed = N.PathSteps; // Published before the node parked.
    Pth.WorkerId = WorkerId;
    return Pth;
  }

  /// Workers poll StopFlag between pops and inside runPath; no wakeup is
  /// needed (idle stealing workers spin on yield/short sleeps).
  void stopAll(bool Truncated) {
    if (Truncated)
      TruncatedFlag.store(true, std::memory_order_relaxed);
    StopFlag.store(true, std::memory_order_relaxed);
  }

  bool stopped() const { return StopFlag.load(std::memory_order_relaxed); }

  //===----------------------------------------------------------- drain ---===//

  /// The drain: pop the own deque LIFO; when dry, steal the oldest half of
  /// a random victim; when everything is dry, exit once the in-flight
  /// count proves no path can produce new nodes.  A lone worker never
  /// steals or waits: its deque is empty only when nothing is in flight.
  void workerLoop(unsigned Id) {
    std::minstd_rand Rng(Id * 0x9e3779b9u + 0x2545f491u);
    unsigned IdleRounds = 0;
    for (;;) {
      if (stopped())
        return;
      ExploreNode N;
      bool Got = Deques.tryPop(Id, N);
      if (!Got) {
        size_t Taken = Deques.trySteal(Id, static_cast<unsigned>(Rng()), N);
        if (Taken) {
          Steals.fetch_add(1, std::memory_order_relaxed);
          Got = true;
        }
      }
      if (Got) {
        IdleRounds = 0;
        Path Pth = materialize(std::move(N), Id);
        runPath(Pth);
        InFlight.fetch_sub(1);
        continue;
      }
      if (InFlight.load() == 0)
        return;
      // Back off gently: other workers are still running paths that may
      // fork.  Yield first; after a while sleep, so an oversubscribed
      // pool (more workers than cores) does not starve the runners.
      if (++IdleRounds < 64)
        std::this_thread::yield();
      else
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  ExploreResult harvest() {
    ExploreResult R;
    R.LeakEvents = LeakEvents.load();
    R.SchedulesCompleted = SchedulesCompleted.load();
    R.TotalSteps = TotalSteps.load();
    R.PrunedNodes = PrunedNodes.load();
    R.Steals = Steals.load();
    R.ConfigsForked = ConfigsForked.load();
    R.RobBytesCopied = RobBytesCopied.load();
    R.RobBytesFlat = RobBytesFlat.load();
    R.Truncated = TruncatedFlag.load();
    if (Opts.CollectStats) {
      ExploreStats St;
      St.Seen = Seen.stats();
      St.ForkInsertNew = ForkNew.load();
      St.ForkInsertDup = ForkDup.load();
      St.ConvergenceChecks = ConvChecks.load();
      St.ConvergencePrunes = ConvPrunes.load();
      for (Worker &W : Workers) {
        if (St.NewStatesPerDepth.size() < W.NewStatesPerDepth.size())
          St.NewStatesPerDepth.resize(W.NewStatesPerDepth.size(), 0);
        for (size_t I = 0; I < W.NewStatesPerDepth.size(); ++I)
          St.NewStatesPerDepth[I] += W.NewStatesPerDepth[I];
      }
      R.Stats = std::move(St);
    }
    // Merge per-worker buffers in worker order; keys are already
    // globally unique (SeenLeaks gated every insert).
    for (Worker &W : Workers)
      for (LeakRecord &L : W.Leaks)
        if (R.Leaks.size() < Opts.MaxLeaks)
          R.Leaks.push_back(std::move(L));
    return R;
  }

  //===------------------------------------------------------ stepping ---===//

  /// Publishes a path's not-yet-counted steps to the engine-wide total.
  /// Called at runPath loop boundaries, on every fork once its probing
  /// steps ran, and wherever a path leaves runPath — so the loop-top
  /// budget check reads exactly the pre-batching value at the same
  /// program point, and ExploreResult::TotalSteps stays exact.
  void flushSteps(Path &Pth) {
    if (size_t D = Pth.Steps - Pth.StepsFlushed) {
      TotalSteps.fetch_add(D, std::memory_order_relaxed);
      Pth.StepsFlushed = Pth.Steps;
    }
  }

  /// Issues one directive that must be applicable; records leaks.
  void mustStep(Path &Pth, const Directive &D) {
    [[maybe_unused]] bool Ok = tryStep(Pth, D);
    assert(Ok && "explorer issued an inapplicable directive");
  }

  /// Issues one directive if applicable; returns false otherwise.  Under
  /// PruneSeen, a forwarding-hazard rollback that lands on an
  /// already-claimed configuration marks the path Dead: hazard
  /// re-executions converge onto states other schedules forked directly
  /// (the recurring v4 pattern), and the claimant owns the subtree.
  ///
  /// The convergence check is a pure query — it must NOT insert.  tryStep
  /// also runs the probing steps of fork candidates, and a fork may be
  /// discarded right after probing (e.g. a store-forward fork whose load
  /// did not actually forward).  An insert here would let such a
  /// discarded probe claim the post-rollback state without anyone ever
  /// exploring its subtree, and the genuine path converging there later
  /// would be pruned together with its leaks (v1.1-07 regressed exactly
  /// this way when pruning became the default).  States are claimed only
  /// where nodes are kept: the fork filter and the continuation re-queue
  /// in runPath.
  bool tryStep(Path &Pth, const Directive &D) {
    PC Origin = leakOriginOf(Pth.C, D);
    auto Outcome = M.step(Pth.C, D);
    if (!Outcome)
      return false;
    Pth.Suffix.push_back(D);
    ++Pth.Steps;
    if (Outcome->Obs.isSecret())
      recordLeak(Pth, Outcome->Obs, Origin, Outcome->Rule);
    if (!Pth.Dead && Opts.PruneSeen &&
        (Outcome->Rule == RuleId::StoreExecuteAddrHazard ||
         Outcome->Rule == RuleId::LoadExecuteAddrHazard ||
         Outcome->Rule == RuleId::LoadExecuteAddrMemHazard)) {
      if (Opts.CollectStats)
        ConvChecks.fetch_add(1, std::memory_order_relaxed);
      // Probe through the mutable configuration: the memoizing hash()
      // overload folds the reorder buffer's pending entries once, where
      // the const one would re-walk them at every probe.
      if (Seen.contains(Pth.C.hash())) {
        if (Opts.CollectStats)
          ConvPrunes.fetch_add(1, std::memory_order_relaxed);
        PrunedNodes.fetch_add(1, std::memory_order_relaxed);
        Pth.Dead = true;
      }
    }
    return true;
  }

  void recordLeak(Path &Pth, const Observation &Obs, PC Origin, RuleId Rule) {
    LeakEvents.fetch_add(1, std::memory_order_relaxed);
    Schedule Full;
    Full.reserve(Pth.schedLen());
    flatten(Pth.Prefix, Pth.Suffix, Full);
    LeakRecord L{std::move(Full), Obs, Origin, Rule};
    bool New;
    size_t Nth;
    {
      std::lock_guard<std::mutex> G(LeakMu);
      New = SeenLeaks.insert(L.key()).second;
      Nth = SeenLeaks.size();
    }
    if (New) {
      // MaxLeaks gates globally-unique keys: once storage is exhausted
      // the search is cut short and the result marked truncated (the
      // leaks found remain trustworthy; completeness not).
      if (Nth <= Opts.MaxLeaks)
        Workers[Pth.WorkerId].Leaks.push_back(std::move(L));
      else
        stopAll(/*Truncated=*/true);
    }
    if (Opts.StopAtFirstLeak)
      stopAll(/*Truncated=*/false);
  }

  /// Best-effort resolution of an indirect jump's target at fetch time.
  std::optional<PC> peekJumpTarget(const Configuration &C,
                                   const Instruction &I) {
    return actualTarget(M, C, C.Buf.nextIndex(),
                        TransientInstr::makeJumpI(I.args(), 0, C.N));
  }

  /// Best-effort architectural return target for a ret with an empty RSB:
  /// the newest in-flight store to [rsp] or, failing that, memory.
  PC peekReturnTarget(const Configuration &C) {
    auto Sp = M.resolveReg(C, C.Buf.nextIndex(), Reg::sp());
    if (!Sp)
      return 0;
    uint64_t A = Sp->Bits;
    PC Hit = 0;
    if (C.Buf.scanReverse(C.Buf.minIndex(), C.Buf.nextIndex(),
                          [&](BufIdx, const TransientInstr &T) {
                            if (!T.isStoreToAddr(A) || !T.StoreValIsResolved)
                              return false;
                            Hit = static_cast<PC>(T.StoreResolvedVal.Bits);
                            return true;
                          }))
      return Hit;
    return static_cast<PC>(C.Mem.load(A).Bits);
  }

  //===-------------------------------------------------- path running ---===//

  /// Drives one path until it completes, truncates, converges onto a
  /// visited state, or is stopped.  Forks become frontier nodes; to
  /// preserve the legacy depth-first order the worker continues with the
  /// first fork and re-queues its own continuation behind the remaining
  /// forks.
  void runPath(Path &Pth) {
    for (;;) {
      flushSteps(Pth);
      if (stopped() || Pth.Dead)
        return;
      if (TotalSteps.load(std::memory_order_relaxed) >= Opts.MaxTotalSteps ||
          SchedulesCompleted.load(std::memory_order_relaxed) >=
              Opts.MaxSchedules) {
        stopAll(/*Truncated=*/true);
        return;
      }
      if (Pth.Steps >= Opts.MaxStepsPerSchedule) {
        // Per-schedule budget: only this path is cut short.
        TruncatedFlag.store(true, std::memory_order_relaxed);
        return;
      }
      if (Pth.C.isFinal(P)) {
        SchedulesCompleted.fetch_add(1, std::memory_order_relaxed);
        return;
      }

      bool CanFetch =
          Pth.C.Buf.size() < Opts.SpeculationBound && P.contains(Pth.C.N);
      if (CanFetch) {
        std::vector<Path> Forks;
        bool Alive = fetchAndDecide(Pth, Forks);
        flushSteps(Pth);
        for (Path &F : Forks)
          flushSteps(F);
        if (Pth.Dead)
          Alive = false;
        if (Opts.PruneSeen && !Forks.empty()) {
          // Cross-schedule pruning happens where nodes are born: a fork
          // whose probed configuration was already visited (or whose
          // probing steps died on a visited hazard state) is dropped
          // before it costs a frontier slot.
          size_t Live = 0;
          for (size_t I = 0; I < Forks.size(); ++I) {
            Path &F = Forks[I];
            if (F.Dead)
              continue; // Counted at the hazard.
            if (!Seen.insert(F.C.hash())) {
              if (Opts.CollectStats)
                ForkDup.fetch_add(1, std::memory_order_relaxed);
              PrunedNodes.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            if (Opts.CollectStats) {
              ForkNew.fetch_add(1, std::memory_order_relaxed);
              noteNewState(F.WorkerId, F.schedLen());
            }
            if (Live != I)
              Forks[Live] = std::move(F);
            ++Live;
          }
          Forks.resize(Live);
        }
        if (!Forks.empty()) {
          if (Alive && Opts.PruneSeen) {
            if (!Seen.insert(Pth.C.hash())) {
              // The fall-through continuation converged onto a visited
              // state; its subtree is owned elsewhere.
              if (Opts.CollectStats)
                ForkDup.fetch_add(1, std::memory_order_relaxed);
              PrunedNodes.fetch_add(1, std::memory_order_relaxed);
              Alive = false;
            } else if (Opts.CollectStats) {
              ForkNew.fetch_add(1, std::memory_order_relaxed);
              noteNewState(Pth.WorkerId, Pth.schedLen());
            }
          }
          unsigned WorkerId = Pth.WorkerId;
          if (Alive)
            enqueueNode(std::move(Pth));
          for (size_t I = Forks.size(); I-- > 1;)
            enqueueNode(std::move(Forks[I]));
          Pth = std::move(Forks.front());
          Pth.WorkerId = WorkerId;
          continue;
        }
        if (!Alive)
          return; // Path ended (stalled machine, pruned, or stop).
        continue;
      }
      forceOldest(Pth);
      flushSteps(Pth);
      if (Pth.Dead)
        return;
    }
  }

  /// Phase A: fetch the next instruction eagerly, collecting the forks
  /// where B.18 branches the schedule set and advancing \p Pth along the
  /// fall-through.  Returns false iff the fall-through path is over.
  bool fetchAndDecide(Path &Pth, std::vector<Path> &Forks) {
    const Instruction &I = P.at(Pth.C.N);
    BufIdx Next = Pth.C.Buf.nextIndex();

    /// A fork starts as a copy of the current path; its probing steps run
    /// at creation (they both filter the fork and seed its schedule).
    /// The parent's suffix seals into one chain node first, so this fork,
    /// every later sibling, and the continuation share the schedule
    /// prefix by pointer — fork cost is O(1) in depth.
    auto forkFrom = [&]() {
      if (!Pth.Suffix.empty()) {
        Pth.Prefix = Arena.make(Pth.WorkerId, Pth.Prefix,
                                std::move(Pth.Suffix));
        Pth.Suffix.clear();
        // The move donated the old capacity to the arena; re-reserve a
        // fetch round's worth so the next few pushes skip the tiny
        // 1->2->4 growth reallocations (one malloc here instead).
        Pth.Suffix.reserve(8);
      }
      // Fold the parent's pending fingerprint contributions before
      // copying: the fork then inherits folded chunk refs, so the
      // seen-table hashes of this fork, its siblings, and the parent all
      // reuse one folding pass instead of each recomputing the shared
      // entries' contributions.  Folding is internal state only — every
      // hash value is identical either way.
      if (Opts.PruneSeen)
        Pth.C.Buf.foldPending();
      Path F;
      F.C = Pth.C;
      // Fork-copy accounting: what the ROB copy above actually moved vs.
      // what a flat per-entry slab would have (the sharing win).
      ConfigsForked.fetch_add(1, std::memory_order_relaxed);
      RobBytesCopied.fetch_add(F.C.Buf.bytesPerCopy(),
                               std::memory_order_relaxed);
      RobBytesFlat.fetch_add(F.C.Buf.bytesIfFlat(), std::memory_order_relaxed);
      F.Prefix = Pth.Prefix;
      F.Suffix.reserve(8); // Probing steps land immediately; same saving.
      F.Steps = Pth.Steps;
      F.StepsFlushed = Pth.Steps; // Inherited steps were published already.
      F.WorkerId = Pth.WorkerId;
      return F;
    };

    switch (I.kind()) {
    case InstrKind::Op:
      mustStep(Pth, Directive::fetch());
      tryStep(Pth, Directive::execute(Next));
      return true;

    case InstrKind::Fence:
      mustStep(Pth, Directive::fetch());
      return true;

    case InstrKind::Load: {
      mustStep(Pth, Directive::fetch());

      // Alias-prediction forks (§3.5): guess a forward from any earlier
      // value-resolved store whose address is still unknown.
      if (Opts.ExploreAliasPrediction && !Pth.C.Buf.empty()) {
        for (BufIdx J = Pth.C.Buf.minIndex(); J < Next; ++J) {
          const TransientInstr &S = Pth.C.Buf.at(J);
          if (!S.is(TransientKind::Store) || !S.StoreValIsResolved ||
              S.StoreAddrIsResolved)
            continue;
          Path F = forkFrom();
          if (tryStep(F, Directive::executeFwd(Next, J))) {
            tryStep(F, Directive::execute(Next));
            Forks.push_back(std::move(F));
          }
          if (stopped())
            return false;
        }
      }

      // Store-forwarding forks (§4.1): for every earlier store with an
      // unresolved address, one schedule resolves exactly that store's
      // address before this load executes — Pitchfork's
      // [execute s_i : addr; execute l] schedules.  The fall-through
      // schedule executes the load with no extra resolution (the "none
      // resolved" schedule: memory reads may be stale, Spectre v4).
      if (Opts.ExploreForwardingHazards && !Pth.C.Buf.empty()) {
        for (BufIdx S = Pth.C.Buf.minIndex(); S < Next; ++S) {
          const TransientInstr &St = Pth.C.Buf.at(S);
          if (!St.is(TransientKind::Store) || St.StoreAddrIsResolved)
            continue;
          // Architectural-path stores are covered by forced resolution
          // and its hazard re-execution; fork only where a rollback would
          // squash the store first (unless exhaustive forks were asked
          // for).
          if (!Opts.ExhaustiveForwardForks && !Pth.C.Buf.hasControlBefore(S))
            continue;
          Path F = forkFrom();
          if (!tryStep(F, Directive::executeAddr(S)))
            continue;
          if (F.Dead) {
            Forks.push_back(std::move(F)); // Culled by the fork filter.
            continue;
          }
          if (tryStep(F, Directive::execute(Next))) {
            // Keep the fork only if this store actually forwarded; other
            // outcomes coincide with the fall-through schedule.
            const ReorderBuffer &B2 = F.C.Buf;
            if (!B2.contains(Next) ||
                !B2.at(Next).is(TransientKind::LoadResolved) ||
                !(B2.at(Next).Dep && *B2.at(Next).Dep == S)) {
              flushSteps(F); // Probing steps count even when discarded.
              continue;
            }
          }
          Forks.push_back(std::move(F));
          if (stopped())
            return false;
        }
      }

      tryStep(Pth, Directive::execute(Next));
      return true;
    }

    case InstrKind::Store: {
      mustStep(Pth, Directive::fetch());
      if (!Pth.C.Buf.at(Next).StoreValIsResolved)
        tryStep(Pth, Directive::executeValue(Next));
      // With forwarding-hazard exploration the address stays unresolved —
      // younger loads fork over its resolution; the retire stage forces
      // it at the latest (B.18).  Without it, resolve eagerly.
      if (!Opts.ExploreForwardingHazards)
        tryStep(Pth, Directive::executeAddr(Next));
      return true;
    }

    case InstrKind::Branch: {
      std::optional<bool> TrueCorrect = probeBranchCorrect(M, Pth.C);
      if (!TrueCorrect) {
        // Condition not executable yet (fence in flight): fork both
        // guesses unresolved; forceOldest() executes them later.
        Path F = forkFrom();
        mustStep(F, Directive::fetchBool(false));
        Forks.push_back(std::move(F));
        if (stopped())
          return false;
        mustStep(Pth, Directive::fetchBool(true));
        return true;
      }
      bool Correct = *TrueCorrect;
      // Mispredicted fork: fetch the wrong guess and delay its resolution
      // as long as possible (B.18).  Nesting is bounded: wrong-path loops
      // would otherwise unroll a fresh fork per iteration.
      if (Pth.C.Buf.controlDepth() < Opts.MaxBranchDepth) {
        Path F = forkFrom();
        mustStep(F, Directive::fetchBool(!Correct));
        Forks.push_back(std::move(F));
        if (stopped())
          return false;
      }
      // Correct-guess path: resolve immediately.
      mustStep(Pth, Directive::fetchBool(Correct));
      mustStep(Pth, Directive::execute(Next));
      return true;
    }

    case InstrKind::JumpI: {
      std::optional<PC> Correct = peekJumpTarget(Pth.C, I);
      // Mistraining forks (Spectre v2), when requested.
      for (PC T : Opts.IndirectTargets) {
        if (Correct && T == *Correct)
          continue;
        if (Pth.C.Buf.controlDepth() >= Opts.MaxBranchDepth)
          break;
        Path F = forkFrom();
        mustStep(F, Directive::fetchTarget(T));
        // Leave unresolved: wrong-path execution proceeds until forced.
        Forks.push_back(std::move(F));
        if (stopped())
          return false;
      }
      mustStep(Pth, Directive::fetchTarget(Correct.value_or(0)));
      tryStep(Pth, Directive::execute(Next));
      return true;
    }

    case InstrKind::Call: {
      mustStep(Pth, Directive::fetch());
      tryStep(Pth, Directive::execute(Next + 1));
      // The return-address store to [rsp] delays like any store when
      // hazard exploration is on — exactly the gadget behind the FaCT
      // MEE finding (§4.2.2).
      if (!Opts.ExploreForwardingHazards)
        tryStep(Pth, Directive::executeAddr(Next + 2));
      return true;
    }

    case InstrKind::CallI: {
      // Indirect call: mistraining forks like jmpi (Spectre v2 via
      // function pointers), then the correct-prediction path; the group's
      // return-address store follows the usual forwarding regime.
      std::optional<PC> Correct = peekJumpTarget(Pth.C, I);
      for (PC T : Opts.IndirectTargets) {
        if (Correct && T == *Correct)
          continue;
        if (Pth.C.Buf.controlDepth() >= Opts.MaxBranchDepth)
          break;
        Path F = forkFrom();
        mustStep(F, Directive::fetchTarget(T));
        tryStep(F, Directive::execute(Next + 1));
        Forks.push_back(std::move(F));
        if (stopped())
          return false;
      }
      mustStep(Pth, Directive::fetchTarget(Correct.value_or(0)));
      tryStep(Pth, Directive::execute(Next + 1));
      if (!Opts.ExploreForwardingHazards)
        tryStep(Pth, Directive::executeAddr(Next + 2));
      tryStep(Pth, Directive::execute(Next + 3));
      return true;
    }

    case InstrKind::Ret: {
      bool RsbPredicts =
          M.options().RsbOnEmpty == RsbPolicy::Circular || Pth.C.Rsb.top();
      if (!RsbPredicts && M.options().RsbOnEmpty == RsbPolicy::Stall) {
        // The machine refuses to speculate.  Drain what is in flight; if
        // nothing is, the machine has stalled for good — a complete (if
        // unproductive) schedule.
        if (Pth.C.Buf.empty()) {
          SchedulesCompleted.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        forceOldest(Pth);
        return true;
      }

      if (RsbPredicts) {
        mustStep(Pth, Directive::fetch());
      } else {
        // RSB underflow: fork over attacker targets (ret2spec), then
        // continue with the best-effort architectural target.
        for (PC T : Opts.RsbUnderflowTargets) {
          if (Pth.C.Buf.controlDepth() >= Opts.MaxBranchDepth)
            break;
          Path F = forkFrom();
          mustStep(F, Directive::fetchTarget(T));
          Forks.push_back(std::move(F));
          if (stopped())
            return false;
        }
        mustStep(Pth, Directive::fetchTarget(peekReturnTarget(Pth.C)));
      }
      tryStep(Pth, Directive::execute(Next + 1));
      tryStep(Pth, Directive::execute(Next + 2));
      tryStep(Pth, Directive::execute(Next + 3));
      return true;
    }
    }
    return true;
  }

  /// Phase B: the buffer is full (or nothing is fetchable).  In order:
  ///  1. retire the oldest entry if it is ready;
  ///  2. execute any pending *data* instruction (ops, loads, store
  ///     values) — entries that were blocked by a fence become executable
  ///     once it retires, and wrong-path work keeps running while delayed
  ///     control flow stays unresolved (maximal speculation, §4.1);
  ///  3. only then force the front-most delayed decision: a store's
  ///     address (possibly raising a forwarding hazard) or a mispredicted
  ///     branch / indirect jump (rolling back).
  void forceOldest(Path &Pth) {
    Configuration &C = Pth.C;
    assert(!C.Buf.empty() && "nothing to force");
    if (tryStep(Pth, Directive::retire()))
      return;

    // Step 2: oldest-first, try pending data work.
    for (BufIdx K = C.Buf.minIndex(); K <= C.Buf.maxIndex(); ++K) {
      const TransientInstr &T = C.Buf.at(K);
      switch (T.Kind) {
      case TransientKind::Op:
      case TransientKind::Load:
      case TransientKind::LoadGuessed:
        if (tryStep(Pth, Directive::execute(K)))
          return;
        break;
      case TransientKind::Store:
        if (!T.StoreValIsResolved &&
            tryStep(Pth, Directive::executeValue(K)))
          return;
        // Without hazard exploration, store addresses resolve eagerly at
        // fetch — but a fence in flight defeats the eager step, and a
        // younger load executing first would then bypass the store (a
        // forwarding hazard in the mode that excludes them; the SPS
        // differential fuzz suite caught a wild transient return through
        // exactly this gap).  Restore the eager policy here, before any
        // younger load runs: the loop is oldest-first.
        if (!Opts.ExploreForwardingHazards && !T.StoreAddrIsResolved &&
            tryStep(Pth, Directive::executeAddr(K)))
          return;
        break;
      default:
        break;
      }
      if (C.Buf.empty() || K >= C.Buf.maxIndex())
        break;
    }

    // Step 2b: nested *correctly-guessed* control whose eager resolution
    // a fence blocked at fetch time.  A branch's execute IS its jump
    // observation — if only the front-most unresolved entry were ever
    // forced (step 3), a fence-window branch whose condition turned
    // secret on a wrong path would be squashed unobserved, hiding a leak
    // the semantics admit (the SPS differential fuzz suite found exactly
    // this shape: fence; mispredicted branch; wrong-path secret load;
    // nested branch on the loaded value).  Restricted to correct guesses:
    // a delayed *wrong* guess already observed at its fork's sibling (the
    // immediately-resolving fall-through) and must stay unresolved to
    // keep the B.18 worst-case window open — resolving it here would
    // also perturb step counts on fence-free programs.
    {
      bool SeenUnresolved = false;
      for (BufIdx K = C.Buf.minIndex(); K <= C.Buf.maxIndex(); ++K) {
        const TransientInstr &T = C.Buf.at(K);
        if (T.isResolved())
          continue;
        if (!SeenUnresolved) { // Front-most: step 3's call.
          SeenUnresolved = true;
          continue;
        }
        if (!T.isUnresolvedControl())
          continue;
        std::optional<PC> Actual = actualTarget(M, C, K, T);
        if (Actual == T.N0 && tryStep(Pth, Directive::execute(K)))
          return;
      }
    }

    // Step 3: force the first remaining unresolved entry (a delayed store
    // address or speculation-delayed control flow).
    for (BufIdx K = C.Buf.minIndex(); K <= C.Buf.maxIndex(); ++K) {
      const TransientInstr &T = C.Buf.at(K);
      if (T.isResolved())
        continue;
      bool Ok;
      if (T.is(TransientKind::Store))
        Ok = tryStep(Pth, Directive::executeAddr(K));
      else
        Ok = tryStep(Pth, Directive::execute(K));
      assert(Ok && "first unresolved entry must be executable");
      (void)Ok;
      return;
    }
    assert(false && "buffer unretirable yet fully resolved");
  }
};

} // namespace

std::optional<PC> sct::actualTarget(const Machine &M, const Configuration &C,
                                    BufIdx At, const TransientInstr &T) {
  auto Args = M.resolveOperands(C, At, T.Args);
  if (!Args)
    return std::nullopt;
  if (T.is(TransientKind::Branch))
    return truthy(evalOp(T.Opc, *Args, M.options())) ? T.NTrue : T.NFalse;
  return static_cast<PC>(evalAddr(*Args, M.options()).Bits);
}

std::optional<bool> sct::probeBranchCorrect(const Machine &M,
                                            const Configuration &C) {
  // The execute rules' fence premise, evaluated where the fetched branch
  // would land: every live fence precedes it.
  BufIdx At = C.Buf.nextIndex();
  if (C.Buf.hasFenceBefore(At))
    return std::nullopt;
  const Instruction &I = M.program().at(C.N);
  std::optional<PC> Actual = actualTarget(
      M, C, At,
      TransientInstr::makeBranch(I.opcode(), I.args(), I.trueTarget(),
                                 I.trueTarget(), I.falseTarget(), C.N));
  if (!Actual)
    return std::nullopt;
  return *Actual == I.trueTarget();
}

ExploreResult sct::explore(const Machine &M, Configuration Init,
                           const ExplorerOptions &Opts) {
  if (Opts.SpeculationBound == 0)
    throw std::invalid_argument("explore: SpeculationBound must be at least 1");
  Engine E(M, Opts);
  return E.run(std::move(Init));
}
