//===- engine/WitnessMinimizer.cpp - Minimal leak witnesses -----------------===//
//
// Slice + ddmin over directive schedules with buffer-index repair and
// rung-seeded replays.  The only oracle is strict replay: a
// candidate reproduces iff stepping it reaches a secret observation with
// the original leak's key (origin, kind, rule, taint mask), and the
// adopted schedule is always the replayed-and-truncated one — so whatever
// the heuristics propose, the result is a valid witness by construction.
// Seeding only changes where a replay starts (a recorded state of the
// candidate's unedited prefix), never what it concludes; the failure memo
// only skips replays whose verdict is already known.
//
//===----------------------------------------------------------------------===//

#include "engine/WitnessMinimizer.h"

#include "sched/WorkDeque.h"

#include <algorithm>
#include <map>
#include <set>

using namespace sct;

namespace {

/// A ladder rung is recorded every this many kept directives while a
/// candidate's unedited prefix replays (the committed BENCH_MINIMIZER.json
/// sweep picked it).
constexpr size_t RungInterval = 4;
/// Upper bound on fixpoint iterations: each pass is a no-op once the
/// schedule is stable, so this is a safety rail, not a tuning knob.
constexpr unsigned MaxPasses = 8;

class Minimizer {
public:
  /// \p FromInitial replays every candidate from \p Init, with no rungs
  /// and no failure memo — the reference the optimized replays must match.
  Minimizer(const Machine &M, const Configuration &Init, uint64_t TargetKey,
            uint64_t MaxReplays, bool FromInitial)
      : M(M), Init(Init), TargetKey(TargetKey), MaxReplays(MaxReplays),
        FromInitial(FromInitial) {}

  Schedule run(const LeakRecord &L, MinimizeStats &Stats) {
    const Schedule &Raw = L.Sched;
    Stats.RawDirectives += Raw.size();
    Schedule Kept;
    std::vector<AllocInfo> KA;
    // The seeding replay: full-length, from the initial configuration —
    // it must compute every position's allocation record.  Its rungs
    // (recorded along the *kept* prefix) seed everything after.
    bool Seeded = evaluate(Raw, Kept, KA);
    if (Seeded) {
      adopt(std::move(Kept), std::move(KA));
      for (unsigned Outer = 0; Outer < MaxPasses; ++Outer) {
        fixpoint(/*Slice=*/true);
        if (Exhausted)
          break;
        // The polish round hops to the no-slice basin when that is
        // strictly shorter; a successful hop strictly shrinks Cur and
        // re-enters the fixpoint loop above, so the final schedule is
        // stable under every pass — idempotence holds with polish
        // exactly as without it (an unproductive polish restores the
        // fixpoint result byte-for-byte and ends the loop).
        Schedule BeforePolish = Cur;
        polish();
        if (Cur == BeforePolish)
          break;
      }
    }
    // A witness left unminimized (no budget for even the seeding replay)
    // counts at its raw length, not as zero directives.
    Stats.MinimizedDirectives += Seeded ? Cur.size() : Raw.size();
    Stats.Replays += Replays;
    Stats.ReplayedSteps += ReplayedSteps;
    Stats.SeededSteps += SeededSteps;
    Stats.SlicedExcursions += SlicedExcursions;
    Stats.BudgetExhausted |= Exhausted;
    return Seeded ? Cur : Schedule{};
  }

private:
  /// What a directive did when the current schedule last replayed: a
  /// fetch allocated buffer entries [From, From + Slots); a retire
  /// removed the group led by Retired (0 otherwise); Rule is the step's
  /// semantics rule and PostN the program point it left.  Indices are
  /// monotone while entries live (ReorderBuffer), so this is exactly the
  /// bookkeeping needed to renumber execute directives — and to cascade
  /// the retire of a deleted instruction — after a deletion, and to spot
  /// misprediction rollbacks for the slice pass.
  struct AllocInfo {
    BufIdx From = 0;
    unsigned Slots = 0;
    BufIdx Retired = 0;
    RuleId Rule = RuleId::SimpleFetch;
    PC PostN = 0;
  };

  /// A mid-schedule replay seed: the state after the current schedule's
  /// first `Len` directives.
  using Ladder = std::map<size_t, std::shared_ptr<const Configuration>>;

  const Machine &M;
  const Configuration &Init;
  const uint64_t TargetKey;
  const uint64_t MaxReplays;
  const bool FromInitial;
  uint64_t Replays = 0;
  uint64_t ReplayedSteps = 0;
  uint64_t SeededSteps = 0;
  uint64_t SlicedExcursions = 0;
  bool Exhausted = false;

  /// Current best witness and its per-position allocation record.
  Schedule Cur;
  std::vector<AllocInfo> CurAlloc;
  /// Recorded states along Cur's prefix, keyed by prefix length.  Invariant:
  /// every rung's state is what Cur[0, Len) strictly replays to — rungs
  /// above an adopted candidate's first edit are erased, and new rungs
  /// are recorded only while a candidate's unedited prefix replays.
  Ladder Rungs;

  /// First position where the last evaluated candidate differed from Cur
  /// (the longest common prefix, measured on directive values by
  /// evaluate itself — deletion cascades can rewrite survivors *before*
  /// the deleted chunk when rollback-reused buffer indices overlap, so
  /// no call site can be trusted to know its own first edit).
  size_t LastEdit = 0;

  /// Exact-schedule failure memo: the oracle is a pure function of the
  /// candidate (machine, initial configuration, and target key are fixed
  /// per witness), so a failed candidate stays failed forever.  The
  /// fixpoint loop re-proposes byte-identical candidates constantly — the
  /// verification pass re-tries everything the last productive pass
  /// tried, canonicalize re-probes stable positions every pass — and
  /// each hit skips a whole replay.  Keys are the exact packed directive
  /// sequences (no hashing, no collisions), successes are never cached
  /// (they change Cur and cannot recur).
  std::set<std::vector<uint64_t>> FailedCands;

  static std::vector<uint64_t> packSchedule(const Schedule &S) {
    std::vector<uint64_t> P;
    P.reserve(2 * S.size());
    for (const Directive &D : S) {
      // Two words per directive, lossless: buffer indices are bounded by
      // the schedule length (indices allocate one per fetched entry), so
      // 32 bits each cannot truncate here.
      P.push_back(uint64_t(D.K) | (uint64_t(D.Guess) << 8) |
                  (uint64_t(D.Target) << 16));
      P.push_back((uint64_t(D.Idx) << 32) | uint64_t(D.FwdFrom));
    }
    return P;
  }

  /// Adopts \p Kept (the effective schedule of a successful replay) as
  /// the current witness.  Rungs at or below the producing candidate's
  /// first edit survive (that prefix is unchanged); rungs above are
  /// stale.
  void adopt(Schedule &&Kept, std::vector<AllocInfo> &&KA) {
    Cur = std::move(Kept);
    CurAlloc = std::move(KA);
    Rungs.erase(Rungs.upper_bound(LastEdit), Rungs.end());
  }

  /// Replays \p Cand leniently: inapplicable directives are skipped, not
  /// fatal, so the candidate is garbage-collected as it runs (a deleted
  /// fetch's orphaned executes, a corrected guess's dead wrong-path
  /// work).  Success iff some step emits a secret observation with the
  /// target key; \p Kept then holds exactly the directives that applied,
  /// truncated at that step, with \p KeptAlloc their allocation record —
  /// by construction \p Kept replays *strictly* to the same leak, so
  /// adopting it never needs a second validation pass.
  ///
  /// The replay may start from the newest ladder rung at or below the
  /// candidate's first edit — the longest common prefix with Cur,
  /// measured here on directive values (the prefix-validity check: the
  /// candidate's directives up to the rung are byte-identical to Cur's,
  /// which strictly replays to the rung's state with its only target-key
  /// observation at Cur's final step — so skipping them changes neither
  /// the effective schedule nor the verdict).  The from-initial result
  /// is bit-for-bit the same; only the executed step count differs.
  bool evaluate(const Schedule &Cand, Schedule &Kept,
                std::vector<AllocInfo> &KeptAlloc) {
    if (Exhausted || Replays >= MaxReplays) {
      Exhausted = true;
      return false;
    }
    ++Replays;
    // Memo probe.  A hit still costs its replay from the budget
    // (incremented above) — the memo trades machine steps, not budget, so
    // budget exhaustion fires at exactly the same candidate with the memo
    // on or off and the search stays bit-for-bit reproducible.
    std::vector<uint64_t> Packed;
    if (!FromInitial) {
      Packed = packSchedule(Cand);
      if (FailedCands.count(Packed))
        return false;
    }
    // The seeding replay (empty Cur) has no prefix to preserve: every
    // state it passes becomes a rung of the witness it adopts.
    size_t FirstEdit = Cand.size();
    if (!Cur.empty()) {
      FirstEdit = 0;
      while (FirstEdit < Cand.size() && FirstEdit < Cur.size() &&
             Cand[FirstEdit] == Cur[FirstEdit])
        ++FirstEdit;
    }
    LastEdit = FirstEdit;
    size_t SeedLen = 0;
    const Configuration *Seed = nullptr;
    if (FirstEdit > 0 && !Rungs.empty()) {
      auto It = Rungs.upper_bound(FirstEdit);
      if (It != Rungs.begin()) {
        --It;
        SeedLen = It->first;
        Seed = It->second.get();
      }
    }
    Configuration C = Seed ? *Seed : Init; // COW: cheap until a write.
    Kept.assign(Cur.begin(), Cur.begin() + SeedLen);
    KeptAlloc.assign(CurAlloc.begin(), CurAlloc.begin() + SeedLen);
    SeededSteps += SeedLen;
    size_t NextRung = SeedLen + RungInterval;
    for (size_t Pos = SeedLen; Pos < Cand.size(); ++Pos) {
      const Directive &D = Cand[Pos];
      // Densify the ladder while the unedited prefix replays: here the
      // state is exactly what Cur[0, Kept.size()) reaches, valid as a
      // rung no matter how this candidate ends.  (During the seeding
      // replay FirstEdit covers the whole schedule, so the ladder spans
      // the adopted witness end to end.)  The from-initial reference
      // records none, so every replay starts at Init.
      if (!FromInitial && Kept.size() >= NextRung &&
          Kept.size() <= FirstEdit && Pos == Kept.size()) {
        if (!Rungs.count(Kept.size()))
          Rungs.emplace(Kept.size(),
                        std::make_shared<const Configuration>(C));
        NextRung = Kept.size() + RungInterval;
      }
      AllocInfo A;
      if (D.isFetch())
        A.From = C.Buf.nextIndex();
      if (D.isRetire() && !C.Buf.empty())
        A.Retired = C.Buf.minIndex();
      PC Origin = leakOriginOf(C, D);
      ++ReplayedSteps;
      auto Out = M.step(C, D);
      if (!Out)
        continue;
      if (D.isFetch())
        A.Slots = static_cast<unsigned>(C.Buf.nextIndex() - A.From);
      A.Rule = Out->Rule;
      A.PostN = C.N;
      Kept.push_back(D);
      KeptAlloc.push_back(A);
      if (Out->Obs.isSecret()) {
        LeakRecord Probe{Schedule{}, Out->Obs, Origin, Out->Rule};
        if (Probe.key() == TargetKey)
          return true; // Truncated at the (re-)found leak.
      }
    }
    if (!FromInitial)
      FailedCands.insert(std::move(Packed));
    return false;
  }

  /// Runs the passes — the slice pass first when \p Slice — until one
  /// round changes nothing, the budget runs out, or MaxPasses rounds ran.
  void fixpoint(bool Slice) {
    for (unsigned Pass = 0; Pass < MaxPasses && !Exhausted; ++Pass) {
      Schedule Before = Cur;
      if (Slice)
        slice();
      ddmin();
      if (!Exhausted)
        canonicalize();
      if (Cur == Before)
        break; // Fixpoint: another pass would change nothing.
    }
  }

  /// Builds the candidate that deletes the marked positions of Cur,
  /// repairing the survivors: executes naming an entry a deleted fetch
  /// allocated are cascaded out, and the remaining buffer indices are
  /// shifted down by the slots deleted beneath them.
  Schedule buildWithout(const std::vector<char> &Del) const {
    std::vector<AllocInfo> Gone; // Deleted allocations, in index order.
    for (size_t I = 0; I < Cur.size(); ++I)
      if (Del[I] && CurAlloc[I].Slots)
        Gone.push_back(CurAlloc[I]);
    // Maps an old buffer index to its repaired value; false if the entry
    // itself was deleted (the referencing directive must cascade).
    auto Repair = [&Gone](BufIdx Idx, BufIdx &Out) {
      BufIdx Shift = 0;
      for (const AllocInfo &G : Gone) {
        if (Idx < G.From)
          break; // Gone is sorted by From: no further range can contain Idx.
        if (Idx < G.From + G.Slots)
          return false;
        Shift += G.Slots;
      }
      Out = Idx - Shift;
      return true;
    };
    Schedule Cand;
    for (size_t I = 0; I < Cur.size(); ++I) {
      if (Del[I])
        continue;
      Directive D = Cur[I];
      if (D.isExecute()) {
        if (!Repair(D.Idx, D.Idx))
          continue;
        if (D.K == Directive::Kind::ExecuteFwd && !Repair(D.FwdFrom, D.FwdFrom))
          continue;
      } else if (D.isRetire() && CurAlloc[I].Retired) {
        // The retire of a deleted instruction cascades with its fetch —
        // otherwise every junk instruction stays anchored in the witness
        // by the retire that drained it from the buffer.
        BufIdx Dummy;
        if (!Repair(CurAlloc[I].Retired, Dummy))
          continue;
      }
      Cand.push_back(D);
    }
    return Cand;
  }

  /// The excursion slice pass: delete a whole wrong-path excursion — the
  /// misprediction fetch, its transient fetches/executes, and the
  /// rollback — as one candidate, before chunk ddmin nibbles at it.
  ///
  /// A rollback at position R (rule cond/jmpi-execute-incorrect)
  /// resolves buffer entry B: the machine discards every entry at or
  /// above B, re-inserts the resolved jump at index B, and redirects the
  /// program point — the same state the *correct* prediction reaches
  /// directly.  So the candidate flips the prediction fetch (position F,
  /// the latest fetch whose allocation covers B) to its resolving form,
  /// drops every fetch and every execute of an entry above B strictly
  /// between F and R (all wrong-path: fetches follow the mispredicted
  /// program point until the rollback, and entries above B are squashed
  /// by it), keeps the interleaved architectural work (retires and
  /// executes of entries below B), and keeps R itself, which now
  /// resolves correct.  No index repair is needed: the rollback resets
  /// allocation to B+1, so the suffix's indices mean the same thing in
  /// the sliced replay.  Nested excursions vanish with their enclosing
  /// one — the scan restarts outermost-first (descending R) after every
  /// adoption.
  void slice() {
    bool Changed = true;
    while (Changed && !Exhausted) {
      Changed = false;
      for (size_t R = Cur.size(); R-- > 0 && !Exhausted;) {
        if (CurAlloc[R].Rule != RuleId::CondExecuteIncorrect &&
            CurAlloc[R].Rule != RuleId::JmpiExecuteIncorrect)
          continue;
        BufIdx B = Cur[R].Idx;
        // The prediction that created entry B: the latest covering fetch
        // before R (rollbacks reuse indices, so earlier covering ranges
        // may be stale).
        size_t F = SIZE_MAX;
        for (size_t I = 0; I < R; ++I)
          if (CurAlloc[I].Slots && CurAlloc[I].From <= B &&
              B < CurAlloc[I].From + CurAlloc[I].Slots)
            F = I;
        if (F == SIZE_MAX)
          continue;
        Directive Flip;
        if (Cur[F].K == Directive::Kind::FetchBool)
          Flip = Directive::fetchBool(!Cur[F].Guess);
        else if (Cur[F].K == Directive::Kind::FetchTarget)
          // The rollback recorded where the jump actually went; predict
          // that and the kept execute resolves correct.
          Flip = Directive::fetchTarget(CurAlloc[R].PostN);
        else
          continue; // Hazard re-executions share the rules' rollback
                    // shape but not the prediction fetch; never sliced.
        Schedule Cand(Cur.begin(), Cur.begin() + F);
        Cand.push_back(Flip);
        for (size_t I = F + 1; I < R; ++I) {
          const Directive &D = Cur[I];
          if (D.isFetch() || (D.isExecute() && D.Idx > B))
            continue;
          Cand.push_back(D);
        }
        Cand.insert(Cand.end(), Cur.begin() + R, Cur.end());
        Schedule Kept;
        std::vector<AllocInfo> KA;
        // Adopted only on a strict shrink, which is also what keeps the
        // pass idempotent: a sliced witness has no incorrect resolutions
        // left to find.
        if (evaluate(Cand, Kept, KA) && Kept.size() < Cur.size()) {
          adopt(std::move(Kept), std::move(KA));
          ++SlicedExcursions;
          Changed = true;
          break;
        }
      }
    }
  }

  /// The slice-polish pass (ROADMAP open item 4).  The slice pass's
  /// fixpoint is 1-minimal in its own basin — predictions flipped to
  /// their resolving forms, rollback executes kept — which on some
  /// bloated witnesses sits ±2 directives from the no-slice optimum,
  /// whose schedules keep a misprediction un-flipped instead.  The
  /// fixpoint loop cannot hop between the basins: its guess-flips adopt
  /// only strict shrinks.  Polish hops deliberately: flip each surviving
  /// branch guess at *equal* length, rerun the no-slice passes
  /// (ddmin + canonicalize) from there, and keep the whole excursion only
  /// if the result is strictly shorter than the fixpoint's — otherwise
  /// restore it byte-for-byte, which is also what keeps minimization
  /// idempotent and never-longer.
  void polish() {
    Schedule Saved = Cur;
    std::vector<AllocInfo> SavedAlloc = CurAlloc;
    Ladder SavedRungs = Rungs;

    bool Improved = false;
    for (size_t I = 0; I < Cur.size() && !Exhausted; ++I) {
      if (Cur[I].K != Directive::Kind::FetchBool)
        continue;
      Schedule Cand = Cur;
      Cand[I] = Directive::fetchBool(!Cur[I].Guess);
      Schedule Kept;
      std::vector<AllocInfo> KA;
      // Equal length is enough to hop; the replays below must then earn
      // the strict shrink.
      if (!evaluate(Cand, Kept, KA) || Kept.size() > Cur.size())
        continue;
      adopt(std::move(Kept), std::move(KA));
      fixpoint(/*Slice=*/false);
      if (Cur.size() < Saved.size()) {
        Improved = true;
        break; // Strictly better basin found; keep it.
      }
      // No win: restore the fixpoint result exactly (rungs included —
      // their invariant is tied to Cur's prefix).
      Cur = Saved;
      CurAlloc = SavedAlloc;
      Rungs = SavedRungs;
    }
    if (!Improved && (Cur != Saved)) {
      Cur = Saved;
      CurAlloc = SavedAlloc;
      Rungs = std::move(SavedRungs);
    }
  }

  /// Zeller's ddmin over the positions of Cur, with cascade-repaired
  /// candidates.  Terminates 1-minimal w.r.t. single-position deletion
  /// (plus cascades) or when the replay budget runs out.
  void ddmin() {
    size_t N = 2;
    while (!Exhausted && Cur.size() >= 2) {
      size_t Len = Cur.size();
      if (N > Len)
        N = Len;
      size_t Chunk = (Len + N - 1) / N;
      bool Reduced = false;
      for (size_t Start = 0; Start < Len && !Exhausted; Start += Chunk) {
        std::vector<char> Del(Len, 0);
        for (size_t I = Start; I < std::min(Start + Chunk, Len); ++I)
          Del[I] = 1;
        Schedule Cand = buildWithout(Del);
        if (Cand.empty() || Cand.size() >= Cur.size())
          continue;
        Schedule Kept;
        std::vector<AllocInfo> KA;
        if (evaluate(Cand, Kept, KA) && Kept.size() < Cur.size()) {
          adopt(std::move(Kept), std::move(KA));
          Reduced = true;
          break;
        }
      }
      if (Reduced) {
        N = std::max<size_t>(2, N - 1);
        continue;
      }
      if (Chunk <= 1)
        break;
      N = std::min(N * 2, Cur.size());
    }
  }

  /// Rewrites each surviving directive to the simplest form that still
  /// reproduces the leak: prefer plain fetch/retire over the fork
  /// directives and plain execute over the resolution variants, so the
  /// minimized schedule spells out only the predictions the attack
  /// genuinely needs.
  void canonicalize() {
    for (size_t I = 0; I < Cur.size() && !Exhausted; ++I) {
      // Simpler-form alternatives are adopted at equal length (the
      // rewrite itself is the win, and it can only move toward plain
      // forms, so it cannot oscillate).
      std::vector<Directive> Alts;
      switch (Cur[I].K) {
      case Directive::Kind::FetchBool:
      case Directive::Kind::FetchTarget:
        Alts = {Directive::fetch(), Directive::retire()};
        break;
      case Directive::Kind::ExecuteValue:
      case Directive::Kind::ExecuteAddr:
      case Directive::Kind::ExecuteFwd:
        Alts = {Directive::execute(Cur[I].Idx), Directive::retire()};
        break;
      default:
        continue;
      }
      for (const Directive &Alt : Alts) {
        Schedule Cand = Cur;
        Cand[I] = Alt;
        Schedule Kept;
        std::vector<AllocInfo> KA;
        if (evaluate(Cand, Kept, KA) && Kept.size() <= Cur.size()) {
          adopt(std::move(Kept), std::move(KA));
          break;
        }
      }
      // Guess flip, adopted only on a strict shrink: correcting an
      // irrelevant misprediction makes its wrong-path excursion
      // inapplicable and the lenient replay garbage-collects it in the
      // same evaluation.  (The strict-shrink bar is what keeps
      // minimization idempotent — a flip that buys nothing, or would
      // merely flip back, never changes the schedule.)
      if (Cur[I].K == Directive::Kind::FetchBool) {
        Schedule Cand = Cur;
        Cand[I] = Directive::fetchBool(!Cur[I].Guess);
        Schedule Kept;
        std::vector<AllocInfo> KA;
        if (evaluate(Cand, Kept, KA) && Kept.size() < Cur.size())
          adopt(std::move(Kept), std::move(KA));
      }
    }
  }
};

} // namespace

namespace {
Schedule minimizeOne(const Machine &M, const Configuration &Init,
                     const LeakRecord &L, const MinimizeOptions &Opts,
                     MinimizeStats *Stats, bool FromInitial) {
  MinimizeStats Local;
  Minimizer Min(M, Init, L.key(), Opts.MaxReplays, FromInitial);
  return Min.run(L, Stats ? *Stats : Local);
}
} // namespace

Schedule sct::minimizeWitness(const Machine &M, const Configuration &Init,
                              const LeakRecord &L, const MinimizeOptions &Opts,
                              MinimizeStats *Stats) {
  return minimizeOne(M, Init, L, Opts, Stats, /*FromInitial=*/false);
}

Schedule sct::detail::minimizeWitnessFromInitial(const Machine &M,
                                                 const Configuration &Init,
                                                 const LeakRecord &L,
                                                 const MinimizeOptions &Opts,
                                                 MinimizeStats *Stats) {
  return minimizeOne(M, Init, L, Opts, Stats, /*FromInitial=*/true);
}

MinimizeStats sct::minimizeWitnesses(const Machine &M,
                                     const Configuration &Init,
                                     std::vector<LeakRecord> &Leaks,
                                     const MinimizeOptions &Opts) {
  // Per-leak jobs never create jobs, so workers take leak indices from
  // forEachIndex's shared counter.  Each worker replays through its own
  // Configurations (COW forks of the shared Init) and fills only its jobs'
  // MinSched slots; stats merge by summation at join.
  std::vector<MinimizeStats> PerWorker(std::max(Opts.Threads, 1u));
  forEachIndex(Leaks.size(), Opts.Threads, [&](size_t I, unsigned Worker) {
    Leaks[I].MinSched =
        minimizeWitness(M, Init, Leaks[I], Opts, &PerWorker[Worker]);
  });
  MinimizeStats Stats;
  for (const MinimizeStats &S : PerWorker)
    Stats.merge(S);
  return Stats;
}
