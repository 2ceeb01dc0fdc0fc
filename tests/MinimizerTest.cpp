//===- tests/MinimizerTest.cpp - Witness minimization -----------------------===//
//
// Coverage for engine/WitnessMinimizer.h:
//  - soundness: for every Kocher-variant violation in both checker modes,
//    the minimized schedule strictly replays to an observation with the
//    identical LeakRecord::key();
//  - idempotence: minimizing a minimized witness is a fixpoint;
//  - equivalence: parallel minimization (Threads in {1, 2, 8}) with
//    rung-seeded replays and the candidate memo produces byte-identical
//    MinSched per leak key vs the from-initial reference
//    (detail::minimizeWitnessFromInitial), on every Kocher variant in
//    both modes — with identical replay counts, since the search must
//    visit the same candidates;
//  - excursion slicing: idempotent, never lengthens a witness, still
//    replays to the identical key, and actually fires on
//    nested-speculation witnesses;
//  - effectiveness: explorer witnesses only shrink, on genuinely
//    bloated witnesses (leaking random well-formed schedules — the
//    "unreadable full prefix" case minimization exists for) the median
//    minimized length is under half the raw prefix, and every minimized
//    length on a fixed bloated corpus is pinned;
//  - the engine plumbing: CheckRequest pass configs fill
//    LeakRecord::MinSched and CheckResult::Minimization, session flags
//    parse (and reject malformed numbers naming the flag), and the replay
//    budget degrades gracefully (an unminimized witness counts at its raw
//    length).
//
//===----------------------------------------------------------------------===//

#include "engine/WitnessMinimizer.h"

#include "checker/SctChecker.h"
#include "engine/SessionArgs.h"
#include "sched/Executor.h"
#include "sched/RandomScheduler.h"
#include "workloads/CryptoLibs.h"
#include "workloads/Figures.h"
#include "workloads/Kocher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

using namespace sct;

namespace {

std::vector<SuiteCase> allKocher() {
  std::vector<SuiteCase> Cases = kocherCases();
  for (const SuiteCase &C : kocherOriginalCases())
    Cases.push_back(C);
  return Cases;
}

/// Strictly replays \p S and returns the key of the *final* step's
/// observation as a LeakRecord would compute it, or nullopt if the
/// schedule goes stuck or ends on a non-secret step.  Mirrors the
/// explorer's origin attribution (read before stepping).
std::optional<uint64_t> finalLeakKey(const Machine &M,
                                     const Configuration &Init,
                                     const Schedule &S) {
  Configuration C = Init;
  std::optional<uint64_t> Key;
  for (size_t I = 0; I < S.size(); ++I) {
    PC Origin = leakOriginOf(C, S[I]);
    auto Out = M.step(C, S[I]);
    if (!Out)
      return std::nullopt;
    if (I + 1 == S.size()) {
      if (!Out->Obs.isSecret())
        return std::nullopt;
      LeakRecord L{Schedule{}, Out->Obs, Origin, Out->Rule};
      Key = L.key();
    }
  }
  return Key;
}

/// One bloated random-schedule witness: runs the seeded random scheduler
/// and replays its trace to the first secret observation, exactly how
/// the explorer records a raw witness.  Returns nullopt when the run
/// never leaks or the prefix is shorter than \p MinLen (short accidental
/// witnesses are not the bloated case minimization exists for).  The
/// same recipe feeds bench/MinimizerBench's corpus.
std::optional<LeakRecord> bloatedWitness(const Machine &M,
                                         const Configuration &Init,
                                         uint64_t Seed, size_t MinLen,
                                         uint64_t MaxSteps = 400) {
  RandomRunOptions ROpts;
  ROpts.Seed = Seed;
  ROpts.MaxSteps = MaxSteps;
  ROpts.FetchWeight = 6; // Deep speculation: leaky and junk-rich.
  RunResult R = runRandom(M, Init, ROpts);
  Schedule Prefix;
  Configuration C = Init;
  for (const StepRecord &S : R.Trace) {
    PC Origin = leakOriginOf(C, S.D);
    auto Out = M.step(C, S.D);
    if (!Out)
      return std::nullopt; // A recorded trace must replay; bail loudly
                           // via the caller's leak-count assertions.
    Prefix.push_back(S.D);
    if (Out->Obs.isSecret()) {
      if (Prefix.size() < MinLen)
        return std::nullopt;
      return LeakRecord{Prefix, Out->Obs, Origin, Out->Rule};
    }
  }
  return std::nullopt;
}

//===----------------------------------------------------------- soundness ---===//

TEST(Minimizer, KocherMinimizedWitnessesReplayToIdenticalKey) {
  // The acceptance criterion's hard half, verbatim: every Kocher-variant
  // violation, both modes, minimized schedule replays to the same key.
  size_t Violations = 0;
  for (const SuiteCase &C : allKocher()) {
    Machine M(C.Prog);
    Configuration Init = Configuration::initial(C.Prog);
    for (auto ModeFn : {v1v11Mode, v4Mode}) {
      ExploreResult R = explore(M, Init, ModeFn());
      for (const LeakRecord &L : R.Leaks) {
        Schedule Min = minimizeWitness(M, Init, L);
        ASSERT_FALSE(Min.empty()) << C.Id;
        std::optional<uint64_t> Key = finalLeakKey(M, Init, Min);
        ASSERT_TRUE(Key.has_value()) << C.Id;
        EXPECT_EQ(*Key, L.key()) << C.Id;
        // Minimization never grows a witness.
        EXPECT_LE(Min.size(), L.Sched.size()) << C.Id;
        ++Violations;
      }
    }
  }
  // Every Kocher variant leaks in at least one mode; the loop must have
  // exercised a real corpus.
  EXPECT_GE(Violations, 2 * allKocher().size());
}

//===---------------------------------------------------------- idempotence ---===//

TEST(Minimizer, DdminIsIdempotent) {
  // Minimizing a minimized witness is a fixpoint: re-running the whole
  // ddmin + canonicalization pipeline on its own output changes nothing.
  for (const SuiteCase &C : allKocher()) {
    Machine M(C.Prog);
    Configuration Init = Configuration::initial(C.Prog);
    ExploreResult R = explore(M, Init, v4Mode());
    for (const LeakRecord &L : R.Leaks) {
      Schedule Once = minimizeWitness(M, Init, L);
      ASSERT_FALSE(Once.empty()) << C.Id;
      LeakRecord Again = L;
      Again.Sched = Once;
      Schedule Twice = minimizeWitness(M, Init, Again);
      EXPECT_EQ(Once, Twice) << C.Id;
    }
  }
}

//===---------------------------------------------------------- equivalence ---===//

/// Explores \p C under \p Opts on one deterministic thread, the way a
/// sequential minimizing session would.
ExploreResult exploreSequential(const Machine &M, const Configuration &Init,
                                ExplorerOptions Opts) {
  Opts.Threads = 1;
  return explore(M, Init, Opts);
}

TEST(Minimizer, SeededParallelMatchesSequentialFromInitial) {
  // Parallel minimization at Threads in {1, 2, 8}, with rung-seeded and
  // memoized replays, produces byte-identical MinSched per leak key vs
  // the from-initial reference (no rungs, no memo), on every Kocher
  // variant in both modes.  The stats must agree too — Replays exactly
  // (the search visits the same candidates in the same order),
  // raw/minimized totals trivially.
  size_t Corpora = 0;
  for (const SuiteCase &C : allKocher()) {
    Machine M(C.Prog);
    Configuration Init = Configuration::initial(C.Prog);
    for (auto ModeFn : {v1v11Mode, v4Mode}) {
      ExploreResult R = exploreSequential(M, Init, ModeFn());
      if (R.Leaks.empty())
        continue;
      ++Corpora;
      std::vector<LeakRecord> Baseline = R.Leaks;
      MinimizeStats SeqStats;
      for (LeakRecord &L : Baseline)
        L.MinSched =
            detail::minimizeWitnessFromInitial(M, Init, L, {}, &SeqStats);
      EXPECT_EQ(SeqStats.SeededSteps, 0u) << C.Id;
      for (unsigned Threads : {1u, 2u, 8u}) {
        std::vector<LeakRecord> Par = R.Leaks;
        MinimizeOptions ParOpts;
        ParOpts.Threads = Threads;
        MinimizeStats ParStats = minimizeWitnesses(M, Init, Par, ParOpts);
        ASSERT_EQ(Par.size(), Baseline.size());
        for (size_t I = 0; I < Par.size(); ++I) {
          EXPECT_EQ(Par[I].key(), Baseline[I].key()) << C.Id;
          EXPECT_EQ(Par[I].MinSched, Baseline[I].MinSched)
              << C.Id << " leak " << I << " Threads=" << Threads;
        }
        EXPECT_EQ(ParStats.Replays, SeqStats.Replays) << C.Id;
        EXPECT_EQ(ParStats.RawDirectives, SeqStats.RawDirectives) << C.Id;
        EXPECT_EQ(ParStats.MinimizedDirectives,
                  SeqStats.MinimizedDirectives)
            << C.Id;
        // Seeding must actually engage somewhere (witnesses of length
        // >= one rung interval exist in every corpus).
        EXPECT_GT(ParStats.SeededSteps + ParStats.ReplayedSteps, 0u);
        EXPECT_LE(ParStats.ReplayedSteps, SeqStats.ReplayedSteps) << C.Id;
      }
    }
  }
  EXPECT_GE(Corpora, allKocher().size());
}

//===------------------------------------------------------------- slicing ---===//

TEST(Minimizer, SlicingIsIdempotentAndNeverLengthens) {
  // The slice pass deletes whole wrong-path excursions.  Its contract:
  // the result still replays to the identical key, is never longer than
  // the raw witness, and re-minimizing it changes nothing.  On the deep
  // v4 corpus (nested speculation) the pass must actually fire.
  uint64_t TotalSliced = 0;
  for (const SuiteCase &C : allKocher()) {
    Machine M(C.Prog);
    Configuration Init = Configuration::initial(C.Prog);
    ExploreResult R = exploreSequential(M, Init, v4Mode());
    for (const LeakRecord &L : R.Leaks) {
      MinimizeOptions Opts; // Slicing on by default.
      MinimizeStats Stats;
      Schedule Once = minimizeWitness(M, Init, L, Opts, &Stats);
      TotalSliced += Stats.SlicedExcursions;
      ASSERT_FALSE(Once.empty()) << C.Id;
      EXPECT_LE(Once.size(), L.Sched.size()) << C.Id;
      std::optional<uint64_t> Key = finalLeakKey(M, Init, Once);
      ASSERT_TRUE(Key.has_value()) << C.Id;
      EXPECT_EQ(*Key, L.key()) << C.Id;
      LeakRecord Again = L;
      Again.Sched = Once;
      // Idempotence: minimizing the minimized witness again changes
      // nothing.
      EXPECT_EQ(minimizeWitness(M, Init, Again, Opts), Once) << C.Id;
    }
  }
  // Explorer witnesses end *inside* the speculation that leaks — their
  // excursion is the attack, so there is rarely anything to slice.  The
  // junk-rich case is a bloated random-schedule witness: mispredictions
  // taken and rolled back long before the leak.  The pass must fire
  // there, and the sliced result must obey the same contract.
  SuiteCase Deep = ssl3C();
  Machine M(Deep.Prog);
  Configuration Init = Configuration::initial(Deep.Prog);
  for (uint64_t Seed = 1; Seed <= 40 && TotalSliced == 0; ++Seed) {
    std::optional<LeakRecord> Raw =
        bloatedWitness(M, Init, Seed, /*MinLen=*/64, /*MaxSteps=*/600);
    if (!Raw)
      continue;
    MinimizeStats Stats;
    Schedule Min = minimizeWitness(M, Init, *Raw, {}, &Stats);
    ASSERT_FALSE(Min.empty());
    EXPECT_LE(Min.size(), Raw->Sched.size());
    std::optional<uint64_t> Key = finalLeakKey(M, Init, Min);
    ASSERT_TRUE(Key.has_value());
    EXPECT_EQ(*Key, Raw->key());
    TotalSliced += Stats.SlicedExcursions;
  }
  // A slice pass that never fires is not exercising its reason to exist.
  EXPECT_GT(TotalSliced, 0u);
}

//===-------------------------------------------------------- effectiveness ---===//

TEST(Minimizer, BloatedCorpusLengthsArePinned) {
  // Every minimized length on a fixed bloated corpus (60 random-schedule
  // seeds per Kocher case, raw prefixes of at least 24 directives), as
  // recorded for the pipeline that still had optional passes and suffix
  // convergence.  Deleting a pass switch or a replay shortcut must not
  // move any of them; only an intended change to the search may, and it
  // must update this table.  The slice-polish round earns its place here:
  // with it switched off, 18 of these 26 witnesses came out 1–3
  // directives longer.
  struct Pinned {
    const char *Id;
    uint64_t Seed;
    size_t Raw, Min;
  };
  static const Pinned Expected[] = {
      {"kocher-05", 3, 27, 11},       {"kocher-05", 6, 36, 11},
      {"kocher-05", 10, 38, 17},      {"kocher-05", 12, 32, 11},
      {"kocher-05", 13, 44, 17},      {"kocher-05", 14, 33, 17},
      {"kocher-05", 16, 30, 17},      {"kocher-05", 19, 65, 11},
      {"kocher-05", 21, 26, 11},      {"kocher-05", 22, 38, 11},
      {"kocher-05", 30, 50, 11},      {"kocher-05", 36, 28, 17},
      {"kocher-05", 48, 24, 17},      {"kocher-05", 58, 31, 11},
      {"kocher-14", 9, 46, 26},       {"kocher-14", 16, 43, 26},
      {"kocher-14", 28, 43, 26},      {"kocher-14", 31, 46, 26},
      {"kocher-14", 48, 46, 26},      {"kocher-14", 53, 43, 26},
      {"kocher-14", 54, 49, 26},      {"kocher-14", 56, 49, 26},
      {"kocher-orig-03", 6, 24, 8},   {"kocher-orig-03", 27, 36, 8},
      {"kocher-orig-03", 58, 24, 8},  {"kocher-orig-03", 59, 27, 16},
  };
  size_t Next = 0;
  for (const SuiteCase &C : allKocher()) {
    Machine M(C.Prog);
    Configuration Init = Configuration::initial(C.Prog);
    for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
      std::optional<LeakRecord> Raw = bloatedWitness(M, Init, Seed, 24);
      if (!Raw)
        continue;
      ASSERT_LT(Next, std::size(Expected)) << C.Id << " seed " << Seed;
      const Pinned &P = Expected[Next++];
      ASSERT_EQ(C.Id, P.Id) << "seed " << Seed;
      ASSERT_EQ(Seed, P.Seed) << C.Id;
      ASSERT_EQ(Raw->Sched.size(), P.Raw) << C.Id << " seed " << Seed;
      Schedule Min = minimizeWitness(M, Init, *Raw);
      EXPECT_EQ(Min.size(), P.Min) << C.Id << " seed " << Seed;
      std::optional<uint64_t> Key = finalLeakKey(M, Init, Min);
      ASSERT_TRUE(Key.has_value()) << C.Id << " seed " << Seed;
      EXPECT_EQ(*Key, Raw->key()) << C.Id << " seed " << Seed;
    }
  }
  EXPECT_EQ(Next, std::size(Expected));
}

TEST(Minimizer, BloatedRandomWitnessesShrinkPastHalfMedian) {
  // Random well-formed schedules that stumble into a leak carry the junk
  // the explorer's depth-first prefixes mostly avoid: unrelated
  // speculation, spurious retires and resolutions, dawdling architectural
  // work.  These are the "unreadable witness" inputs minimization exists
  // for.  The corpus is deterministic (fixed seeds, deterministic
  // machine), and the measured median minimized/raw ratio over it is
  // 0.444 — the minimum witness cannot shrink past the structural floor
  // of one fetch per instruction on the path to the leak plus the
  // dataflow executes (docs/WITNESSES.md quantifies this), so a 4x
  // "quarter-median" is unattainable on gadgets this shallow, but the
  // junk half must reliably go.
  std::vector<double> Ratios;
  for (const SuiteCase &C : allKocher()) {
    Machine M(C.Prog);
    Configuration Init = Configuration::initial(C.Prog);
    for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
      std::optional<LeakRecord> Raw =
          bloatedWitness(M, Init, Seed, /*MinLen=*/24);
      if (!Raw)
        continue;
      Schedule Min = minimizeWitness(M, Init, *Raw);
      ASSERT_FALSE(Min.empty()) << C.Id << " seed " << Seed;
      std::optional<uint64_t> Key = finalLeakKey(M, Init, Min);
      ASSERT_TRUE(Key.has_value()) << C.Id;
      EXPECT_EQ(*Key, Raw->key()) << C.Id;
      Ratios.push_back(double(Min.size()) / double(Raw->Sched.size()));
    }
  }
  ASSERT_GE(Ratios.size(), 10u) << "random corpus produced too few leaks";
  std::sort(Ratios.begin(), Ratios.end());
  EXPECT_LE(Ratios[Ratios.size() / 2], 0.45)
      << "median minimized/raw ratio over " << Ratios.size()
      << " bloated witnesses";
}

TEST(Minimizer, MinimizedWitnessesBeatThePaperSchedules) {
  // The sharpest quality bar available: for every paper figure that both
  // leaks and ships a hand-written attack schedule, the minimized witness
  // must not be longer than the paper's own attack.
  for (const FigureCase &C : allFigures()) {
    if (!C.ExpectLeak || C.PaperSchedule.empty())
      continue;
    Machine M(C.Prog);
    Configuration Init = Configuration::initial(C.Prog);
    ExploreResult R = explore(M, Init, C.CheckOpts);
    ASSERT_FALSE(R.Leaks.empty()) << C.Name;
    Schedule Min = minimizeWitness(M, Init, R.Leaks.front());
    ASSERT_FALSE(Min.empty()) << C.Name;
    EXPECT_LE(Min.size(), C.PaperSchedule.size()) << C.Name;
  }
}

//===------------------------------------------------------ engine plumbing ---===//

TEST(Minimizer, CheckRequestFillsMinSchedAndStats) {
  SuiteCase C = kocherCases().front();
  CheckRequest Req;
  Req.Id = C.Id;
  Req.Prog = C.Prog;
  Req.Opts = v1v11Mode();
  Req.Passes.emplace().MinimizeWitnesses = true;
  CheckSession Session;
  CheckResult R = Session.check(Req);
  ASSERT_FALSE(R.secure());
  ASSERT_TRUE(R.Minimization.has_value());
  EXPECT_FALSE(R.Minimization->BudgetExhausted);
  EXPECT_GT(R.Minimization->Replays, 0u);
  EXPECT_LE(R.Minimization->MinimizedDirectives,
            R.Minimization->RawDirectives);
  Machine M(C.Prog);
  Configuration Init = Configuration::initial(C.Prog);
  for (const LeakRecord &L : R.Exploration.Leaks) {
    ASSERT_FALSE(L.MinSched.empty());
    std::optional<uint64_t> Key = finalLeakKey(M, Init, L.MinSched);
    ASSERT_TRUE(Key.has_value());
    EXPECT_EQ(*Key, L.key());
  }
  // Without the pass, witnesses stay raw.
  Req.Passes.emplace().MinimizeWitnesses = false;
  CheckResult Plain = Session.check(Req);
  EXPECT_FALSE(Plain.Minimization.has_value());
  for (const LeakRecord &L : Plain.Exploration.Leaks)
    EXPECT_TRUE(L.MinSched.empty());
}

TEST(Minimizer, SessionThreadsAndFlagsPlumbThrough) {
  // A minimizing session seeds its replays from its own rungs, inherits
  // the check's thread share when MinimizeOptions::Threads is unset, and
  // produces the same minimized witnesses at any share.
  SuiteCase C = kocherCases()[4];
  CheckRequest Req;
  Req.Id = C.Id;
  Req.Prog = C.Prog;
  Req.Opts = v4Mode();
  Req.Passes.emplace().MinimizeWitnesses = true;

  SessionOptions Seq;
  Seq.Threads = 1;
  CheckResult RSeq = CheckSession(Seq).check(Req);
  ASSERT_FALSE(RSeq.secure());
  ASSERT_TRUE(RSeq.Minimization.has_value());
  EXPECT_GT(RSeq.Minimization->SeededSteps, 0u)
      << "session minimization must seed from its rungs";

  SessionOptions Par;
  Par.Threads = 8;
  CheckResult RPar = CheckSession(Par).check(Req);
  ASSERT_EQ(RPar.Exploration.Leaks.size(), RSeq.Exploration.Leaks.size());
  std::map<uint64_t, Schedule> SeqMin, ParMin;
  for (const LeakRecord &L : RSeq.Exploration.Leaks)
    SeqMin[L.key()] = L.MinSched;
  for (const LeakRecord &L : RPar.Exploration.Leaks)
    ParMin[L.key()] = L.MinSched;
  EXPECT_EQ(SeqMin, ParMin);

  // The CLI surface: --minimize-threads pins the pool and
  // --minimize-budget the replays.  The minimizer has no pass switches:
  // the flags that once disabled its passes are left unconsumed, so
  // sctcheck rejects them as unknown options.
  const char *Argv[] = {"bench",
                        "--minimize-witnesses",
                        "--minimize-threads",
                        "4",
                        "--minimize-budget",
                        "99",
                        "--no-slice-excursions",
                        "--no-slice-polish",
                        "--no-seed-replays",
                        "--no-suffix-converge"};
  SessionArgs SArgs = parseSessionArgs(10, const_cast<char **>(Argv));
  EXPECT_TRUE(SArgs.Opts.Passes.MinimizeWitnesses);
  EXPECT_EQ(SArgs.Opts.Passes.Minimize.Threads, 4u);
  EXPECT_EQ(SArgs.Opts.Passes.Minimize.MaxReplays, 99u);
  for (int I = 1; I < 10; ++I)
    EXPECT_EQ(SArgs.Consumed[static_cast<size_t>(I)], I < 6) << Argv[I];

  // Malformed numbers are rejected with a message naming the flag —
  // never wrapped (a negative thread count read as 2^32 - 1), truncated
  // ("4x" read as 4), or defaulted ("abc" read as 0).
  auto ParseError = [](std::vector<const char *> Args) -> std::string {
    Args.insert(Args.begin(), "bench");
    try {
      parseSessionArgs(static_cast<int>(Args.size()),
                       const_cast<char **>(Args.data()));
    } catch (const std::invalid_argument &E) {
      return E.what();
    }
    return "";
  };
  auto Names = [](const std::string &Msg, const char *Flag) {
    return Msg.rfind(Flag, 0) == 0;
  };
  EXPECT_PRED2(Names, ParseError({"--threads", "-1"}), "--threads");
  EXPECT_PRED2(Names, ParseError({"--threads", "4x"}), "--threads");
  EXPECT_PRED2(Names, ParseError({"--threads", "99999"}), "--threads");
  EXPECT_PRED2(Names, ParseError({"--threads", ""}), "--threads");
  EXPECT_PRED2(Names, ParseError({"--minimize-budget", "abc"}),
               "--minimize-budget");
  // A zero budget would leave every witness unminimized.
  EXPECT_PRED2(Names, ParseError({"--minimize-budget", "0"}),
               "--minimize-budget");
  EXPECT_PRED2(Names, ParseError({"--sps-max-tapes", "99999999999999999999"}),
               "--sps-max-tapes");
  // A zero tape budget would run no tape and then explore anyway.
  EXPECT_PRED2(Names, ParseError({"--sps-max-tapes", "0"}),
               "--sps-max-tapes");
  EXPECT_PRED2(Names, ParseError({"--minimize-threads", " 2"}),
               "--minimize-threads");
  EXPECT_PRED2(Names, ParseError({"--minimize-threads", "99999"}),
               "--minimize-threads");
  // A trailing value-taking flag with nothing after it.
  EXPECT_PRED2(Names, ParseError({"--no-prune-seen", "--threads"}),
               "--threads");
  // Well-formed values at the range edges still parse.
  EXPECT_EQ(ParseError({"--threads", "0", "--minimize-budget",
                        "18446744073709551615", "--sps-max-tapes", "1"}),
            "");
  // The same reader serves drivers' own flags with other ranges
  // (sctcheck's --bound is [1, 2^32 - 1]).
  constexpr uint64_t U32Max = 4294967295u;
  EXPECT_EQ(parseInteger("4294967295", 1, U32Max), U32Max);
  EXPECT_EQ(parseInteger("1", 1, U32Max), 1u);
  for (const char *Bad : {"0", "-1", "abc", "4294967296", "+5", ""})
    EXPECT_THROW(parseInteger(Bad, 1, U32Max), std::invalid_argument) << Bad;
  // The driver-facing wrapper turns the error into exit status 2.
  const char *Bad[] = {"bench", "--threads", "-1"};
  EXPECT_EXIT(sessionOptionsFromArgs(3, const_cast<char **>(Bad)),
              testing::ExitedWithCode(2), "--threads");
}

TEST(Minimizer, BudgetDegradesGracefully) {
  SuiteCase C = kocherCases().front();
  Machine M(C.Prog);
  Configuration Init = Configuration::initial(C.Prog);
  ExploreResult R = explore(M, Init, v1v11Mode());
  ASSERT_FALSE(R.Leaks.empty());
  const LeakRecord &L = R.Leaks.front();

  // Budget 0: not even the seeding replay fits; no witness, flag set,
  // and the witness counts at its raw length rather than as 0.
  MinimizeOptions None;
  None.MaxReplays = 0;
  MinimizeStats St;
  EXPECT_TRUE(minimizeWitness(M, Init, L, None, &St).empty());
  EXPECT_TRUE(St.BudgetExhausted);
  EXPECT_EQ(St.Replays, 0u);
  EXPECT_EQ(St.MinimizedDirectives, L.Sched.size());

  // A few replays: whatever comes back still replays to the same key.
  MinimizeOptions Tiny;
  Tiny.MaxReplays = 3;
  Schedule Some = minimizeWitness(M, Init, L, Tiny);
  ASSERT_FALSE(Some.empty());
  std::optional<uint64_t> Key = finalLeakKey(M, Init, Some);
  ASSERT_TRUE(Key.has_value());
  EXPECT_EQ(*Key, L.key());
}

} // namespace
