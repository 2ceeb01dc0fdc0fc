//===- tests/EngineTest.cpp - Parallel engine and unified analysis API ------===//
//
// Covers the exploration engine's parallel frontier (Threads > 1 must
// reproduce the sequential deduplicated leak set), exploration budgets
// (every exhausted budget marks the result truncated while found leaks
// stay trustworthy), and the CheckSession batch API.
//
//===----------------------------------------------------------------------===//

#include "engine/CheckSession.h"

#include "checker/DifferentialChecker.h"
#include "checker/SctChecker.h"
#include "isa/AsmParser.h"
#include "workloads/Figures.h"
#include "workloads/Kocher.h"
#include "workloads/SuiteRunner.h"

#include <gtest/gtest.h>

#include <set>

using namespace sct;

namespace {

/// The deduplicated leak *set* of a result: origins and rules, the
/// schedule-independent identity of each finding.
std::set<std::pair<PC, unsigned>> leakSet(const ExploreResult &R) {
  std::set<std::pair<PC, unsigned>> S;
  for (const LeakRecord &L : R.Leaks)
    S.insert({L.Origin, static_cast<unsigned>(L.Rule)});
  return S;
}

ExploreResult exploreProgram(const Program &P, const ExplorerOptions &Opts) {
  Machine M(P);
  return explore(M, Configuration::initial(P), Opts);
}

/// A v1 gadget with two distinct leaking loads (two unique leak keys).
Program twoLeakGadget() {
  return parseAsmOrDie(R"(
    .reg ra rb rc rd
    .init ra 9
    .region A   0x40 4 public
    .region B   0x44 4 public
    .region Key 0x48 4 secret
    .data 0x48 11 22 33 44
    start:
      br ult ra, 4 -> body, end
    body:
      rb = load [0x40, ra]
      rc = load [0x44, rb]
      rd = load [0x44, rb]
    end:
  )");
}

//===------------------------------------------------- parallel frontier ---===//

TEST(ParallelEngine, KocherLeakSetsMatchSequentialBothModes) {
  // The satellite requirement verbatim: for every Kocher variant,
  // Threads=4 yields the same deduplicated leak set (origins + rules) as
  // Threads=1, under both v1v11Mode and v4Mode.  PruneSeen is disabled
  // because the counter-equality assertions need work conservation;
  // parallel pruned counters may vary by which racing twin got dropped.
  std::vector<SuiteCase> Cases = kocherCases();
  for (const SuiteCase &C : kocherOriginalCases())
    Cases.push_back(C);
  for (const SuiteCase &C : Cases) {
    for (auto ModeFn : {v1v11Mode, v4Mode}) {
      ExplorerOptions Seq = ModeFn();
      Seq.Threads = 1;
      Seq.PruneSeen = false;
      ExplorerOptions Par = ModeFn();
      Par.Threads = 4;
      Par.PruneSeen = false;
      ExploreResult A = exploreProgram(C.Prog, Seq);
      ExploreResult B = exploreProgram(C.Prog, Par);
      EXPECT_EQ(leakSet(A), leakSet(B))
          << C.Id << (ModeFn == v1v11Mode ? " v1v11" : " v4");
      EXPECT_EQ(A.SchedulesCompleted, B.SchedulesCompleted) << C.Id;
      EXPECT_EQ(A.TotalSteps, B.TotalSteps) << C.Id;
      EXPECT_EQ(A.Truncated, B.Truncated) << C.Id;
    }
  }
}

TEST(ParallelEngine, KocherLeakSetsMatchUnderStealingAndPruning) {
  // For every Kocher variant in both modes, the work-stealing sharded
  // frontier at Threads=8 — with and without cross-schedule seen-state
  // pruning — reports the deduplicated leak set of the one-worker drain.
  std::vector<SuiteCase> Cases = kocherCases();
  for (const SuiteCase &C : kocherOriginalCases())
    Cases.push_back(C);
  for (const SuiteCase &C : Cases) {
    for (auto ModeFn : {v1v11Mode, v4Mode}) {
      const char *Mode = ModeFn == v1v11Mode ? " v1v11" : " v4";
      ExplorerOptions Seq = ModeFn();
      Seq.Threads = 1;
      Seq.PruneSeen = false;
      ExploreResult Ref = exploreProgram(C.Prog, Seq);

      ExplorerOptions Steal = ModeFn();
      Steal.Threads = 8; // One deque per worker.
      Steal.PruneSeen = false;
      ExploreResult A = exploreProgram(C.Prog, Steal);
      EXPECT_EQ(leakSet(Ref), leakSet(A)) << C.Id << Mode << " stealing";
      // Without pruning, stealing conserves work exactly.
      EXPECT_EQ(Ref.TotalSteps, A.TotalSteps) << C.Id << Mode;
      EXPECT_EQ(Ref.SchedulesCompleted, A.SchedulesCompleted) << C.Id << Mode;

      ExplorerOptions StealPrune = Steal;
      StealPrune.PruneSeen = true; // The default, spelled out.
      ExploreResult B = exploreProgram(C.Prog, StealPrune);
      EXPECT_EQ(leakSet(Ref), leakSet(B))
          << C.Id << Mode << " stealing+pruning";
      EXPECT_LE(B.TotalSteps, Ref.TotalSteps) << C.Id << Mode;

      ExplorerOptions SeqPrune = Seq;
      SeqPrune.PruneSeen = true;
      ExploreResult E = exploreProgram(C.Prog, SeqPrune);
      EXPECT_EQ(leakSet(Ref), leakSet(E))
          << C.Id << Mode << " sequential+pruning";
      // Sequential pruning is deterministic: same run, same counters.
      ExploreResult E2 = exploreProgram(C.Prog, SeqPrune);
      EXPECT_EQ(E.TotalSteps, E2.TotalSteps) << C.Id << Mode;
      EXPECT_EQ(E.PrunedNodes, E2.PrunedNodes) << C.Id << Mode;
    }
  }
}

TEST(ParallelEngine, FigureProgramsMatchSequential) {
  for (const FigureCase &C : allFigures()) {
    ExplorerOptions Par = C.CheckOpts;
    Par.Threads = 4;
    ExploreResult A = exploreProgram(C.Prog, C.CheckOpts);
    ExploreResult B = exploreProgram(C.Prog, Par);
    EXPECT_EQ(leakSet(A), leakSet(B)) << C.Name;
    EXPECT_EQ(A.secure(), B.secure()) << C.Name;
  }
}

TEST(ParallelEngine, StopAtFirstLeakStillShortCircuits) {
  FigureCase C = figure1();
  ExplorerOptions Opts = C.CheckOpts;
  Opts.Threads = 4;
  Opts.StopAtFirstLeak = true;
  ExploreResult R = exploreProgram(C.Prog, Opts);
  EXPECT_FALSE(R.secure());
  EXPECT_GE(R.Leaks.size(), 1u);
}

//===----------------------------------------------------------- budgets ---===//

TEST(Budgets, MaxTotalStepsTruncates) {
  FigureCase C = figure1();
  ExplorerOptions Opts = C.CheckOpts;
  Opts.MaxTotalSteps = 4;
  ExploreResult R = exploreProgram(C.Prog, Opts);
  EXPECT_TRUE(R.Truncated);
}

TEST(Budgets, MaxSchedulesTruncates) {
  // The two-leak gadget explores more than one schedule; capping at one
  // completed schedule must truncate.
  Program P = twoLeakGadget();
  ExplorerOptions Opts;
  Opts.MaxSchedules = 1;
  ExploreResult R = exploreProgram(P, Opts);
  EXPECT_TRUE(R.Truncated);
  EXPECT_LE(R.SchedulesCompleted, 1u);
}

TEST(Budgets, MaxLeaksTruncatesAndKeepsVerdictTrustworthy) {
  Program P = twoLeakGadget();
  // Unbounded: both distinct leaks are found.
  ExploreResult Full = exploreProgram(P, ExplorerOptions{});
  ASSERT_GE(Full.Leaks.size(), 2u);
  // Capped at one: storage exhausts mid-search, the result is truncated,
  // and secure() still reports the violation.
  ExplorerOptions Opts;
  Opts.MaxLeaks = 1;
  ExploreResult R = exploreProgram(P, Opts);
  EXPECT_TRUE(R.Truncated);
  EXPECT_EQ(R.Leaks.size(), 1u);
  EXPECT_FALSE(R.secure());
}

TEST(Budgets, MaxStepsPerScheduleTruncatesOnlyThatPath) {
  FigureCase C = figure1();
  ExplorerOptions Opts = C.CheckOpts;
  Opts.MaxStepsPerSchedule = 3;
  ExploreResult R = exploreProgram(C.Prog, Opts);
  EXPECT_TRUE(R.Truncated);
}

TEST(Budgets, TruncationIsReportedUnderParallelDrain) {
  Program P = twoLeakGadget();
  ExplorerOptions Opts;
  Opts.MaxLeaks = 1;
  Opts.Threads = 4;
  ExploreResult R = exploreProgram(P, Opts);
  EXPECT_TRUE(R.Truncated);
  EXPECT_FALSE(R.secure());
  EXPECT_LE(R.Leaks.size(), Opts.MaxLeaks);
}

//===------------------------------------------------------ CheckSession ---===//

TEST(CheckSession, SingleCheckMatchesDirectExploration) {
  FigureCase C = figure1();
  CheckSession Session;
  CheckResult R = Session.check(C.Prog, C.CheckOpts);
  ExploreResult Direct = exploreProgram(C.Prog, C.CheckOpts);
  EXPECT_EQ(leakSet(R.Exploration), leakSet(Direct));
  EXPECT_EQ(R.Exploration.TotalSteps, Direct.TotalSteps);
  EXPECT_GE(R.Seconds, 0.0);
}

TEST(CheckSession, CheckManyMatchesIndividualChecks) {
  std::vector<SuiteCase> Cases = kocherCases();
  std::vector<Program> Progs;
  for (size_t I = 0; I < 6 && I < Cases.size(); ++I)
    Progs.push_back(Cases[I].Prog);

  SessionOptions SOpts;
  SOpts.Threads = 4;
  SOpts.DefaultOpts = v4Mode();
  CheckSession Session(SOpts);
  std::vector<CheckResult> Batch =
      Session.checkMany(std::span<const Program>(Progs));
  ASSERT_EQ(Batch.size(), Progs.size());
  for (size_t I = 0; I < Progs.size(); ++I) {
    ExploreResult Direct = exploreProgram(Progs[I], v4Mode());
    EXPECT_EQ(leakSet(Batch[I].Exploration), leakSet(Direct)) << I;
    EXPECT_EQ(Batch[I].secure(), Direct.secure()) << I;
  }
}

TEST(CheckSession, BatchRequestsHonorPerRequestOptions) {
  // Figure 7 leaks only with forwarding-hazard detection: the same
  // program under both modes in one batch must split verdicts.
  FigureCase C = figure7();
  CheckRequest Reqs[2];
  Reqs[0].Id = "no-fwd";
  Reqs[0].Prog = C.Prog;
  Reqs[0].Opts = v1v11Mode();
  Reqs[1].Id = "fwd";
  Reqs[1].Prog = C.Prog;
  Reqs[1].Opts = v4Mode();

  SessionOptions SOpts;
  SOpts.Threads = 2;
  CheckSession Session(SOpts);
  std::vector<CheckResult> Results =
      Session.checkMany(std::span<const CheckRequest>(Reqs));
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_EQ(Results[0].Id, "no-fwd");
  EXPECT_EQ(Results[1].Id, "fwd");
  EXPECT_TRUE(Results[0].secure());
  EXPECT_FALSE(Results[1].secure());
}

TEST(CheckSession, CustomInitialConfiguration) {
  // Checking from a mutated-secret configuration through the request's
  // Init field (the differential drivers' path through the API).
  FigureCase C = figure1();
  CheckRequest Req;
  Req.Prog = C.Prog;
  Req.Opts = C.CheckOpts;
  Req.Init = mutateSecrets(C.Prog, Configuration::initial(C.Prog), 7);
  CheckSession Session;
  CheckResult R = Session.check(Req);
  EXPECT_FALSE(R.secure());
}

TEST(CheckSession, SuiteRunnerMatchesExpectations) {
  SessionOptions SOpts;
  SOpts.Threads = 4;
  CheckSession Session(SOpts);
  std::vector<SuiteCase> Cases = kocherCases();
  std::vector<SuiteVerdict> Verdicts =
      runSuite(Session, std::span<const SuiteCase>(Cases));
  ASSERT_EQ(Verdicts.size(), Cases.size());
  EXPECT_TRUE(allMatch(Verdicts));
}

//===------------------------------------------- differential validation ---===//

TEST(Differential, ExplorerWitnessesAreConcretelyConfirmed) {
  FigureCase C = figure1();
  CheckSession Session;
  CheckRequest Req;
  Req.Id = C.Name;
  Req.Prog = C.Prog;
  Req.Opts = C.CheckOpts;
  DifferentialReport Rep = checkDifferential(Session, Req);
  ASSERT_FALSE(Rep.secure());
  EXPECT_EQ(Rep.Validation.Checked, Rep.Check.Exploration.Leaks.size());
  EXPECT_GE(Rep.Validation.Confirmed, 1u);
}

//===------------------------------------------------- COW configuration ---===//

TEST(CowMemory, ForkedConfigurationsAreIsolated) {
  FigureCase C = figure1();
  Configuration A = Configuration::initial(C.Prog);
  Configuration B = A; // O(1): cells shared until a side writes.
  EXPECT_TRUE(B.Mem.sharesCells() || A.Mem.cellCount() == 0);

  Value Before = A.Mem.load(0x40);
  B.Mem.store(0x40, Value(0xdead, Label::secret()));
  EXPECT_EQ(A.Mem.load(0x40), Before);
  EXPECT_EQ(B.Mem.load(0x40).Bits, 0xdeadu);
  EXPECT_FALSE(B.Mem.sharesCells());

  // Writing through the original afterwards must not leak into the fork.
  A.Mem.store(0x44, Value(7, Label::publicLabel()));
  EXPECT_NE(B.Mem.load(0x44).Bits, 7u);
}

//===------------------------------------------------------- leak keying ---===//

TEST(LeakKey, NoCollisionAcrossFieldBoundaries) {
  // The old shifted-XOR packing collided when fields crossed their 8-bit
  // lanes: (Rule=1, mask=0) and (Rule=0, mask=256) hashed equal.  The
  // hash-combine must separate them.
  LeakRecord A;
  A.Origin = 0;
  A.Obs = Observation::none();
  A.Obs.Payload = Value(0, Label::publicLabel());
  A.Rule = static_cast<RuleId>(1);
  LeakRecord B = A;
  B.Rule = static_cast<RuleId>(0);
  B.Obs.Payload = Value(0, Label::fromMask(256));
  EXPECT_NE(A.key(), B.key());

  // A wide taint mask must not cancel against the origin lane: under the
  // old packing, Origin=1 (<<24) collided with taint source 24 (2^24).
  LeakRecord C1 = A, C2 = A;
  C1.Origin = 1;
  C2.Origin = 0;
  C2.Obs.Payload = Value(0, Label::fromMask(uint64_t(1) << 24));
  EXPECT_NE(C1.key(), C2.key());
}

} // namespace
