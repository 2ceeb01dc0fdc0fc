//===- tests/ExplorerTest.cpp - Worst-case schedule exploration -------------===//

#include "sched/ScheduleExplorer.h"

#include "checker/SctChecker.h"
#include "isa/AsmParser.h"
#include "workloads/Figures.h"
#include "workloads/SpectreSuites.h"

#include <gtest/gtest.h>
#include <stdexcept>

using namespace sct;

namespace {

ExploreResult exploreProgram(const Program &P, const ExplorerOptions &Opts) {
  Machine M(P);
  return explore(M, Configuration::initial(P), Opts);
}

TEST(Explorer, StraightLinePublicProgramIsOneSchedule) {
  Program P = parseAsmOrDie(R"(
    .reg ra rb
    start:
      ra = mov 1
      rb = add ra, 2
      store rb, [0x40]
      ra = load [0x40]
  )");
  ExplorerOptions Opts;
  Opts.ExploreForwardingHazards = false;
  ExploreResult R = exploreProgram(P, Opts);
  EXPECT_TRUE(R.secure());
  EXPECT_EQ(R.SchedulesCompleted, 1u);
  EXPECT_FALSE(R.Truncated);
}

TEST(Explorer, BranchDoublesTheScheduleCount) {
  Program P = parseAsmOrDie(R"(
    .reg ra
    .init ra 1
    start:
      br ult ra, 4 -> a, b
    a:
      ra = mov 1
    b:
      ra = mov 2
  )");
  ExplorerOptions Opts;
  Opts.ExploreForwardingHazards = false;
  ExploreResult R = exploreProgram(P, Opts);
  EXPECT_EQ(R.SchedulesCompleted, 2u); // Correct + mispredicted.
}

TEST(Explorer, StopAtFirstLeakShortCircuits) {
  FigureCase C = figure1();
  ExplorerOptions Opts = C.CheckOpts;
  ExploreResult Full = exploreProgram(C.Prog, Opts);
  Opts.StopAtFirstLeak = true;
  ExploreResult Short = exploreProgram(C.Prog, Opts);
  EXPECT_FALSE(Short.secure());
  EXPECT_LE(Short.TotalSteps, Full.TotalSteps);
  EXPECT_EQ(Short.Leaks.size(), 1u);
}

TEST(Explorer, LeaksDeduplicateAcrossSchedules) {
  FigureCase C = figure1();
  ExploreResult R = exploreProgram(C.Prog, C.CheckOpts);
  ASSERT_FALSE(R.secure());
  // The same (origin, kind) leak shows up in many schedules but is
  // reported once; the raw event count keeps the tally.
  EXPECT_GE(R.LeakEvents, R.Leaks.size());
  for (size_t I = 0; I < R.Leaks.size(); ++I)
    for (size_t J = I + 1; J < R.Leaks.size(); ++J)
      EXPECT_NE(R.Leaks[I].key(), R.Leaks[J].key());
}

TEST(Explorer, BudgetsTruncateGracefully) {
  SuiteCase C = spectreV11Cases()[0];
  ExplorerOptions Opts = v1v11Mode();
  Opts.MaxTotalSteps = 10;
  ExploreResult R = exploreProgram(C.Prog, Opts);
  EXPECT_TRUE(R.Truncated);
  EXPECT_LE(R.TotalSteps, 12u); // Allow the in-flight step to finish.
}

TEST(Explorer, SpeculationBoundLimitsLeakDepth) {
  // A v1 gadget pushed deep behind the branch: a small speculation bound
  // cannot reach the leak, a larger one can — the tradeoff §4.2 reports.
  std::string Body = R"(
    .reg ra rb rc
    .init ra 9
    .region A   0x40 4 public
    .region Key 0x48 8 secret
    start:
      br ult ra, 4 -> body, end
    body:
  )";
  for (int Pad = 0; Pad < 10; ++Pad)
    Body += "      rc = add rc, 1\n";
  Body += R"(
      rb = load [0x40, ra]
      rc = load [0x44, rb]
    end:
  )";
  Program P = parseAsmOrDie(Body);

  ExplorerOptions Narrow = v1v11Mode();
  Narrow.SpeculationBound = 6; // Leak sits ~12 instructions deep.
  EXPECT_TRUE(exploreProgram(P, Narrow).secure());

  ExplorerOptions Wide = v1v11Mode();
  Wide.SpeculationBound = 20;
  EXPECT_FALSE(exploreProgram(P, Wide).secure());

  // At bound 0 nothing can be fetched and forcing the oldest entry of an
  // empty buffer takes no step, so no budget would ever end the run.
  ExplorerOptions Zero = v1v11Mode();
  Zero.SpeculationBound = 0;
  EXPECT_THROW(exploreProgram(P, Zero), std::invalid_argument);
}

TEST(Explorer, ExhaustiveForwardForksAgreeOnSuiteVerdicts) {
  // The targeted (shadowed-store) forks and the full B.18 fork set agree
  // on every v1.1/v4 case verdict.
  std::vector<SuiteCase> Cases = spectreV11Cases();
  for (const SuiteCase &C : spectreV4Cases())
    Cases.push_back(C);
  for (const SuiteCase &C : Cases) {
    ExplorerOptions Targeted = v4Mode();
    ExplorerOptions Exhaustive = v4Mode();
    Exhaustive.ExhaustiveForwardForks = true;
    ExploreResult A = exploreProgram(C.Prog, Targeted);
    ExploreResult B = exploreProgram(C.Prog, Exhaustive);
    EXPECT_EQ(A.secure(), B.secure()) << C.Id;
  }
}

TEST(Explorer, AliasPredictionAddsOnlyNewLeaks) {
  // Figure 2's gadget leaks only under alias prediction; Figure 1's leak
  // set is unchanged by enabling it.
  FigureCase F1 = figure1();
  ExplorerOptions Plain;
  ExplorerOptions WithAlias;
  WithAlias.ExploreAliasPrediction = true;
  ExploreResult A = exploreProgram(F1.Prog, Plain);
  ExploreResult B = exploreProgram(F1.Prog, WithAlias);
  EXPECT_EQ(A.secure(), B.secure());

  FigureCase F2 = figure2();
  EXPECT_TRUE(exploreProgram(F2.Prog, Plain).secure());
  EXPECT_FALSE(exploreProgram(F2.Prog, WithAlias).secure());
}

TEST(Explorer, WitnessSchedulesAreMinimalPrefixes) {
  // Each witness ends exactly at its leaking step.
  FigureCase C = figure7();
  ExploreResult R = exploreProgram(C.Prog, v4Mode());
  ASSERT_FALSE(R.secure());
  Machine M(C.Prog);
  for (const LeakRecord &L : R.Leaks) {
    RunResult Replay = runSchedule(M, Configuration::initial(C.Prog),
                                   L.Sched);
    ASSERT_FALSE(Replay.Stuck);
    EXPECT_TRUE(Replay.Trace.back().Obs.isSecret());
    // No earlier step of this schedule shows this same leak... the final
    // step is the first occurrence for minimal witnesses.
    EXPECT_EQ(Replay.Trace.back().Obs, L.Obs);
  }
}

TEST(Explorer, RetpolineSurvivesAllAttackerKnobs) {
  FigureCase C = figure13();
  ExplorerOptions Opts = C.CheckOpts;
  Opts.ExploreAliasPrediction = true;
  ExploreResult R = exploreProgram(C.Prog, Opts);
  EXPECT_TRUE(R.secure());
}

} // namespace

namespace {

TEST(Explorer, SpectreV2ViaFunctionPointer) {
  // The indirect-call analogue of Figure 11: a vtable-style dispatch the
  // attacker mistrains toward a gadget.  Flagged only when the checker is
  // told the mistraining target, like jmpi.
  Program P = parseAsmOrDie(R"(
    .reg rf rc rd
    .init rf @handler
    .init rsp 0x20
    .region stack 0x18 9 public
    .region B   0x44 4 public
    .region Key 0x48 4 secret
    .data 0x48 5 6 7 8
    start:
      rc = load [0x48]       ; secret value in a register (public address)
      calli [rf]
    after:
      rd = mov 0
      jmp done
    gadget:
      rd = load [0x44, rc]   ; leaks rc
    handler:
      ret
    done:
  )");
  ExplorerOptions Plain;
  EXPECT_TRUE(exploreProgram(P, Plain).secure());
  ExplorerOptions Mistrained;
  Mistrained.IndirectTargets = {P.codeLabels().at("gadget")};
  ExploreResult R = exploreProgram(P, Mistrained);
  EXPECT_FALSE(R.secure());
  // The leak is in the gadget, with the secret in the address.
  ASSERT_FALSE(R.Leaks.empty());
  EXPECT_EQ(R.Leaks.front().Origin, P.codeLabels().at("gadget"));
}

} // namespace
