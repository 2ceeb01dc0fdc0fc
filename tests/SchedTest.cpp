//===- tests/SchedTest.cpp - Executor and scheduler behaviours --------------===//

#include "sched/Executor.h"
#include "sched/RandomScheduler.h"
#include "sched/Schedule.h"
#include "sched/SequentialScheduler.h"

#include "isa/AsmParser.h"

#include <gtest/gtest.h>

using namespace sct;

namespace {

//===----------------------------------------------------------------------===//
// Schedule utilities
//===----------------------------------------------------------------------===//

TEST(Schedule, RetireCountAndPrinting) {
  Schedule D = {Directive::fetch(), Directive::execute(1),
                Directive::retire(), Directive::fetchBool(true),
                Directive::retire()};
  EXPECT_EQ(retireCount(D), 2u);
  EXPECT_EQ(printSchedule(D),
            "fetch; execute 1; retire; fetch: true; retire");
}

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

TEST(Executor, StopsAtFirstInapplicableDirective) {
  Program P = parseAsmOrDie(R"(
    .reg ra
    start:
      ra = mov 1
  )");
  Machine M(P);
  Schedule D = {Directive::fetch(), Directive::retire(), // Not resolved yet!
                Directive::execute(1)};
  RunResult R = runSchedule(M, Configuration::initial(P), D);
  EXPECT_TRUE(R.Stuck);
  EXPECT_EQ(R.StuckAt, 1u);
  EXPECT_EQ(R.Trace.size(), 1u); // Only the fetch landed.
  EXPECT_NE(R.StuckReason.find("unresolved"), std::string::npos);
}

TEST(Executor, ObservationsFilterSilentSteps) {
  Program P = parseAsmOrDie(R"(
    .reg ra
    start:
      ra = load [0x40]
  )");
  Machine M(P);
  Schedule D = {Directive::fetch(), Directive::execute(1),
                Directive::retire()};
  RunResult R = runSchedule(M, Configuration::initial(P), D);
  ASSERT_FALSE(R.Stuck);
  EXPECT_EQ(R.Trace.size(), 3u);
  EXPECT_EQ(R.observations().size(), 1u); // Only the read.
  EXPECT_EQ(R.Retires, 1u);
}

//===----------------------------------------------------------------------===//
// Sequential scheduler
//===----------------------------------------------------------------------===//

TEST(Sequential, NeverRollsBackOnStraightPrograms) {
  Program P = parseAsmOrDie(R"(
    .reg ra rb i
    .region D 0x40 8 public
    start:
      i = mov 0
    loop:
      ra = load [0x40, i]
      rb = add rb, ra
      store rb, [0x44, i]
      i = add i, 1
      br ult i, 3 -> loop, out
    out:
  )");
  Machine M(P);
  SequentialResult R = runSequential(M, Configuration::initial(P));
  ASSERT_FALSE(R.Run.Stuck) << R.Run.StuckReason;
  EXPECT_TRUE(R.Run.Final.isFinal(P));
  for (const StepRecord &S : R.Run.Trace) {
    EXPECT_FALSE(S.Obs.Rollback) << S.D.str();
    EXPECT_NE(S.Rule, RuleId::CondExecuteIncorrect);
  }
  // 3 iterations x 5 instructions + the mov: 16 retires.
  EXPECT_EQ(R.Run.Retires, 16u);
}

// The SPS checker resumes child tapes from boundary snapshots: a run
// resumed from any boundary must end where the whole run ends, with the
// retires split exactly at the snapshot.
TEST(Sequential, BoundarySnapshotsResumeToTheSameEnd) {
  Program P = parseAsmOrDie(R"(
    .reg ra rb i
    .region D 0x40 8 public
    start:
      i = mov 0
    loop:
      ra = load [0x40, i]
      rb = add rb, ra
      store rb, [0x44, i]
      i = add i, 1
      br ult i, 3 -> loop, out
    out:
  )");
  Machine M(P);
  std::vector<Configuration> Snaps;
  std::vector<size_t> RetiresAt;
  SequentialResult Whole = runSequential(
      M, Configuration::initial(P), 1 << 20, [&](const SequentialResult &S) {
        EXPECT_TRUE(S.Run.Final.Buf.empty());
        EXPECT_EQ(S.Run.Retires, Snaps.size());
        Snaps.push_back(S.Run.Final);
        RetiresAt.push_back(S.Run.Retires);
      });
  ASSERT_EQ(Snaps.size(), 16u); // One boundary per retired instruction.
  for (size_t I = 0; I < Snaps.size(); ++I) {
    SequentialResult Rest = runSequential(M, Snaps[I]);
    EXPECT_EQ(Rest.Run.Final, Whole.Run.Final) << "boundary " << I;
    EXPECT_EQ(RetiresAt[I] + Rest.Run.Retires, Whole.Run.Retires);
  }
}

TEST(Sequential, HitsBoundOnInfiniteLoops) {
  Program P = parseAsmOrDie(R"(
    .reg ra
    start:
      ra = add ra, 1
      jmp start
  )");
  Machine M(P);
  SequentialResult R = runSequential(M, Configuration::initial(P),
                                     /*MaxRetires=*/100);
  EXPECT_TRUE(R.HitBound);
  EXPECT_FALSE(R.Run.Stuck);
  EXPECT_EQ(R.Run.Retires, 100u);
}

TEST(Sequential, CallRetRoundTripRestoresTheStack) {
  Program P = parseAsmOrDie(R"(
    .reg rv
    .init rsp 0x30
    .region stack 0x28 9 public
    start:
      call f
      call f
      jmp done
    f:
      rv = add rv, 1
      ret
    done:
  )");
  Machine M(P);
  SequentialResult R = runSequential(M, Configuration::initial(P));
  ASSERT_FALSE(R.Run.Stuck) << R.Run.StuckReason;
  EXPECT_TRUE(R.Run.Final.isFinal(P));
  EXPECT_EQ(R.Run.Final.Regs.get(*P.regByName("rv")).Bits, 2u);
  EXPECT_EQ(R.Run.Final.Regs.get(Reg::sp()), Value::pub(0x30));
  // Each ret's jump resolved correctly through the RSB: no rollbacks.
  for (const StepRecord &S : R.Run.Trace)
    EXPECT_FALSE(S.Obs.Rollback);
}

TEST(Sequential, RetpolineMismatchIsTheOneAllowedRollback) {
  // The canonical sequential schedule never mispredicts — except a ret
  // whose RSB prediction genuinely disagrees with the stored return
  // address (Figure 13's construction overwrites it on purpose).
  Program P = parseAsmOrDie(R"(
    .reg rt
    .init rt @real
    .init rsp 0x30
    .region stack 0x28 9 public
    start:
      call body
    trap:
      jmp trap
    body:
      store rt, [rsp]
      ret
    real:
      rt = mov 0
  )");
  Machine M(P);
  SequentialResult R = runSequential(M, Configuration::initial(P));
  ASSERT_FALSE(R.Run.Stuck) << R.Run.StuckReason;
  EXPECT_TRUE(R.Run.Final.isFinal(P));
  unsigned Rollbacks = 0;
  for (const StepRecord &S : R.Run.Trace)
    Rollbacks += S.Obs.Rollback ? 1 : 0;
  EXPECT_EQ(Rollbacks, 1u);
  EXPECT_EQ(R.Run.Final.Regs.get(*P.regByName("rt")).Bits, 0u);
}

TEST(Sequential, RespectsBaseIndexScaleAddressing) {
  Program P = parseAsmOrDie(R"(
    .reg ra rb
    .init ra 3
    .region D 0x40 32 public
    .data 0x46 99
    start:
      rb = load [0x40, ra, 2]   ; base + index*scale = 0x40 + 3*2
  )");
  MachineOptions Opts;
  Opts.Addressing = AddrMode::BaseIndexScale;
  Machine M(P, Opts);
  SequentialResult R = runSequential(M, Configuration::initial(P));
  ASSERT_FALSE(R.Run.Stuck);
  EXPECT_EQ(R.Run.Final.Regs.get(*P.regByName("rb")).Bits, 99u);
}

//===----------------------------------------------------------------------===//
// Random scheduler
//===----------------------------------------------------------------------===//

TEST(RandomScheduler, RespectsTheSpeculationWindow) {
  Program P = parseAsmOrDie(R"(
    .reg ra
    start:
      ra = mov 1
      ra = mov 2
      ra = mov 3
      ra = mov 4
      ra = mov 5
      ra = mov 6
  )");
  Machine M(P);
  RandomRunOptions Opts;
  Opts.Seed = 3;
  Opts.SpeculationWindow = 2;
  Opts.MaxSteps = 200;
  // Re-run the recorded schedule, checking the buffer never exceeds the
  // window.
  RunResult R = runRandom(M, Configuration::initial(P), Opts);
  Configuration C = Configuration::initial(P);
  size_t MaxSeen = 0;
  for (const StepRecord &S : R.Trace) {
    ASSERT_TRUE(M.step(C, S.D).has_value());
    MaxSeen = std::max(MaxSeen, C.Buf.size());
  }
  EXPECT_LE(MaxSeen, 2u);
}

TEST(RandomScheduler, AliasPredictionOnlyWhenEnabled) {
  Program P = parseAsmOrDie(R"(
    .reg ra rb
    .init ra 0x40
    start:
      store 7, [ra]
      rb = load [0x40]
  )");
  Machine M(P);
  for (bool Allow : {false, true}) {
    bool SawFwdGuess = false;
    for (uint64_t Seed = 0; Seed < 20; ++Seed) {
      RandomRunOptions Opts;
      Opts.Seed = Seed;
      Opts.AllowAliasPrediction = Allow;
      RunResult R = runRandom(M, Configuration::initial(P), Opts);
      for (const StepRecord &S : R.Trace)
        if (S.D.K == Directive::Kind::ExecuteFwd)
          SawFwdGuess = true;
    }
    EXPECT_EQ(SawFwdGuess, Allow);
  }
}

} // namespace
