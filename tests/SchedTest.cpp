//===- tests/SchedTest.cpp - Executor and scheduler behaviours --------------===//

#include "sched/Executor.h"
#include "sched/RandomScheduler.h"
#include "sched/Schedule.h"
#include "sched/SequentialScheduler.h"
#include "sched/WorkDeque.h"

#include "isa/AsmParser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

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

// Records what driveSequential reports: a snapshot, the retire count and
// the directives applied so far at each boundary, and every applied
// directive.
struct SnapshotRecorder {
  std::vector<Configuration> Snaps;
  std::vector<size_t> RetiresAt;
  std::vector<size_t> AppliedAt;
  Schedule Applied;

  void boundary(const Configuration &C, size_t Retires) {
    EXPECT_TRUE(C.Buf.empty());
    Snaps.push_back(C);
    RetiresAt.push_back(Retires);
    AppliedAt.push_back(Applied.size());
  }
  void applied(const Directive &D, const StepOutcome &, PC) {
    Applied.push_back(D);
  }
};

// The SPS checker resumes child tapes from boundary snapshots through
// driveSequential, counting retires afresh against the bound left over:
// a drive resumed from any boundary must end where the whole drive ends,
// with the retires and the directives split exactly at the snapshot.
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
  // Unbounded, and with the bound cutting the loop short.
  for (size_t Bound : {size_t(1) << 20, size_t(10)}) {
    SCOPED_TRACE(Bound);
    Configuration Whole = Configuration::initial(P);
    size_t WholeRetires = 0;
    SnapshotRecorder Rec;
    std::string Why;
    SeqEnd WholeEnd =
        driveSequential(M, Whole, WholeRetires, Bound, Rec, Why);
    ASSERT_NE(WholeEnd, SeqEnd::Stuck) << Why;
    // One boundary per retired instruction.
    ASSERT_EQ(Rec.Snaps.size(), std::min<size_t>(Bound, 16));
    EXPECT_EQ(WholeEnd, Bound < 16 ? SeqEnd::HitBound : SeqEnd::Final);
    for (size_t I = 0; I < Rec.Snaps.size(); ++I) {
      EXPECT_EQ(Rec.RetiresAt[I], I);
      Configuration C = Rec.Snaps[I];
      size_t Retires = 0;
      SnapshotRecorder Rest;
      EXPECT_EQ(driveSequential(M, C, Retires, Bound - Rec.RetiresAt[I],
                                Rest, Why),
                WholeEnd)
          << "boundary " << I;
      EXPECT_EQ(C, Whole) << "boundary " << I;
      EXPECT_EQ(Rec.RetiresAt[I] + Retires, WholeRetires);
      // The resumed drive issues exactly the whole drive's remainder.
      EXPECT_EQ(Rest.Applied,
                Schedule(Rec.Applied.begin() + Rec.AppliedAt[I],
                         Rec.Applied.end()))
          << "boundary " << I;
    }
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

//===----------------------------------------------------------------------===//
// Worker helper (the library's one thread-spawn site)
//===----------------------------------------------------------------------===//

TEST(Workers, EveryIndexRunsExactlyOnceOnFewEnoughWorkers) {
  for (unsigned Workers : {2u, 3u, 8u})
    for (size_t Count : {size_t(1), size_t(2), size_t(5), size_t(1000)}) {
      SCOPED_TRACE(testing::Message() << Workers << " workers, " << Count
                                      << " indices");
      std::vector<std::atomic<unsigned>> Runs(Count);
      std::atomic<unsigned> MaxWorker{0};
      forEachIndex(Count, Workers, [&](size_t I, unsigned W) {
        ++Runs[I];
        unsigned Seen = MaxWorker.load();
        while (W > Seen && !MaxWorker.compare_exchange_weak(Seen, W)) {
        }
      });
      for (size_t I = 0; I < Count; ++I)
        EXPECT_EQ(Runs[I].load(), 1u) << "index " << I;
      EXPECT_LT(MaxWorker.load(), std::min<size_t>(Workers, Count));
    }
}

TEST(Workers, NoIndicesRunNothing) {
  for (unsigned Workers : {0u, 1u, 4u}) {
    unsigned Calls = 0;
    forEachIndex(0, Workers, [&](size_t, unsigned) { ++Calls; });
    EXPECT_EQ(Calls, 0u) << Workers << " workers";
  }
}

TEST(Workers, ZeroOrOneWorkerRunsInlineInOrder) {
  for (unsigned Workers : {0u, 1u}) {
    std::vector<size_t> Order;
    std::set<std::thread::id> Threads;
    forEachIndex(5, Workers, [&](size_t I, unsigned W) {
      EXPECT_EQ(W, 0u);
      Order.push_back(I);
      Threads.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(Threads, std::set<std::thread::id>{std::this_thread::get_id()});
  }
}

TEST(Workers, CallerIsWorkerZeroAndEveryWorkerRunsOnce) {
  const std::thread::id Caller = std::this_thread::get_id();
  std::mutex Mu;
  std::vector<unsigned> Ids;
  std::set<std::thread::id> Threads;
  std::thread::id Zero;
  runWorkers(4, [&](unsigned Id) {
    std::lock_guard<std::mutex> L(Mu);
    Ids.push_back(Id);
    Threads.insert(std::this_thread::get_id());
    if (Id == 0)
      Zero = std::this_thread::get_id();
  });
  std::sort(Ids.begin(), Ids.end());
  EXPECT_EQ(Ids, (std::vector<unsigned>{0, 1, 2, 3}));
  EXPECT_EQ(Threads.size(), 4u);
  EXPECT_EQ(Zero, Caller);
}

TEST(Workers, JoinsEveryWorkerBeforeRethrowing) {
  // Worker 0 (the caller) throws, and then another worker does: either
  // way the others finish and are joined before the exception leaves.
  for (unsigned Thrower : {0u, 2u}) {
    std::atomic<unsigned> Finished{0};
    EXPECT_THROW(runWorkers(4,
                            [&](unsigned Id) {
                              if (Id == Thrower)
                                throw std::runtime_error("worker failed");
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(20));
                              ++Finished;
                            }),
                 std::runtime_error)
        << "worker " << Thrower;
    EXPECT_EQ(Finished.load(), 3u) << "worker " << Thrower;
  }
}

} // namespace
