//===- tests/PropertyTest.cpp - The paper's metatheory, randomized ----------===//
//
// Appendix B as executable properties over random programs and random
// well-formed schedules:
//   - Lemma B.1   determinism of the step relation
//   - Theorem B.7 sequential equivalence (any well-formed prefix with N
//                 retires matches the canonical sequential machine run N)
//   - Corollary B.8 general consistency (all terminal runs agree)
//   - Theorem B.9 / Corollary B.10 label stability (secret-free
//                 speculative traces imply secret-free sequential traces)
//   - Theorem B.20 (scoped) worst-case schedule soundness: no random
//                 schedule finds a leak the explorer misses
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"

#include "checker/SctChecker.h"
#include "checker/SequentialCt.h"
#include "sched/RandomScheduler.h"
#include "sched/ScheduleExplorer.h"
#include "sched/SequentialScheduler.h"

#include <gtest/gtest.h>

using namespace sct;

namespace {

class RandomizedMetatheory : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedMetatheory, SequentialEquivalenceTheoremB7) {
  uint64_t Seed = GetParam();
  Program P = randomProgram(Seed);
  ASSERT_TRUE(P.validate().empty());
  Machine M(P);

  // A random well-formed schedule (any prefix is well-formed too).
  RandomRunOptions Ropts;
  Ropts.Seed = Seed * 31 + 7;
  Ropts.MaxSteps = 400;
  RunResult Speculative = runRandom(M, Configuration::initial(P), Ropts);

  // The canonical sequential machine, run for the same retire count.
  SequentialResult Seq =
      runSequential(M, Configuration::initial(P), Speculative.Retires);
  ASSERT_FALSE(Seq.Run.Stuck) << Seq.Run.StuckReason;
  ASSERT_EQ(Seq.Run.Retires, Speculative.Retires);

  // ≈: registers and memory agree; speculative state may differ.
  EXPECT_TRUE(Speculative.Final.sameArchState(Seq.Run.Final))
      << "seed " << Seed;
}

TEST_P(RandomizedMetatheory, DeterminismLemmaB1) {
  uint64_t Seed = GetParam();
  Program P = randomProgram(Seed);
  Machine M(P);

  RandomRunOptions Ropts;
  Ropts.Seed = Seed ^ 0x9E3779B97F4A7C15ull;
  Ropts.MaxSteps = 200;
  RunResult First = runRandom(M, Configuration::initial(P), Ropts);

  // Replay the exact directive sequence: everything must coincide.
  Schedule D;
  for (const StepRecord &R : First.Trace)
    D.push_back(R.D);
  RunResult Second = runSchedule(M, Configuration::initial(P), D);
  ASSERT_FALSE(Second.Stuck) << Second.StuckReason;
  EXPECT_TRUE(First.Final == Second.Final) << "seed " << Seed;
  ASSERT_EQ(First.Trace.size(), Second.Trace.size());
  for (size_t I = 0; I < First.Trace.size(); ++I) {
    EXPECT_EQ(First.Trace[I].Obs, Second.Trace[I].Obs);
    EXPECT_EQ(First.Trace[I].Rule, Second.Trace[I].Rule);
  }
}

TEST_P(RandomizedMetatheory, TerminalConsistencyCorollaryB8) {
  uint64_t Seed = GetParam();
  Program P = randomProgram(Seed);
  Machine M(P);

  // Drive two different random runs to completion (keep sampling
  // directives until the configuration is final).
  auto RunToCompletion = [&](uint64_t SubSeed) -> std::optional<Configuration> {
    Configuration C = Configuration::initial(P);
    std::mt19937_64 Rng(SubSeed);
    for (unsigned Step = 0; Step < 4000; ++Step) {
      if (C.isFinal(P))
        return C;
      std::vector<Directive> Ds = M.applicableDirectives(C);
      if (Ds.empty())
        return std::nullopt; // Stalled (e.g. empty-RSB policies).
      Directive D = Ds[Rng() % Ds.size()];
      if (!M.step(C, D))
        return std::nullopt;
    }
    return std::nullopt; // Did not converge within the bound.
  };

  auto A = RunToCompletion(Seed * 3 + 1);
  auto B = RunToCompletion(Seed * 5 + 2);
  if (!A || !B)
    GTEST_SKIP() << "random runs did not reach a final configuration";
  EXPECT_TRUE(A->sameArchState(*B)) << "seed " << Seed;

  // And both agree with the canonical sequential execution.
  SequentialResult Seq = runSequential(M, Configuration::initial(P));
  if (!Seq.Run.Stuck && !Seq.HitBound)
    EXPECT_TRUE(A->sameArchState(Seq.Run.Final)) << "seed " << Seed;
}

TEST_P(RandomizedMetatheory, ExplorerSoundnessTheoremB20) {
  uint64_t Seed = GetParam();
  RandomProgramOptions POpts;
  POpts.WithCalls = false; // Scope: the fragment Pitchfork explores.
  Program P = randomProgram(Seed, POpts);
  Machine M(P);

  // Union of the two checker modes (§4.2.1).
  bool ExplorerFindsLeak = !checkSct(P, v1v11Mode()).secure() ||
                           !checkSct(P, v4Mode()).secure();

  // Many random schedules within the speculation window.
  bool RandomFindsLeak = false;
  for (unsigned Round = 0; Round < 12 && !RandomFindsLeak; ++Round) {
    RandomRunOptions Ropts;
    Ropts.Seed = Seed * 131 + Round;
    Ropts.MaxSteps = 600;
    Ropts.SpeculationWindow = 20;
    RunResult R = runRandom(M, Configuration::initial(P), Ropts);
    RandomFindsLeak = R.hasSecretObservation();
  }

  if (RandomFindsLeak)
    EXPECT_TRUE(ExplorerFindsLeak) << "seed " << Seed;
}

TEST_P(RandomizedMetatheory, LabelStabilityCorollaryB10) {
  uint64_t Seed = GetParam();
  Program P = randomProgram(Seed);
  Machine M(P);

  // If the worst-case speculative exploration is secret-free, the
  // sequential trace must be too (B.10 is the schedule-by-schedule
  // statement; the explorer covers the worst cases).
  bool SpecClean =
      checkSct(P, v1v11Mode()).secure() && checkSct(P, v4Mode()).secure();
  if (!SpecClean)
    GTEST_SKIP() << "program leaks speculatively";
  EXPECT_TRUE(checkSequentialCt(P).secure()) << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedMetatheory,
                         ::testing::Range(uint64_t(1), uint64_t(61)));

//===----------------------------------------------------------------------===//
// SCT implies sequential CT on the full workload zoo (Proposition B.11)
//===----------------------------------------------------------------------===//

TEST(PropositionB11, SctImpliesSequentialCtOnSuites) {
  // Checked structurally across the suites in their own tests; here we
  // assert the contrapositive over random programs: a sequential leak
  // must show up speculatively too (sequential schedules are a subset of
  // well-formed schedules).
  for (uint64_t Seed = 100; Seed < 140; ++Seed) {
    Program P = randomProgram(Seed);
    if (checkSequentialCt(P).secure())
      continue;
    bool SpecFinds = !checkSct(P, v1v11Mode()).secure() ||
                     !checkSct(P, v4Mode()).secure();
    EXPECT_TRUE(SpecFinds) << "seed " << Seed;
  }
}

} // namespace
