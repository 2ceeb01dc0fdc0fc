//===- tests/SpsDifferentialTest.cpp - Two oracles, one property ------------===//
//
// The SPS proof backend (checker/SpsChecker.h) and the schedule explorer
// are independent oracles for speculative constant-time: one enumerates
// misprediction-oracle tapes over a sequential translation, the other
// walks reorder-buffer schedules.  This suite pins their agreement:
//
//   - handcrafted gadgets where each verdict (counterexample, proof,
//     architectural leak) is known, including the fence-shadowed nested
//     branch shape the fuzzer originally caught the explorer missing;
//   - a seeded differential fuzz sweep over random programs with bounded
//     loops and table-load (v1) gadgets, asserting leak-found iff
//     SPS-counterexample on every conclusive run, with the failing seed
//     and program printed on disagreement;
//   - every counterexample of the sweep and of the Kocher cases replays:
//     its tape, written into P̂'s initial memory, drives a canonical
//     sequential run to a secret observation at its P̂ pc.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"

#include "checker/DifferentialChecker.h"
#include "checker/FenceInsertion.h"
#include "checker/SctChecker.h"
#include "checker/SpsChecker.h"
#include "checker/SpsTranslator.h"
#include "isa/AsmParser.h"
#include "isa/AsmPrinter.h"
#include "sched/ScheduleExplorer.h"
#include "sched/SequentialScheduler.h"
#include "workloads/Kocher.h"

#include <gtest/gtest.h>

using namespace sct;

namespace {

ExploreResult exploreProgram(const Program &P, const ExplorerOptions &Opts) {
  Machine M(P);
  return explore(M, Configuration::initial(P), Opts);
}

/// The classic v1 gadget: a bounds check guarding pub[idx], then a
/// dependent table load.  Architecturally constant-time; the mispredicted
/// check leaks sec[] through the second load's address.
Program v1Gadget() {
  return parseAsmOrDie(R"(
    .reg idx val t
    .init idx 12
    .region pub   0x40 8 public
    .region sec   0x48 8 secret
    .region table 0x60 16 public
    .data 0x48 3 1 4 1 5 9 2 6
    start:
      br ult idx, 8 -> body, end
    body:
      val = load [0x40, idx]
      t = load [0x60, val]
    end:
      t = mov 0
  )");
}

/// Checks that every counterexample of \p S (a checkSps report for \p P
/// under \p Mode, without DepthToWindow and with the default per-tape
/// retire bound) replays: its tape, written at `OracleBase` into P̂'s
/// initial configuration, drives the canonical sequential run to a secret
/// observation whose origin is its `TransPC`.  Returns the number of
/// counterexamples checked.
size_t expectCounterExamplesReplay(const Program &P,
                                   const ExplorerOptions &Mode,
                                   const SpsReport &S,
                                   const std::string &Where) {
  if (S.CounterExamples.empty())
    return 0;
  SpsTranslation T = SpsTranslator::translate(P, Mode, {});
  Machine M(T.Prog);
  for (const SpsCounterExample &CE : S.CounterExamples) {
    Configuration Init = Configuration::initial(T.Prog);
    for (size_t I = 0; I < CE.Tape.size(); ++I)
      Init.Mem.store(T.OracleBase + I, Value::pub(CE.Tape[I]));
    SequentialResult R =
        runSequential(M, Init, SpsOptions().MaxRetiresPerTape);
    EXPECT_FALSE(R.Run.Stuck || R.HitBound) << Where;
    bool Found = false;
    Configuration C = std::move(Init);
    for (const StepRecord &Step : R.Run.Trace) {
      Found |= Step.Obs.isSecret() && leakOriginOf(C, Step.D) == CE.TransPC;
      M.step(C, Step.D);
    }
    EXPECT_TRUE(Found) << Where << ": no secret observation at P\xcc\x82 pc "
                       << CE.TransPC << " (source pc " << CE.Origin << ")";
  }
  return S.CounterExamples.size();
}

//===----------------------------------------------------- handcrafted ----===//

TEST(SpsBackend, V1GadgetYieldsSpeculativeCounterExample) {
  Program P = v1Gadget();
  SpsReport S = checkSps(P, v1v11Mode());
  ASSERT_TRUE(S.conclusive()) << S.Reason;
  ASSERT_EQ(S.Verdict, SpsVerdict::CounterExample);
  // The leak is the table load (pc 2), on a wrong path, and the tape
  // reproducing it mispredicts the very first consult.
  EXPECT_TRUE(S.hasCounterExampleAt(2));
  for (const SpsCounterExample &C : S.CounterExamples) {
    EXPECT_TRUE(C.Speculative) << "architecturally this program is CT";
    ASSERT_FALSE(C.Tape.empty());
    EXPECT_EQ(C.Tape.front(), 1u);
  }
  // Both oracles, same verdict, same origins.
  SpsCrossCheck X =
      crossValidateSps(P, v1v11Mode(), exploreProgram(P, v1v11Mode()));
  EXPECT_FALSE(X.Skipped) << X.SkipReason;
  EXPECT_TRUE(X.agrees());
}

TEST(SpsBackend, FencedV1GadgetProvedLeakFree) {
  MitigationResult FR =
      FenceInsertion(FencePolicy::BranchTargets).run(v1Gadget());
  ASSERT_TRUE(FR.ok());
  SpsReport S = checkSps(FR.Prog, v1v11Mode());
  ASSERT_TRUE(S.conclusive()) << S.Reason;
  EXPECT_TRUE(S.proved());
  EXPECT_TRUE(S.Complete);
  // Fences collapse the excursions: the tape tree stays tiny.
  EXPECT_LE(S.TapesRun, 64u);
}

TEST(SpsBackend, ArchitecturalSecretBranchIsNonSpeculativeCounterExample) {
  // A branch directly on secret data leaks sequentially — the SPS
  // counterexample must say so (Speculative = false), on the empty tape.
  Program P = parseAsmOrDie(R"(
    .reg s t
    .region sec 0x48 4 secret
    .data 0x48 7 7 7 7
    start:
      s = load [0x48]
      br eq s, 7 -> a, b
    a:
      t = mov 1
    b:
      t = mov 0
  )");
  SpsReport S = checkSps(P, v1v11Mode());
  ASSERT_EQ(S.Verdict, SpsVerdict::CounterExample);
  ASSERT_TRUE(S.hasCounterExampleAt(1));
  bool SawArchitectural = false;
  for (const SpsCounterExample &C : S.CounterExamples)
    if (C.Origin == 1 && !C.Speculative && C.Tape.empty())
      SawArchitectural = true;
  EXPECT_TRUE(SawArchitectural);
}

TEST(SpsBackend, FenceShadowedNestedBranchAgreesBothWays) {
  // Regression for an explorer gap this differential suite caught: with
  // an architectural fence in flight, wrong-path branches fetch
  // unresolved (probeBranchCorrect cannot run), and forcing only the
  // front-most unresolved entry squashed a nested branch — whose
  // condition had turned secret via a wrong-path load — before its jump
  // observation ever happened.  SPS reported the leak; the explorer
  // missed it until forceOldest learned to resolve nested
  // correctly-guessed control first.
  Program P = parseAsmOrDie(R"(
    .reg ra rb
    .init ra 0
    .region pub 0x40 8 public
    .region sec 0x48 8 secret
    .data 0x48 5 5 5 5 5 5 5 5
    start:
      fence
      br ult ra, ra -> wrong, rest
    wrong:
      rb = load [0x48]
      br eq rb, 2 -> rest, rest
    rest:
      ra = mov 0
  )");
  // pcs: 0 fence, 1 branch, 2 wrong-path load, 3 nested branch, 4 mov.
  ExploreResult R = exploreProgram(P, v1v11Mode());
  ASSERT_FALSE(R.Truncated);
  bool ExplorerSawNestedBranch = false;
  for (const LeakRecord &L : R.Leaks)
    ExplorerSawNestedBranch |= L.Origin == 3;
  EXPECT_TRUE(ExplorerSawNestedBranch)
      << "the nested wrong-path branch must be observed before rollback";

  SpsReport S = checkSps(P, v1v11Mode());
  ASSERT_EQ(S.Verdict, SpsVerdict::CounterExample);
  EXPECT_TRUE(S.hasCounterExampleAt(3));

  SpsCrossCheck X = crossValidateSps(P, v1v11Mode(), R);
  EXPECT_FALSE(X.Skipped) << X.SkipReason;
  EXPECT_TRUE(X.agrees());
}

//===------------------------------------------------------- fuzz sweep ---===//

// The sweep's explorer fragment: window and depth small enough that both
// oracles finish on most seeds, hazards off (the fragment SPS models).
ExplorerOptions fuzzMode() {
  ExplorerOptions Mode;
  Mode.SpeculationBound = 16;
  Mode.MaxBranchDepth = 4;
  Mode.ExploreForwardingHazards = false;
  Mode.MaxTotalSteps = 1u << 22;
  Mode.Threads = 1; // Deterministic truncation, reproducible seeds.
  return Mode;
}

TEST(SpsDifferentialFuzz, LeakFoundIffSpsCounterExample) {
  RandomProgramOptions RO;
  RO.MinLength = 6;
  RO.MaxLength = 14;
  RO.WithLoops = true;
  RO.WithTableLoads = true;
  SpsOptions SO;
  SO.MaxTapes = 2048;

  const uint64_t Seeds = 420;
  unsigned Conclusive = 0, Leaky = 0, Disagreements = 0;
  size_t Replayed = 0;
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    Program P = randomProgram(Seed, RO);
    ASSERT_TRUE(P.validate().empty()) << "seed " << Seed;
    ExploreResult R = exploreProgram(P, fuzzMode());
    SpsCrossCheck X = crossValidateSps(P, fuzzMode(), R, {}, SO);
    Replayed += expectCounterExamplesReplay(P, fuzzMode(), X.Sps,
                                            "seed " + std::to_string(Seed));
    if (X.Skipped)
      continue; // A budget gave out on one side; neither is authoritative.
    ++Conclusive;
    Leaky += !R.Leaks.empty();
    if (!X.agrees()) {
      ++Disagreements;
      ADD_FAILURE() << "oracle disagreement at seed " << Seed << ": explorer "
                    << R.Leaks.size() << " leak(s), SPS "
                    << X.Sps.CounterExamples.size()
                    << " counterexample(s), verdictsAgree=" << X.VerdictsAgree
                    << ", unmatched origins=" << X.Unmatched.size() << "\n"
                    << printAsm(P);
    }
  }
  EXPECT_EQ(Disagreements, 0u);
  // The sweep must actually exercise both verdicts, at scale.
  EXPECT_GE(Conclusive, 200u);
  EXPECT_GT(Leaky, 50u);
  EXPECT_GT(Conclusive - Leaky, 50u);
  EXPECT_GT(Replayed, 500u);
}

TEST(SpsDifferentialFuzz, KocherCounterExamplesReplay) {
  size_t Replayed = 0;
  for (const SuiteCase &C : kocherCases()) {
    SpsReport S = checkSps(C.Prog, fuzzMode());
    Replayed += expectCounterExamplesReplay(C.Prog, fuzzMode(), S, C.Id);
  }
  EXPECT_GT(Replayed, 0u);
}

} // namespace
