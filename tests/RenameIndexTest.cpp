//===- tests/RenameIndexTest.cpp - Derived reorder-buffer index oracle ------===//
//
// The reorder buffer's derived indices (core/ReorderBuffer.h, "Derived
// indices") and the explorer's copy-free branch probe answer the fetch
// path's questions without walking the window or copying the
// configuration.  This suite keeps the walks and the copy they replaced as
// oracles, and checks after every step of random schedules over generated
// programs that:
//   - the rename index (the youngest-writer table, lastWriterBefore, and
//     resolveReg through it) agrees with the reverse scan for every
//     register at every live index and at nextIndex();
//   - the control list agrees with a walk: its size is the number of live
//     unresolved Branch/JumpI entries, and hasControlBefore agrees with
//     the speculative-shadow scan at every index;
//   - probeBranchCorrect agrees with the copy-and-step probe: fetch the
//     branch guessing true on a copy, execute it, and ask which rule fired.
// A fork copy taken mid-run is stepped on along the same schedule and
// checked the same way, so copy construction and chunk unsharing are
// covered too.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"

#include "core/Machine.h"
#include "sched/ScheduleExplorer.h"

#include <gtest/gtest.h>

#include <random>

using namespace sct;

namespace {

/// Oracle: the youngest entry below \p I assigning \p R, by reverse scan
/// of the window (0 = none).
BufIdx lastWriterByScan(const ReorderBuffer &Buf, Reg R, BufIdx I) {
  BufIdx Found = 0;
  Buf.scanReverse(0, I, [&](BufIdx J, const TransientInstr &T) {
    if (T.assignedReg() != R)
      return false;
    Found = J;
    return true;
  });
  return Found;
}

/// Oracle: `(buf +i ρ)(r)` by reverse scan — Figure 3 with the §3.5
/// extension, exactly as the machine computed it before the rename index.
std::optional<Value> resolveRegByScan(const Configuration &C, BufIdx I,
                                      Reg R) {
  BufIdx J = lastWriterByScan(C.Buf, R, I);
  if (!J)
    return C.Regs.get(R);
  const TransientInstr &T = C.Buf.at(J);
  if (T.is(TransientKind::ResolvedValue) || T.is(TransientKind::LoadResolved) ||
      T.is(TransientKind::LoadGuessed))
    return T.Val;
  return std::nullopt;
}

/// Oracle: unresolved control flow strictly below \p I, by scan.
bool controlBeforeByScan(const ReorderBuffer &Buf, BufIdx I) {
  return Buf.scanReverse(0, I, [](BufIdx, const TransientInstr &T) {
    return T.is(TransientKind::Branch) || T.is(TransientKind::JumpI);
  });
}

/// Oracle: the copy-and-step branch probe.
std::optional<bool> probeByCopyAndStep(const Machine &M,
                                       const Configuration &C) {
  Configuration T = C;
  BufIdx I = T.Buf.nextIndex();
  if (!M.step(T, Directive::fetchBool(true)))
    return std::nullopt;
  std::optional<StepOutcome> Out = M.step(T, Directive::execute(I));
  if (!Out)
    return std::nullopt;
  return Out->Rule == RuleId::CondExecuteCorrect;
}

/// Checks every derived answer in \p C against its oracle.
void expectIndicesMatchScans(const Machine &M, const Configuration &C,
                             const std::string &Where) {
  const Program &P = M.program();
  const ReorderBuffer &Buf = C.Buf;
  BufIdx Lo = Buf.empty() ? Buf.nextIndex() : Buf.minIndex();
  size_t Controls = 0;
  Buf.forEachIn(Lo, Buf.nextIndex(), [&](BufIdx, const TransientInstr &T) {
    Controls += T.is(TransientKind::Branch) || T.is(TransientKind::JumpI);
  });
  ASSERT_EQ(Buf.controlDepth(), Controls) << Where;
  // The table first: a stale entry would send the chain walks below off
  // into squashed or reused slots.
  for (unsigned Id = 0; Id < P.numRegs(); ++Id) {
    Reg R(static_cast<uint16_t>(Id));
    ASSERT_EQ(Buf.youngestWriter(R),
              lastWriterByScan(Buf, R, Buf.nextIndex()))
        << Where << " register " << Id;
  }
  for (BufIdx I = Lo; I <= Buf.nextIndex(); ++I) {
    ASSERT_EQ(Buf.hasControlBefore(I), controlBeforeByScan(Buf, I))
        << Where << " index " << I;
    for (unsigned Id = 0; Id < P.numRegs(); ++Id) {
      Reg R(static_cast<uint16_t>(Id));
      ASSERT_EQ(Buf.lastWriterBefore(R, I), lastWriterByScan(Buf, R, I))
          << Where << " index " << I << " register " << Id;
      ASSERT_EQ(M.resolveReg(C, I, R), resolveRegByScan(C, I, R))
          << Where << " index " << I << " register " << Id;
    }
  }
  if (P.contains(C.N) && P.at(C.N).kind() == InstrKind::Branch) {
    ASSERT_EQ(probeBranchCorrect(M, C), probeByCopyAndStep(M, C)) << Where;
  }
}

/// Walks a random well-formed schedule from \p Init — RandomScheduler's
/// policy: fetches get three tickets, none past a \p Window-entry buffer —
/// checking after every step.  The walk cannot come from runRandom: a
/// corrupt index can send the machine's own lookups astray mid-run, so
/// each step is checked before the next one is chosen.  Halfway it takes
/// a fork copy, then replays the rest of the walk on the fork.
void walkChecked(const Machine &M, const Configuration &Init, uint64_t Seed,
                 size_t Window, size_t MaxSteps, const std::string &Where) {
  std::mt19937_64 Rng(Seed);
  Configuration C = Init;
  ASSERT_NO_FATAL_FAILURE(expectIndicesMatchScans(M, C, Where + " step 0"));
  std::optional<Configuration> Fork;
  Schedule Rest;
  for (size_t K = 0; K < MaxSteps; ++K) {
    std::vector<size_t> Tickets;
    std::vector<Directive> Choices = M.applicableDirectives(C);
    for (size_t I = 0; I < Choices.size(); ++I) {
      if (Choices[I].isFetch() && C.Buf.size() >= Window)
        continue;
      for (unsigned T = Choices[I].isFetch() ? 3 : 1; T > 0; --T)
        Tickets.push_back(I);
    }
    if (Tickets.empty())
      break; // Final or stalled.
    if (K == MaxSteps / 2)
      Fork = C;
    const Directive &D = Choices[Tickets[Rng() % Tickets.size()]];
    ASSERT_TRUE(M.step(C, D).has_value()) << Where << " step " << K;
    if (Fork)
      Rest.push_back(D);
    ASSERT_NO_FATAL_FAILURE(expectIndicesMatchScans(
        M, C, Where + " step " + std::to_string(K + 1)));
  }
  if (!Fork)
    return;
  for (size_t K = 0; K < Rest.size(); ++K) {
    ASSERT_TRUE(M.step(*Fork, Rest[K]).has_value());
    ASSERT_NO_FATAL_FAILURE(expectIndicesMatchScans(
        M, *Fork, Where + " fork step " + std::to_string(K + 1)));
  }
  EXPECT_TRUE(*Fork == C) << Where;
}

class RenameIndex : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RenameIndex, RandomSchedulesMatchScansEveryStep) {
  uint64_t Seed = GetParam();
  RandomProgramOptions POpts;
  POpts.WithJumpI = Seed % 3 == 0;
  POpts.WithLoops = Seed % 2 == 0;
  POpts.WithTableLoads = Seed % 4 == 1;
  Program P = randomProgram(Seed, POpts);
  ASSERT_TRUE(P.validate().empty());
  Machine M(P);
  // Windows from 8 to 39 entries: shallow ones retire often, deep ones
  // nest mispredictions and roll back far.
  walkChecked(M, Configuration::initial(P), Seed * 7919 + 3, 8 + Seed % 32,
              400, "seed " + std::to_string(Seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RenameIndex,
                         ::testing::Range<uint64_t>(1, 97));

} // namespace
