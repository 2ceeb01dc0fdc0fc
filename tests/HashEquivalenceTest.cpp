//===- tests/HashEquivalenceTest.cpp - Incremental fingerprint oracle -------===//
//
// The incremental-hash maintenance contract (ARCHITECTURE.md invariant 4):
// every component keeps its fingerprint as a running XOR-multiset updated
// at each mutation, and `hash()` must be *bit-equal* to the full-walk
// oracle `hashFromScratch()` at every reachable configuration.  The
// explorer's seen-state pruning keys on these values, so a maintenance
// bug silently changes which subtrees get explored — this suite is the
// tripwire.
//
// Properties, over random programs and random well-formed schedules
// (which exercise fetch/execute/retire, store forwarding, hazard
// rollbacks, and RSB push/pop):
//   - whole-configuration and per-component incremental == from-scratch
//     after every single step — also along the explorer's own v4
//     witnesses on the two largest crypto trees (mee-c, ssl3-c), the
//     trajectories seen-state pruning actually fingerprints;
//   - copy-on-write sharing and unsharing (configuration copies that then
//     diverge) preserves both sides' fingerprints;
//   - the flat copy-on-write memory agrees with a reference map oracle on
//     every load, and is canonical: store order and default-valued cells
//     do not affect equality or the fingerprint.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"

#include "checker/SctChecker.h"
#include "core/Configuration.h"
#include "sched/RandomScheduler.h"
#include "workloads/CryptoLibs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <random>
#include <thread>

using namespace sct;

namespace {

/// Asserts the incremental fingerprint of every component — and their
/// chained combination — against the full-walk oracles.
void expectHashesMatchScratch(const Configuration &C, uint64_t Seed,
                              size_t Step) {
  ASSERT_EQ(C.Regs.hash(), C.Regs.hashFromScratch())
      << "registers diverged; seed " << Seed << " step " << Step;
  ASSERT_EQ(C.Mem.hash(), C.Mem.hashFromScratch())
      << "memory diverged; seed " << Seed << " step " << Step;
  ASSERT_EQ(C.Buf.hash(), C.Buf.hashFromScratch())
      << "reorder buffer diverged; seed " << Seed << " step " << Step;
  ASSERT_EQ(C.Rsb.hash(), C.Rsb.hashFromScratch())
      << "RSB diverged; seed " << Seed << " step " << Step;
  ASSERT_EQ(C.hash(), C.hashFromScratch())
      << "configuration diverged; seed " << Seed << " step " << Step;
}

class HashEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HashEquivalence, IncrementalMatchesScratchEveryStep) {
  uint64_t Seed = GetParam();
  RandomProgramOptions POpts;
  POpts.WithJumpI = (Seed % 3 == 0); // Mix in indirect control flow.
  Program P = randomProgram(Seed, POpts);
  ASSERT_TRUE(P.validate().empty());
  Machine M(P);
  Configuration Init = Configuration::initial(P);
  expectHashesMatchScratch(Init, Seed, 0);

  RandomRunOptions Ropts;
  Ropts.Seed = Seed * 131 + 17;
  Ropts.MaxSteps = 300;
  RunResult R = runRandom(M, Init, Ropts);

  Configuration C = Init;
  size_t Step = 0;
  for (const StepRecord &S : R.Trace) {
    ASSERT_TRUE(M.step(C, S.D).has_value());
    expectHashesMatchScratch(C, Seed, ++Step);
  }
}

// The same every-step property, with the explorer's witness schedules on
// real crypto trees as inputs: each v4 leak's raw schedule replays from
// the initial configuration with incremental == from-scratch after every
// directive.
TEST(HashEquivalenceWitnesses, ExplorerWitnessesMatchScratchEveryStep) {
  size_t Witnesses = 0;
  for (const SuiteCase &Case : {meeC(), ssl3C()}) {
    Machine M(Case.Prog);
    Configuration Init = Configuration::initial(Case.Prog);
    ExplorerOptions Opts = v4Mode();
    Opts.Threads = 1;
    ExploreResult R = explore(M, Init, Opts);
    ASSERT_FALSE(R.Leaks.empty()) << Case.Id;
    for (size_t W = 0; W < R.Leaks.size(); ++W) {
      Configuration C = Init;
      size_t Step = 0;
      for (const Directive &D : R.Leaks[W].Sched) {
        ASSERT_TRUE(M.step(C, D).has_value()) << Case.Id << " witness " << W;
        ASSERT_NO_FATAL_FAILURE(expectHashesMatchScratch(C, W, ++Step))
            << Case.Id << " witness " << W;
      }
      ++Witnesses;
    }
  }
  EXPECT_GT(Witnesses, 0u);
}

TEST_P(HashEquivalence, CowUnsharePreservesBothFingerprints) {
  uint64_t Seed = GetParam();
  Program P = randomProgram(Seed);
  Machine M(P);
  Configuration Init = Configuration::initial(P);

  RandomRunOptions Ropts;
  Ropts.Seed = Seed * 977 + 3;
  Ropts.MaxSteps = 200;
  RunResult R = runRandom(M, Init, Ropts);
  if (R.Trace.size() < 4)
    GTEST_SKIP() << "run too short to fork";

  // Fork mid-run (the explorer's fork pattern: a plain copy, memory cells
  // COW-shared), then advance the two sides along different suffixes.
  Configuration A = Init;
  size_t Half = R.Trace.size() / 2;
  for (size_t I = 0; I < Half; ++I)
    ASSERT_TRUE(M.step(A, R.Trace[I].D).has_value());
  Configuration B = A;
  EXPECT_TRUE(B.Mem.sharesCells() || A.Mem.cellCount() == 0);
  ASSERT_EQ(A.hash(), B.hash());

  for (size_t I = Half; I < R.Trace.size(); ++I)
    ASSERT_TRUE(M.step(A, R.Trace[I].D).has_value());

  RandomRunOptions BOpts;
  BOpts.Seed = Seed * 613 + 41;
  BOpts.MaxSteps = 100;
  RunResult RB = runRandom(M, B, BOpts);
  for (const StepRecord &S : RB.Trace)
    ASSERT_TRUE(M.step(B, S.D).has_value());

  // Both sides' incremental fingerprints survived the unsharing writes.
  expectHashesMatchScratch(A, Seed, Half + 1000);
  expectHashesMatchScratch(B, Seed, Half + 2000);
}

//===------------------------------------------------ flat memory oracle ---===//

TEST_P(HashEquivalence, FlatMemoryMatchesReferenceMap) {
  uint64_t Seed = GetParam();
  Program P = randomProgram(Seed);
  Configuration Init = Configuration::initial(P);
  std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ull + 1);

  // Addresses stay inside the regions randomProgram maps (stack + pub +
  // sec); values are sampled from the initial contents so secret-labelled
  // values circulate too.
  auto RandomAddr = [&] { return 0x30 + Rng() % 0x20; };
  auto RandomVal = [&] { return Init.Mem.load(0x40 + Rng() % 0x10); };

  Memory Flat = Init.Mem;
  std::map<uint64_t, Value> Oracle; // Reference: last store wins.
  for (unsigned I = 0; I < 200; ++I) {
    uint64_t A = RandomAddr();
    Value V = RandomVal();
    Flat.store(A, V);
    Oracle[A] = V;
    ASSERT_EQ(Flat.hash(), Flat.hashFromScratch()) << "store " << I;
  }
  for (uint64_t A = 0x30; A < 0x50; ++A) {
    auto It = Oracle.find(A);
    Value Expect = It != Oracle.end() ? It->second : Init.Mem.load(A);
    EXPECT_EQ(Flat.load(A), Expect) << "addr " << A;
  }
  // forEachCell visits ascending addresses, covering every stored cell.
  uint64_t Prev = 0;
  bool First = true;
  size_t Visited = 0;
  Flat.forEachCell([&](uint64_t A, const Value &V) {
    EXPECT_TRUE(First || A > Prev) << "visit order not ascending";
    First = false;
    Prev = A;
    ++Visited;
    auto It = Oracle.find(A);
    if (It != Oracle.end())
      EXPECT_EQ(V, It->second);
  });
  EXPECT_GE(Visited, Oracle.size());
}

TEST_P(HashEquivalence, MemoryEqualityIsStoreOrderAndDefaultCanonical) {
  uint64_t Seed = GetParam();
  Program P = randomProgram(Seed);
  Configuration Init = Configuration::initial(P);
  std::mt19937_64 Rng(Seed * 0x2545f4914f6cdd1dull + 7);

  // Distinct addresses, so permuting the stores preserves final content.
  std::vector<std::pair<uint64_t, Value>> Writes;
  for (uint64_t A = 0x30; A < 0x48; ++A)
    if (Rng() % 2)
      Writes.push_back({A, Init.Mem.load(0x40 + Rng() % 0x10)});

  Memory Fwd = Init.Mem, Rev = Init.Mem;
  for (const auto &[A, V] : Writes)
    Fwd.store(A, V);
  for (auto It = Writes.rbegin(); It != Writes.rend(); ++It)
    Rev.store(It->first, It->second);
  EXPECT_TRUE(Fwd == Rev);
  EXPECT_EQ(Fwd.hash(), Rev.hash());

  // Storing an address's default value materialises a cell but must be
  // invisible to both equality and the fingerprint (default-canonical).
  Memory Padded = Fwd;
  uint64_t Untouched = 0x48;
  while (std::any_of(Writes.begin(), Writes.end(),
                     [&](const auto &W) { return W.first == Untouched; }))
    ++Untouched;
  Padded.store(Untouched, Init.Mem.load(Untouched));
  EXPECT_TRUE(Padded == Fwd);
  EXPECT_EQ(Padded.hash(), Fwd.hash());
  EXPECT_EQ(Padded.hash(), Padded.hashFromScratch());
}

// The chunked reorder buffer's structural sharing: a copy shares sealed
// chunks until one side writes through mut(), which must unshare just
// that chunk and leave BOTH sides' incremental fingerprints bit-equal to
// their oracles.  Drives the buffer directly (pushes across several
// chunk seals, retires across chunk seams, rollbacks into sealed
// territory, in-place rewrites) so every unshare path runs, interleaved
// on both sides of a fork.
TEST_P(HashEquivalence, ChunkUnshareOnMutateKeepsForksOracleEqual) {
  uint64_t Seed = GetParam();
  std::mt19937_64 Rng(Seed * 0x6a09e667f3bcc909ull + 5);
  auto RandomEntry = [&](PC N) {
    switch (Rng() % 3) {
    case 0:
      return TransientInstr::makeJump(PC(Rng() % 64), N);
    case 1:
      return TransientInstr::makeFence(N);
    default:
      return TransientInstr::makeStore(
          Operand::imm(Rng() % 256),
          {Operand::imm(0x30 + Rng() % 16)}, N);
    }
  };

  ReorderBuffer A;
  // Grow past several chunk seals, probing some prefixes so chunks reach
  // the fork in a mix of folded and pending states.
  PC Grow = PC(3 * ReorderBuffer::ChunkCap + Rng() % 5);
  for (PC N = 0; N < Grow; ++N) {
    A.push(RandomEntry(N));
    if (Rng() % 4 == 0)
      A.hash();
  }
  ASSERT_EQ(A.hash(), A.hashFromScratch());

  ReorderBuffer B = A;
  ASSERT_TRUE(A.sharesChunks());
  ASSERT_EQ(B.hash(), A.hash());

  for (unsigned Step = 0; Step < 120; ++Step) {
    ReorderBuffer &R = (Rng() % 2) ? A : B;
    switch (Rng() % 5) {
    case 0:
      R.push(RandomEntry(PC(64 + Step)));
      break;
    case 1:
      if (!R.empty())
        R.popFront();
      break;
    case 2:
      if (!R.empty()) {
        // In-place rewrite through the mutation chokepoint — the
        // unshare-on-first-write path when the chunk is shared.  Fences
        // are never rewritten (mirrors Machine.cpp, which only retires
        // them; the fence-index list is maintained at push/pop/truncate).
        BufIdx I = R.minIndex() + Rng() % R.size();
        if (!R.at(I).is(TransientKind::Fence))
          R.mut(I) = TransientInstr::makeJump(PC(Rng() % 64), PC(Step));
      }
      break;
    case 3:
      if (!R.empty())
        R.truncateFrom(R.minIndex() + Rng() % (R.size() + 1));
      break;
    default: {
      const ReorderBuffer &Frozen = R;
      ASSERT_EQ(Frozen.hash(), R.hashFromScratch())
          << "const probe diverged; seed " << Seed << " step " << Step;
      break;
    }
    }
    ASSERT_EQ(A.hash(), A.hashFromScratch())
        << "fork A diverged; seed " << Seed << " step " << Step;
    ASSERT_EQ(B.hash(), B.hashFromScratch())
        << "fork B diverged; seed " << Seed << " step " << Step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashEquivalence,
                         ::testing::Range<uint64_t>(1, 33));

// The const hash() overload's concurrency contract: a shared (frozen)
// configuration — the minimizer holds exactly this shape in its replay
// rungs — may be fingerprinted from many threads at once.  The const
// overload performs NO writes at all: pending contributions are
// recomputed on the fly and combined into the running value without
// touching the per-copy fold state or the chunks' shared memo caches
// (those relaxed atomics exist for cross-fork fold/retire/clone races,
// where every writer derives the same bit-identical value from the same
// settled entry).  Run under TSan this is the tripwire for anyone adding
// writes to the const path; it also pins that concurrent reads agree
// with the oracle bit-for-bit.
TEST(HashEquivalenceConcurrent, SharedConfigurationConstHashIsWriteFree) {
  Program P = randomProgram(7);
  Machine M(P);
  Configuration C = Configuration::initial(P);
  RandomRunOptions Ropts;
  Ropts.Seed = 7 * 131 + 17;
  Ropts.MaxSteps = 120;
  RunResult R = runRandom(M, C, Ropts);
  for (const StepRecord &S : R.Trace)
    ASSERT_TRUE(M.step(C, S.D).has_value());
  // Leave pending (never-probed) ROB entries in place: the mutable
  // memoizing overload must NOT be reachable through the const ref.
  const Configuration &Shared = C;
  uint64_t Expect = Shared.hashFromScratch();

  std::vector<std::thread> Pool;
  std::atomic<unsigned> Mismatches{0};
  for (int T = 0; T < 8; ++T)
    Pool.emplace_back([&] {
      for (int I = 0; I < 1000; ++I)
        if (Shared.hash() != Expect)
          Mismatches.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
}

// The shared-rung shape under fire: a frozen configuration whose
// sealed ROB chunks are ALSO shared (structurally) with live forks that
// other threads are mutating.  The mutators unshare chunks and fold
// fingerprints on their private copies while const probes of the frozen
// side run full tilt through the same shared memo atomics.  Under TSan
// this pins that the only cross-thread accesses are those relaxed
// atomics; the counters pin that every side stays bit-equal to its
// oracle throughout.
TEST(HashEquivalenceConcurrent, SharedChunksConstHashRacesMutatingForks) {
  Program P = randomProgram(11);
  Machine M(P);
  Configuration C = Configuration::initial(P);
  RandomRunOptions Ropts;
  Ropts.Seed = 11 * 131 + 17;
  Ropts.MaxSteps = 160;
  RunResult R = runRandom(M, C, Ropts);
  for (const StepRecord &S : R.Trace)
    ASSERT_TRUE(M.step(C, S.D).has_value());

  const Configuration &Frozen = C;
  uint64_t Expect = Frozen.hashFromScratch();

  std::vector<std::thread> Pool;
  std::atomic<unsigned> Mismatches{0};
  // Four const probes of the frozen configuration...
  for (int T = 0; T < 4; ++T)
    Pool.emplace_back([&] {
      for (int I = 0; I < 1000; ++I)
        if (Frozen.hash() != Expect)
          Mismatches.fetch_add(1, std::memory_order_relaxed);
    });
  // ...racing four forks that each advance (and so unshare and re-fold)
  // a private copy whose chunks start out shared with Frozen.
  for (int T = 0; T < 4; ++T)
    Pool.emplace_back([&, T] {
      Configuration F = C;
      RandomRunOptions FOpts;
      FOpts.Seed = 1000 + uint64_t(T) * 7919;
      FOpts.MaxSteps = 120;
      RunResult FR = runRandom(M, F, FOpts);
      for (const StepRecord &S : FR.Trace)
        if (!M.step(F, S.D).has_value()) {
          Mismatches.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      if (F.hash() != F.hashFromScratch())
        Mismatches.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
}

} // namespace
