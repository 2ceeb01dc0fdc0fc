//===- tests/SerializationTest.cpp - Cache format round-trips ---------------===//
//
// The serialization layer's exactness contract (engine/Serialization.h):
// deserialize(serialize(x)) == x field-by-field, and re-serializing the
// round-tripped value is byte-identical — held as a property over the
// random-program generator, over explored CheckResults (leak records
// with raw and minimized schedules, SPS reports), and over the options
// structs with every enum and container field perturbed.  Plus the
// corruption surface: truncation, bit flips, and version skew must read
// as clean failures (disengaged/false), never as misparses — that is
// what makes a damaged cache entry a miss instead of a wrong verdict.
//
//===----------------------------------------------------------------------===//

#include "core/Configuration.h"
#include "engine/ResultCache.h"
#include "engine/Serialization.h"
#include "checker/SctChecker.h"
#include "workloads/Kocher.h"

#include "RandomProgram.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

using namespace sct;

namespace {

std::vector<uint8_t> programBytes(const Program &P) {
  ByteWriter W;
  writeProgram(W, P);
  return W.take();
}

/// Structural equality through the printer-independent fields.
void expectProgramsEqual(const Program &A, const Program &B) {
  ASSERT_EQ(A.size(), B.size());
  ASSERT_EQ(A.numRegs(), B.numRegs());
  for (unsigned R = 0; R < A.numRegs(); ++R)
    EXPECT_EQ(A.regName(Reg(static_cast<uint16_t>(R))),
              B.regName(Reg(static_cast<uint16_t>(R))));
  for (PC N = 0; N < A.endPC(); ++N) {
    const Instruction &IA = A.at(N), &IB = B.at(N);
    ASSERT_EQ(IA.kind(), IB.kind()) << "pc " << N;
    EXPECT_EQ(IA.args(), IB.args()) << "pc " << N;
    EXPECT_EQ(IA.next(), IB.next()) << "pc " << N;
    switch (IA.kind()) {
    case InstrKind::Op:
      EXPECT_EQ(IA.dest(), IB.dest());
      EXPECT_EQ(IA.opcode(), IB.opcode());
      break;
    case InstrKind::Branch:
      EXPECT_EQ(IA.opcode(), IB.opcode());
      EXPECT_EQ(IA.trueTarget(), IB.trueTarget());
      EXPECT_EQ(IA.falseTarget(), IB.falseTarget());
      break;
    case InstrKind::Load:
      EXPECT_EQ(IA.dest(), IB.dest());
      break;
    case InstrKind::Store:
      EXPECT_EQ(IA.storeValue(), IB.storeValue());
      break;
    case InstrKind::Call:
      EXPECT_EQ(IA.callee(), IB.callee());
      break;
    default:
      break;
    }
  }
  ASSERT_EQ(A.regions().size(), B.regions().size());
  for (size_t I = 0; I < A.regions().size(); ++I) {
    EXPECT_EQ(A.regions()[I].Name, B.regions()[I].Name);
    EXPECT_EQ(A.regions()[I].Base, B.regions()[I].Base);
    EXPECT_EQ(A.regions()[I].Size, B.regions()[I].Size);
    EXPECT_EQ(A.regions()[I].RegionLabel.mask(),
              B.regions()[I].RegionLabel.mask());
  }
  EXPECT_EQ(A.regInits(), B.regInits());
  EXPECT_EQ(A.memInits(), B.memInits());
  EXPECT_EQ(A.codeLabels(), B.codeLabels());
  EXPECT_EQ(A.entry(), B.entry());
}

} // namespace

//===------------------------------------------------------- program trips ---===//

TEST(Serialization, RandomProgramsRoundTripByteExact) {
  RandomProgramOptions Opts;
  Opts.WithCalls = true;
  Opts.WithLoops = true;
  Opts.WithTableLoads = true;
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    Program P = randomProgram(Seed, Opts);
    std::vector<uint8_t> Bytes = programBytes(P);
    ByteReader R(Bytes);
    std::optional<Program> Q = readProgram(R);
    ASSERT_TRUE(Q.has_value()) << "seed " << Seed;
    ASSERT_TRUE(R.done()) << "seed " << Seed;
    expectProgramsEqual(P, *Q);
    // Byte-exactness: the round-tripped program re-serializes to the
    // same bytes, so programHash is a true content address.
    EXPECT_EQ(Bytes, programBytes(*Q)) << "seed " << Seed;
    EXPECT_EQ(programHash(P), programHash(*Q)) << "seed " << Seed;
  }
}

TEST(Serialization, SuiteProgramsRoundTrip) {
  for (const SuiteCase &C : kocherCases()) {
    std::vector<uint8_t> Bytes = programBytes(C.Prog);
    ByteReader R(Bytes);
    std::optional<Program> Q = readProgram(R);
    ASSERT_TRUE(Q.has_value()) << C.Id;
    expectProgramsEqual(C.Prog, *Q);
    EXPECT_EQ(Bytes, programBytes(*Q)) << C.Id;
  }
}

TEST(Serialization, ProgramHashSeparatesContent) {
  Program P = kocherCases().front().Prog;
  Program Q = kocherCases()[1].Prog;
  EXPECT_NE(programHash(P), programHash(Q));
  EXPECT_EQ(programHash(P), programHash(P));
}

TEST(Serialization, TruncatedProgramNeverMisparses) {
  Program P = kocherCases().front().Prog;
  std::vector<uint8_t> Bytes = programBytes(P);
  // The read sequence is fully determined by the (unchanged) prefix
  // bytes, so every truncation point cuts some read short: always a
  // clean failure, never a shorter program parsed out of the prefix.
  for (size_t Len = 0; Len < Bytes.size(); Len += 7) {
    ByteReader R(std::span<const uint8_t>(Bytes.data(), Len));
    EXPECT_FALSE(readProgram(R).has_value()) << "len " << Len;
  }

  // Crafted entries: complete, well-framed images whose one instruction
  // breaks a precondition the Instruction factories only assert.  Each
  // must fail the read, never build a malformed instruction.
  auto Image = [](auto &&WriteInstr) {
    ByteWriter W;
    W.u32(3); // rsp, rtmp, ra
    for (const char *Name : {"rsp", "rtmp", "ra"})
      W.str(Name);
    W.u64(1);
    WriteInstr(W);
    W.u32(1); // next
    for (int Table = 0; Table < 4; ++Table)
      W.u64(0); // regions, register inits, memory inits, labels
    W.u32(0); // entry
    return W.take();
  };
  auto Kind = [](ByteWriter &W, InstrKind K) {
    W.u8(static_cast<uint8_t>(K));
  };
  auto Imm = [](ByteWriter &W, uint64_t V) {
    W.b(false);
    W.u64(V);
  };
  auto Parses = [](const std::vector<uint8_t> &B) {
    ByteReader R(B);
    return readProgram(R).has_value();
  };
  // The framing is right: the well-formed twin of the first case parses.
  ASSERT_TRUE(Parses(Image([&](ByteWriter &W) {
    Kind(W, InstrKind::Load);
    W.u16(2);
    W.u64(1);
    Imm(W, 0x40);
  })));
  EXPECT_FALSE(Parses(Image([&](ByteWriter &W) { // load, no address
    Kind(W, InstrKind::Load);
    W.u16(2);
    W.u64(0);
  })));
  EXPECT_FALSE(Parses(Image([&](ByteWriter &W) { // store, no address
    Kind(W, InstrKind::Store);
    Imm(W, 1);
    W.u64(0);
  })));
  for (InstrKind K : {InstrKind::JumpI, InstrKind::CallI})
    EXPECT_FALSE(Parses(Image([&](ByteWriter &W) { // no target operands
      Kind(W, K);
      W.u64(0);
    })));
  EXPECT_FALSE(Parses(Image([&](ByteWriter &W) { // binary op, one operand
    Kind(W, InstrKind::Op);
    W.u16(2);
    W.u8(static_cast<uint8_t>(Opcode::Add));
    W.u64(1);
    Imm(W, 1);
  })));
  EXPECT_FALSE(Parses(Image([&](ByteWriter &W) { // branch on an add
    Kind(W, InstrKind::Branch);
    W.u8(static_cast<uint8_t>(Opcode::Add));
    W.u64(2);
    Imm(W, 1);
    Imm(W, 2);
    W.u32(1);
    W.u32(1);
  })));
  EXPECT_FALSE(Parses(Image([&](ByteWriter &W) { // eq, one operand
    Kind(W, InstrKind::Branch);
    W.u8(static_cast<uint8_t>(Opcode::Eq));
    W.u64(1);
    Imm(W, 1);
    W.u32(1);
    W.u32(1);
  })));
}

//===------------------------------------------------------- options trips ---===//

TEST(Serialization, OptionsRoundTripWithEveryFieldPerturbed) {
  ExplorerOptions E = v4Mode();
  E.SpeculationBound = 33;
  E.ExhaustiveForwardForks = true;
  E.MaxBranchDepth = 7;
  E.ExploreAliasPrediction = true;
  E.IndirectTargets = {3, 9, 27};
  E.RsbUnderflowTargets = {1};
  E.MaxSchedules = 123456;
  E.MaxStepsPerSchedule = 777;
  E.MaxTotalSteps = 1ull << 40;
  E.MaxLeaks = 99;
  E.StopAtFirstLeak = true;
  E.Threads = 5;
  E.PruneSeen = false;
  E.CollectStats = true;

  ByteWriter W;
  writeExplorerOptions(W, E);
  std::vector<uint8_t> Bytes = W.take();
  ByteReader R(Bytes);
  ExplorerOptions E2;
  ASSERT_TRUE(readExplorerOptions(R, E2));
  ASSERT_TRUE(R.done());
  ByteWriter W2;
  writeExplorerOptions(W2, E2);
  EXPECT_EQ(Bytes, W2.buffer());
  EXPECT_EQ(E2.IndirectTargets, E.IndirectTargets);
  EXPECT_EQ(E2.Threads, 5u);
  EXPECT_FALSE(E2.PruneSeen);
  EXPECT_TRUE(E2.CollectStats);
  EXPECT_EQ(E2.MaxLeaks, 99u);

  MachineOptions M;
  M.Addressing = AddrMode::BaseIndexScale;
  M.StackGrowsDown = false;
  M.StackStep = 2;
  M.RsbOnEmpty = RsbPolicy::Circular;
  M.RsbCircularSize = 4;
  ByteWriter WM;
  writeMachineOptions(WM, M);
  ByteReader RM(WM.buffer());
  MachineOptions M2;
  ASSERT_TRUE(readMachineOptions(RM, M2));
  ASSERT_TRUE(RM.done());
  EXPECT_EQ(M2.Addressing, AddrMode::BaseIndexScale);
  EXPECT_EQ(M2.RsbOnEmpty, RsbPolicy::Circular);
  EXPECT_EQ(M2.RsbCircularSize, 4u);

  PassConfig P;
  P.MinimizeWitnesses = true;
  P.Minimize.MaxReplays = 42;
  P.Minimize.Threads = 3;
  P.ProveSps = true;
  P.Sps.MaxTapes = 17;
  P.Sps.DepthToWindow = true;
  ByteWriter WP;
  writePassConfig(WP, P);
  ByteReader RP(WP.buffer());
  PassConfig P2;
  ASSERT_TRUE(readPassConfig(RP, P2));
  ASSERT_TRUE(RP.done());
  EXPECT_TRUE(P2.MinimizeWitnesses);
  EXPECT_EQ(P2.Minimize.MaxReplays, 42u);
  EXPECT_EQ(P2.Minimize.Threads, 3u);
  EXPECT_TRUE(P2.ProveSps);
  EXPECT_EQ(P2.Sps.MaxTapes, 17u);
  EXPECT_TRUE(P2.Sps.DepthToWindow);
}

TEST(Serialization, OptionsRejectOutOfRangeEnums) {
  ByteWriter W;
  MachineOptions M;
  writeMachineOptions(W, M);
  std::vector<uint8_t> Bytes = W.take();
  Bytes[0] = 0xFF; // Addressing enum out of range.
  ByteReader R(Bytes);
  MachineOptions M2;
  EXPECT_FALSE(readMachineOptions(R, M2));

  // A zero speculation bound is one explore() would refuse to run.
  ExplorerOptions E;
  E.SpeculationBound = 0;
  ByteWriter WE;
  writeExplorerOptions(WE, E);
  ByteReader RE(WE.buffer());
  ExplorerOptions E2;
  EXPECT_FALSE(readExplorerOptions(RE, E2));
}

TEST(Serialization, FingerprintNormalizesExecutionKnobsOnly) {
  ExplorerOptions E = v1v11Mode();
  MachineOptions M;
  PassConfig P;
  uint64_t Base = optionsFingerprint(E, M, P);

  // The determinism contract's knob: fingerprint-invariant.
  ExplorerOptions T = E;
  T.Threads = 16;
  EXPECT_EQ(optionsFingerprint(T, M, P), Base);

  // Everything behavior-affecting separates (the completeness invariant).
  ExplorerOptions B1 = E;
  B1.SpeculationBound += 1;
  EXPECT_NE(optionsFingerprint(B1, M, P), Base);
  ExplorerOptions B2 = E;
  B2.MaxLeaks -= 1;
  EXPECT_NE(optionsFingerprint(B2, M, P), Base);
  MachineOptions M2;
  M2.Addressing = AddrMode::BaseIndexScale;
  EXPECT_NE(optionsFingerprint(E, M2, P), Base);
  PassConfig P2;
  P2.MinimizeWitnesses = true;
  EXPECT_NE(optionsFingerprint(E, M, P2), Base);
  PassConfig P3;
  P3.Minimize.MaxReplays -= 1;
  EXPECT_NE(optionsFingerprint(E, M, P3), Base);
}

//===-------------------------------------------------------- result trips ---===//

TEST(Serialization, ExploredCheckResultRoundTripsByteExact) {
  // Real results with leak records, minimized schedules, and an SPS
  // report — the full payload a cache entry carries.
  SuiteCase C = kocherCases().front();
  SessionOptions SOpts;
  SOpts.Threads = 1;
  SOpts.Passes.MinimizeWitnesses = true;
  CheckSession Session(SOpts);
  CheckRequest Req;
  Req.Id = C.Id;
  Req.Prog = C.Prog;
  Req.Opts = v1v11Mode();
  CheckResult Res = Session.check(Req);
  ASSERT_FALSE(Res.Exploration.Leaks.empty());
  ASSERT_TRUE(Res.Minimization.has_value());

  std::vector<uint8_t> Bytes = serializeCheckResult(Res);
  std::optional<CheckResult> Back = deserializeCheckResult(Bytes);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Bytes, serializeCheckResult(*Back));
  EXPECT_EQ(Back->Id, Res.Id);
  EXPECT_EQ(Back->Seconds, Res.Seconds);
  // Fork-copy accounting is serialized: a real exploration forked at
  // least once, and the counters survive the trip.
  EXPECT_GT(Res.Exploration.ConfigsForked, 0u);
  EXPECT_EQ(Back->Exploration.ConfigsForked, Res.Exploration.ConfigsForked);
  EXPECT_EQ(Back->Exploration.RobBytesCopied, Res.Exploration.RobBytesCopied);
  EXPECT_EQ(Back->Exploration.RobBytesFlat, Res.Exploration.RobBytesFlat);
  ASSERT_EQ(Back->Exploration.Leaks.size(), Res.Exploration.Leaks.size());
  for (size_t I = 0; I < Res.Exploration.Leaks.size(); ++I) {
    const LeakRecord &A = Res.Exploration.Leaks[I];
    const LeakRecord &B = Back->Exploration.Leaks[I];
    EXPECT_EQ(A.Sched, B.Sched);
    EXPECT_EQ(A.MinSched, B.MinSched);
    EXPECT_EQ(A.Origin, B.Origin);
    EXPECT_EQ(A.Rule, B.Rule);
    EXPECT_EQ(A.key(), B.key());
  }
  ASSERT_TRUE(Back->Minimization.has_value());
  EXPECT_EQ(Back->Minimization->Replays, Res.Minimization->Replays);

  // An SPS-settled result too.
  SessionOptions SpsOpts;
  SpsOpts.Passes.ProveSps = true;
  CheckSession SpsSession(SpsOpts);
  CheckRequest SpsReq;
  SpsReq.Id = "sps/" + C.Id;
  SpsReq.Prog = C.Prog;
  SpsReq.Opts = v1v11Mode();
  CheckResult SpsRes = SpsSession.check(SpsReq);
  std::vector<uint8_t> SpsBytes = serializeCheckResult(SpsRes);
  std::optional<CheckResult> SpsBack = deserializeCheckResult(SpsBytes);
  ASSERT_TRUE(SpsBack.has_value());
  EXPECT_EQ(SpsBytes, serializeCheckResult(*SpsBack));
  ASSERT_EQ(SpsBack->Sps.has_value(), SpsRes.Sps.has_value());
  if (SpsRes.Sps) {
    EXPECT_EQ(SpsBack->Sps->Verdict, SpsRes.Sps->Verdict);
    EXPECT_EQ(SpsBack->Sps->CounterExamples.size(),
              SpsRes.Sps->CounterExamples.size());
  }

  // Every pass at once: minimized witnesses beside an SPS report under
  // the depth-to-window translation.
  SessionOptions AllOpts;
  AllOpts.Threads = 1;
  AllOpts.Passes.MinimizeWitnesses = true;
  AllOpts.Passes.ProveSps = true;
  AllOpts.Passes.Sps.DepthToWindow = true;
  CheckSession AllSession(AllOpts);
  std::vector<SuiteCase> Kocher = kocherCases();
  for (size_t I = 0; I < 3; ++I) {
    const SuiteCase &K = Kocher[I];
    CheckRequest AllReq;
    AllReq.Id = "all/" + K.Id;
    AllReq.Prog = K.Prog;
    AllReq.Opts = v1v11Mode();
    CheckResult AllRes = AllSession.check(AllReq);
    ASSERT_TRUE(AllRes.Sps.has_value()) << K.Id;
    EXPECT_TRUE(AllRes.Minimization.has_value() || AllRes.Sps->conclusive())
        << K.Id;
    std::vector<uint8_t> AllBytes = serializeCheckResult(AllRes);
    std::optional<CheckResult> AllBack = deserializeCheckResult(AllBytes);
    ASSERT_TRUE(AllBack.has_value()) << K.Id;
    EXPECT_EQ(AllBytes, serializeCheckResult(*AllBack)) << K.Id;
  }
}

TEST(Serialization, ResultRejectsVersionSkewAndBitFlips) {
  SuiteCase C = kocherCases().front();
  CheckSession Session;
  CheckResult Res = Session.check(C.Prog, v1v11Mode());
  std::vector<uint8_t> Bytes = serializeCheckResult(Res);

  std::vector<uint8_t> Skew = Bytes;
  Skew[0] ^= 1; // Version header.
  EXPECT_FALSE(deserializeCheckResult(Skew).has_value());

  // Truncation at every length must fail or fully account for the bytes;
  // the trailing-byte check (done()) rejects prefix-parses.
  for (size_t Len = 0; Len < Bytes.size(); Len += 11)
    EXPECT_FALSE(
        deserializeCheckResult(std::span<const uint8_t>(Bytes.data(), Len))
            .has_value())
        << "len " << Len;
}

//===--------------------------------------------------------- cache layer ---===//

namespace {

class CacheDirGuard {
public:
  CacheDirGuard()
      : Dir((std::filesystem::temp_directory_path() /
             ("sct-cache-test-" +
              std::to_string(
                  ::testing::UnitTest::GetInstance()->random_seed()) +
              "-" + std::to_string(reinterpret_cast<uintptr_t>(this))))
                .string()) {
    std::filesystem::remove_all(Dir);
  }
  ~CacheDirGuard() { std::filesystem::remove_all(Dir); }
  const std::string &path() const { return Dir; }

private:
  std::string Dir;
};

} // namespace

TEST(ResultCacheTest, HitServesIdenticalResultAndCountsStores) {
  CacheDirGuard Dir;
  SessionOptions SOpts;
  SOpts.CacheDir = Dir.path();
  SuiteCase C = kocherCases().front();

  CheckRequest Req;
  Req.Id = C.Id;
  Req.Prog = C.Prog;
  Req.Opts = v1v11Mode();

  CheckSession Cold(SOpts);
  ASSERT_NE(Cold.cache(), nullptr);
  CheckResult R1 = Cold.check(Req);
  EXPECT_FALSE(R1.FromCache);
  EXPECT_EQ(Cold.cache()->hits(), 0u);
  EXPECT_EQ(Cold.cache()->misses(), 1u);
  EXPECT_EQ(Cold.cache()->stores(), 1u);

  CheckSession Warm(SOpts);
  CheckResult R2 = Warm.check(Req);
  EXPECT_TRUE(R2.FromCache);
  EXPECT_EQ(Warm.cache()->hits(), 1u);
  EXPECT_EQ(serializeCheckResult(R1), serializeCheckResult(R2));
  EXPECT_EQ(R2.Id, Req.Id);

  // A different pass config is a different address.
  CheckRequest Minimizing = Req;
  Minimizing.Passes.emplace().MinimizeWitnesses = true;
  CheckResult R3 = Warm.check(Minimizing);
  EXPECT_FALSE(R3.FromCache);
  EXPECT_TRUE(R3.Minimization.has_value());
}

TEST(ResultCacheTest, CorruptedAndTruncatedEntriesAreMisses) {
  CacheDirGuard Dir;
  SuiteCase C = kocherCases().front();
  CheckRequest Req;
  Req.Id = C.Id;
  Req.Prog = C.Prog;
  Req.Opts = v1v11Mode();
  PassConfig Passes;

  ResultCache Cache(Dir.path());
  ASSERT_TRUE(Cache.ok());
  std::optional<ResultCache::Key> Key = ResultCache::keyFor(Req, Passes);
  ASSERT_TRUE(Key.has_value());

  CheckSession Session;
  CheckResult Res = Session.check(Req);
  ASSERT_TRUE(Cache.store(*Key, Res));
  ASSERT_TRUE(Cache.lookup(*Key).has_value());

  // Locate the entry file.
  std::string EntryPath;
  for (const auto &E : std::filesystem::directory_iterator(Dir.path()))
    EntryPath = E.path().string();
  ASSERT_FALSE(EntryPath.empty());
  std::ifstream In(EntryPath, std::ios::binary);
  std::vector<char> Bytes((std::istreambuf_iterator<char>(In)),
                          std::istreambuf_iterator<char>());
  In.close();

  auto WriteEntry = [&](const std::vector<char> &B) {
    std::ofstream Out(EntryPath, std::ios::binary | std::ios::trunc);
    Out.write(B.data(), static_cast<std::streamsize>(B.size()));
  };

  // Flip one payload byte: checksum rejects, lookup is a miss.
  std::vector<char> Flipped = Bytes;
  Flipped[Bytes.size() / 2] ^= 0x40;
  WriteEntry(Flipped);
  EXPECT_FALSE(Cache.lookup(*Key).has_value());

  // Truncate at several points: always a miss, never a crash.
  for (size_t Len : {size_t(0), size_t(7), Bytes.size() / 2,
                     Bytes.size() - 1}) {
    WriteEntry(std::vector<char>(Bytes.begin(), Bytes.begin() + Len));
    EXPECT_FALSE(Cache.lookup(*Key).has_value()) << "len " << Len;
  }

  // Restore the pristine bytes: hits again (the file, not some in-memory
  // state, is what is being validated).
  WriteEntry(Bytes);
  EXPECT_TRUE(Cache.lookup(*Key).has_value());

  // A session that cannot create its directory runs uncached.
  std::string BadDir = EntryPath; // A file, not a directory.
  ResultCache Bad(BadDir + "/sub");
  EXPECT_FALSE(Bad.ok());
}

TEST(ResultCacheTest, CacheableExcludesCustomInit) {
  SuiteCase C = kocherCases().front();
  CheckRequest Req;
  Req.Prog = C.Prog;
  Req.Opts = v4Mode();
  ASSERT_TRUE(cacheable(Req));

  CheckRequest WithInit = Req;
  WithInit.Init = Configuration::initial(C.Prog);
  EXPECT_FALSE(cacheable(WithInit));
}

TEST(ResultCacheTest, CheckManyWarmPassIsAllHits) {
  CacheDirGuard Dir;
  SessionOptions SOpts;
  SOpts.CacheDir = Dir.path();
  SOpts.Threads = 2;

  std::vector<CheckRequest> Reqs;
  for (size_t I = 0; I < 4 && I < kocherCases().size(); ++I) {
    CheckRequest Req;
    Req.Id = kocherCases()[I].Id;
    Req.Prog = kocherCases()[I].Prog;
    Req.Opts = v1v11Mode();
    Reqs.push_back(std::move(Req));
  }

  CheckSession Cold(SOpts);
  std::vector<CheckResult> R1 =
      Cold.checkMany(std::span<const CheckRequest>(Reqs));
  EXPECT_EQ(Cold.cache()->stores(), Reqs.size());

  CheckSession Warm(SOpts);
  std::vector<CheckResult> R2 =
      Warm.checkMany(std::span<const CheckRequest>(Reqs));
  EXPECT_EQ(Warm.cache()->hits(), Reqs.size());
  for (size_t I = 0; I < Reqs.size(); ++I) {
    EXPECT_TRUE(R2[I].FromCache) << Reqs[I].Id;
    EXPECT_EQ(serializeCheckResult(R1[I]), serializeCheckResult(R2[I]))
        << Reqs[I].Id;
  }
}

TEST(ResultCacheTest, ParallelCachePassMatchesSequential) {
  // checkMany looks keys up on the session's workers.  A warm batch of N
  // hits and one miss at Threads=4 must serve the bytes a Threads=1 pass
  // serves, count N hits, and leave the miss the whole thread budget:
  // with one pending request the per-program split is 4 / min(4, 1).
  std::vector<CheckRequest> Reqs;
  for (const SuiteCase &C : kocherCases()) {
    CheckRequest Req;
    Req.Id = C.Id;
    Req.Prog = C.Prog;
    Req.Opts = v1v11Mode();
    Reqs.push_back(std::move(Req));
  }
  ASSERT_GE(Reqs.size(), 8u);
  const size_t Miss = Reqs.size() / 2;
  std::vector<CheckRequest> Warm;
  for (size_t I = 0; I < Reqs.size(); ++I)
    if (I != Miss)
      Warm.push_back(Reqs[I]);

  CacheDirGuard Sequential, Parallel;
  SessionOptions SOpts;
  SOpts.Threads = 1;
  SOpts.CacheDir = Sequential.path();
  CheckSession(SOpts).checkMany(std::span<const CheckRequest>(Warm));
  std::filesystem::copy(Sequential.path(), Parallel.path(),
                        std::filesystem::copy_options::recursive);

  CheckSession One(SOpts);
  std::vector<CheckResult> R1 =
      One.checkMany(std::span<const CheckRequest>(Reqs));
  SOpts.Threads = 4;
  SOpts.CacheDir = Parallel.path();
  CheckSession Four(SOpts);
  std::vector<CheckResult> R4 =
      Four.checkMany(std::span<const CheckRequest>(Reqs));

  ASSERT_EQ(R4.size(), Reqs.size());
  EXPECT_EQ(Four.cache()->hits(), Warm.size());
  EXPECT_EQ(Four.cache()->misses(), 1u);
  for (size_t I = 0; I < Reqs.size(); ++I) {
    SCOPED_TRACE(Reqs[I].Id);
    EXPECT_EQ(R4[I].Id, Reqs[I].Id);
    EXPECT_EQ(R4[I].FromCache, I != Miss);
    if (I != Miss) {
      EXPECT_EQ(serializeCheckResult(R1[I]), serializeCheckResult(R4[I]));
    }
  }
  EXPECT_EQ(R1[Miss].Opts.Threads, 1u);
  EXPECT_EQ(R4[Miss].Opts.Threads, 4u);
}

TEST(ResultCacheTest, UncacheableRequestsAreComputedNotStored) {
  // A custom initial configuration makes a request's outcome depend on
  // state the key cannot see: inside a cached batch it is computed every
  // time, never stored, and comes out as an uncached session computes it.
  CacheDirGuard Dir;
  std::vector<CheckRequest> Reqs;
  for (size_t I = 0; I < 4 && I < kocherCases().size(); ++I) {
    CheckRequest Req;
    Req.Id = kocherCases()[I].Id;
    Req.Prog = kocherCases()[I].Prog;
    Req.Opts = v1v11Mode();
    Reqs.push_back(std::move(Req));
  }
  ASSERT_EQ(Reqs.size(), 4u);
  Reqs[2].Init = Configuration::initial(Reqs[2].Prog);

  SessionOptions Plain;
  Plain.Threads = 1;
  std::vector<CheckResult> Expected =
      CheckSession(Plain).checkMany(std::span<const CheckRequest>(Reqs));

  SessionOptions Cached = Plain;
  Cached.CacheDir = Dir.path();
  CheckSession Session(Cached);
  // The second batch serves the three cacheable requests from disk and
  // computes the other one again.
  for (int Pass = 0; Pass < 2; ++Pass) {
    std::vector<CheckResult> Got =
        Session.checkMany(std::span<const CheckRequest>(Reqs));
    ASSERT_EQ(Got.size(), Reqs.size());
    for (size_t I = 0; I < Reqs.size(); ++I) {
      SCOPED_TRACE("pass " + std::to_string(Pass) + " " + Reqs[I].Id);
      EXPECT_EQ(Got[I].FromCache, Pass == 1 && cacheable(Reqs[I]));
      // Wall-clock is the only field that may differ between runs.
      CheckResult A = Expected[I], B = Got[I];
      A.Seconds = B.Seconds = 0;
      EXPECT_EQ(serializeCheckResult(A), serializeCheckResult(B));
    }
  }
  EXPECT_EQ(Session.cache()->stores(), 3u);
  EXPECT_EQ(Session.cache()->hits(), 3u);
}
