//===- engine/Serialization.cpp - Binary cache format -----------------------===//

#include "engine/Serialization.h"

#include "isa/ProgramBuilder.h"
#include "support/Hashing.h"

#include <cstring>

using namespace sct;

namespace {

// ---------------------------------------------------------------- basics ---

void writeOperand(ByteWriter &W, const Operand &Op) {
  W.b(Op.isReg());
  if (Op.isReg())
    W.u16(Op.getReg().id());
  else
    W.u64(Op.getImm());
}

std::optional<Operand> readOperand(ByteReader &R, unsigned NumRegs) {
  if (R.b()) {
    uint16_t Id = R.u16();
    if (!R.ok() || Id >= NumRegs)
      return std::nullopt;
    return Operand::reg(Reg(Id));
  }
  uint64_t Imm = R.u64();
  if (!R.ok())
    return std::nullopt;
  return Operand::imm(Imm);
}

void writeOperands(ByteWriter &W, const std::vector<Operand> &Ops) {
  W.u64(Ops.size());
  for (const Operand &Op : Ops)
    writeOperand(W, Op);
}

std::optional<std::vector<Operand>> readOperands(ByteReader &R,
                                                 unsigned NumRegs) {
  uint64_t N = R.count(3); // 1 tag byte + u16 register id at minimum.
  if (!R.ok())
    return std::nullopt;
  std::vector<Operand> Ops;
  Ops.reserve(static_cast<size_t>(N));
  for (uint64_t I = 0; I < N; ++I) {
    std::optional<Operand> Op = readOperand(R, NumRegs);
    if (!Op)
      return std::nullopt;
    Ops.push_back(*Op);
  }
  return Ops;
}

std::optional<Reg> readReg(ByteReader &R, unsigned NumRegs) {
  uint16_t Id = R.u16();
  if (!R.ok() || Id >= NumRegs)
    return std::nullopt;
  return Reg(Id);
}

std::optional<Opcode> readOpcode(ByteReader &R) {
  uint8_t V = R.u8();
  if (!R.ok() || V > static_cast<uint8_t>(Opcode::Pred))
    return std::nullopt;
  return static_cast<Opcode>(V);
}

// ----------------------------------------------------------- instructions ---

void writeInstruction(ByteWriter &W, const Instruction &I) {
  W.u8(static_cast<uint8_t>(I.kind()));
  switch (I.kind()) {
  case InstrKind::Op:
    W.u16(I.dest().id());
    W.u8(static_cast<uint8_t>(I.opcode()));
    writeOperands(W, I.args());
    break;
  case InstrKind::Branch:
    W.u8(static_cast<uint8_t>(I.opcode()));
    writeOperands(W, I.args());
    W.u32(I.trueTarget());
    W.u32(I.falseTarget());
    break;
  case InstrKind::Load:
    W.u16(I.dest().id());
    writeOperands(W, I.args());
    break;
  case InstrKind::Store:
    writeOperand(W, I.storeValue());
    writeOperands(W, I.args());
    break;
  case InstrKind::JumpI:
  case InstrKind::CallI:
    writeOperands(W, I.args());
    break;
  case InstrKind::Call:
    W.u32(I.callee());
    break;
  case InstrKind::Ret:
  case InstrKind::Fence:
    break;
  }
  W.u32(I.next());
}

/// Reads one instruction.  The bytes are untrusted (a cache entry may be
/// truncated or crafted), so every precondition the Instruction factories
/// only assert — operand arity, non-empty address operands, a condition
/// opcode on branches — is checked here first and fails the read.
std::optional<Instruction> readInstruction(ByteReader &R, unsigned NumRegs) {
  uint8_t RawKind = R.u8();
  if (!R.ok() || RawKind > static_cast<uint8_t>(InstrKind::Fence))
    return std::nullopt;
  std::optional<Instruction> I;
  switch (static_cast<InstrKind>(RawKind)) {
  case InstrKind::Op: {
    std::optional<Reg> Dest = readReg(R, NumRegs);
    std::optional<Opcode> Opc = readOpcode(R);
    std::optional<std::vector<Operand>> Args = readOperands(R, NumRegs);
    if (!Dest || !Opc || !Args || Args->size() != opcodeArity(*Opc))
      return std::nullopt;
    I = Instruction::makeOp(*Dest, *Opc, std::move(*Args));
    break;
  }
  case InstrKind::Branch: {
    std::optional<Opcode> Opc = readOpcode(R);
    std::optional<std::vector<Operand>> Args = readOperands(R, NumRegs);
    PC NTrue = R.u32(), NFalse = R.u32();
    if (!Opc || !Args || !R.ok() || !isCondition(*Opc) ||
        Args->size() != opcodeArity(*Opc))
      return std::nullopt;
    I = Instruction::makeBranch(*Opc, std::move(*Args), NTrue, NFalse);
    break;
  }
  case InstrKind::Load: {
    std::optional<Reg> Dest = readReg(R, NumRegs);
    std::optional<std::vector<Operand>> Args = readOperands(R, NumRegs);
    if (!Dest || !Args || Args->empty())
      return std::nullopt;
    I = Instruction::makeLoad(*Dest, std::move(*Args));
    break;
  }
  case InstrKind::Store: {
    std::optional<Operand> Val = readOperand(R, NumRegs);
    std::optional<std::vector<Operand>> Args = readOperands(R, NumRegs);
    if (!Val || !Args || Args->empty())
      return std::nullopt;
    I = Instruction::makeStore(*Val, std::move(*Args));
    break;
  }
  case InstrKind::JumpI: {
    std::optional<std::vector<Operand>> Args = readOperands(R, NumRegs);
    if (!Args || Args->empty())
      return std::nullopt;
    I = Instruction::makeJumpI(std::move(*Args));
    break;
  }
  case InstrKind::CallI: {
    std::optional<std::vector<Operand>> Args = readOperands(R, NumRegs);
    if (!Args || Args->empty())
      return std::nullopt;
    I = Instruction::makeCallI(std::move(*Args));
    break;
  }
  case InstrKind::Call:
    I = Instruction::makeCall(R.u32());
    break;
  case InstrKind::Ret:
    I = Instruction::makeRet();
    break;
  case InstrKind::Fence:
    I = Instruction::makeFence();
    break;
  }
  PC Next = R.u32();
  if (!R.ok())
    return std::nullopt;
  I->setNext(Next);
  return I;
}

// -------------------------------------------------- schedules/observations ---

void writeDirective(ByteWriter &W, const Directive &D) {
  W.u8(static_cast<uint8_t>(D.K));
  W.b(D.Guess);
  W.u32(D.Target);
  W.u64(D.Idx);
  W.u64(D.FwdFrom);
}

bool readDirective(ByteReader &R, Directive &D) {
  uint8_t K = R.u8();
  if (!R.ok() || K > static_cast<uint8_t>(Directive::Kind::Retire))
    return false;
  D.K = static_cast<Directive::Kind>(K);
  D.Guess = R.b();
  D.Target = R.u32();
  D.Idx = R.u64();
  D.FwdFrom = R.u64();
  return R.ok();
}

void writeSchedule(ByteWriter &W, const Schedule &S) {
  W.u64(S.size());
  for (const Directive &D : S)
    writeDirective(W, D);
}

bool readSchedule(ByteReader &R, Schedule &S) {
  uint64_t N = R.count(22); // Serialized directive size.
  S.resize(static_cast<size_t>(N));
  for (Directive &D : S)
    if (!readDirective(R, D))
      return false;
  return R.ok();
}

void writeObservation(ByteWriter &W, const Observation &O) {
  W.u8(static_cast<uint8_t>(O.K));
  W.b(O.Rollback);
  W.u64(O.Payload.Bits);
  W.u64(O.Payload.Taint.mask());
}

bool readObservation(ByteReader &R, Observation &O) {
  uint8_t K = R.u8();
  if (!R.ok() || K > static_cast<uint8_t>(Observation::Kind::Jump))
    return false;
  O.K = static_cast<Observation::Kind>(K);
  O.Rollback = R.b();
  uint64_t Bits = R.u64();
  O.Payload = Value(Bits, Label::fromMask(R.u64()));
  return R.ok();
}

void writeLeakRecord(ByteWriter &W, const LeakRecord &L) {
  writeSchedule(W, L.Sched);
  writeObservation(W, L.Obs);
  W.u32(L.Origin);
  W.u8(static_cast<uint8_t>(L.Rule));
  writeSchedule(W, L.MinSched);
}

bool readLeakRecord(ByteReader &R, LeakRecord &L) {
  if (!readSchedule(R, L.Sched))
    return false;
  if (!readObservation(R, L.Obs))
    return false;
  L.Origin = R.u32();
  uint8_t Rule = R.u8();
  if (!R.ok() || Rule > static_cast<uint8_t>(RuleId::RetRetire))
    return false;
  L.Rule = static_cast<RuleId>(Rule);
  return readSchedule(R, L.MinSched);
}

// ------------------------------------------------------------ sub-options ---

void writeMinimizeOptions(ByteWriter &W, const MinimizeOptions &O) {
  W.u64(O.MaxReplays);
  W.u32(O.Threads);
}

bool readMinimizeOptions(ByteReader &R, MinimizeOptions &O) {
  O.MaxReplays = R.u64();
  O.Threads = R.u32();
  return R.ok();
}

void writeSpsOptions(ByteWriter &W, const SpsOptions &O) {
  W.u64(O.MaxTapes);
  W.u64(O.MaxRetiresPerTape);
  W.u64(O.MaxCounterExamples);
  W.b(O.StopAtFirstCounterExample);
  W.b(O.DepthToWindow);
}

bool readSpsOptions(ByteReader &R, SpsOptions &O) {
  O.MaxTapes = R.u64();
  O.MaxRetiresPerTape = static_cast<size_t>(R.u64());
  O.MaxCounterExamples = static_cast<size_t>(R.u64());
  O.StopAtFirstCounterExample = R.b();
  O.DepthToWindow = R.b();
  return R.ok();
}

// --------------------------------------------------------------- results ---

void writeMinimizeStats(ByteWriter &W, const MinimizeStats &S) {
  W.u64(S.RawDirectives);
  W.u64(S.MinimizedDirectives);
  W.u64(S.Replays);
  W.u64(S.ReplayedSteps);
  W.u64(S.SeededSteps);
  W.u64(S.SlicedExcursions);
  W.b(S.BudgetExhausted);
}

bool readMinimizeStats(ByteReader &R, MinimizeStats &S) {
  S.RawDirectives = R.u64();
  S.MinimizedDirectives = R.u64();
  S.Replays = R.u64();
  S.ReplayedSteps = R.u64();
  S.SeededSteps = R.u64();
  S.SlicedExcursions = R.u64();
  S.BudgetExhausted = R.b();
  return R.ok();
}

void writeExploreStats(ByteWriter &W, const ExploreStats &S) {
  W.u64(S.Seen.Entries);
  W.u64(S.Seen.Capacity);
  W.u64(S.Seen.Lookups);
  W.u64(S.Seen.Probes);
  W.u64(S.ForkInsertNew);
  W.u64(S.ForkInsertDup);
  W.u64(S.ConvergenceChecks);
  W.u64(S.ConvergencePrunes);
  W.u64(S.NewStatesPerDepth.size());
  for (uint64_t V : S.NewStatesPerDepth)
    W.u64(V);
}

bool readExploreStats(ByteReader &R, ExploreStats &S) {
  S.Seen.Entries = R.u64();
  S.Seen.Capacity = R.u64();
  S.Seen.Lookups = R.u64();
  S.Seen.Probes = R.u64();
  S.ForkInsertNew = R.u64();
  S.ForkInsertDup = R.u64();
  S.ConvergenceChecks = R.u64();
  S.ConvergencePrunes = R.u64();
  uint64_t N = R.count(8);
  S.NewStatesPerDepth.resize(static_cast<size_t>(N));
  for (uint64_t &V : S.NewStatesPerDepth)
    V = R.u64();
  return R.ok();
}

void writeSpsReport(ByteWriter &W, const SpsReport &S) {
  W.u8(static_cast<uint8_t>(S.Verdict));
  W.str(S.Reason);
  W.u64(S.CounterExamples.size());
  for (const SpsCounterExample &CE : S.CounterExamples) {
    W.u32(CE.Origin);
    W.b(CE.Speculative);
    writeObservation(W, CE.Obs);
    W.u32(CE.TransPC);
    W.u64(CE.Tape.size());
    for (uint64_t T : CE.Tape)
      W.u64(T);
  }
  W.b(S.Complete);
  W.u64(S.TapesRun);
  W.u64(S.RetiresTotal);
  W.f64(S.Seconds);
}

bool readSpsReport(ByteReader &R, SpsReport &S) {
  uint8_t V = R.u8();
  if (!R.ok() || V > static_cast<uint8_t>(SpsVerdict::Inconclusive))
    return false;
  S.Verdict = static_cast<SpsVerdict>(V);
  S.Reason = R.str();
  uint64_t N = R.count(28); // Serialized counterexample minimum size.
  S.CounterExamples.resize(static_cast<size_t>(N));
  for (SpsCounterExample &CE : S.CounterExamples) {
    CE.Origin = R.u32();
    CE.Speculative = R.b();
    if (!readObservation(R, CE.Obs))
      return false;
    CE.TransPC = R.u32();
    uint64_t TapeLen = R.count(8);
    CE.Tape.resize(static_cast<size_t>(TapeLen));
    for (uint64_t &T : CE.Tape)
      T = R.u64();
  }
  S.Complete = R.b();
  S.TapesRun = R.u64();
  S.RetiresTotal = R.u64();
  S.Seconds = R.f64();
  return R.ok();
}

void writeExploreResult(ByteWriter &W, const ExploreResult &E) {
  W.u64(E.Leaks.size());
  for (const LeakRecord &L : E.Leaks)
    writeLeakRecord(W, L);
  W.u64(E.LeakEvents);
  W.u64(E.SchedulesCompleted);
  W.u64(E.TotalSteps);
  W.u64(E.PrunedNodes);
  W.u64(E.Steals);
  W.u64(E.ConfigsForked);
  W.u64(E.RobBytesCopied);
  W.u64(E.RobBytesFlat);
  W.b(E.Stats.has_value());
  if (E.Stats)
    writeExploreStats(W, *E.Stats);
  W.b(E.Truncated);
}

bool readExploreResult(ByteReader &R, ExploreResult &E) {
  uint64_t N = R.count(16); // Two schedule counts minimum per record.
  E.Leaks.resize(static_cast<size_t>(N));
  for (LeakRecord &L : E.Leaks)
    if (!readLeakRecord(R, L))
      return false;
  E.LeakEvents = R.u64();
  E.SchedulesCompleted = R.u64();
  E.TotalSteps = R.u64();
  E.PrunedNodes = R.u64();
  E.Steals = R.u64();
  E.ConfigsForked = R.u64();
  E.RobBytesCopied = R.u64();
  E.RobBytesFlat = R.u64();
  if (R.b()) {
    E.Stats.emplace();
    if (!readExploreStats(R, *E.Stats))
      return false;
  }
  E.Truncated = R.b();
  return R.ok();
}

} // namespace

// ---------------------------------------------------------- public: program ---

void sct::writeProgram(ByteWriter &W, const Program &P) {
  W.u32(P.numRegs());
  for (unsigned I = 0; I < P.numRegs(); ++I)
    W.str(P.regName(Reg(static_cast<uint16_t>(I))));
  W.u64(P.text().size());
  for (const Instruction &I : P.text())
    writeInstruction(W, I);
  W.u64(P.regions().size());
  for (const MemRegion &M : P.regions()) {
    W.str(M.Name);
    W.u64(M.Base);
    W.u64(M.Size);
    W.u64(M.RegionLabel.mask());
  }
  W.u64(P.regInits().size());
  for (const auto &[R, V] : P.regInits()) {
    W.u16(R.id());
    W.u64(V);
  }
  W.u64(P.memInits().size());
  for (const auto &[A, V] : P.memInits()) {
    W.u64(A);
    W.u64(V);
  }
  W.u64(P.codeLabels().size());
  for (const auto &[Name, N] : P.codeLabels()) {
    W.str(Name);
    W.u32(N);
  }
  W.u32(P.entry());
}

std::optional<Program> sct::readProgram(ByteReader &R) {
  uint32_t NumRegs = R.u32();
  if (!R.ok() || NumRegs < Reg::FirstUserId || NumRegs > UINT16_MAX)
    return std::nullopt;
  // ProgramBuilder pre-declares the reserved pair; the stream must agree.
  ProgramBuilder B;
  for (uint32_t I = 0; I < NumRegs; ++I) {
    std::string Name = R.str();
    if (!R.ok())
      return std::nullopt;
    if (I == Reg::SpId || I == Reg::TmpId) {
      if (Name != (I == Reg::SpId ? "rsp" : "rtmp"))
        return std::nullopt;
      continue;
    }
    if (B.reg(Name).id() != I)
      return std::nullopt; // Duplicate or out-of-order register name.
  }
  uint64_t TextLen = R.count(5); // kind + next at minimum.
  if (TextLen > UINT32_MAX)
    return std::nullopt;
  for (uint64_t I = 0; I < TextLen; ++I) {
    std::optional<Instruction> Ins = readInstruction(R, NumRegs);
    if (!Ins)
      return std::nullopt;
    B.raw(std::move(*Ins));
  }
  uint64_t NumRegions = R.count(8);
  for (uint64_t I = 0; I < NumRegions; ++I) {
    std::string Name = R.str();
    uint64_t Base = R.u64(), Size = R.u64(), Mask = R.u64();
    if (!R.ok())
      return std::nullopt;
    B.region(Name, Base, Size, Label::fromMask(Mask));
  }
  uint64_t NumRegInits = R.count(10);
  for (uint64_t I = 0; I < NumRegInits; ++I) {
    uint16_t Id = R.u16();
    uint64_t V = R.u64();
    if (!R.ok() || Id >= NumRegs)
      return std::nullopt;
    B.init(Reg(Id), V);
  }
  uint64_t NumMemInits = R.count(16);
  for (uint64_t I = 0; I < NumMemInits; ++I) {
    uint64_t A = R.u64(), V = R.u64();
    if (!R.ok())
      return std::nullopt;
    B.data(A, {V});
  }
  uint64_t NumLabels = R.count(12);
  for (uint64_t I = 0; I < NumLabels; ++I) {
    std::string Name = R.str();
    PC N = R.u32();
    if (!R.ok() || N > TextLen)
      return std::nullopt;
    B.labelAtPC(Name, N);
  }
  PC Entry = R.u32();
  if (!R.ok() || (Entry != 0 && Entry > TextLen))
    return std::nullopt;
  B.entryPC(Entry);
  return B.build();
}

// ---------------------------------------------------------- public: options ---

void sct::writeExplorerOptions(ByteWriter &W, const ExplorerOptions &O) {
  W.u32(O.SpeculationBound);
  W.b(O.ExploreForwardingHazards);
  W.b(O.ExhaustiveForwardForks);
  W.u32(O.MaxBranchDepth);
  W.b(O.ExploreAliasPrediction);
  W.u64(O.IndirectTargets.size());
  for (PC N : O.IndirectTargets)
    W.u32(N);
  W.u64(O.RsbUnderflowTargets.size());
  for (PC N : O.RsbUnderflowTargets)
    W.u32(N);
  W.u64(O.MaxSchedules);
  W.u64(O.MaxStepsPerSchedule);
  W.u64(O.MaxTotalSteps);
  W.u64(O.MaxLeaks);
  W.b(O.StopAtFirstLeak);
  W.u32(O.Threads);
  W.b(O.PruneSeen);
  W.b(O.CollectStats);
}

bool sct::readExplorerOptions(ByteReader &R, ExplorerOptions &O) {
  O.SpeculationBound = R.u32();
  // explore() rejects bound 0, so no stored options can carry it.
  if (!R.ok() || O.SpeculationBound == 0)
    return false;
  O.ExploreForwardingHazards = R.b();
  O.ExhaustiveForwardForks = R.b();
  O.MaxBranchDepth = R.u32();
  O.ExploreAliasPrediction = R.b();
  uint64_t NI = R.count(4);
  O.IndirectTargets.resize(static_cast<size_t>(NI));
  for (PC &N : O.IndirectTargets)
    N = R.u32();
  uint64_t NR = R.count(4);
  O.RsbUnderflowTargets.resize(static_cast<size_t>(NR));
  for (PC &N : O.RsbUnderflowTargets)
    N = R.u32();
  O.MaxSchedules = R.u64();
  O.MaxStepsPerSchedule = R.u64();
  O.MaxTotalSteps = R.u64();
  O.MaxLeaks = static_cast<size_t>(R.u64());
  O.StopAtFirstLeak = R.b();
  O.Threads = R.u32();
  O.PruneSeen = R.b();
  O.CollectStats = R.b();
  return R.ok();
}

void sct::writeMachineOptions(ByteWriter &W, const MachineOptions &O) {
  W.u8(static_cast<uint8_t>(O.Addressing));
  W.b(O.StackGrowsDown);
  W.u64(O.StackStep);
  W.u8(static_cast<uint8_t>(O.RsbOnEmpty));
  W.u32(O.RsbCircularSize);
}

bool sct::readMachineOptions(ByteReader &R, MachineOptions &O) {
  uint8_t Addr = R.u8();
  if (!R.ok() || Addr > static_cast<uint8_t>(AddrMode::BaseIndexScale))
    return false;
  O.Addressing = static_cast<AddrMode>(Addr);
  O.StackGrowsDown = R.b();
  O.StackStep = R.u64();
  uint8_t Rsb = R.u8();
  if (!R.ok() || Rsb > static_cast<uint8_t>(RsbPolicy::Circular))
    return false;
  O.RsbOnEmpty = static_cast<RsbPolicy>(Rsb);
  O.RsbCircularSize = R.u32();
  return R.ok();
}

void sct::writePassConfig(ByteWriter &W, const PassConfig &P) {
  W.b(P.MinimizeWitnesses);
  writeMinimizeOptions(W, P.Minimize);
  W.b(P.ProveSps);
  writeSpsOptions(W, P.Sps);
}

bool sct::readPassConfig(ByteReader &R, PassConfig &P) {
  P.MinimizeWitnesses = R.b();
  if (!readMinimizeOptions(R, P.Minimize))
    return false;
  P.ProveSps = R.b();
  return readSpsOptions(R, P.Sps);
}

// ---------------------------------------------------------- public: results ---

void sct::writeCheckResult(ByteWriter &W, const CheckResult &Res) {
  W.str(Res.Id);
  writeExploreResult(W, Res.Exploration);
  writeExplorerOptions(W, Res.Opts);
  W.f64(Res.Seconds);
  W.b(Res.Minimization.has_value());
  if (Res.Minimization)
    writeMinimizeStats(W, *Res.Minimization);
  W.b(Res.Sps.has_value());
  if (Res.Sps)
    writeSpsReport(W, *Res.Sps);
  // FromCache is per-lookup state, never stored.
}

bool sct::readCheckResult(ByteReader &R, CheckResult &Res) {
  Res.Id = R.str();
  if (!readExploreResult(R, Res.Exploration))
    return false;
  if (!readExplorerOptions(R, Res.Opts))
    return false;
  Res.Seconds = R.f64();
  if (R.b()) {
    Res.Minimization.emplace();
    if (!readMinimizeStats(R, *Res.Minimization))
      return false;
  }
  if (R.b()) {
    Res.Sps.emplace();
    if (!readSpsReport(R, *Res.Sps))
      return false;
  }
  return R.ok();
}

// ----------------------------------------------------- public: keys/payloads ---

uint64_t sct::hashBytes(std::span<const uint8_t> Bytes) {
  uint64_t H = HashSeed;
  size_t I = 0;
  for (; I + 8 <= Bytes.size(); I += 8) {
    uint64_t Word;
    std::memcpy(&Word, Bytes.data() + I, 8);
    H = hashCombine(H, Word);
  }
  uint64_t Tail = 0;
  for (unsigned B = 0; I < Bytes.size(); ++I, ++B)
    Tail |= static_cast<uint64_t>(Bytes[I]) << (8 * B);
  H = hashCombine(H, Tail);
  return hashCombine(H, Bytes.size());
}

uint64_t sct::programHash(const Program &P) {
  ByteWriter W;
  writeProgram(W, P);
  return hashBytes(W.buffer());
}

uint64_t sct::optionsFingerprint(const ExplorerOptions &EOpts,
                                 const MachineOptions &MOpts,
                                 const PassConfig &Passes) {
  // Normalize the execution knob the determinism contract proves
  // irrelevant to the verdict: thread count.  Everything else — budgets,
  // attacker power, pass configuration — is behavior-affecting and must
  // stay in (the cache-key completeness invariant, docs/ARCHITECTURE.md).
  ExplorerOptions Norm = EOpts;
  Norm.Threads = 0;
  ByteWriter W;
  W.u32(SerializationFormatVersion);
  writeExplorerOptions(W, Norm);
  writeMachineOptions(W, MOpts);
  writePassConfig(W, Passes);
  return hashBytes(W.buffer());
}

std::vector<uint8_t> sct::serializeCheckResult(const CheckResult &Res) {
  ByteWriter W;
  W.u32(SerializationFormatVersion);
  writeCheckResult(W, Res);
  return W.take();
}

std::optional<CheckResult>
sct::deserializeCheckResult(std::span<const uint8_t> Payload) {
  ByteReader R(Payload);
  if (R.u32() != SerializationFormatVersion)
    return std::nullopt;
  CheckResult Res;
  if (!readCheckResult(R, Res) || !R.done())
    return std::nullopt;
  return Res;
}
