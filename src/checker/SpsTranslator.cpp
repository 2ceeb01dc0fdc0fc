//===- checker/SpsTranslator.cpp - Speculation-passing-style form -----------===//

#include "checker/SpsTranslator.h"

#include "isa/ProgramBuilder.h"

#include <cassert>

using namespace sct;

namespace {

/// Harness memory layout, all above SpsTranslation::HarnessBase.  None of
/// these are declared as regions: unwritten harness words read as
/// 0_public, which is exactly the "predict correctly" oracle default.
constexpr uint64_t SaveBase = SpsTranslation::HarnessBase + 0x0000000;
constexpr uint64_t UndoBase = SpsTranslation::HarnessBase + 0x0100000;
constexpr uint64_t ShadowBase = SpsTranslation::HarnessBase + 0x0200000;
constexpr uint64_t TableSeqBase = SpsTranslation::HarnessBase + 0x0300000;
constexpr uint64_t TableSpecBase = SpsTranslation::HarnessBase + 0x0400000;
constexpr uint64_t OracleBase = SpsTranslation::HarnessBase + 0x0500000;

std::string q(PC P) { return "q" + std::to_string(P); }
std::string s(PC P) { return "s" + std::to_string(P); }

/// Emits the SPS program and records block spans for provenance.
class Emitter {
public:
  Emitter(const Program &P, const ExplorerOptions &EOpts,
          const MachineOptions &MOpts)
      : P(P), End(P.endPC()), Bound(EOpts.SpeculationBound),
        Depth(EOpts.MaxBranchDepth), MOpts(MOpts) {
    // Excursions exist at all only if the explorer may both guess wrong
    // and fetch the mispredicted branch; a wrong path with instructions
    // in it additionally needs window room past the branch itself.
    HaveExcursions = Depth >= 1 && Bound >= 1;
    HasSpecBody = HaveExcursions && Bound >= 2;
  }

  SpsTranslation run();

private:
  const Program &P;
  const PC End;
  const unsigned Bound, Depth;
  const MachineOptions MOpts;
  bool HaveExcursions, HasSpecBody;

  ProgramBuilder B;

  // Harness registers (created after the source registers so source
  // operand ids stay valid verbatim).
  Reg OCur, Valid, Cov, ShIdx, UCur, Fuel, DepthR, Res, A, V, W, T, C;
  std::vector<Reg> Saved; // source regs + ShIdx, spilled per excursion

  struct Span {
    std::string Lbl;
    PC Src; // ProvenanceMap::None for harness blocks
    SpsMode Mode;
  };
  std::vector<Span> Spans;

  static Operand r(Reg R) { return ProgramBuilder::r(R); }
  static Operand imm(uint64_t V) { return ProgramBuilder::imm(V); }

  void beginBlock(const std::string &Lbl, PC Src, SpsMode Mode) {
    B.label(Lbl);
    Spans.push_back({Lbl, Src, Mode});
  }

  /// dest := sum of the source addressing operands (the Sum addressing
  /// mode's evalAddr), joining taints exactly as the machine does.
  void emitAddrSum(Reg Dest, const std::vector<Operand> &Args) {
    assert(!Args.empty() && "address needs operands");
    if (Args.size() == 1) {
      B.op(Dest, Opcode::Mov, {Args[0]});
      return;
    }
    B.op(Dest, Opcode::Add, {Args[0], Args[1]});
    for (size_t I = 2; I < Args.size(); ++I)
      B.op(Dest, Opcode::Add, {r(Dest), Args[I]});
  }

  /// Valid &= (AddrReg < HarnessBase): a source access into harness
  /// space would diverge from the source machine, so the tape is marked
  /// unusable instead.
  void emitBoundsCheck(Reg AddrReg) {
    B.op(T, Opcode::Ult, {r(AddrReg), imm(SpsTranslation::HarnessBase)});
    B.op(Valid, Opcode::And, {r(Valid), r(T)});
  }

  /// Valid &= (TargetReg <= End): computed control targets outside the
  /// program have no table image.
  void emitTargetCheck(Reg TargetReg) {
    B.op(T, Opcode::Ule, {r(TargetReg), imm(End)});
    B.op(Valid, Opcode::And, {r(Valid), r(T)});
  }

  /// Ends a straight-line block whose architectural successor is \p Next:
  /// fall through when the next emitted block is its image, else jump.
  void emitSeqSuccessor(PC Here, PC Next) {
    if (Next == Here + 1 && Next < End)
      return; // q(Here+1) is emitted immediately after
    B.jmp(q(Next));
  }
  void emitSpecSuccessor(PC Here, PC Next) {
    if (Next == Here + 1)
      return; // s(Here+1) / s(End) is emitted immediately after
    B.jmp(s(Next));
  }

  /// Materialises a branch condition into C (True/False are the nullary
  /// always/never conditions `jmp` encodes with).
  void emitCond(const Instruction &I) {
    if (I.opcode() == Opcode::True)
      B.movi(C, 1);
    else if (I.opcode() == Opcode::False)
      B.movi(C, 0);
    else
      B.op(C, I.opcode(), I.args());
  }

  /// The branch itself with \p TTrue / \p TFalse as label targets,
  /// emitting the same jump observation (condition taint) the machine's
  /// cond-execute rules produce.  Statically-decided conditions become
  /// direct jumps (public, as in the machine).
  void emitBranchOn(const Instruction &I, const std::string &TTrue,
                    const std::string &TFalse) {
    if (I.opcode() == Opcode::True)
      B.jmp(TTrue);
    else if (I.opcode() == Opcode::False)
      B.jmp(TFalse);
    else
      B.br(I.opcode(), I.args(), TTrue, TFalse);
  }

  void emitSeqBlock(PC Pc, const Instruction &I);
  void emitSpecBlock(PC Pc, const Instruction &I);
  void emitExcursionEntry(const Instruction &I);
  void emitCallEmulation(const Instruction &I, bool Spec);
  void emitRetEmulation(const Instruction &I, bool Spec);

  /// Spec-block fuel prologue for an instruction costing \p Entries
  /// reorder-buffer slots.  Mirrors the explorer's fetch gate
  /// (`Buf.size() < SpeculationBound`, checked before the group is
  /// pushed, overshoot allowed): with the mispredicted branch occupying
  /// one slot, a further fetch needs used <= Bound - 2.
  void emitFuelGate(PC Pc, unsigned Entries) {
    std::string Cont = "sf" + std::to_string(Pc);
    B.br(Opcode::Ugt, {r(Fuel), imm(Bound - 2)}, "rb", Cont);
    B.label(Cont);
    B.op(Fuel, Opcode::Add, {r(Fuel), imm(Entries)});
  }
};

void Emitter::emitExcursionEntry(const Instruction &I) {
  // Spill the architectural state the excursion may clobber.
  for (size_t K = 0; K < Saved.size(); ++K)
    B.store(r(Saved[K]), {imm(SaveBase + K)});
  B.movi(UCur, UndoBase);
  B.movi(Fuel, 0);
  B.movi(DepthR, Depth - 1);
  // Resume point: the branch's *correct* architectural target, fetched
  // through the pc-translation table (label pcs are unknown while
  // emitting).  The table read carries the condition taint — the same
  // taint the machine's rollback jump observation carries.
  emitCond(I);
  B.op(Res, Opcode::Select,
       {r(C), imm(I.trueTarget()), imm(I.falseTarget())});
  B.op(Res, Opcode::Add, {r(Res), imm(TableSeqBase)});
  B.load(Res, {r(Res)});
  // Enter the wrong path: the inverted branch emits a jump observation
  // with the condition taint, mirroring cond-execute-incorrect.
  if (!HasSpecBody) {
    // Window of 1: the branch fills it; the wrong path fetches nothing.
    emitBranchOn(I, "sx", "sx");
    return;
  }
  emitBranchOn(I, s(I.falseTarget()), s(I.trueTarget()));
}

void Emitter::emitCallEmulation(const Instruction &I, bool Spec) {
  bool Indirect = I.is(InstrKind::CallI);
  PC Ret = I.next();
  if (Indirect) {
    emitAddrSum(W, I.args());
    emitTargetCheck(W);
  }
  B.op(Reg::sp(), Opcode::Succ, {r(Reg::sp())});
  emitBoundsCheck(Reg::sp());
  if (Spec) {
    // Undo-logged return-address store: load the old word (observable at
    // the rsp taint, like the machine's store-address resolution), log
    // (value, address), then write through.
    B.load(V, {r(Reg::sp())});
    B.store(r(V), {r(UCur)});
    B.store(r(Reg::sp()), {r(UCur), imm(1)});
    B.op(UCur, Opcode::Add, {r(UCur), imm(2)});
  }
  B.store(imm(Ret), {r(Reg::sp())});
  // Shadow RSB push (predicts the matching ret like the machine's RSB).
  B.op(A, Opcode::Add, {imm(ShadowBase), r(ShIdx)});
  if (Spec) {
    B.load(V, {r(A)});
    B.store(r(V), {r(UCur)});
    B.store(r(A), {r(UCur), imm(1)});
    B.op(UCur, Opcode::Add, {r(UCur), imm(2)});
  }
  B.store(imm(Ret), {r(A)});
  B.op(ShIdx, Opcode::Add, {r(ShIdx), imm(1)});
  if (!Indirect) {
    B.jmp(Spec ? s(I.callee()) : q(I.callee()));
    return;
  }
  B.op(A, Opcode::Add, {r(W), imm(Spec ? TableSpecBase : TableSeqBase)});
  B.load(A, {r(A)});
  B.jmpi({r(A)});
}

void Emitter::emitRetEmulation(const Instruction &I, bool Spec) {
  emitBoundsCheck(Reg::sp());
  B.load(Reg::tmp(), {r(Reg::sp())}); // read(rsp), as in the ret group
  B.op(Reg::sp(), Opcode::Pred, {r(Reg::sp())});
  // Shadow RSB pop with underflow guard.  On underflow the machine's
  // explorer (attacker-choice policy, no mistraining targets) predicts
  // the architectural target — i.e. correctly — so treat it as a match.
  B.op(T, Opcode::Eq, {r(ShIdx), imm(0)});
  B.op(W, Opcode::Sub, {r(ShIdx), imm(1)});
  B.op(ShIdx, Opcode::Select, {r(T), imm(0), r(W)});
  B.op(A, Opcode::Add, {imm(ShadowBase), r(ShIdx)});
  B.load(V, {r(A)});
  // A genuine RSB mismatch (wrong path overwrote the return slot) is the
  // retpoline-style excursion this translation does not model: record it
  // in the coverage flag and continue at the architectural target.
  B.op(C, Opcode::Eq, {r(Reg::tmp()), r(V)});
  B.op(C, Opcode::Or, {r(C), r(T)});
  B.op(Cov, Opcode::And, {r(Cov), r(C)});
  emitTargetCheck(Reg::tmp());
  B.op(A, Opcode::Add,
       {r(Reg::tmp()), imm(Spec ? TableSpecBase : TableSeqBase)});
  B.load(A, {r(A)});
  B.jmpi({r(A)}); // jump observation at the return address taint
}

void Emitter::emitSeqBlock(PC Pc, const Instruction &I) {
  beginBlock(q(Pc), Pc, SpsMode::Seq);
  switch (I.kind()) {
  case InstrKind::Op:
    B.op(I.dest(), I.opcode(), I.args());
    emitSeqSuccessor(Pc, I.next());
    break;
  case InstrKind::Load:
    emitAddrSum(A, I.args());
    emitBoundsCheck(A);
    B.load(I.dest(), {r(A)});
    emitSeqSuccessor(Pc, I.next());
    break;
  case InstrKind::Store:
    emitAddrSum(A, I.args());
    emitBoundsCheck(A);
    B.store(I.storeValue(), {r(A)});
    emitSeqSuccessor(Pc, I.next());
    break;
  case InstrKind::Fence:
    B.fence();
    emitSeqSuccessor(Pc, I.next());
    break;
  case InstrKind::Branch: {
    PC NT = I.trueTarget(), NF = I.falseTarget();
    if (!HaveExcursions || NT == NF) {
      // Equal targets: a wrong guess fetches the same point and the
      // branch resolves correctly — the explorer never forks here.
      emitBranchOn(I, q(NT), q(NF));
      break;
    }
    // Consult the misprediction oracle (public), then either take the
    // branch architecturally or enter an excursion.
    std::string Br = "qb" + std::to_string(Pc);
    std::string Exc = "qx" + std::to_string(Pc);
    B.load(W, {r(OCur)});
    B.op(OCur, Opcode::Add, {r(OCur), imm(1)});
    B.br(Opcode::Ne, {r(W), imm(0)}, Exc, Br);
    B.label(Br);
    emitBranchOn(I, q(NT), q(NF));
    B.label(Exc);
    emitExcursionEntry(I);
    break;
  }
  case InstrKind::JumpI:
    emitAddrSum(W, I.args());
    emitTargetCheck(W);
    B.op(A, Opcode::Add, {r(W), imm(TableSeqBase)});
    B.load(A, {r(A)});
    B.jmpi({r(A)});
    break;
  case InstrKind::Call:
  case InstrKind::CallI:
    emitCallEmulation(I, /*Spec=*/false);
    break;
  case InstrKind::Ret:
    emitRetEmulation(I, /*Spec=*/false);
    break;
  }
}

void Emitter::emitSpecBlock(PC Pc, const Instruction &I) {
  beginBlock(s(Pc), Pc, SpsMode::Spec);
  switch (I.kind()) {
  case InstrKind::Op:
    emitFuelGate(Pc, 1);
    B.op(I.dest(), I.opcode(), I.args());
    emitSpecSuccessor(Pc, I.next());
    break;
  case InstrKind::Load:
    emitFuelGate(Pc, 1);
    emitAddrSum(A, I.args());
    emitBoundsCheck(A);
    B.load(I.dest(), {r(A)});
    emitSpecSuccessor(Pc, I.next());
    break;
  case InstrKind::Store:
    // Write-through with an undo log.  The old-value load is observable
    // at the store-address taint — the same taint the machine leaks via
    // store-execute-addr-ok when the transient store resolves.
    emitFuelGate(Pc, 1);
    emitAddrSum(A, I.args());
    emitBoundsCheck(A);
    B.load(V, {r(A)});
    B.store(r(V), {r(UCur)});
    B.store(r(A), {r(UCur), imm(1)});
    B.op(UCur, Opcode::Add, {r(UCur), imm(2)});
    B.store(I.storeValue(), {r(A)});
    emitSpecSuccessor(Pc, I.next());
    break;
  case InstrKind::Fence:
    // A transient fence never retires and blocks every younger entry
    // from executing: the excursion observes nothing further.
    B.jmp("rb");
    break;
  case InstrKind::Branch: {
    PC NT = I.trueTarget(), NF = I.falseTarget();
    emitFuelGate(Pc, 1);
    if (NT == NF) {
      emitBranchOn(I, s(NT), s(NF));
      break;
    }
    // Nested wrong guesses are depth-gated exactly like the explorer's
    // controlDepth() < MaxBranchDepth fork filter; a correctly guessed
    // nested branch resolves in place and emits the same jump
    // observation as cond-execute-correct.
    std::string Consult = "sk" + std::to_string(Pc);
    std::string Wrong = "sw" + std::to_string(Pc);
    std::string Normal = "sn" + std::to_string(Pc);
    std::string Clip = "sc" + std::to_string(Pc);
    B.br(Opcode::Ugt, {r(DepthR), imm(0)}, Consult, Clip);
    // Depth exhausted: the oracle is not consulted, so deeper wrong
    // guesses go unexplored — a clean run is then a bounded claim, not a
    // proof.  Record it in the coverage flag (like the RSB clause in
    // emitExcursionEntry) so the checker reports Inconclusive rather
    // than Proved; counterexamples found elsewhere stand regardless.
    B.label(Clip);
    B.movi(Cov, 0);
    B.jmp(Normal);
    B.label(Consult);
    B.load(W, {r(OCur)});
    B.op(OCur, Opcode::Add, {r(OCur), imm(1)});
    B.br(Opcode::Ne, {r(W), imm(0)}, Wrong, Normal);
    B.label(Wrong);
    B.op(DepthR, Opcode::Sub, {r(DepthR), imm(1)});
    emitBranchOn(I, s(NF), s(NT)); // inverted
    B.label(Normal);
    emitBranchOn(I, s(NT), s(NF));
    break;
  }
  case InstrKind::JumpI:
    emitFuelGate(Pc, 1);
    emitAddrSum(W, I.args());
    emitTargetCheck(W);
    B.op(A, Opcode::Add, {r(W), imm(TableSpecBase)});
    B.load(A, {r(A)});
    B.jmpi({r(A)});
    break;
  case InstrKind::Call:
    emitFuelGate(Pc, 3); // marker + rsp bump + return-address store
    emitCallEmulation(I, /*Spec=*/true);
    break;
  case InstrKind::CallI:
    emitFuelGate(Pc, 4); // call group + target-validating jmpi
    emitCallEmulation(I, /*Spec=*/true);
    break;
  case InstrKind::Ret:
    emitFuelGate(Pc, 4); // marker + return load + rsp drop + jmpi
    emitRetEmulation(I, /*Spec=*/true);
    break;
  }
}

SpsTranslation Emitter::run() {
  // Source registers first so operand ids survive verbatim (the builder
  // pre-declares rsp/rtmp as ids 0 and 1, matching every program).
  for (unsigned Id = Reg::FirstUserId; Id < P.numRegs(); ++Id)
    B.reg(P.regName(Reg(static_cast<uint16_t>(Id))));
  OCur = B.reg("sps$ocur");
  Valid = B.reg("sps$valid");
  Cov = B.reg("sps$cov");
  ShIdx = B.reg("sps$shidx");
  UCur = B.reg("sps$ucur");
  Fuel = B.reg("sps$fuel");
  DepthR = B.reg("sps$depth");
  Res = B.reg("sps$res");
  A = B.reg("sps$a");
  V = B.reg("sps$v");
  W = B.reg("sps$w");
  T = B.reg("sps$t");
  C = B.reg("sps$c");
  for (unsigned Id = 0; Id < P.numRegs(); ++Id)
    Saved.push_back(Reg(static_cast<uint16_t>(Id)));
  Saved.push_back(ShIdx); // call emulation bumps it on excursion paths

  for (const MemRegion &R : P.regions())
    B.region(R.Name, R.Base, R.Size, R.RegionLabel);
  for (const auto &[Reg_, Val] : P.regInits())
    B.init(Reg_, Val);
  for (const auto &[Addr, Word] : P.memInits())
    B.data(Addr, {Word});

  // Harness prologue, then the architectural copy, the wrong-path copy,
  // the rollback machinery, and the exit point — in that order, so
  // straight-line fall-through inside each copy stays valid.
  beginBlock("init", ProvenanceMap::None, SpsMode::Harness);
  B.movi(OCur, OracleBase);
  B.movi(Valid, 1);
  B.movi(Cov, 1);
  B.movi(ShIdx, 0);
  B.jmp(q(P.entry()));

  for (PC Pc = 0; Pc < End; ++Pc)
    emitSeqBlock(Pc, P.at(Pc));

  if (HasSpecBody) {
    for (PC Pc = 0; Pc < End; ++Pc)
      emitSpecBlock(Pc, P.at(Pc));
    // The wrong path running off the program end stalls until rollback.
    beginBlock(s(End), ProvenanceMap::None, SpsMode::Harness);
    B.jmp("rb");
  }

  if (HaveExcursions) {
    if (!HasSpecBody) {
      // Window of 1: excursions roll back before fetching anything.
      beginBlock("sx", ProvenanceMap::None, SpsMode::Harness);
      B.jmp("rb");
    }
    // Rollback: walk the undo log backwards restoring memory (values
    // keep their original labels), reload the spilled registers, and
    // resume at the correct architectural target.
    beginBlock("rb", ProvenanceMap::None, SpsMode::Harness);
    B.br(Opcode::Eq, {r(UCur), imm(UndoBase)}, "rbr", "rbb");
    B.label("rbb");
    B.op(UCur, Opcode::Sub, {r(UCur), imm(2)});
    B.load(A, {r(UCur), imm(1)});
    B.load(V, {r(UCur)});
    B.store(r(V), {r(A)});
    B.jmp("rb");
    B.label("rbr");
    for (size_t K = 0; K < Saved.size(); ++K)
      B.load(Saved[K], {imm(SaveBase + K)});
    B.jmpi({r(Res)});
  }

  // The program-end image: one silent instruction that falls off P̂.
  beginBlock(q(End), ProvenanceMap::None, SpsMode::Harness);
  B.fence();

  // Program-point translation tables (public data): src pc -> copy pc.
  std::vector<PC> SeqImage(End + 1);
  for (PC Pc = 0; Pc <= End; ++Pc) {
    SeqImage[Pc] = B.pcOf(q(Pc));
    B.data(TableSeqBase + Pc, {SeqImage[Pc]});
    if (HasSpecBody)
      B.data(TableSpecBase + Pc, {B.pcOf(s(Pc))});
  }

  SpsTranslation Out;
  Out.OracleBase = OracleBase;
  Out.OracleCursor = OCur;
  Out.ValidFlag = Valid;
  Out.CovFlag = Cov;
  Out.Bound = Bound;
  Out.Depth = Depth;

  // Resolve spans into the provenance map before build() consumes B.
  std::vector<PC> Starts;
  Starts.reserve(Spans.size());
  for (const Span &Sp : Spans)
    Starts.push_back(B.pcOf(Sp.Lbl));

  Out.Prog = B.build();
  const PC PhatEnd = Out.Prog.endPC();

  Out.ModeOf.assign(PhatEnd, SpsMode::Harness);
  Out.Map.InstrNewToOld.assign(PhatEnd, ProvenanceMap::None);
  Out.Map.InstrOldToNew.assign(End, ProvenanceMap::None);
  Out.Map.TargetOldToNew.assign(End + 1, ProvenanceMap::None);
  for (size_t I = 0; I < Spans.size(); ++I) {
    PC From = Starts[I];
    PC To = I + 1 < Spans.size() ? Starts[I + 1] : PhatEnd;
    for (PC Pc = From; Pc < To; ++Pc) {
      Out.ModeOf[Pc] = Spans[I].Mode;
      Out.Map.InstrNewToOld[Pc] = Spans[I].Src;
    }
  }
  for (PC Pc = 0; Pc <= End; ++Pc) {
    if (Pc < End)
      Out.Map.InstrOldToNew[Pc] = SeqImage[Pc];
    Out.Map.TargetOldToNew[Pc] = SeqImage[Pc];
  }
  return Out;
}

} // namespace

bool SpsTranslator::supports(const Program &P, const ExplorerOptions &EOpts,
                             const MachineOptions &MOpts, std::string *Why) {
  auto No = [&](const char *Reason) {
    if (Why)
      *Why = Reason;
    return false;
  };
  if (EOpts.SpeculationBound < 1)
    return No("speculation bound 0: nothing ever fetches");
  if (EOpts.ExploreForwardingHazards || EOpts.ExhaustiveForwardForks)
    return No("forwarding-hazard exploration (v4 mode) is not modelled");
  if (EOpts.ExploreAliasPrediction)
    return No("alias prediction is not modelled");
  if (!EOpts.IndirectTargets.empty())
    return No("indirect-target mistraining (v2) is not modelled");
  if (!EOpts.RsbUnderflowTargets.empty())
    return No("RSB-underflow mistraining (ret2spec) is not modelled");
  if (MOpts.Addressing != AddrMode::Sum)
    return No("non-Sum addressing is not modelled");
  if (MOpts.RsbOnEmpty != RsbPolicy::AttackerChoice)
    return No("non-default RSB-empty policy is not modelled");
  for (const MemRegion &R : P.regions())
    if (R.Base + R.Size > SpsTranslation::HarnessBase)
      return No("source region overlaps the SPS harness address space");
  for (const auto &[Addr, Word] : P.memInits()) {
    (void)Word;
    if (Addr >= SpsTranslation::HarnessBase)
      return No("source data overlaps the SPS harness address space");
  }
  for (unsigned Id = 0; Id < P.numRegs(); ++Id)
    if (P.regName(Reg(static_cast<uint16_t>(Id))).starts_with("sps$"))
      return No("source register names collide with the SPS harness");
  return true;
}

SpsTranslation SpsTranslator::translate(const Program &P,
                                        const ExplorerOptions &EOpts,
                                        const MachineOptions &MOpts) {
  assert(supports(P, EOpts, MOpts) && "translate() outside the fragment");
  return Emitter(P, EOpts, MOpts).run();
}
