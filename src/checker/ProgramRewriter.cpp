//===- checker/ProgramRewriter.cpp - Structured program rewriting -----------===//

#include "checker/ProgramRewriter.h"

#include "isa/ProgramBuilder.h"

using namespace sct;

void ProgramRewriter::insertBefore(PC At, Instruction I) {
  assert(!Applied && "rewriter already applied");
  assert(At <= Orig.endPC() && "insertion point out of range");
  Inserted[At].push_back(std::move(I));
}

void ProgramRewriter::replace(PC At, std::vector<Instruction> Seq) {
  assert(!Applied && "rewriter already applied");
  assert(Orig.contains(At) && "replacement point out of range");
  assert(!Seq.empty() && "replacement sequence must not be empty");
  Replaced[At] = std::move(Seq);
}

PC ProgramRewriter::append(std::vector<Instruction> Block) {
  assert(!Applied && "rewriter already applied");
  assert(!Block.empty() && "appended block must not be empty");
  Appended.push_back(std::move(Block));
  // Virtual points start just past the old end point.
  return Orig.endPC() + static_cast<PC>(Appended.size());
}

Reg ProgramRewriter::scratchReg(const std::string &Name) {
  assert(!Applied && "rewriter already applied");
  assert(!Orig.regByName(Name) && "scratch register name collides");
  ExtraRegs.push_back(Name);
  return Reg(static_cast<uint16_t>(Orig.numRegs() + ExtraRegs.size() - 1));
}

PC ProgramRewriter::newPC(PC OldPC) const {
  assert(Applied && "layout known only after apply()");
  auto It = Remap.find(OldPC);
  assert(It != Remap.end() && "unmapped program point");
  return It->second;
}

ProvenanceMap sct::ProvenanceMap::identityFor(const Program &P) {
  ProvenanceMap Map;
  for (PC N = 0; N < P.endPC(); ++N) {
    Map.InstrOldToNew.push_back(N);
    Map.InstrNewToOld.push_back(N);
  }
  for (PC N = 0; N <= P.endPC(); ++N)
    Map.TargetOldToNew.push_back(N);
  return Map;
}

bool sct::ProvenanceMap::identity() const {
  if (InstrOldToNew.size() != InstrNewToOld.size())
    return false;
  for (PC N = 0; N < InstrOldToNew.size(); ++N)
    if (InstrOldToNew[N] != N)
      return false;
  return true;
}

ProvenanceMap ProgramRewriter::provenance() const {
  assert(Applied && "provenance known only after apply()");
  ProvenanceMap Map;
  Map.InstrNewToOld = SlotOldPC;
  Map.InstrOldToNew.assign(Orig.endPC(), ProvenanceMap::None);
  for (PC New = 0; New < SlotOldPC.size(); ++New)
    if (SlotOldPC[New] != ProvenanceMap::None)
      Map.InstrOldToNew[SlotOldPC[New]] = New;
  Map.TargetOldToNew.assign(Orig.endPC() + 1, ProvenanceMap::None);
  for (PC Old = 0; Old <= Orig.endPC(); ++Old)
    Map.TargetOldToNew[Old] = Remap.at(Old);
  return Map;
}

Program ProgramRewriter::apply() {
  assert(!Applied && "rewriter already applied");
  Applied = true;

  // --- Pass 1: layout.  Slot order: originals (with insertions and
  // replacements), then appended blocks, then end-point insertions.  The
  // old end point maps *after* the appended blocks, so code that falls
  // off the original end still exits instead of running into them
  // (appended blocks must end in explicit control flow).
  struct Slot {
    const Instruction *I;
    bool IsOriginal; // Original instructions remap their successor.
  };
  std::vector<Slot> Slots;
  auto pushSlot = [&](const Instruction &I, bool IsOriginal, PC OldPC) {
    Slots.push_back({&I, IsOriginal});
    SlotOldPC.push_back(OldPC);
  };

  for (PC Old = 0; Old < Orig.endPC(); ++Old) {
    Remap[Old] = static_cast<PC>(Slots.size());
    if (auto It = Inserted.find(Old); It != Inserted.end())
      for (const Instruction &I : It->second)
        pushSlot(I, false, ProvenanceMap::None);
    if (auto It = Replaced.find(Old); It != Replaced.end()) {
      for (const Instruction &I : It->second)
        pushSlot(I, false, ProvenanceMap::None);
    } else {
      pushSlot(Orig.at(Old), true, Old);
    }
  }
  for (size_t K = 0; K < Appended.size(); ++K) {
    Remap[Orig.endPC() + 1 + static_cast<PC>(K)] =
        static_cast<PC>(Slots.size());
    for (const Instruction &I : Appended[K])
      pushSlot(I, false, ProvenanceMap::None);
  }
  Remap[Orig.endPC()] = static_cast<PC>(Slots.size());
  if (auto It = Inserted.find(Orig.endPC()); It != Inserted.end())
    for (const Instruction &I : It->second)
      pushSlot(I, false, ProvenanceMap::None);

  // --- Pass 2: emission through a builder (keeps register ids stable).
  ProgramBuilder B;
  for (unsigned R = Reg::FirstUserId; R < Orig.numRegs(); ++R)
    B.reg(Orig.regName(Reg(static_cast<uint16_t>(R))));
  for (const std::string &Name : ExtraRegs)
    B.reg(Name);

  auto MapPC = [&](PC Old) {
    auto It = Remap.find(Old);
    assert(It != Remap.end() && "target points outside the program");
    return It->second;
  };

  for (size_t S = 0; S < Slots.size(); ++S) {
    Instruction I = *Slots[S].I;
    PC Here = static_cast<PC>(S);
    switch (I.kind()) {
    case InstrKind::Branch:
      I.setBranchTargets(MapPC(I.trueTarget()), MapPC(I.falseTarget()));
      break;
    case InstrKind::Call:
      I.setCallee(MapPC(I.callee()));
      break;
    default:
      break;
    }
    if (I.next() == SelfLoop)
      I.setNext(Here);
    else if (Slots[S].IsOriginal)
      I.setNext(MapPC(I.next()));
    else
      I.setNext(Here + 1);
    B.raw(std::move(I));
  }

  for (const MemRegion &R : Orig.regions())
    B.region(R.Name, R.Base, R.Size, R.RegionLabel);
  for (const auto &[R, V] : Orig.regInits()) {
    bool IsCodePtr = false;
    for (Reg Marked : CodePointerRegs)
      if (Marked == R)
        IsCodePtr = true;
    B.init(R, IsCodePtr ? MapPC(static_cast<PC>(V)) : V);
  }
  for (const auto &[Addr, V] : Orig.memInits()) {
    bool IsCodePtr = false;
    for (uint64_t Marked : CodePointers)
      if (Marked == Addr)
        IsCodePtr = true;
    B.data(Addr, {IsCodePtr ? MapPC(static_cast<PC>(V)) : V});
  }
  for (const auto &[Name, Old] : Orig.codeLabels())
    B.labelAtPC(Name, MapPC(Old));
  B.entryPC(MapPC(Orig.entry()));
  return B.build();
}
