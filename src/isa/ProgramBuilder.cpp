//===- isa/ProgramBuilder.cpp - Fluent program construction ---------------===//

#include "isa/ProgramBuilder.h"

using namespace sct;

ProgramBuilder::ProgramBuilder() {
  // The reserved registers exist in every program (Appendix A.2).
  Prog.RegNames.push_back("rsp");
  Prog.RegNames.push_back("rtmp");
}

Reg ProgramBuilder::reg(const std::string &Name) {
  if (auto Existing = Prog.regByName(Name))
    return *Existing;
  Prog.RegNames.push_back(Name);
  return Reg(static_cast<uint16_t>(Prog.RegNames.size() - 1));
}

ProgramBuilder &ProgramBuilder::label(const std::string &Name) {
  PendingLabels.push_back(Name);
  return *this;
}

void ProgramBuilder::place(Instruction I) {
  PC Here = static_cast<PC>(Prog.Text.size());
  for (const std::string &Name : PendingLabels) {
    assert(!Prog.CodeLabels.count(Name) && "duplicate code label");
    Prog.CodeLabels[Name] = Here;
  }
  PendingLabels.clear();
  I.setNext(Here + 1); // Straight-line successor; branches ignore it.
  Prog.Text.push_back(std::move(I));
}

ProgramBuilder &ProgramBuilder::op(Reg Dest, Opcode Opc,
                                   std::vector<Operand> Args) {
  place(Instruction::makeOp(Dest, Opc, std::move(Args)));
  return *this;
}

ProgramBuilder &ProgramBuilder::movi(Reg Dest, uint64_t V) {
  return op(Dest, Opcode::Mov, {imm(V)});
}

ProgramBuilder &ProgramBuilder::br(Opcode Cond, std::vector<Operand> Args,
                                   const std::string &TrueLabel,
                                   const std::string &FalseLabel) {
  Pending.push_back(
      {Prog.Text.size(), TrueLabel, FalseLabel, /*IsBranch=*/true});
  place(Instruction::makeBranch(Cond, std::move(Args), 0, 0));
  return *this;
}

ProgramBuilder &ProgramBuilder::jmp(const std::string &Target) {
  return br(Opcode::True, {}, Target, Target);
}

ProgramBuilder &ProgramBuilder::load(Reg Dest, std::vector<Operand> AddrArgs) {
  place(Instruction::makeLoad(Dest, std::move(AddrArgs)));
  return *this;
}

ProgramBuilder &ProgramBuilder::store(Operand Val,
                                      std::vector<Operand> AddrArgs) {
  place(Instruction::makeStore(Val, std::move(AddrArgs)));
  return *this;
}

ProgramBuilder &ProgramBuilder::jmpi(std::vector<Operand> AddrArgs) {
  place(Instruction::makeJumpI(std::move(AddrArgs)));
  return *this;
}

ProgramBuilder &ProgramBuilder::call(const std::string &Callee) {
  Pending.push_back({Prog.Text.size(), Callee, "", /*IsBranch=*/false});
  place(Instruction::makeCall(0));
  return *this;
}

ProgramBuilder &ProgramBuilder::calli(std::vector<Operand> TargetArgs) {
  place(Instruction::makeCallI(std::move(TargetArgs)));
  return *this;
}

ProgramBuilder &ProgramBuilder::ret() {
  place(Instruction::makeRet());
  return *this;
}

ProgramBuilder &ProgramBuilder::fence() {
  place(Instruction::makeFence());
  return *this;
}

ProgramBuilder &ProgramBuilder::raw(Instruction I) {
  PC Here = static_cast<PC>(Prog.Text.size());
  for (const std::string &Name : PendingLabels)
    Prog.CodeLabels[Name] = Here;
  PendingLabels.clear();
  Prog.Text.push_back(std::move(I));
  return *this;
}

ProgramBuilder &ProgramBuilder::region(const std::string &Name, uint64_t Base,
                                       uint64_t Size, Label RegionLabel) {
  Prog.Regions.push_back({Name, Base, Size, RegionLabel});
  return *this;
}

ProgramBuilder &ProgramBuilder::init(Reg R, uint64_t V) {
  Prog.RegInits.emplace_back(R, V);
  return *this;
}

ProgramBuilder &ProgramBuilder::data(uint64_t Base,
                                     std::initializer_list<uint64_t> Words) {
  uint64_t Addr = Base;
  for (uint64_t W : Words)
    Prog.MemInits.emplace_back(Addr++, W);
  return *this;
}

ProgramBuilder &ProgramBuilder::entry(const std::string &Name) {
  // Recorded as a pending label lookup resolved in build(); reuse the
  // Pending list with a sentinel instruction index.
  Pending.push_back({SIZE_MAX, Name, "", /*IsBranch=*/false});
  return *this;
}

ProgramBuilder &ProgramBuilder::entryPC(PC N) {
  Prog.Entry = N;
  return *this;
}

bool ProgramBuilder::labelAtPC(std::string_view Name, PC N) {
  return Prog.CodeLabels.try_emplace(std::string(Name), N).second;
}

PC ProgramBuilder::pcOf(const std::string &Name) const {
  auto It = Prog.CodeLabels.find(Name);
  assert(It != Prog.CodeLabels.end() && "unknown code label");
  return It->second;
}

Program ProgramBuilder::build() {
  // Labels trailing the last instruction name the end program point.
  PC End = static_cast<PC>(Prog.Text.size());
  for (const std::string &Name : PendingLabels)
    Prog.CodeLabels[Name] = End;
  PendingLabels.clear();

  auto Resolve = [&](const std::string &Name) {
    auto It = Prog.CodeLabels.find(Name);
    assert(It != Prog.CodeLabels.end() && "dangling code label");
    return It->second;
  };

  for (const PendingTarget &P : Pending) {
    if (P.InstrIndex == SIZE_MAX) {
      Prog.Entry = Resolve(P.TrueLabel);
      continue;
    }
    Instruction &I = Prog.Text[P.InstrIndex];
    if (P.IsBranch)
      I.setBranchTargets(Resolve(P.TrueLabel), Resolve(P.FalseLabel));
    else
      I.setCallee(Resolve(P.TrueLabel));
  }
  Pending.clear();
  return std::move(Prog);
}
