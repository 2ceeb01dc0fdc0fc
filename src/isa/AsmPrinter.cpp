//===- isa/AsmPrinter.cpp - Program pretty-printer -------------------------===//

#include "isa/AsmPrinter.h"

#include "support/Printing.h"

#include <map>

using namespace sct;

std::string sct::printOperand(const Program &P, const Operand &Op) {
  if (Op.isReg())
    return P.regName(Op.getReg());
  uint64_t V = Op.getImm();
  if (V >= 0x40)
    return toHex(V);
  return std::to_string(V);
}

namespace {

std::string operandList(const Program &P, const std::vector<Operand> &Ops) {
  std::vector<std::string> Parts;
  Parts.reserve(Ops.size());
  for (const Operand &Op : Ops)
    Parts.push_back(printOperand(P, Op));
  return join(Parts, ", ");
}

/// The pseudo-label invented for unlabelled program point \p N: "pc<N>",
/// with '_' appended until no code label of \p P has that name.  Distinct
/// points get distinct names, and none collides with a real label.
std::string inventedName(const Program &P, PC N) {
  std::string Name = "pc" + std::to_string(N);
  while (P.codeLabels().count(Name))
    Name += '_';
  return Name;
}

/// Returns a printable name for program point \p N, inventing a
/// pseudo-label where the program has none.
std::string targetName(const Program &P, PC N) {
  if (auto Name = P.labelAt(N))
    return *Name;
  return inventedName(P, N);
}

} // namespace

std::string sct::printInstruction(const Program &P, PC N) {
  const Instruction &I = P.at(N);
  switch (I.kind()) {
  case InstrKind::Op:
    return P.regName(I.dest()) + " = " + std::string(opcodeName(I.opcode())) +
           (I.args().empty() ? "" : " " + operandList(P, I.args()));
  case InstrKind::Branch:
    if (I.opcode() == Opcode::True && I.trueTarget() == I.falseTarget())
      return "jmp " + targetName(P, I.trueTarget());
    return "br " + std::string(opcodeName(I.opcode())) +
           (I.args().empty() ? "" : " " + operandList(P, I.args())) + " -> " +
           targetName(P, I.trueTarget()) + ", " +
           targetName(P, I.falseTarget());
  case InstrKind::Load:
    return P.regName(I.dest()) + " = load [" + operandList(P, I.args()) + "]";
  case InstrKind::Store:
    return "store " + printOperand(P, I.storeValue()) + ", [" +
           operandList(P, I.args()) + "]";
  case InstrKind::JumpI:
    return "jmpi [" + operandList(P, I.args()) + "]";
  case InstrKind::Call:
    return "call " + targetName(P, I.callee());
  case InstrKind::CallI:
    return "calli [" + operandList(P, I.args()) + "]";
  case InstrKind::Ret:
    return "ret";
  case InstrKind::Fence:
    return "fence";
  }
  return "<invalid>";
}

std::string sct::printAsm(const Program &P) {
  std::string Out;

  // Register declarations (user registers only; rsp/rtmp are implicit).
  if (P.numRegs() > Reg::FirstUserId) {
    Out += ".reg";
    for (unsigned I = Reg::FirstUserId; I < P.numRegs(); ++I)
      Out += " " + P.regName(Reg(static_cast<uint16_t>(I)));
    Out += "\n";
  }

  for (const auto &[R, V] : P.regInits())
    Out += ".init " + P.regName(R) + " " + toHex(V) + "\n";

  for (const MemRegion &R : P.regions()) {
    Out += ".region " + R.Name + " " + toHex(R.Base) + " " +
           std::to_string(R.Size) + " ";
    if (R.RegionLabel.isPublic()) {
      Out += "public\n";
      continue;
    }
    Out += "secret";
    for (unsigned S = 0; S < Label::MaxSources; ++S)
      if (R.RegionLabel.contains(S)) {
        Out += " " + std::to_string(S);
        break; // The syntax supports one source per region.
      }
    Out += "\n";
  }

  for (const auto &[Addr, V] : P.memInits())
    Out += ".data " + toHex(Addr) + " " + toHex(V) + "\n";

  // Collect label names per program point, inventing names for targets
  // that have none so the printed text round-trips.
  std::map<PC, std::vector<std::string>> LabelsAt;
  for (const auto &[Name, Point] : P.codeLabels())
    LabelsAt[Point].push_back(Name);
  auto EnsureLabel = [&](PC N) {
    if (!LabelsAt.count(N))
      LabelsAt[N].push_back(inventedName(P, N));
  };
  for (PC N = 0; N < P.size(); ++N) {
    const Instruction &I = P.at(N);
    if (I.is(InstrKind::Branch)) {
      EnsureLabel(I.trueTarget());
      EnsureLabel(I.falseTarget());
    } else if (I.is(InstrKind::Call)) {
      EnsureLabel(I.callee());
    }
  }
  if (P.entry() != 0) {
    EnsureLabel(P.entry());
    Out += ".entry " + LabelsAt[P.entry()].front() + "\n";
  }

  for (PC N = 0; N <= P.size(); ++N) {
    if (auto It = LabelsAt.find(N); It != LabelsAt.end())
      for (const std::string &Name : It->second)
        Out += Name + ":\n";
    if (N < P.size())
      Out += "  " + printInstruction(P, N) + "\n";
  }
  return Out;
}
