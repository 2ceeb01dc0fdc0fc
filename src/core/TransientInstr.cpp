//===- core/TransientInstr.cpp - Transient instructions --------------------===//

#include "core/TransientInstr.h"

#include "isa/AsmPrinter.h"
#include "support/Hashing.h"
#include "support/Printing.h"

using namespace sct;

TransientInstr TransientInstr::makeOp(Reg Dest, Opcode Opc,
                                      std::span<const Operand> Args,
                                      PC Origin) {
  TransientInstr T;
  T.Kind = TransientKind::Op;
  T.Dest = Dest;
  T.Opc = Opc;
  T.Args = InlineVector<Operand, 2>(Args);
  T.Origin = Origin;
  return T;
}

TransientInstr TransientInstr::makeResolvedValue(Reg Dest, Value V,
                                                 PC Origin) {
  TransientInstr T;
  T.Kind = TransientKind::ResolvedValue;
  T.Dest = Dest;
  T.Val = V;
  T.Origin = Origin;
  return T;
}

TransientInstr TransientInstr::makeBranch(Opcode Cond,
                                          std::span<const Operand> Args,
                                          PC Chosen, PC NTrue, PC NFalse,
                                          PC Origin) {
  TransientInstr T;
  T.Kind = TransientKind::Branch;
  T.Opc = Cond;
  T.Args = InlineVector<Operand, 2>(Args);
  T.N0 = Chosen;
  T.NTrue = NTrue;
  T.NFalse = NFalse;
  T.Origin = Origin;
  return T;
}

TransientInstr TransientInstr::makeJump(PC Target, PC Origin) {
  TransientInstr T;
  T.Kind = TransientKind::Jump;
  T.N0 = Target;
  T.Origin = Origin;
  return T;
}

TransientInstr TransientInstr::makeLoad(Reg Dest,
                                        std::span<const Operand> AddrArgs,
                                        PC Origin) {
  TransientInstr T;
  T.Kind = TransientKind::Load;
  T.Dest = Dest;
  T.Args = InlineVector<Operand, 2>(AddrArgs);
  T.Origin = Origin;
  return T;
}

TransientInstr TransientInstr::makeStore(Operand Val,
                                         std::span<const Operand> AddrArgs,
                                         PC Origin) {
  TransientInstr T;
  T.Kind = TransientKind::Store;
  T.StoreVal = Val;
  T.Args = InlineVector<Operand, 2>(AddrArgs);
  T.Origin = Origin;
  // "Either step may be skipped if data or address are already in
  // immediate form" (§3.4): an immediate store value, or a
  // single-immediate address, is born resolved (Figure 5's
  // store(12, 43pub) arrives fully resolved).
  if (Val.isImm()) {
    T.StoreValIsResolved = true;
    T.StoreResolvedVal = Value::pub(Val.getImm());
  }
  if (T.Args.size() == 1 && T.Args[0].isImm()) {
    T.StoreAddrIsResolved = true;
    T.StoreAddr = Value::pub(T.Args[0].getImm());
  }
  return T;
}

TransientInstr TransientInstr::makeJumpI(std::span<const Operand> AddrArgs,
                                         PC Predicted, PC Origin) {
  TransientInstr T;
  T.Kind = TransientKind::JumpI;
  T.Args = InlineVector<Operand, 2>(AddrArgs);
  T.N0 = Predicted;
  T.Origin = Origin;
  return T;
}

TransientInstr TransientInstr::makeCallMarker(PC Origin) {
  TransientInstr T;
  T.Kind = TransientKind::CallMarker;
  T.Origin = Origin;
  return T;
}

TransientInstr TransientInstr::makeRetMarker(PC Origin) {
  TransientInstr T;
  T.Kind = TransientKind::RetMarker;
  T.Origin = Origin;
  return T;
}

TransientInstr TransientInstr::makeFence(PC Origin) {
  TransientInstr T;
  T.Kind = TransientKind::Fence;
  T.Origin = Origin;
  return T;
}

/// Every field operator== compares participates, in declaration order;
/// operands fold a register/immediate tag first so reg(5) and imm(5)
/// separate.  This is the engine's single hottest function (entry
/// fingerprints back the reorder buffer's XOR-multiset), so it uses the
/// cheap hashFold/hashFinish chain: sound here because every
/// TransientInstr folds exactly the same field sequence (Args is
/// length-prefixed).
uint64_t TransientInstr::hash() const {
  uint64_t H = hashFold(HashSeed, uint64_t(Kind));
  H = hashFold(H, Dest.id());
  H = hashFold(H, uint64_t(Opc));
  auto FoldOperand = [&H](const Operand &Op) {
    H = hashFold(H, Op.isReg() ? 1 : 2);
    H = hashFold(H, Op.isReg() ? Op.getReg().id() : Op.getImm());
  };
  H = hashFold(H, Args.size());
  for (const Operand &Op : Args)
    FoldOperand(Op);
  H = hashFold(H, Val.Bits);
  H = hashFold(H, Val.Taint.mask());
  FoldOperand(StoreVal);
  H = hashFold(H, StoreValIsResolved);
  H = hashFold(H, StoreResolvedVal.Bits);
  H = hashFold(H, StoreResolvedVal.Taint.mask());
  H = hashFold(H, StoreAddrIsResolved);
  H = hashFold(H, StoreAddr.Bits);
  H = hashFold(H, StoreAddr.Taint.mask());
  H = hashFold(H, LoadAddr);
  // OptBufIdx's raw word is already the index-plus-one sentinel this
  // line has always folded.
  H = hashFold(H, Dep.raw());
  H = hashFold(H, (uint64_t(N0) << 32) | NTrue);
  H = hashFold(H, (uint64_t(NFalse) << 32) | Origin);
  H = hashFold(H, GroupLeader);
  return hashFinish(H);
}

bool TransientInstr::isResolved() const {
  switch (Kind) {
  case TransientKind::ResolvedValue:
  case TransientKind::LoadResolved:
  case TransientKind::Jump:
  case TransientKind::Fence:
  case TransientKind::CallMarker:
  case TransientKind::RetMarker:
    return true;
  case TransientKind::Store:
    return isResolvedStore();
  case TransientKind::Op:
  case TransientKind::Branch:
  case TransientKind::Load:
  case TransientKind::LoadGuessed:
  case TransientKind::JumpI:
    return false;
  }
  return false;
}

namespace {

std::string operandList(const Program &P, std::span<const Operand> Ops) {
  std::vector<std::string> Parts;
  Parts.reserve(Ops.size());
  for (const Operand &Op : Ops)
    Parts.push_back(printOperand(P, Op));
  return join(Parts, ", ");
}

} // namespace

std::string TransientInstr::str(const Program &P) const {
  switch (Kind) {
  case TransientKind::Op:
    return "(" + P.regName(Dest) + " = op(" + std::string(opcodeName(Opc)) +
           ", [" + operandList(P, Args) + "]))";
  case TransientKind::ResolvedValue:
    return "(" + P.regName(Dest) + " = " + Val.str() + ")";
  case TransientKind::Branch:
    return "br(" + std::string(opcodeName(Opc)) + ", [" +
           operandList(P, Args) + "], " + std::to_string(N0) + ", (" +
           std::to_string(NTrue) + ", " + std::to_string(NFalse) + "))";
  case TransientKind::Jump:
    return "jump " + std::to_string(N0);
  case TransientKind::Load:
    return "(" + P.regName(Dest) + " = load([" + operandList(P, Args) + "]))";
  case TransientKind::LoadGuessed:
    return "(" + P.regName(Dest) + " = load([" + operandList(P, Args) +
           "], (" + Val.str() + ", " + std::to_string(*Dep) + ")))";
  case TransientKind::LoadResolved:
    return "(" + P.regName(Dest) + " = " + Val.str() + "{" +
           (Dep ? std::to_string(*Dep) : std::string("_")) + ", " +
           toHex(LoadAddr) + "})";
  case TransientKind::Store: {
    std::string V = StoreValIsResolved ? StoreResolvedVal.str()
                                       : printOperand(P, StoreVal);
    std::string A = StoreAddrIsResolved
                        ? StoreAddr.str()
                        : "[" + operandList(P, Args) + "]";
    return "store(" + V + ", " + A + ")";
  }
  case TransientKind::JumpI:
    return "jmpi([" + operandList(P, Args) + "], " + std::to_string(N0) + ")";
  case TransientKind::CallMarker:
    return "call";
  case TransientKind::RetMarker:
    return "ret";
  case TransientKind::Fence:
    return "fence";
  }
  return "<invalid>";
}
