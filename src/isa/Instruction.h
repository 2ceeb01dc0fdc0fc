//===- isa/Instruction.h - Physical instructions ---------------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Physical (architectural) instructions — the left column of the paper's
/// Table 1:
///
///   (r = op(op, rv⃗, n'))        arithmetic operation
///   br(op, rv⃗, ntrue, nfalse)   conditional branch
///   (r = load(rv⃗, n'))          memory load
///   store(rv, rv⃗, n')           memory store
///   jmpi(rv⃗)                    indirect jump
///   call(nf, nret)              function call
///   ret                         function return
///   fence n                     speculation barrier
///
/// Program points `n` are indices into a Program's text section; the
/// explicit successor `n'` is stored in Instruction::Next.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_ISA_INSTRUCTION_H
#define SCT_ISA_INSTRUCTION_H

#include "isa/Opcode.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace sct {

/// A program point: an index into a Program's text section.
using PC = uint32_t;

/// A register name.  Two registers are architecturally reserved for the
/// call/ret expansion of Appendix A.2: `rsp` (stack pointer) and `rtmp`
/// (return-address temporary).
class Reg {
public:
  static constexpr uint16_t SpId = 0;
  static constexpr uint16_t TmpId = 1;
  static constexpr uint16_t FirstUserId = 2;

  constexpr Reg() = default;
  explicit constexpr Reg(uint16_t Id) : Id(Id) {}

  /// The reserved stack-pointer register `rsp`.
  static constexpr Reg sp() { return Reg(SpId); }
  /// The reserved return-address temporary `rtmp`.
  static constexpr Reg tmp() { return Reg(TmpId); }

  constexpr uint16_t id() const { return Id; }
  constexpr bool operator==(const Reg &Other) const = default;

private:
  uint16_t Id = 0;
};

/// An instruction operand `rv`: a register or an immediate value.
/// Immediates embedded in program text are public by construction.
class Operand {
public:
  /// Creates a register operand.
  static Operand reg(Reg R) {
    Operand Op;
    Op.IsReg = true;
    Op.R = R;
    return Op;
  }

  /// Creates an immediate operand.
  static Operand imm(uint64_t V) {
    Operand Op;
    Op.IsReg = false;
    Op.Imm = V;
    return Op;
  }

  bool isReg() const { return IsReg; }
  bool isImm() const { return !IsReg; }

  Reg getReg() const {
    assert(IsReg && "not a register operand");
    return R;
  }

  uint64_t getImm() const {
    assert(!IsReg && "not an immediate operand");
    return Imm;
  }

  bool operator==(const Operand &Other) const {
    if (IsReg != Other.IsReg)
      return false;
    return IsReg ? R == Other.R : Imm == Other.Imm;
  }

private:
  bool IsReg = false;
  Reg R;
  uint64_t Imm = 0;
};

/// Kinds of physical instructions (Table 1, left column).
enum class InstrKind : unsigned char {
  Op,     ///< r = op(op, rv⃗, n')
  Branch, ///< br(op, rv⃗, ntrue, nfalse)
  Load,   ///< r = load(rv⃗, n')
  Store,  ///< store(rv, rv⃗, n')
  JumpI,  ///< jmpi(rv⃗)
  Call,   ///< call(nf, nret)
  CallI,  ///< calli(rv⃗, nret) — indirect call (App. A.1's omitted
          ///< extension: "imitating the semantics for indirect jumps")
  Ret,    ///< ret
  Fence,  ///< fence n
};

/// A physical instruction.  A single tagged class (in the style of LLVM's
/// MachineInstr) rather than a class hierarchy; accessors assert the kind.
class Instruction {
public:
  /// Builds r = op(op, rv⃗, ·).
  static Instruction makeOp(Reg Dest, Opcode Opc, std::vector<Operand> Args);
  /// Builds br(cond, rv⃗, ntrue, nfalse).
  static Instruction makeBranch(Opcode Cond, std::vector<Operand> Args,
                                PC NTrue, PC NFalse);
  /// Builds r = load(rv⃗, ·).
  static Instruction makeLoad(Reg Dest, std::vector<Operand> AddrArgs);
  /// Builds store(rv, rv⃗, ·).
  static Instruction makeStore(Operand Val, std::vector<Operand> AddrArgs);
  /// Builds jmpi(rv⃗).
  static Instruction makeJumpI(std::vector<Operand> AddrArgs);
  /// Builds call(nf, ·); the return point nret is the successor Next.
  static Instruction makeCall(PC Callee);
  /// Builds calli(rv⃗, ·); the callee is computed from the operands.
  static Instruction makeCallI(std::vector<Operand> TargetArgs);
  /// Builds ret.
  static Instruction makeRet();
  /// Builds fence ·.
  static Instruction makeFence();

  InstrKind kind() const { return Kind; }
  bool is(InstrKind K) const { return Kind == K; }

  /// Destination register (Op, Load).
  Reg dest() const {
    assert((Kind == InstrKind::Op || Kind == InstrKind::Load) &&
           "instruction has no destination register");
    return Dest;
  }

  /// Operation or branch-condition opcode (Op, Branch).
  Opcode opcode() const {
    assert((Kind == InstrKind::Op || Kind == InstrKind::Branch) &&
           "instruction has no opcode");
    return Opc;
  }

  /// Operand list rv⃗ (Op/Branch condition args, Load/Store/JumpI address
  /// args).  Empty for Call/Ret/Fence.
  const std::vector<Operand> &args() const { return Args; }

  /// Value operand rv of a Store.
  Operand storeValue() const {
    assert(Kind == InstrKind::Store && "not a store");
    return StoreVal;
  }

  PC trueTarget() const {
    assert(Kind == InstrKind::Branch && "not a branch");
    return NTrue;
  }

  PC falseTarget() const {
    assert(Kind == InstrKind::Branch && "not a branch");
    return NFalse;
  }

  PC callee() const {
    assert(Kind == InstrKind::Call && "not a call");
    return Callee;
  }

  /// Successor program point n' (the return point nret for Call).
  PC next() const { return Next; }

  /// Sets the successor program point; called by Program finalization.
  void setNext(PC N) { Next = N; }

  /// Rewrites the control-flow targets of a Branch.
  void setBranchTargets(PC TrueTarget, PC FalseTarget) {
    assert(Kind == InstrKind::Branch && "not a branch");
    NTrue = TrueTarget;
    NFalse = FalseTarget;
  }

  /// Rewrites the callee of a Call.
  void setCallee(PC NewCallee) {
    assert(Kind == InstrKind::Call && "not a call");
    Callee = NewCallee;
  }

  /// Rewrites operand \p I of rv⃗.
  void setArg(size_t I, Operand Op) {
    assert(I < Args.size() && "operand index out of range");
    Args[I] = Op;
  }

  /// Rewrites the value operand rv of a Store.
  void setStoreValue(Operand Op) {
    assert(Kind == InstrKind::Store && "not a store");
    StoreVal = Op;
  }

private:
  InstrKind Kind = InstrKind::Fence;
  Opcode Opc = Opcode::True;
  Reg Dest;
  Operand StoreVal = Operand::imm(0);
  std::vector<Operand> Args;
  PC NTrue = 0;
  PC NFalse = 0;
  PC Callee = 0;
  PC Next = 0;
};

} // namespace sct

#endif // SCT_ISA_INSTRUCTION_H
