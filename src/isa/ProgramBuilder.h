//===- isa/ProgramBuilder.h - Fluent program construction ------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fluent builder for Program.  Control-flow targets are given as string
/// labels and resolved at build() time, so programs can reference labels
/// forward.  Straight-line successors default to the next instruction.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_ISA_PROGRAMBUILDER_H
#define SCT_ISA_PROGRAMBUILDER_H

#include "isa/Program.h"

#include <initializer_list>

namespace sct {

/// Fluent builder.  Typical use:
/// \code
///   ProgramBuilder B;
///   Reg Ra = B.reg("ra");
///   B.region("A", 0x40, 4, Label::publicLabel());
///   B.br(Opcode::Ult, {B.r(Ra), B.imm(4)}, "body", "end");
///   B.label("body");
///   ...
///   B.label("end");
///   Program P = B.build();
/// \endcode
class ProgramBuilder {
public:
  ProgramBuilder();

  /// Declares (or returns the existing) register named \p Name.
  Reg reg(const std::string &Name);

  /// Looks up a register previously declared with reg(); does not declare.
  std::optional<Reg> lookupReg(std::string_view Name) const {
    return Prog.regByName(Name);
  }

  /// Shorthand operand constructors.
  static Operand r(Reg R) { return Operand::reg(R); }
  static Operand imm(uint64_t V) { return Operand::imm(V); }

  /// Attaches code label \p Name to the next emitted instruction.
  ProgramBuilder &label(const std::string &Name);

  /// Emits r = op(op, rv⃗, ·).
  ProgramBuilder &op(Reg Dest, Opcode Opc, std::vector<Operand> Args);
  /// Emits r = mov v.
  ProgramBuilder &movi(Reg Dest, uint64_t V);
  /// Emits br(cond, rv⃗, @TrueLabel, @FalseLabel).
  ProgramBuilder &br(Opcode Cond, std::vector<Operand> Args,
                     const std::string &TrueLabel,
                     const std::string &FalseLabel);
  /// Emits an unconditional direct jump (encoded br true).
  ProgramBuilder &jmp(const std::string &Target);
  /// Emits r = load(rv⃗, ·).
  ProgramBuilder &load(Reg Dest, std::vector<Operand> AddrArgs);
  /// Emits store(rv, rv⃗, ·).
  ProgramBuilder &store(Operand Val, std::vector<Operand> AddrArgs);
  /// Emits jmpi(rv⃗).
  ProgramBuilder &jmpi(std::vector<Operand> AddrArgs);
  /// Emits call(@Callee, ·).
  ProgramBuilder &call(const std::string &Callee);
  /// Emits calli(rv⃗, ·).
  ProgramBuilder &calli(std::vector<Operand> TargetArgs);
  /// Emits ret.
  ProgramBuilder &ret();
  /// Emits fence ·.
  ProgramBuilder &fence();
  /// Places \p I verbatim, trusting every field including the successor
  /// (used by ProgramRewriter, which computes layout itself).
  ProgramBuilder &raw(Instruction I);

  /// Declares a labelled data region.
  ProgramBuilder &region(const std::string &Name, uint64_t Base, uint64_t Size,
                         Label RegionLabel);
  /// Sets the initial value of a register (defaults to 0).
  ProgramBuilder &init(Reg R, uint64_t V);
  /// Sets initial memory words starting at \p Base.
  ProgramBuilder &data(uint64_t Base, std::initializer_list<uint64_t> Words);
  /// Sets the entry label (defaults to the first instruction).
  ProgramBuilder &entry(const std::string &Name);
  /// Sets the entry point directly (used by the assembler).
  ProgramBuilder &entryPC(PC N);
  /// Records code label \p Name at an explicit point unless the name is
  /// taken; returns whether it was recorded (used by the assembler).
  bool labelAtPC(std::string_view Name, PC N);

  /// Looks up a code label placed so far; does not declare.
  std::optional<PC> lookupLabel(std::string_view Name) const {
    auto It = Prog.CodeLabels.find(Name);
    if (It == Prog.CodeLabels.end())
      return std::nullopt;
    return It->second;
  }

  /// Sizes the text, init and data lists for a caller that knows their
  /// final lengths (the assembler).
  void reserve(size_t Instrs, size_t Inits, size_t Words) {
    Prog.Text.reserve(Instrs);
    Prog.RegInits.reserve(Inits);
    Prog.MemInits.reserve(Words);
  }

  /// The program point of a previously placed label; asserts existence.
  PC pcOf(const std::string &Name) const;

  /// Resolves all label references and successors and returns the program.
  /// Asserts on dangling labels; call Program::validate() for full checks.
  /// The program is moved out: the builder is spent afterwards, and only
  /// destroying it is valid.
  Program build();

private:
  struct PendingTarget {
    size_t InstrIndex;
    std::string TrueLabel;  // Branch true / Call callee.
    std::string FalseLabel; // Branch false.
    bool IsBranch;
  };

  Program Prog;
  std::vector<PendingTarget> Pending;
  std::vector<std::string> PendingLabels;

  void place(Instruction I);
};

} // namespace sct

#endif // SCT_ISA_PROGRAMBUILDER_H
