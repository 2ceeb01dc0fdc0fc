//===- tests/RandomProgram.h - Random well-formed program generator ---------===//
//
// Generates small random programs for the metatheory property tests:
// forward-only branches (so sequential execution terminates), arithmetic
// over a small register file, loads/stores into a compact address range
// with both public and secret regions, fences, and optionally a leaf call
// and a forward indirect jump.
//
//===----------------------------------------------------------------------===//

#ifndef SCT_TESTS_RANDOMPROGRAM_H
#define SCT_TESTS_RANDOMPROGRAM_H

#include "isa/ProgramBuilder.h"

#include <optional>
#include <random>
#include <string>

namespace sct {

struct RandomProgramOptions {
  unsigned MinLength = 8;
  unsigned MaxLength = 24;
  bool WithCalls = true;
  /// Sometimes emit one forward `jmpi` through a register initialised to
  /// the target label's pc, in place of a forward branch.
  bool WithJumpI = false;
  /// Sometimes wrap the body in a small bounded counted loop (backward
  /// branch, trip count <= 4) — the kocher-05 shape whose speculative
  /// schedule tree blows up while its oracle-tape tree stays tiny.
  bool WithLoops = false;
  /// Sometimes emit a Spectre-v1 gadget shape: a conditionally-guarded
  /// load of pub[index] followed by a dependent table load — the
  /// double-fetch pattern whose *second* access leaks under
  /// misspeculation.
  bool WithTableLoads = false;
};

/// Builds a random program from \p Seed.
inline Program randomProgram(uint64_t Seed,
                             RandomProgramOptions Opts = {}) {
  std::mt19937_64 Rng(Seed);
  auto Pick = [&](uint64_t N) { return Rng() % N; };

  ProgramBuilder B;
  std::vector<Reg> Regs;
  for (const char *Name : {"r0", "r1", "r2", "r3"})
    Regs.push_back(B.reg(Name));
  for (size_t I = 0; I < Regs.size(); ++I)
    B.init(Regs[I], Pick(16));
  B.init(Reg::sp(), 0x3F);
  B.region("stack", 0x30, 16, Label::publicLabel());
  B.region("pub", 0x40, 8, Label::publicLabel());
  B.region("sec", 0x48, 8, Label::secret());
  for (uint64_t A = 0x40; A < 0x50; ++A)
    B.data(A, {Pick(8)});
  if (Opts.WithTableLoads) {
    // The side-channel surface for the v1 gadget shape (array2).
    B.region("table", 0x60, 32, Label::publicLabel());
    for (uint64_t A = 0x60; A < 0x80; ++A)
      B.data(A, {Pick(8)});
  }

  auto RandomReg = [&] { return Regs[Pick(Regs.size())]; };
  auto RandomOperand = [&]() -> Operand {
    if (Pick(2))
      return ProgramBuilder::r(RandomReg());
    return ProgramBuilder::imm(Pick(16));
  };
  // Addresses: base in the data range plus a small register/immediate
  // offset, so most accesses land in the labelled regions.
  auto RandomAddr = [&]() -> std::vector<Operand> {
    std::vector<Operand> A{ProgramBuilder::imm(0x40 + Pick(14))};
    if (Pick(2))
      A.push_back(Pick(2) ? ProgramBuilder::r(RandomReg())
                          : ProgramBuilder::imm(Pick(3)));
    return A;
  };

  unsigned Length =
      Opts.MinLength + static_cast<unsigned>(
                           Pick(Opts.MaxLength - Opts.MinLength + 1));
  bool EmitCall = Opts.WithCalls && Pick(2) == 0;
  bool UseCalliPointer = false;
  Reg CalliReg;
  std::optional<Reg> JumpIReg;
  std::string JumpITarget;
  bool EmitLoop = Opts.WithLoops && Pick(4) < 3;
  Reg LoopC;
  unsigned Trip = 0;
  if (EmitLoop) {
    LoopC = B.reg("lc");
    B.init(LoopC, 0);
    Trip = 2 + static_cast<unsigned>(Pick(3));
  }

  static constexpr Opcode ArithOps[] = {
      Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::And, Opcode::Or,
      Opcode::Xor, Opcode::Shl, Opcode::Shr, Opcode::Ult, Opcode::Eq,
      Opcode::Select};
  static constexpr Opcode CondOps[] = {Opcode::Eq, Opcode::Ne, Opcode::Ult,
                                       Opcode::Ule, Opcode::Ugt};

  if (EmitLoop)
    B.label("loop");
  for (unsigned N = 0; N < Length; ++N) {
    std::string Here = "i" + std::to_string(N);
    B.label(Here);
    switch (Pick(Opts.WithTableLoads ? 12 : 10)) {
    case 0:
    case 1:
    case 2: {
      Opcode Opc = ArithOps[Pick(std::size(ArithOps))];
      std::vector<Operand> Args;
      for (unsigned A = 0; A < opcodeArity(Opc); ++A)
        Args.push_back(RandomOperand());
      B.op(RandomReg(), Opc, std::move(Args));
      break;
    }
    case 3:
    case 4:
      B.load(RandomReg(), RandomAddr());
      break;
    case 5:
    case 6:
      B.store(Pick(2) ? ProgramBuilder::r(RandomReg())
                      : ProgramBuilder::imm(Pick(16)),
              RandomAddr());
      break;
    case 7: {
      if (Opts.WithJumpI && !JumpIReg && Pick(2) == 0) {
        // Forward indirect jump through a register that nothing else
        // writes, initialised below to a later label's pc (as the calli
        // pointer is).
        JumpIReg = B.reg("jp");
        JumpITarget =
            "i" + std::to_string(std::min(N + 1 + unsigned(Pick(3)), Length));
        B.jmpi({ProgramBuilder::r(*JumpIReg)});
        break;
      }
      // Forward-only branch: both targets strictly later.
      unsigned TT = N + 1 + static_cast<unsigned>(Pick(3));
      unsigned FT = N + 1 + static_cast<unsigned>(Pick(3));
      Opcode Cond = CondOps[Pick(std::size(CondOps))];
      B.br(Cond, {RandomOperand(), RandomOperand()},
           "i" + std::to_string(std::min(TT, Length)),
           "i" + std::to_string(std::min(FT, Length)));
      break;
    }
    case 8:
      B.fence();
      break;
    case 10:
    case 11: {
      // Spectre-v1 gadget: a bounds check guarding pub[idx], then a
      // dependent table access — speculatively the check mispredicts,
      // the first load runs off the end of pub into sec, and the second
      // load's address carries the secret.
      Reg Idx = RandomReg();
      Reg Val = RandomReg();
      std::string In = "g" + std::to_string(N);
      std::string Skip = "i" + std::to_string(N + 1);
      B.br(Opcode::Ult, {ProgramBuilder::r(Idx), ProgramBuilder::imm(8)}, In,
           Skip);
      B.label(In);
      B.load(Val, {ProgramBuilder::imm(0x40), ProgramBuilder::r(Idx)});
      B.load(RandomReg(), {ProgramBuilder::imm(0x60), ProgramBuilder::r(Val)});
      break;
    }
    default:
      B.movi(RandomReg(), Pick(32));
      break;
    }
  }
  B.label("i" + std::to_string(Length));
  if (EmitLoop) {
    // Counted back-edge: the only backward branch, bounded by Trip, so
    // sequential runs still terminate.
    B.op(LoopC, Opcode::Add,
         {ProgramBuilder::r(LoopC), ProgramBuilder::imm(1)});
    B.br(Opcode::Ult, {ProgramBuilder::r(LoopC), ProgramBuilder::imm(Trip)},
         "loop", "loopout");
    B.label("loopout");
  }
  if (EmitCall) {
    // A tail region with a leaf function called from the end — half the
    // time through a function pointer (the calli extension), which also
    // exercises wild callee predictions in random schedules.
    if (Pick(2) == 0) {
      B.call("leaf");
    } else {
      Reg Fp = B.reg("fp");
      B.calli({ProgramBuilder::r(Fp)});
      UseCalliPointer = true;
      CalliReg = Fp;
    }
    B.jmp("end");
    B.label("leaf");
    B.op(RandomReg(), Opcode::Add, {RandomOperand(), RandomOperand()});
    B.ret();
    B.label("end");
  }
  B.movi(Regs[0], 0);
  if (UseCalliPointer)
    B.init(CalliReg, B.pcOf("leaf"));
  if (JumpIReg)
    B.init(*JumpIReg, B.pcOf(JumpITarget));
  return B.build();
}

} // namespace sct

#endif // SCT_TESTS_RANDOMPROGRAM_H
