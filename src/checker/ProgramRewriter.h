//===- checker/ProgramRewriter.h - Structured program rewriting -*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small rewriting engine for program transformations (the fence and
/// retpoline mitigations): insert instructions before existing program
/// points, replace instructions with sequences, and append fresh blocks,
/// with all control-flow targets — branch targets, callees, successors,
/// the entry point, code labels, and designated code-pointer data words —
/// remapped to the new layout.
///
/// Instructions given to the rewriter express control flow in *old*
/// program-point coordinates (or virtual points returned by append());
/// apply() relocates them.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_CHECKER_PROGRAMREWRITER_H
#define SCT_CHECKER_PROGRAMREWRITER_H

#include "isa/Program.h"

#include <map>
#include <optional>

namespace sct {

/// Instruction-index provenance of a rewrite: where each old program
/// point ended up in the new layout, in both of the senses a consumer
/// needs.
///
///  - The *instruction* maps track the old instruction itself: `newOf(n)`
///    is the slot the instruction at old point `n` occupies in the new
///    program (nullopt if it was replaced away), and `oldOf(m)` inverts
///    that (nullopt for inserted/appended instructions, which have no old
///    identity).  Transient-instruction origins live in this coordinate
///    system.
///  - The *target* maps track control flow: `newTargetOf(n)` is where a
///    jump to old point `n` lands in the new program — the first
///    instruction inserted before `n`, when there is one.  Branch targets,
///    attacker-chosen indirect targets and RSB entries live here.
///
/// The mitigation engine (engine/MitigationSession.h) uses these maps to
/// relate leak origins across the transform, to relocate attacker-chosen
/// targets, and to replay baseline witnesses on the mitigated program.
struct ProvenanceMap {
  /// Sentinel for "no image".
  static constexpr PC None = 0xFFFFFFFF;

  /// Old instruction index -> its new slot (None if replaced away).
  std::vector<PC> InstrOldToNew;
  /// New slot -> the old instruction it carries (None if inserted).
  std::vector<PC> InstrNewToOld;
  /// Old control-flow point -> new landing point (size oldEndPC + 1; the
  /// end point maps too).
  std::vector<PC> TargetOldToNew;

  std::optional<PC> newOf(PC Old) const {
    if (Old >= InstrOldToNew.size() || InstrOldToNew[Old] == None)
      return std::nullopt;
    return InstrOldToNew[Old];
  }
  std::optional<PC> oldOf(PC New) const {
    if (New >= InstrNewToOld.size() || InstrNewToOld[New] == None)
      return std::nullopt;
    return InstrNewToOld[New];
  }
  std::optional<PC> newTargetOf(PC Old) const {
    if (Old >= TargetOldToNew.size())
      return std::nullopt;
    return TargetOldToNew[Old];
  }

  /// True iff the rewrite moved nothing: every instruction kept its index
  /// and nothing was inserted, replaced, or appended.
  bool identity() const;

  /// The identity provenance for \p P — what a transform that changed
  /// nothing reports.
  static ProvenanceMap identityFor(const Program &P);
};

/// Rewrites one program.
class ProgramRewriter {
public:
  /// Sentinel successor: apply() points the instruction at itself (used
  /// for the self-looping fence trap of the retpoline construction).
  static constexpr PC SelfLoop = 0xFFFFFFFF;

  explicit ProgramRewriter(const Program &P) : Orig(P) {}

  /// Inserts \p I immediately before old program point \p At; everything
  /// that targeted \p At now targets the inserted instruction.  Multiple
  /// insertions at one point keep their call order.  \p At may be the old
  /// end point (appending an epilogue).
  void insertBefore(PC At, Instruction I);

  /// Replaces the instruction at old point \p At with \p Seq (straight-
  /// line; the last element falls through to the old successor unless it
  /// has explicit targets).
  void replace(PC At, std::vector<Instruction> Seq);

  /// Appends a fresh block after the program; returns the virtual program
  /// point of its first instruction, usable as a branch/call target in
  /// other rewriter instructions.
  PC append(std::vector<Instruction> Block);

  /// Declares that the data word initialised at \p Addr holds a code
  /// pointer and must be remapped.
  void markCodePointer(uint64_t Addr) { CodePointers.push_back(Addr); }

  /// Declares that register \p R's initial value is a code pointer and
  /// must be remapped (e.g. a function pointer seeded through `.init`).
  void markCodePointerReg(Reg R) { CodePointerRegs.push_back(R); }

  /// Declares an extra (scratch) register for use by rewritten code;
  /// usable in rewriter instructions immediately.
  Reg scratchReg(const std::string &Name);

  /// Runs the rewrite.
  Program apply();

  /// After apply(): the new location of old (or virtual) point \p OldPC.
  PC newPC(PC OldPC) const;

  /// After apply(): the full instruction-index provenance of the rewrite.
  ProvenanceMap provenance() const;

private:
  const Program &Orig;
  std::map<PC, std::vector<Instruction>> Inserted;
  std::map<PC, std::vector<Instruction>> Replaced;
  std::vector<std::vector<Instruction>> Appended;
  std::vector<uint64_t> CodePointers;
  std::vector<Reg> CodePointerRegs;
  std::vector<std::string> ExtraRegs;
  std::map<PC, PC> Remap;
  /// Per new slot: the old instruction index it carries, or
  /// ProvenanceMap::None for inserted/replacement/appended slots.
  std::vector<PC> SlotOldPC;
  bool Applied = false;
};

} // namespace sct

#endif // SCT_CHECKER_PROGRAMREWRITER_H
