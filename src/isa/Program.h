//===- isa/Program.h - A complete program image ----------------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Program bundles the text section (instruction memory), named data
/// regions with their security labels, initial register/memory values, and
/// the entry point.  The paper uses a single memory µ mapping addresses to
/// both instructions and data; we split instruction memory (the text
/// section, indexed by program points) from the word-addressed data memory
/// — no semantics rule reads instructions through data accesses or vice
/// versa, so the split is behaviour-preserving (see DESIGN.md §2).
///
//===----------------------------------------------------------------------===//

#ifndef SCT_ISA_PROGRAM_H
#define SCT_ISA_PROGRAM_H

#include "isa/Instruction.h"
#include "support/Label.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sct {

/// A named, labelled range of data memory.  The region's label is attached
/// to every initial value inside it (the attacker's "secret" annotations of
/// §4.2.1).
struct MemRegion {
  std::string Name;
  uint64_t Base = 0;
  uint64_t Size = 0; ///< In words; each address holds one 64-bit value.
  Label RegionLabel;
};

/// A complete program image: text, data layout, and initial state.
class Program {
public:
  friend class ProgramBuilder;

  /// Number of instructions in the text section.
  size_t size() const { return Text.size(); }

  /// True iff \p N names an instruction (the fetch rules' "µ(n) defined").
  bool contains(PC N) const { return N < Text.size(); }

  /// The program point one past the last instruction; reaching it with an
  /// empty reorder buffer is the terminal configuration (Definition B.2).
  PC endPC() const { return static_cast<PC>(Text.size()); }

  /// Entry program point.
  PC entry() const { return Entry; }

  const Instruction &at(PC N) const {
    assert(contains(N) && "program point out of range");
    return Text[N];
  }

  Instruction &at(PC N) {
    assert(contains(N) && "program point out of range");
    return Text[N];
  }

  /// All instructions in program-point order.
  const std::vector<Instruction> &text() const { return Text; }

  /// Number of architectural registers (including rsp and rtmp).
  unsigned numRegs() const { return static_cast<unsigned>(RegNames.size()); }

  /// Name of register \p R ("rsp"/"rtmp" for the reserved pair).
  const std::string &regName(Reg R) const {
    assert(R.id() < RegNames.size() && "register id out of range");
    return RegNames[R.id()];
  }

  /// Looks a register up by name.
  std::optional<Reg> regByName(std::string_view Name) const;

  /// Declared memory regions.
  const std::vector<MemRegion> &regions() const { return Regions; }

  /// Looks a region up by name.
  const MemRegion *regionByName(std::string_view Name) const;

  /// Label of address \p Addr: the label of the containing region, or
  /// public if no region contains it.
  Label labelForAddr(uint64_t Addr) const;

  /// Initial register values (registers not listed start as 0 public).
  const std::vector<std::pair<Reg, uint64_t>> &regInits() const {
    return RegInits;
  }

  /// Initial memory values (addresses not listed start as 0, labelled per
  /// their region).
  const std::vector<std::pair<uint64_t, uint64_t>> &memInits() const {
    return MemInits;
  }

  /// Code labels (name -> program point), for diagnostics and printing.
  const std::map<std::string, PC, std::less<>> &codeLabels() const {
    return CodeLabels;
  }

  /// Name of program point \p N if a code label points at it.
  std::optional<std::string> labelAt(PC N) const;

  /// Structural validation: branch/call targets in range, register ids
  /// declared, operand arities consistent, region overlaps.  Returns a list
  /// of human-readable problems; empty means the program is well-formed.
  std::vector<std::string> validate() const;

private:
  std::vector<Instruction> Text;
  std::vector<std::string> RegNames;
  std::vector<MemRegion> Regions;
  std::vector<std::pair<Reg, uint64_t>> RegInits;
  std::vector<std::pair<uint64_t, uint64_t>> MemInits;
  std::map<std::string, PC, std::less<>> CodeLabels;
  PC Entry = 0;
};

} // namespace sct

#endif // SCT_ISA_PROGRAM_H
