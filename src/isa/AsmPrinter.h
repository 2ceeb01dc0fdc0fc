//===- isa/AsmPrinter.h - Program pretty-printer ---------------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders Programs (and single instructions) back to the assembler syntax
/// accepted by AsmParser; `parseAsm(printAsm(P))` round-trips.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_ISA_ASMPRINTER_H
#define SCT_ISA_ASMPRINTER_H

#include "isa/Program.h"

#include <string>

namespace sct {

/// Renders one operand ("ra", "42", "0x40").
std::string printOperand(const Program &P, const Operand &Op);

/// Renders the instruction at \p N in assembler syntax (one line, no
/// label prefix).  Branch/call targets print as "pc<N>" pseudo-labels when
/// the program has no label at the target ('_' appended while a real
/// label has that name).
std::string printInstruction(const Program &P, PC N);

/// Renders the whole program: directives, then the text section with code
/// labels.  The output parses back to an equivalent program.
std::string printAsm(const Program &P);

} // namespace sct

#endif // SCT_ISA_ASMPRINTER_H
