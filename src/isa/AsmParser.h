//===- isa/AsmParser.h - Textual assembler ---------------------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A line-oriented assembler for the paper's ISA.  Example:
///
/// \code
///   ; Figure 1 of the paper.
///   .reg ra rb rc
///   .init ra 9
///   .region A   0x40 4 public
///   .region B   0x44 4 public
///   .region Key 0x48 4 secret
///   .entry start
///   start:
///     br ult ra, 4 -> body, end
///   body:
///     rb = load [0x40, ra]
///     rc = load [0x44, rb]
///   end:
/// \endcode
///
/// Statement forms:
///   `reg = load [a, b, ...]`          memory load
///   `reg = OPC a, b, ...`             arithmetic op (OPC a mnemonic)
///   `store v, [a, b, ...]`            memory store
///   `br COND a, b -> tlbl, flbl`      conditional branch
///   `jmp lbl`                         direct jump (encoded br true)
///   `jmpi [a, b, ...]`                indirect jump
///   `call lbl` / `ret` / `fence`
///
/// Operands are declared register names, integer literals (decimal,
/// 0x-hex, or negative decimal), or `@lbl` — the program point of a code
/// label as an immediate (for jump tables and RSB experiments).
/// Directives: `.reg`, `.init`, `.region NAME BASE SIZE public|secret
/// [SRC]`, `.data BASE W...`, `.entry LBL`.  Comments start with `;` or
/// `#`.
///
/// **Numbers.**  A numeral is an optional `-`, an optional `0x`, and the
/// alphanumeric run after them, every character of which must be a digit
/// of the base; the value must fit in 64 bits before negation.  `12abc`,
/// `0x` and `0x1ffffffffffffffff` are errors, not `12`, `0` and a
/// saturated all-ones word.
///
/// **One pass.**  The parser reads the source once, as `std::string_view`
/// tokens: no per-line or per-token copies, numbers converted in place,
/// each label lexed once.  A use of a label (`br … -> L`, `jmp L`,
/// `call L`, and `@L` in operands, `.init` and `.data`) gets a placeholder
/// and an entry in one fixup list, resolved when the source has been
/// read.  Diagnostics are reported in this order: duplicate labels alone
/// if there are any; otherwise errors in line order (an unknown label
/// ends its line's diagnostics), then an unknown `.entry` label;
/// otherwise validation problems (line 0).
///
//===----------------------------------------------------------------------===//

#ifndef SCT_ISA_ASMPARSER_H
#define SCT_ISA_ASMPARSER_H

#include "isa/Program.h"

#include <string_view>

namespace sct {

/// A parse diagnostic with its 1-based source line.
struct ParseError {
  unsigned Line = 0;
  std::string Message;
};

/// Result of assembling a source string.
struct ParseResult {
  std::optional<Program> Prog;
  std::vector<ParseError> Errors;

  bool ok() const { return Prog.has_value() && Errors.empty(); }

  /// All diagnostics as "line N: msg" joined with newlines.
  std::string errorText() const;
};

/// Assembles \p Source into a Program.
ParseResult parseAsm(std::string_view Source);

/// Convenience wrapper for known-good sources (tests, workloads): asserts
/// that parsing and validation succeed and returns the program.
Program parseAsmOrDie(std::string_view Source);

} // namespace sct

#endif // SCT_ISA_ASMPARSER_H
