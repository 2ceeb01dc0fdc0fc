//===- engine/SessionArgs.h - Declarative session flag table ---*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session flag table: every CLI knob that maps onto SessionOptions
/// lives in one declarative row — name, value placeholder, doc line,
/// setter — so a new flag is one table entry instead of parallel edits in
/// each driver's strcmp chain, and `--help` output is generated from the
/// same rows that parse.  Shared by `sctcheck` and the bench mains;
/// drivers with extra flags of their own call parseSessionArgs first and
/// then walk the unconsumed arguments.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_ENGINE_SESSIONARGS_H
#define SCT_ENGINE_SESSIONARGS_H

#include "engine/CheckSession.h"

#include <span>
#include <stdexcept>
#include <vector>

namespace sct {

/// One row of the flag table.
struct SessionFlag {
  /// Flag spelling, e.g. "--threads".
  const char *Name;
  /// Placeholder for the value argument in help output ("N", "DIR", ...);
  /// null for boolean flags that take no value.
  const char *Arg;
  /// One-line help text.
  const char *Doc;
  /// Applies the flag: \p Value is the following argv word when `Arg` is
  /// set, null otherwise.
  void (*Apply)(SessionOptions &Opts, const char *Value);
};

/// The table itself, for drivers that want to iterate or extend docs.
std::span<const SessionFlag> sessionFlags();

/// What parseSessionArgs consumed.
struct SessionArgs {
  SessionOptions Opts;
  /// Per-argv-slot consumption map (size Argc; slot 0 — the program name
  /// — is never consumed).  A driver with its own flags walks argv once
  /// more and treats any unconsumed slot as its own.
  std::vector<bool> Consumed;
};

/// Parses every table flag out of argv into fresh SessionOptions
/// (thread budget defaulted to the hardware concurrency), marking the
/// consumed slots.  Unknown arguments are left untouched for the driver.
/// A numeric value must be a whole decimal number within the flag's range
/// (thread counts at most 1024); a bad value, or a value-taking flag with
/// nothing after it, throws std::invalid_argument whose message names the
/// flag.
SessionArgs parseSessionArgs(int Argc, char **Argv);

/// The reader behind every numeric flag: parses all of \p V as a decimal
/// integer in [\p Min, \p Max].  A sign, whitespace, trailing characters
/// or an out-of-range value throws std::invalid_argument naming the value
/// and the range; callers prefix the flag name.
uint64_t parseInteger(const char *V, uint64_t Min, uint64_t Max);

/// Help text generated from the table: one aligned "  --flag ARG  doc"
/// row per entry, ready to append to a driver's usage output.
std::string sessionFlagsHelp();

} // namespace sct

#endif // SCT_ENGINE_SESSIONARGS_H
