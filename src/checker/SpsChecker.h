//===- checker/SpsChecker.h - Sequential proofs of SCT ---------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SPS proof backend: enumerates misprediction-oracle tapes for the
/// speculation-passing-style translation (SpsTranslator) and runs the
/// classical *sequential* CT analysis once per tape.  Unlike the schedule
/// explorer — which can only find leaks or exhaust budgets — this checker
/// returns one of three verdicts:
///
///  - Proved: no tape produces a secret observation; the source program
///    is speculative constant-time within the explorer fragment the
///    translation models (v1/v1.1: hazards off, no mistraining sets).
///  - CounterExample: some tape leaks; each counterexample carries the
///    source program point (via the provenance map), the observation,
///    whether it occurred on a wrong path, and the tape reproducing it.
///  - Inconclusive: the options lie outside the fragment, a budget was
///    hit before the tape tree was exhausted, or a run strayed into
///    unmodelled territory (harness-space access, genuine RSB mismatch).
///
/// Tape enumeration is the standard lazy-oracle DFS: run a tape (words
/// beyond its end read as 0, "predict correctly") and branch a child tape
/// per oracle consult position the run made and the tape did not pin.  A
/// child reads the same words as its parent up to the consult it flips,
/// so it resumes from a copy-on-write snapshot of the parent's run there:
/// each edge of the tape tree runs once (`SpsReport::RetiresTotal` still
/// counts every tape's run in full).  Fenced programs collapse almost
/// immediately — an excursion that hits a fence stops consulting — which
/// is exactly why kocher-05's fenced tree is seconds here and 8M steps
/// for the explorer.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_CHECKER_SPSCHECKER_H
#define SCT_CHECKER_SPSCHECKER_H

#include "checker/SpsTranslator.h"
#include "core/Observation.h"

#include <string>
#include <vector>

namespace sct {

/// Budgets for the tape enumeration.
struct SpsOptions {
  /// Max oracle tapes to run before giving up on a proof.
  uint64_t MaxTapes = 1 << 13;
  /// Retire bound per sequential run of P̂.
  size_t MaxRetiresPerTape = 1 << 18;
  /// Stop collecting counterexamples past this many.
  size_t MaxCounterExamples = 256;
  /// Return on the first counterexample (for verdict-only callers).
  bool StopAtFirstCounterExample = false;
  /// Gate oracle consults by the speculation window instead of the
  /// explorer's branch-depth fork filter.  The window bounds *any*
  /// nesting the explorer can realise (every in-flight wrong guess
  /// occupies a buffer entry), so a Proved verdict is sound regardless
  /// of how the explorer's depth gate interacts with fences in flight —
  /// and the depth clip that would otherwise force Inconclusive on
  /// looping programs becomes unreachable.  Leave this off for
  /// differential agreement checks: window-depth counterexamples may
  /// exceed the explorer's MaxBranchDepth and read as disagreements.
  bool DepthToWindow = false;
};

enum class SpsVerdict : unsigned char { Proved, CounterExample, Inconclusive };

/// One secret observation, lowered back to source coordinates.
struct SpsCounterExample {
  PC Origin = 0;           ///< source instruction the observation maps to
  bool Speculative = false; ///< on a wrong path (vs. architecturally)?
  Observation Obs;         ///< the secret observation itself
  PC TransPC = 0;          ///< P̂ instruction that emitted it
  std::vector<uint64_t> Tape; ///< oracle tape reproducing the leak
};

/// The proof backend's report.
struct SpsReport {
  SpsVerdict Verdict = SpsVerdict::Inconclusive;
  std::string Reason; ///< set when Inconclusive (or truncated)
  std::vector<SpsCounterExample> CounterExamples;
  /// True iff the whole tape tree was enumerated within budget — required
  /// for Proved, and for treating the counterexample set as *complete*
  /// (cross-validation matches explorer leaks against it only then).
  bool Complete = false;
  uint64_t TapesRun = 0;
  uint64_t RetiresTotal = 0;
  double Seconds = 0;

  bool proved() const { return Verdict == SpsVerdict::Proved; }
  bool conclusive() const { return Verdict != SpsVerdict::Inconclusive; }
  /// True iff some counterexample maps to source pc \p Origin.
  bool hasCounterExampleAt(PC Origin) const;
};

/// Proves or refutes speculative constant-time for \p P under the
/// explorer fragment \p EOpts describes.  Returns Inconclusive (with a
/// reason) when the fragment is unsupported — never wrong, sometimes
/// silent.
SpsReport checkSps(const Program &P, const ExplorerOptions &EOpts,
                   const MachineOptions &MOpts = {},
                   const SpsOptions &Opts = {});

} // namespace sct

#endif // SCT_CHECKER_SPSCHECKER_H
