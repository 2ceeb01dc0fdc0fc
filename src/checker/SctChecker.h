//===- checker/SctChecker.h - The Pitchfork-style SCT checker --*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The speculative constant-time checker (§4): explores the worst-case
/// attacker schedules DT(n) and flags secret-labelled observations.  By
/// label soundness (Theorem B.9 and the discussion of §3.1), a program
/// whose explored traces carry no secret label satisfies SCT for all
/// schedules within the speculation bound; a secret-labelled observation
/// is a replayable violation witness.
///
/// The two evaluation modes of §4.2.1 are packaged as presets:
///   - `v1v11Mode()`  — speculation bound 250, forwarding-hazard
///     detection off (Spectre v1 / v1.1 only);
///   - `v4Mode()`     — speculation bound 20, forwarding-hazard
///     detection on (adds Spectre v4 / stale forwards).
///
/// Both presets leave the engine knobs (`Threads`, `PruneSeen`) at their
/// defaults; callers tune them on the returned ExplorerOptions before
/// checking.
///
/// **Thread-safety and determinism.**  The free functions here are
/// stateless: they build a fresh CheckSession per call and may run
/// concurrently on distinct or identical programs.  The verdict
/// (`secure()`) and the deduplicated leak set of a report are independent
/// of `Threads`/`PruneSeen`; exploration counters
/// are reproducible exactly whenever `Threads <= 1` — pruned (the
/// default) or not — and additionally N-independent with `PruneSeen` off
/// (the engine's determinism contract, sched/ScheduleExplorer.h).
///
//===----------------------------------------------------------------------===//

#ifndef SCT_CHECKER_SCTCHECKER_H
#define SCT_CHECKER_SCTCHECKER_H

#include "checker/Violation.h"
#include "engine/CheckSession.h"

namespace sct {

/// A full checker verdict for one program.
struct SctReport {
  ExploreResult Exploration;
  /// The options used (for reporting).
  ExplorerOptions Opts;
  /// Wall-clock seconds spent exploring.
  double Seconds = 0;

  bool secure() const { return Exploration.secure(); }
};

/// Converts an engine result into a checker report.
SctReport toReport(CheckResult R);

/// Checker presets mirroring §4.2.1.
ExplorerOptions v1v11Mode();
ExplorerOptions v4Mode();

/// Checks \p P from its initial configuration under \p Opts.  Routed
/// through the engine layer: `Opts.Threads` workers drain the frontier.
SctReport checkSct(const Program &P, const ExplorerOptions &Opts,
                   const MachineOptions &MOpts = {});

/// Convenience: checks under both §4.2.1 modes; returns the pair
/// (v1/v1.1 verdict, v4 verdict).  The paper's Table 2 `f` marker means
/// "first secure, second insecure".
struct TwoModeReport {
  SctReport V1V11;
  SctReport V4;

  bool flaggedWithoutForwarding() const { return !V1V11.secure(); }
  bool flaggedOnlyWithForwarding() const {
    return V1V11.secure() && !V4.secure();
  }
  bool secure() const { return V1V11.secure() && V4.secure(); }

  /// Table-2 cell: "✓" flagged without forwarding, "f" only with, "—"
  /// clean.
  std::string cell() const;
};

/// With \p Threads > 1 the two modes run concurrently as one engine
/// batch.
TwoModeReport checkSctBothModes(const Program &P,
                                const MachineOptions &MOpts = {},
                                unsigned Threads = 1);

} // namespace sct

#endif // SCT_CHECKER_SCTCHECKER_H
