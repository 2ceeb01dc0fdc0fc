//===- sched/Executor.h - Big-step execution C ⇓_D C' ----------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a whole schedule against a configuration, recording the directive,
/// observation, and fired rule of every step — the big-step judgement
/// C ⇓^N_D C' with trace O (§3.1).
///
//===----------------------------------------------------------------------===//

#ifndef SCT_SCHED_EXECUTOR_H
#define SCT_SCHED_EXECUTOR_H

#include "core/Machine.h"
#include "sched/Schedule.h"

namespace sct {

/// One recorded step.
struct StepRecord {
  Directive D;
  Observation Obs;
  RuleId Rule;
};

/// Result of running a schedule.
struct RunResult {
  Configuration Final;
  std::vector<StepRecord> Trace;
  /// N: number of retire directives executed.
  size_t Retires = 0;
  /// True iff some directive was inapplicable; the run stops there (the
  /// schedule was not well-formed for the configuration).
  bool Stuck = false;
  size_t StuckAt = 0;
  std::string StuckReason;

  /// The leakage trace O: all non-silent observations in order.
  std::vector<Observation> observations() const;

  /// True iff some observation carries a secret label (an SCT violation
  /// witness under label soundness, Theorem B.9).
  bool hasSecretObservation() const;

  /// Attacker-visible trace equality with \p Other (Definition 3.1's
  /// O = O').
  bool sameObservations(const RunResult &Other) const;
};

/// Program point responsible for a directive's observation in \p C, read
/// *before* stepping (a rollback may remove the entry): the executed
/// entry's origin, the retiring (oldest) entry's origin, or the current
/// fetch point.  The explorer, the witness minimizer, the sequential
/// driver, and the tests all attribute leaks through this one helper so
/// their `LeakRecord::key()`s and SPS counterexample origins agree.
inline PC leakOriginOf(const Configuration &C, const Directive &D) {
  if (D.isExecute() && C.Buf.contains(D.Idx))
    return C.Buf.at(D.Idx).Origin;
  if (D.isRetire() && !C.Buf.empty())
    return C.Buf.at(C.Buf.minIndex()).Origin;
  return C.N;
}

/// Runs \p D from \p Init; stops early if a directive is inapplicable.
RunResult runSchedule(const Machine &M, Configuration Init, const Schedule &D);

/// Renders a run as the paper's three-column "Directive | Effect |
/// Leakage" tables (see Figures 1, 2, 5-7, 11-13).
std::string printRun(const Machine &M, const Configuration &Init,
                     const Schedule &D);

} // namespace sct

#endif // SCT_SCHED_EXECUTOR_H
