//===- sched/SequentialScheduler.h - Canonical sequential runs -*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical sequential schedule (§3.1 "Aside, on sequential
/// execution" and Definition B.3): every instruction is fetched, fully
/// executed, and retired before the next is fetched.  Branch guesses and
/// indirect-jump predictions are chosen correctly by peeking at the
/// architectural state (always possible: the buffer is empty at each
/// instruction boundary), so the canonical schedule never rolls back —
/// except for `ret` whose RSB prediction genuinely mismatches the
/// in-memory return address (the retpoline construction of Figure 13
/// relies on exactly that mismatch).
///
/// The sequential machine is the baseline for the paper's metatheory:
/// Theorem 3.2 (equivalence), Theorem B.9 (label stability), and the
/// classical constant-time baseline checker.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_SCHED_SEQUENTIALSCHEDULER_H
#define SCT_SCHED_SEQUENTIALSCHEDULER_H

#include "sched/Executor.h"

#include <functional>

namespace sct {

/// Result of a sequential run.
struct SequentialResult {
  RunResult Run;
  Schedule Sched;
  /// True iff the run stopped because it reached \p MaxRetires (e.g. a
  /// non-terminating program) rather than the end of the program.
  bool HitBound = false;
};

/// Called at each instruction boundary a sequential run passes (the
/// buffer is empty and the retire bound not yet reached), before the
/// instruction at `R.Run.Final.N` is fetched.
using BoundaryHook = std::function<void(const SequentialResult &R)>;

/// Runs the canonical sequential schedule from \p Init until the program
/// finishes or \p MaxRetires retire directives have been issued
/// (whichever comes first), calling \p AtBoundary (if set) at each
/// instruction boundary.
SequentialResult runSequential(const Machine &M, Configuration Init,
                               size_t MaxRetires = 1 << 20,
                               const BoundaryHook &AtBoundary = {});

/// Runs exactly \p N retire directives of the canonical sequential
/// schedule (the ⇓^N_seq of Theorem B.7); stops early at program end.
SequentialResult runSequentialN(const Machine &M, Configuration Init,
                                size_t N);

} // namespace sct

#endif // SCT_SCHED_SEQUENTIALSCHEDULER_H
