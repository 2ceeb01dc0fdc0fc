//===- engine/MitigationSession.h - Mitigation validation engine -*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mitigation engine: checks a baseline program, applies any list of
/// `Mitigation` transforms (checker/Mitigation.h), re-checks each
/// mitigated variant, and reports — per baseline leak — whether the
/// transform closed it and at what placement cost.  On top of the report
/// it offers a *minimal fence placement* search: shrink a blanket
/// `FencePolicy` down to a minimal fence set that still restores SCT.
///
/// **One re-check path.**  Whether a fence or retpoline closes a leak is
/// a proof question: sequential constant-time of the SPS translation is
/// speculative constant-time of the source, so every re-check — each
/// variant in run() and each candidate of the placement search — runs
/// the SPS proof backend (checker/SpsChecker.h) first, under the
/// session's `PassConfig::Sps` budgets.  A conclusive report settles the
/// re-check without exploring: Proved closes every baseline leak, and a
/// CounterExample keeps open exactly the mapped origins it names.
/// Inconclusive runs — a tape budget, or options outside the SPS
/// fragment such as v4 mode — fall back to a plain exploration of the
/// mitigated program, whose deduplicated leak set then decides.
///
/// **Witness replay.**  Beside the re-check, each baseline witness
/// (minimized when available) is replayed leniently on the mitigated
/// program with directives mapped through the provenance; if it still
/// reaches the same leak key the leak is *proven* open by a concrete
/// schedule — `LeakClosure::ReplayPredictsOpen` — independently of the
/// re-check.
///
/// **Cost.**  Each variant reports the transform's static cost
/// (instructions/fences added, sites rewritten) and the dynamic cost the
/// paper-style ablation uses: sequential-schedule growth, the abstract
/// machine's stand-in for runtime overhead.
///
/// Layering note: the mitigation *transforms* are engine-independent
/// program rewriters (checker/ProgramRewriter.h and the Mitigation
/// implementations); this engine component consumes them, while the
/// checker *verdicts* (SctChecker) sit on top of the engine as before.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_ENGINE_MITIGATIONSESSION_H
#define SCT_ENGINE_MITIGATIONSESSION_H

#include "checker/FenceInsertion.h"
#include "engine/CheckSession.h"

#include <span>

namespace sct {

/// Fate of one baseline leak under one mitigation.
struct LeakClosure {
  /// The baseline leak's dedup key and origin (baseline coordinates).
  uint64_t BaselineKey = 0;
  PC Origin = 0;
  /// The origin's image in the mitigated program (nullopt if the
  /// instruction was rewritten away, e.g. a retpolined jmpi).
  std::optional<PC> MitigatedOrigin;
  /// True iff the mitigated check found no leak with the corresponding
  /// key (same kind/rule/taint at the mapped origin).
  bool Closed = false;
  /// True iff the remapped baseline witness still reproduces the leak on
  /// the mitigated program — concrete proof the leak is open, available
  /// before (and independently of) the re-exploration.
  bool ReplayPredictsOpen = false;
};

/// One mitigated variant's outcome.
struct MitigationVariant {
  std::string Name;
  /// Engaged iff the transform refused (jump tables, unsupported); the
  /// remaining fields are then meaningless.
  std::optional<MitigationError> Error;
  MitigationCost Cost;
  /// Sequential-schedule length of the mitigated program (0 if stuck);
  /// compare against MitigationReport::SeqStepsBaseline for the
  /// paper-style overhead column.
  size_t SeqSteps = 0;
  /// The mitigated program and its provenance (valid iff !Error).
  Program Prog;
  ProvenanceMap Map;
  /// The re-check outcome: `After.Sps` is always engaged, and
  /// `After.Exploration` is populated only when the proof was
  /// inconclusive.
  CheckResult After;
  /// Per-baseline-leak closure verdicts, in baseline leak order.
  std::vector<LeakClosure> Leaks;

  bool applied() const { return !Error.has_value(); }
  bool restoredSct() const { return applied() && After.secure(); }
  size_t closedCount() const {
    size_t N = 0;
    for (const LeakClosure &L : Leaks)
      N += L.Closed;
    return N;
  }
};

/// The full before/after report.
struct MitigationReport {
  CheckResult Baseline;
  size_t SeqStepsBaseline = 0;
  std::vector<MitigationVariant> Variants;
};

/// Session-level knobs.
struct MitigationOptions {
  /// Run the witness-replay pre-pass per leak.
  bool ReplayWitnesses = true;
  /// Minimize baseline witnesses (sharpens the replay pre-pass and the
  /// placement search's witness seed; costs the usual ddmin replays).
  bool MinimizeBaselineWitnesses = true;
};

/// Options for the minimal-fence-placement search.
struct FencePlacementOptions {
  /// The blanket policy to shrink.
  FencePolicy Blanket = FencePolicy::BranchTargets;
  /// Total re-check budget (each candidate fence set costs one engine
  /// check of the fenced program).  On exhaustion the best set found so
  /// far is returned.
  unsigned MaxChecks = 128;
  /// Seed the search with the blanket sites the baseline witnesses
  /// actually touch — the diff says every other fence never mattered, so
  /// the seed usually verifies and skips most of ddmin's work.
  bool WitnessSeed = true;
  /// Forwarded to FenceInsertion (jump-table relocation).
  std::vector<uint64_t> CodePointerAddrs;
  std::vector<Reg> CodePointerRegs;
};

/// Result of the minimal-fence-placement search.
struct FencePlacementResult {
  /// The minimal fence set found (baseline coordinates), 1-minimal w.r.t.
  /// single-site removal when the check budget sufficed.
  std::vector<PC> Sites;
  /// Sites the blanket policy would have used.
  size_t BlanketSites = 0;
  /// True iff `Sites` restores SCT (false also when even the blanket
  /// does not — fences cannot fix every leak, e.g. Figure 11's v2).
  bool RestoredSct = false;
  /// Engine checks spent (including the blanket verification).
  unsigned ChecksSpent = 0;
  /// Engaged if fence insertion refused the program.
  std::optional<MitigationError> Error;
  CheckResult Baseline;
  /// The re-check of the final `Sites` (valid iff RestoredSct).
  CheckResult Final;
  Program Mitigated;
};

/// The mitigation engine.  Thread-safe like CheckSession: immutable after
/// construction; run() and minimizeFencePlacement() are const and
/// allocate per call, and their exploration/minimization phases inherit
/// the session's thread budget.
class MitigationSession {
public:
  explicit MitigationSession(SessionOptions SOpts = {},
                             MitigationOptions MOpts = {});

  const CheckSession &session() const { return Session; }
  const MitigationOptions &options() const { return Opts; }

  /// Checks \p P under \p Mode, applies each mitigation, re-checks, and
  /// reports per-leak closure + cost.
  MitigationReport run(const Program &P, const ExplorerOptions &Mode,
                       std::span<const Mitigation *const> Ms,
                       const MachineOptions &MachOpts = {}) const;

  /// Convenience for one mitigation.
  MitigationReport run(const Program &P, const ExplorerOptions &Mode,
                       const Mitigation &M,
                       const MachineOptions &MachOpts = {}) const;

  /// Greedy/ddmin minimal fence placement: verifies the blanket policy
  /// restores SCT, seeds from the witness-touched sites, then
  /// delta-debugs the site set down to a minimal set that still checks
  /// secure.  Every candidate re-check is an SPS proof that stops at its
  /// first counterexample, so shrinking stays tractable on cases whose
  /// fenced schedule tree the explorer cannot finish.
  /// \p Baseline, when non-null, supplies a baseline CheckResult this
  /// session already produced for \p P under \p Mode (e.g. from run())
  /// so the search does not re-explore it.
  FencePlacementResult
  minimizeFencePlacement(const Program &P, const ExplorerOptions &Mode,
                         const FencePlacementOptions &FOpts = {},
                         const MachineOptions &MachOpts = {},
                         const CheckResult *Baseline = nullptr) const;

private:
  CheckSession Session;
  MitigationOptions Opts;

  MitigationVariant checkVariant(const Program &P, const ExplorerOptions &Mode,
                                 const Mitigation &M,
                                 const CheckResult &Baseline,
                                 const MachineOptions &MachOpts) const;
};

/// Length of \p P's sequential (in-order) schedule — the dynamic-cost
/// metric of the mitigation report; 0 if the program gets stuck.
size_t sequentialScheduleLength(const Program &P,
                                const MachineOptions &MachOpts = {});

} // namespace sct

#endif // SCT_ENGINE_MITIGATIONSESSION_H
