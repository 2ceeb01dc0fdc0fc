//===- engine/MitigationSession.cpp - Mitigation validation engine ----------===//
//
// Baseline check -> transform -> re-check.  Every re-check runs the SPS
// proof first and explores only when the proof is inconclusive; the
// witness-replay pre-pass is evidence beside it — the re-check's verdict
// never depends on replay, which only ever *adds* proof that a leak is
// open.
//
//===----------------------------------------------------------------------===//

#include "engine/MitigationSession.h"

#include "sched/SequentialScheduler.h"

#include <algorithm>
#include <set>

using namespace sct;

size_t sct::sequentialScheduleLength(const Program &P,
                                     const MachineOptions &MachOpts) {
  Machine M(P, MachOpts);
  SequentialResult R = runSequential(M, Configuration::initial(P));
  return R.Run.Stuck ? 0 : R.Sched.size();
}

namespace {

/// The passes of every mitigation re-check: the SPS proof backend first
/// (checker/SpsChecker.h), under the session's tape budgets.  A proof
/// settles "restored SCT" outright — including on programs whose
/// mitigated schedule tree the explorer cannot finish (kocher-05 fenced)
/// — and a refutation yields source-level counterexamples the per-leak
/// closure verdicts key on.  An Inconclusive run (a budget, or options
/// outside the SPS fragment such as v4 mode) falls through to a plain
/// exploration inside CheckSession::runOne.  The re-check is a verifier,
/// not an agreement check: window-depth consults keep the proof sound
/// and stop looping candidates from depth-clipping into Inconclusive.
/// Witness minimization stays off.
PassConfig recheckPasses(const SessionOptions &SOpts) {
  PassConfig Passes;
  Passes.ProveSps = true;
  Passes.Sps = SOpts.Passes.Sps;
  Passes.Sps.DepthToWindow = true;
  return Passes;
}

/// The dedup key the baseline leak would carry at origin \p Origin.
uint64_t keyAtOrigin(const LeakRecord &L, PC Origin) {
  LeakRecord Probe{Schedule{}, L.Obs, Origin, L.Rule};
  return Probe.key();
}

/// Origin-agnostic leak identity, for leaks whose origin instruction the
/// transform rewrote away.
uint64_t leakTriple(const Observation &Obs, RuleId Rule) {
  return hashFields(
      {uint64_t(Obs.K), uint64_t(Rule), Obs.Payload.Taint.mask()});
}

/// Lenient replay of a baseline witness on the mitigated program:
/// directives map through the provenance (predicted targets relocate,
/// buffer indices re-derive from the mitigated allocation ranges), and
/// inserted instructions sitting at the fetch point are swallowed with
/// extra plain fetches.  Returns true iff some executed step emits a
/// secret observation with the mapped leak key — concrete, sound proof
/// the mitigation left the leak open; false is *inconclusive* (the
/// re-exploration decides).
bool witnessReplaysOpen(const Machine &M, const ProvenanceMap &Map,
                        const LeakRecord &L) {
  std::optional<PC> NewOrigin = Map.newOf(L.Origin);
  if (!NewOrigin)
    return false;
  const uint64_t TargetKey = keyAtOrigin(L, *NewOrigin);
  const Schedule &W = L.MinSched.empty() ? L.Sched : L.MinSched;
  const Program &Prog = M.program();

  Configuration C = Configuration::initial(Prog);
  /// Allocation correspondence: the witness's buffer indices are baseline
  /// allocations; each witness fetch allocates the same group shape here
  /// (the instruction is the same, relocated), offset by the inserted
  /// instructions swallowed so far.
  struct Range {
    BufIdx BaseFrom, MitFrom;
    unsigned Slots;
  };
  std::vector<Range> Ranges;
  BufIdx BaseNext = C.Buf.nextIndex();
  auto MapIdx = [&Ranges](BufIdx Base, BufIdx &Out) {
    for (const Range &R : Ranges)
      if (Base >= R.BaseFrom && Base < R.BaseFrom + R.Slots) {
        Out = R.MitFrom + (Base - R.BaseFrom);
        return true;
      }
    return false;
  };

  for (const Directive &D : W) {
    if (D.isFetch()) {
      // Swallow inserted instructions (fences, retpoline thunk heads) at
      // the fetch point so the witness's fetch lands on the instruction
      // it meant.  Bounded: each swallow consumes one inserted slot.
      for (size_t Guard = 0; Guard <= Prog.size(); ++Guard) {
        if (!Prog.contains(C.N) || Map.oldOf(C.N))
          break;
        if (!M.step(C, Directive::fetch()))
          break;
      }
    }
    Directive D2 = D;
    if (D.K == Directive::Kind::FetchTarget) {
      std::optional<PC> T = Map.newTargetOf(D.Target);
      if (T)
        D2.Target = *T;
    } else if (D.isExecute()) {
      if (!MapIdx(D.Idx, D2.Idx))
        continue;
      if (D.K == Directive::Kind::ExecuteFwd && !MapIdx(D.FwdFrom, D2.FwdFrom))
        continue;
    }
    BufIdx MitFrom = C.Buf.nextIndex();
    PC Origin = leakOriginOf(C, D2);
    auto Out = M.step(C, D2);
    if (!Out)
      continue; // Lenient: a fence in flight blocks, rollbacks reshuffle.
    if (D.isFetch()) {
      unsigned Slots = static_cast<unsigned>(C.Buf.nextIndex() - MitFrom);
      if (Slots) {
        Ranges.push_back({BaseNext, MitFrom, Slots});
        BaseNext += Slots;
      }
    }
    if (Out->Obs.isSecret()) {
      LeakRecord Probe{Schedule{}, Out->Obs, Origin, Out->Rule};
      if (Probe.key() == TargetKey)
        return true;
    }
  }
  return false;
}

/// Program points a set of witnesses visit on the baseline program: the
/// fetch points along each (minimized, when available) witness replay.
/// A blanket fence site outside this set never interposed on any known
/// attack — the placement search's seed drops it first.
std::set<PC> witnessTouchedPoints(const Program &P,
                                  const MachineOptions &MachOpts,
                                  const std::vector<LeakRecord> &Leaks) {
  std::set<PC> Touched;
  Machine M(P, MachOpts);
  for (const LeakRecord &L : Leaks) {
    Configuration C = Configuration::initial(P);
    Touched.insert(C.N);
    const Schedule &W = L.MinSched.empty() ? L.Sched : L.MinSched;
    for (const Directive &D : W) {
      if (!M.step(C, D))
        continue;
      Touched.insert(C.N);
    }
  }
  return Touched;
}

} // namespace

MitigationSession::MitigationSession(SessionOptions SOpts,
                                     MitigationOptions MOpts)
    : Session(std::move(SOpts)), Opts(MOpts) {}

MitigationVariant MitigationSession::checkVariant(
    const Program &P, const ExplorerOptions &Mode, const Mitigation &M,
    const CheckResult &Baseline, const MachineOptions &MachOpts) const {
  MitigationVariant V;
  V.Name = M.name();
  MitigationResult MR = M.run(P);
  V.Cost = MR.Cost;
  if (!MR.ok()) {
    V.Error = std::move(MR.Error);
    return V;
  }
  V.Prog = std::move(MR.Prog);
  V.Map = std::move(MR.Map);
  V.SeqSteps = sequentialScheduleLength(V.Prog, MachOpts);

  CheckRequest Req;
  Req.Id = "mitigated/" + V.Name;
  Req.Prog = V.Prog;
  Req.Opts = Mode;
  Req.MOpts = MachOpts;
  // Attacker-chosen targets are baseline coordinates; relocate them.
  for (PC &T : Req.Opts.IndirectTargets)
    T = V.Map.newTargetOf(T).value_or(T);
  for (PC &T : Req.Opts.RsbUnderflowTargets)
    T = V.Map.newTargetOf(T).value_or(T);
  Req.Passes = recheckPasses(Session.options());
  V.After = Session.check(Req);

  // Per-leak closure: a baseline leak is closed iff the re-check found no
  // leak with the corresponding key (mapped origin) — or, when the origin
  // instruction was rewritten away, no leak with the same
  // kind/rule/taint identity.
  std::set<uint64_t> AfterKeys, AfterTriples;
  for (const LeakRecord &AL : V.After.Exploration.Leaks) {
    AfterKeys.insert(AL.key());
    AfterTriples.insert(leakTriple(AL.Obs, AL.Rule));
  }
  // When the SPS backend settled the re-check, its counterexamples (in
  // mitigated coordinates) are the closure evidence: a proof closes every
  // baseline leak, a refutation keeps open exactly the mapped origins it
  // names.  Otherwise the explorer's deduplicated leak set decides.
  bool SpsSettled = V.After.Sps && V.After.Sps->conclusive();
  Machine MitM(V.Prog, MachOpts);
  for (const LeakRecord &L : Baseline.Exploration.Leaks) {
    LeakClosure C;
    C.BaselineKey = L.key();
    C.Origin = L.Origin;
    C.MitigatedOrigin = V.Map.newOf(L.Origin);
    if (SpsSettled) {
      const SpsReport &S = *V.After.Sps;
      C.Closed = S.proved() ||
                 (C.MitigatedOrigin
                      ? !S.hasCounterExampleAt(*C.MitigatedOrigin)
                      : S.CounterExamples.empty());
    } else if (C.MitigatedOrigin)
      C.Closed = !AfterKeys.count(keyAtOrigin(L, *C.MitigatedOrigin));
    else
      C.Closed = !AfterTriples.count(leakTriple(L.Obs, L.Rule));
    if (Opts.ReplayWitnesses)
      C.ReplayPredictsOpen = witnessReplaysOpen(MitM, V.Map, L);
    V.Leaks.push_back(std::move(C));
  }
  return V;
}

MitigationReport
MitigationSession::run(const Program &P, const ExplorerOptions &Mode,
                       std::span<const Mitigation *const> Ms,
                       const MachineOptions &MachOpts) const {
  MitigationReport Rep;
  CheckRequest Base;
  Base.Id = "baseline";
  Base.Prog = P;
  Base.Opts = Mode;
  Base.MOpts = MachOpts;
  Base.Passes.emplace().MinimizeWitnesses = Opts.MinimizeBaselineWitnesses;
  Rep.Baseline = Session.check(Base);
  Rep.SeqStepsBaseline = sequentialScheduleLength(P, MachOpts);
  for (const Mitigation *M : Ms)
    Rep.Variants.push_back(checkVariant(P, Mode, *M, Rep.Baseline, MachOpts));
  return Rep;
}

MitigationReport MitigationSession::run(const Program &P,
                                        const ExplorerOptions &Mode,
                                        const Mitigation &M,
                                        const MachineOptions &MachOpts) const {
  const Mitigation *Ms[1] = {&M};
  return run(P, Mode, std::span<const Mitigation *const>(Ms), MachOpts);
}

FencePlacementResult MitigationSession::minimizeFencePlacement(
    const Program &P, const ExplorerOptions &Mode,
    const FencePlacementOptions &FOpts, const MachineOptions &MachOpts,
    const CheckResult *Baseline) const {
  FencePlacementResult R;
  std::vector<PC> Blanket = FenceInsertion::policySites(P, FOpts.Blanket);
  R.BlanketSites = Blanket.size();

  if (Baseline) {
    R.Baseline = *Baseline;
  } else {
    CheckRequest Base;
    Base.Id = "baseline";
    Base.Prog = P;
    Base.Opts = Mode;
    Base.MOpts = MachOpts;
    Base.Passes.emplace().MinimizeWitnesses = Opts.MinimizeBaselineWitnesses;
    R.Baseline = Session.check(Base);
  }
  if (R.Baseline.secure()) {
    // Nothing to fix: the empty placement is optimal.
    R.RestoredSct = true;
    R.Final = R.Baseline;
    R.Mitigated = P;
    return R;
  }

  // One candidate fence set -> one re-check.
  auto Verify = [&](const std::vector<PC> &Sites) -> bool {
    if (R.ChecksSpent >= FOpts.MaxChecks)
      return false;
    ++R.ChecksSpent;
    FenceInsertion FI(Sites, FOpts.CodePointerAddrs, FOpts.CodePointerRegs);
    MitigationResult MR = FI.run(P);
    if (!MR.ok()) {
      R.Error = std::move(MR.Error);
      return false;
    }
    CheckRequest Req;
    Req.Id = "fence-candidate";
    Req.Prog = MR.Prog;
    Req.Opts = Mode;
    Req.MOpts = MachOpts;
    // The oracle is binary — secure or not — so a failing candidate can
    // stop at its first counterexample or leak instead of enumerating
    // them all (a passing one necessarily covers everything either way).
    Req.Opts.StopAtFirstLeak = true;
    Req.Passes = recheckPasses(Session.options());
    Req.Passes->Sps.StopAtFirstCounterExample = true;
    for (PC &T : Req.Opts.IndirectTargets)
      T = MR.Map.newTargetOf(T).value_or(T);
    for (PC &T : Req.Opts.RsbUnderflowTargets)
      T = MR.Map.newTargetOf(T).value_or(T);
    CheckResult CR = Session.check(Req);
    if (!CR.secure())
      return false;
    R.Final = std::move(CR);
    R.Mitigated = std::move(MR.Prog);
    return true;
  };

  std::vector<PC> Cur = Blanket;
  if (!Verify(Cur) || R.Error) {
    // The blanket itself does not restore SCT (v2-style leaks) or the
    // program refused relocation: report honestly, nothing to minimize.
    R.Sites = Cur;
    return R;
  }
  R.RestoredSct = true;
  R.Sites = Cur;

  // Diff-driven seed: fences the witnesses never crossed cannot have
  // interposed on any known attack; try dropping them all at once.
  if (FOpts.WitnessSeed) {
    std::set<PC> Touched =
        witnessTouchedPoints(P, MachOpts, R.Baseline.Exploration.Leaks);
    std::vector<PC> Seed;
    for (PC S : Cur)
      if (Touched.count(S))
        Seed.push_back(S);
    if (!Seed.empty() && Seed.size() < Cur.size() && Verify(Seed)) {
      Cur = std::move(Seed);
      R.Sites = Cur;
    }
  }

  // ddmin over the site set: 1-minimal w.r.t. removing any single fence
  // (budget permitting).
  size_t N = 2;
  while (Cur.size() >= 2 && R.ChecksSpent < FOpts.MaxChecks) {
    if (N > Cur.size())
      N = Cur.size();
    size_t Chunk = (Cur.size() + N - 1) / N;
    bool Reduced = false;
    for (size_t Start = 0; Start < Cur.size(); Start += Chunk) {
      std::vector<PC> Cand;
      for (size_t I = 0; I < Cur.size(); ++I)
        if (I < Start || I >= Start + Chunk)
          Cand.push_back(Cur[I]);
      if (Cand.empty() || Cand.size() >= Cur.size())
        continue;
      if (Verify(Cand)) {
        Cur = std::move(Cand);
        R.Sites = Cur;
        Reduced = true;
        break;
      }
    }
    if (Reduced) {
      N = std::max<size_t>(2, N - 1);
      continue;
    }
    if (Chunk <= 1)
      break;
    N = std::min(N * 2, Cur.size());
  }
  R.Sites = Cur;
  return R;
}
