//===- checker/SpsChecker.cpp - Sequential proofs of SCT ------------------===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "checker/SpsChecker.h"

#include "checker/SequentialCt.h"
#include "core/Machine.h"
#include "sched/SequentialScheduler.h"

#include <algorithm>
#include <chrono>
#include <set>

using namespace sct;

namespace {

/// A secret observation and the P̂ program point that emitted it.
struct AttributedLeak {
  PC PhatPc;
  Observation Obs;
};

/// A tape still to run.  It resumes where it parts from the run that
/// spawned it: at the boundary before the oracle consult it flips, with
/// the retires and attributed leaks of the shared prefix carried over.
/// The root tape (empty) starts from P̂'s initial configuration.
struct PendingTape {
  std::vector<uint64_t> Tape;
  Configuration Start;
  size_t PrefixRetires = 0;
  std::vector<AttributedLeak> PrefixLeaks;
};

/// True iff the instruction about to run at \p C reads the oracle tape.
bool atConsult(const SpsTranslation &T, const Configuration &C) {
  const Instruction &I = T.Prog.at(C.N);
  return I.kind() == InstrKind::Load && I.args().size() == 1 &&
         I.args()[0].isReg() && I.args()[0].getReg() == T.OracleCursor;
}

/// Replays a recorded schedule step by step to attribute each secret
/// observation to the P̂ program point that emitted it.  The sequential
/// run itself only records (directive, observation); origins live in the
/// transients, so we re-execute and peek at the buffer before each step.
std::vector<AttributedLeak> attributeLeaks(const Machine &M,
                                           Configuration C,
                                           const Schedule &Sched) {
  std::vector<AttributedLeak> Out;
  for (const Directive &D : Sched) {
    PC Origin = 0;
    if (D.isFetch())
      Origin = C.N;
    else if (D.isExecute() && C.Buf.contains(D.Idx))
      Origin = C.Buf.at(D.Idx).Origin;
    else if (D.isRetire() && !C.Buf.empty())
      Origin = C.Buf.at(C.Buf.minIndex()).Origin;
    auto Step = M.step(C, D);
    if (!Step)
      break; // Replay diverged — callers treat missing leaks as harness.
    if (Step->Obs.isSecret())
      Out.push_back({Origin, Step->Obs});
  }
  return Out;
}

} // namespace

bool SpsReport::hasCounterExampleAt(PC Origin) const {
  return std::any_of(CounterExamples.begin(), CounterExamples.end(),
                     [&](const SpsCounterExample &CE) {
                       return CE.Origin == Origin;
                     });
}

SpsReport sct::checkSps(const Program &P, const ExplorerOptions &EOpts,
                        const MachineOptions &MOpts, const SpsOptions &Opts) {
  auto Start = std::chrono::steady_clock::now();
  SpsReport Rep;
  auto Finish = [&](SpsReport &&R) {
    R.Seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              Start)
                    .count();
    return std::move(R);
  };

  // Proof-strength depth: widen the consult gate to the speculation
  // window before translating, so the depth clip cannot force
  // Inconclusive (see SpsOptions::DepthToWindow).
  ExplorerOptions TOpts = EOpts;
  if (Opts.DepthToWindow)
    TOpts.MaxBranchDepth = std::max(TOpts.MaxBranchDepth,
                                    TOpts.SpeculationBound);

  std::string Why;
  if (!SpsTranslator::supports(P, TOpts, MOpts, &Why)) {
    Rep.Reason = "unsupported fragment: " + Why;
    return Finish(std::move(Rep));
  }

  // T owns P̂; the Machine holds a reference, so T must outlive M.
  SpsTranslation T = SpsTranslator::translate(P, TOpts, MOpts);
  Machine M(T.Prog, MOpts);

  // Lazy-oracle DFS over misprediction tapes; each edge of the tape tree
  // runs once (see PendingTape).
  std::vector<PendingTape> Work;
  Work.push_back({{}, Configuration::initial(T.Prog), 0, {}});
  std::set<std::pair<PC, bool>> SeenCe;
  bool CovIncomplete = false;

  while (!Work.empty()) {
    if (Rep.TapesRun >= Opts.MaxTapes) {
      Rep.Reason = "tape budget exhausted (" +
                   std::to_string(Opts.MaxTapes) + " tapes)";
      Rep.Verdict = Rep.CounterExamples.empty() ? SpsVerdict::Inconclusive
                                                : SpsVerdict::CounterExample;
      if (!Rep.CounterExamples.empty())
        Rep.Reason = "counterexample set truncated: " + Rep.Reason;
      return Finish(std::move(Rep));
    }

    PendingTape Cur = std::move(Work.back());
    Work.pop_back();
    ++Rep.TapesRun;

    // Children: each consult past the tape's end spawns one that flips
    // it to "mispredict" (tape words are public: the attacker chooses
    // predictions).  Its prefix leaks are the first ChildLeaks[i] of
    // this tape's, attributed once the run is over.
    std::vector<PendingTape> Children;
    std::vector<size_t> ChildLeaks;
    size_t Scanned = 0, Secrets = Cur.PrefixLeaks.size();
    auto Spawn = [&](const SequentialResult &S) {
      const Configuration &C = S.Run.Final;
      if (!atConsult(T, C))
        return;
      uint64_t K = C.Regs.get(T.OracleCursor).Bits - T.OracleBase;
      if (K < Cur.Tape.size())
        return;
      PendingTape Child{Cur.Tape, C, Cur.PrefixRetires + S.Run.Retires, {}};
      Child.Tape.resize(K, 0);
      Child.Tape.push_back(1);
      for (uint64_t I = Cur.Tape.size(); I <= K; ++I)
        Child.Start.Mem.store(T.OracleBase + I, Value::pub(Child.Tape[I]));
      for (; Scanned < S.Run.Trace.size(); ++Scanned)
        Secrets += S.Run.Trace[Scanned].Obs.isSecret();
      Children.push_back(std::move(Child));
      ChildLeaks.push_back(Secrets);
    };
    SequentialResult R =
        runSequential(M, Cur.Start, Opts.MaxRetiresPerTape - Cur.PrefixRetires,
                      Spawn);
    Rep.RetiresTotal += Cur.PrefixRetires + R.Run.Retires;

    if (R.HitBound || R.Run.Stuck) {
      Rep.Reason = R.Run.Stuck
                       ? ("P\xcc\x82 run stuck: " + R.Run.StuckReason)
                       : "per-tape retire bound hit (non-terminating tape)";
      return Finish(std::move(Rep));
    }

    bool Valid = R.Run.Final.Regs.get(T.ValidFlag).Bits != 0;
    bool Cov = R.Run.Final.Regs.get(T.CovFlag).Bits != 0;

    if (!Valid) {
      // A source access strayed into harness address space: the harness
      // regions alias source data and the run's observations are garbage.
      Rep.Reason = "source program touched the harness address space";
      return Finish(std::move(Rep));
    }
    if (!Cov)
      CovIncomplete = true; // Unmodelled event (ret mismatch or a
                            // depth-clipped consult): blocks Proved only.

    // This tape's secret observations: its prefix's, then its run's.
    std::vector<AttributedLeak> Leaks = std::move(Cur.PrefixLeaks);
    if (R.Run.hasSecretObservation()) {
      auto Own = attributeLeaks(M, std::move(Cur.Start), R.Sched);
      Leaks.insert(Leaks.end(), Own.begin(), Own.end());
    }
    if (!Leaks.empty()) {
      bool Mapped = false;
      for (const AttributedLeak &L : Leaks) {
        auto Src = T.srcOf(L.PhatPc);
        if (!Src)
          continue; // Harness machinery: shadowed by a mapped leak.
        Mapped = true;
        bool Spec = T.ModeOf[L.PhatPc] == SpsMode::Spec;
        if (!SeenCe.insert({*Src, Spec}).second)
          continue;
        if (Rep.CounterExamples.size() < Opts.MaxCounterExamples)
          Rep.CounterExamples.push_back(
              {*Src, Spec, L.Obs, L.PhatPc, Cur.Tape});
      }
      if (!Mapped) {
        // Secret data reached a pure harness site with no mapped shadow
        // on this tape — outside the faithfulness argument, so refuse to
        // conclude anything rather than mis-attribute.
        Rep.Reason = "secret observation at an unmapped harness site";
        return Finish(std::move(Rep));
      }
      if (Opts.StopAtFirstCounterExample) {
        Rep.Verdict = SpsVerdict::CounterExample;
        Rep.Reason = "stopped at first counterexample";
        return Finish(std::move(Rep));
      }
    }

    // Pushed shallowest consult first, so the deepest flip runs next.
    for (size_t I = 0; I < Children.size(); ++I) {
      Children[I].PrefixLeaks.assign(Leaks.begin(),
                                     Leaks.begin() + ChildLeaks[I]);
      Work.push_back(std::move(Children[I]));
    }
  }

  // Full enumeration within budget.
  Rep.Complete = true;
  if (!Rep.CounterExamples.empty()) {
    Rep.Verdict = SpsVerdict::CounterExample;
  } else if (CovIncomplete) {
    Rep.Reason = "clean but coverage-incomplete (unmodelled ret mismatch "
                 "or depth-clipped oracle consult)";
  } else {
    Rep.Verdict = SpsVerdict::Proved;
  }
  return Finish(std::move(Rep));
}
