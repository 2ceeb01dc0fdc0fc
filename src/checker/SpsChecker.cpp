//===- checker/SpsChecker.cpp - Sequential proofs of SCT ------------------===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
//
// Each tape runs on the canonical sequential driver
// (sched/SequentialScheduler.h) with a recorder that keeps only what the
// checker reads: the retire count, and the P̂ pc and observation of each
// secret observation, attributed at step time through `leakOriginOf` (the
// explorer's and the minimizer's origin rule).  Nothing else about the
// run is recorded, and no tape is re-executed to learn where its leaks
// came from.  At each boundary the recorder spawns the child tapes, which
// inherit the secrets seen so far.
//
//===----------------------------------------------------------------------===//

#include "checker/SpsChecker.h"

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

/// What one tape's run keeps: the origin of each secret observation,
/// taken at step time (the prefix's first), and one child tape per oracle
/// consult past the tape's end, pushed straight onto the work list.
struct TapeRecorder {
  const SpsTranslation &T;
  /// ConsultAt[pc]: the instruction at pc reads the oracle tape.
  const std::vector<char> &ConsultAt;
  const PendingTape &Cur;
  std::vector<PendingTape> &Work;
  std::vector<AttributedLeak> Leaks;

  void boundary(const Configuration &C, size_t Retires) {
    if (!ConsultAt[C.N])
      return;
    uint64_t K = C.Regs.get(T.OracleCursor).Bits - T.OracleBase;
    if (K < Cur.Tape.size())
      return;
    // The child flips this consult to "mispredict" (tape words are
    // public: the attacker chooses predictions).
    PendingTape Child{Cur.Tape, C, Cur.PrefixRetires + Retires, Leaks};
    Child.Tape.resize(K, 0);
    Child.Tape.push_back(1);
    for (uint64_t I = Cur.Tape.size(); I <= K; ++I)
      Child.Start.Mem.store(T.OracleBase + I, Value::pub(Child.Tape[I]));
    Work.push_back(std::move(Child));
  }
  void applied(const Directive &, const StepOutcome &Out, PC Origin) {
    if (Out.Obs.isSecret())
      Leaks.push_back({Origin, Out.Obs});
  }
};

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

  // The oracle consults: loads through the tape cursor.
  std::vector<char> ConsultAt(T.Prog.size() + 1, 0);
  for (PC N = 0; N < T.Prog.size(); ++N) {
    const Instruction &I = T.Prog.at(N);
    ConsultAt[N] = I.kind() == InstrKind::Load && I.args().size() == 1 &&
                   I.args()[0].isReg() &&
                   I.args()[0].getReg() == T.OracleCursor;
  }

  // Lazy-oracle DFS over misprediction tapes; each edge of the tape tree
  // runs once (see PendingTape).  A run pushes its children shallowest
  // consult first, so the deepest flip runs next.
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

    TapeRecorder Rec{T, ConsultAt, Cur, Work, std::move(Cur.PrefixLeaks)};
    Configuration &C = Cur.Start;
    size_t Retires = 0;
    std::string WhyStuck;
    SeqEnd End = driveSequential(M, C, Retires,
                                 Opts.MaxRetiresPerTape - Cur.PrefixRetires,
                                 Rec, WhyStuck);
    Rep.RetiresTotal += Cur.PrefixRetires + Retires;

    if (End != SeqEnd::Final) {
      Rep.Reason = End == SeqEnd::Stuck
                       ? ("P\xcc\x82 run stuck: " + WhyStuck)
                       : "per-tape retire bound hit (non-terminating tape)";
      return Finish(std::move(Rep));
    }

    bool Valid = C.Regs.get(T.ValidFlag).Bits != 0;
    bool Cov = C.Regs.get(T.CovFlag).Bits != 0;

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
    const std::vector<AttributedLeak> &Leaks = Rec.Leaks;
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
