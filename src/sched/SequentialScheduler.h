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
/// One driver, `driveSequential`, holds the directive sequence of each
/// instruction kind.  It reports every applied step, with its
/// `leakOriginOf` origin, to a caller-chosen recorder, so each caller
/// keeps only what it reads: `runSequential` records the full schedule
/// and trace; the SPS checker (checker/SpsChecker.cpp) keeps the origins
/// of secret observations and spawns oracle tapes at boundaries.  The
/// recorder is a template parameter, so the per-step path inlines.
///
/// The sequential machine is the baseline for the paper's metatheory:
/// Theorem 3.2 (equivalence), Theorem B.9 (label stability), and the
/// classical constant-time baseline checker.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_SCHED_SEQUENTIALSCHEDULER_H
#define SCT_SCHED_SEQUENTIALSCHEDULER_H

#include "sched/Executor.h"

#include <cassert>

namespace sct {

/// How a drive of the canonical schedule ended.
enum class SeqEnd : unsigned char {
  Final,    ///< the program finished
  HitBound, ///< the retire bound was reached first
  Stuck,    ///< a directive was inapplicable
};

namespace detail {
/// Operands' resolved values with an empty buffer (ρ only).
inline InlineVector<Value, 4> peekOperands(const Configuration &C,
                                           std::span<const Operand> Ops) {
  InlineVector<Value, 4> Values;
  for (const Operand &Op : Ops)
    Values.push_back(Op.isImm() ? Value::pub(Op.getImm())
                                : C.Regs.get(Op.getReg()));
  return Values;
}
} // namespace detail

/// Drives the canonical sequential schedule on \p C in place until the
/// program finishes, \p Retires (the retire directives issued so far,
/// updated in place) reaches \p MaxRetires, or a directive is
/// inapplicable; on Stuck, \p C is the configuration the directive failed
/// on and \p WhyStuck says why.  \p Rec provides
///
///   void boundary(const Configuration &C, size_t Retires);
///     at each instruction boundary the run passes (the buffer is empty
///     and the retire bound not yet reached), before the instruction at
///     `C.N` is fetched;
///   void applied(const Directive &D, const StepOutcome &Out, PC Origin);
///     after each step, with `leakOriginOf(C, D)` taken before it.
template <class Recorder>
SeqEnd driveSequential(const Machine &M, Configuration &C, size_t &Retires,
                       size_t MaxRetires, Recorder &Rec,
                       std::string &WhyStuck) {
  const Program &P = M.program();
  const MachineOptions &Opts = M.options();
  auto Issue = [&](const Directive &D) {
    PC Origin = leakOriginOf(C, D);
    std::optional<StepOutcome> Out = M.step(C, D, &WhyStuck);
    if (!Out)
      return false;
    Retires += D.isRetire();
    Rec.applied(D, *Out, Origin);
    return true;
  };

  while (!C.isFinal(P)) {
    if (Retires >= MaxRetires)
      return SeqEnd::HitBound;
    Rec.boundary(C, Retires);
    assert(C.Buf.empty() && "sequential boundary with non-empty buffer");
    const Instruction &I = P.at(C.N);
    BufIdx Next = C.Buf.nextIndex();
    bool Ok = true;

    switch (I.kind()) {
    case InstrKind::Op:
    case InstrKind::Load:
      Ok = Issue(Directive::fetch()) && Issue(Directive::execute(Next)) &&
           Issue(Directive::retire());
      break;

    case InstrKind::Store:
      // Value/address steps are skipped when already in immediate form
      // (§3.4).
      Ok = Issue(Directive::fetch()) &&
           (C.Buf.at(Next).StoreValIsResolved ||
            Issue(Directive::executeValue(Next))) &&
           (C.Buf.at(Next).StoreAddrIsResolved ||
            Issue(Directive::executeAddr(Next))) &&
           Issue(Directive::retire());
      break;

    case InstrKind::Fence:
      Ok = Issue(Directive::fetch()) && Issue(Directive::retire());
      break;

    case InstrKind::Branch: {
      // Peek the condition to guess correctly (empty buffer: ρ suffices).
      Value Cond =
          evalOp(I.opcode(), detail::peekOperands(C, I.args()), Opts);
      Ok = Issue(Directive::fetchBool(truthy(Cond))) &&
           Issue(Directive::execute(Next)) && Issue(Directive::retire());
      break;
    }

    case InstrKind::JumpI: {
      Value Target = evalAddr(detail::peekOperands(C, I.args()), Opts);
      Ok = Issue(Directive::fetchTarget(static_cast<PC>(Target.Bits))) &&
           Issue(Directive::execute(Next)) && Issue(Directive::retire());
      break;
    }

    case InstrKind::Call:
      // Group: marker, rsp bump, return-address store (value is
      // immediate, address is [rsp]); one retire commits all three.
      Ok = Issue(Directive::fetch()) && Issue(Directive::execute(Next + 1)) &&
           Issue(Directive::executeAddr(Next + 2)) &&
           Issue(Directive::retire());
      break;

    case InstrKind::CallI: {
      // As Call, with the callee peeked so the prediction is correct and
      // a fourth group entry (the callee jump) to resolve.
      Value Target = evalAddr(detail::peekOperands(C, I.args()), Opts);
      Ok = Issue(Directive::fetchTarget(static_cast<PC>(Target.Bits))) &&
           Issue(Directive::execute(Next + 1)) &&
           Issue(Directive::executeAddr(Next + 2)) &&
           Issue(Directive::execute(Next + 3)) && Issue(Directive::retire());
      break;
    }

    case InstrKind::Ret: {
      // The RSB predicts; when it cannot (empty, attacker-choice policy)
      // the canonical schedule supplies the architectural return target.
      Directive FetchDir = Directive::fetch();
      if (Opts.RsbOnEmpty == RsbPolicy::AttackerChoice &&
          !C.Rsb.top().has_value()) {
        uint64_t Sp = C.Regs.get(Reg::sp()).Bits;
        FetchDir =
            Directive::fetchTarget(static_cast<PC>(C.Mem.load(Sp).Bits));
      }
      // rtmp load, rsp drop, jump resolve.  A wrong RSB prediction rolled
      // the jump back and re-inserted it resolved at the same index;
      // retiring works either way.
      Ok = Issue(FetchDir) && Issue(Directive::execute(Next + 1)) &&
           Issue(Directive::execute(Next + 2)) &&
           Issue(Directive::execute(Next + 3)) && Issue(Directive::retire());
      break;
    }
    }
    if (!Ok)
      return SeqEnd::Stuck;
  }
  return SeqEnd::Final;
}

/// Result of a sequential run.
struct SequentialResult {
  RunResult Run;
  Schedule Sched;
  /// True iff the run stopped because it reached \p MaxRetires (e.g. a
  /// non-terminating program) rather than the end of the program.
  bool HitBound = false;
};

/// Runs the canonical sequential schedule from \p Init until the program
/// finishes or \p MaxRetires retire directives have been issued
/// (whichever comes first), recording every step's directive,
/// observation and rule.  With \p MaxRetires = N this is the ⇓^N_seq of
/// Theorem B.7.
SequentialResult runSequential(const Machine &M, Configuration Init,
                               size_t MaxRetires = 1 << 20);

} // namespace sct

#endif // SCT_SCHED_SEQUENTIALSCHEDULER_H
