//===- sched/SequentialScheduler.cpp - Canonical sequential runs ------------===//

#include "sched/SequentialScheduler.h"

using namespace sct;

namespace {

/// Issues one directive, recording it; returns false (and marks the run
/// stuck) if it is inapplicable.
bool issue(const Machine &M, SequentialResult &R, const Directive &D) {
  std::string Why;
  auto Outcome = M.step(R.Run.Final, D, &Why);
  if (!Outcome) {
    R.Run.Stuck = true;
    R.Run.StuckAt = R.Sched.size();
    R.Run.StuckReason = std::move(Why);
    return false;
  }
  R.Sched.push_back(D);
  R.Run.Trace.push_back({D, Outcome->Obs, Outcome->Rule});
  if (D.isRetire())
    ++R.Run.Retires;
  return true;
}

/// Peeks the resolved value of an operand with an empty buffer (ρ only).
Value peekOperand(const Configuration &C, const Operand &Op) {
  if (Op.isImm())
    return Value::pub(Op.getImm());
  return C.Regs.get(Op.getReg());
}

std::vector<Value> peekOperands(const Configuration &C,
                                const std::vector<Operand> &Ops) {
  std::vector<Value> Values;
  Values.reserve(Ops.size());
  for (const Operand &Op : Ops)
    Values.push_back(peekOperand(C, Op));
  return Values;
}

SequentialResult runSequentialUpTo(const Machine &M, Configuration Init,
                                   size_t MaxRetires,
                                   const BoundaryHook &AtBoundary) {
  const Program &P = M.program();
  const MachineOptions &Opts = M.options();
  SequentialResult R;
  R.Run.Final = std::move(Init);

  while (!R.Run.Final.isFinal(P)) {
    if (R.Run.Retires >= MaxRetires) {
      R.HitBound = true;
      return R;
    }
    if (AtBoundary)
      AtBoundary(R);
    Configuration &C = R.Run.Final;
    assert(C.Buf.empty() && "sequential boundary with non-empty buffer");
    const Instruction &I = P.at(C.N);
    BufIdx Next = C.Buf.nextIndex();

    switch (I.kind()) {
    case InstrKind::Op:
    case InstrKind::Load:
      if (!issue(M, R, Directive::fetch()) ||
          !issue(M, R, Directive::execute(Next)) ||
          !issue(M, R, Directive::retire()))
        return R;
      break;

    case InstrKind::Store: {
      if (!issue(M, R, Directive::fetch()))
        return R;
      // Value/address steps are skipped when already in immediate form
      // (§3.4).
      if (!C.Buf.at(Next).StoreValIsResolved &&
          !issue(M, R, Directive::executeValue(Next)))
        return R;
      if (!C.Buf.at(Next).StoreAddrIsResolved &&
          !issue(M, R, Directive::executeAddr(Next)))
        return R;
      if (!issue(M, R, Directive::retire()))
        return R;
      break;
    }

    case InstrKind::Fence:
      if (!issue(M, R, Directive::fetch()) ||
          !issue(M, R, Directive::retire()))
        return R;
      break;

    case InstrKind::Branch: {
      // Peek the condition to guess correctly (empty buffer: ρ suffices).
      Value Cond = evalOp(I.opcode(), peekOperands(C, I.args()), Opts);
      if (!issue(M, R, Directive::fetchBool(truthy(Cond))) ||
          !issue(M, R, Directive::execute(Next)) ||
          !issue(M, R, Directive::retire()))
        return R;
      break;
    }

    case InstrKind::JumpI: {
      Value Target = evalAddr(peekOperands(C, I.args()), Opts);
      if (!issue(M, R, Directive::fetchTarget(static_cast<PC>(Target.Bits))) ||
          !issue(M, R, Directive::execute(Next)) ||
          !issue(M, R, Directive::retire()))
        return R;
      break;
    }

    case InstrKind::Call:
      // Group: marker, rsp bump, return-address store (value is
      // immediate, address is [rsp]); one retire commits all three.
      if (!issue(M, R, Directive::fetch()) ||
          !issue(M, R, Directive::execute(Next + 1)) ||
          !issue(M, R, Directive::executeAddr(Next + 2)) ||
          !issue(M, R, Directive::retire()))
        return R;
      break;

    case InstrKind::CallI: {
      // As Call, with the callee peeked so the prediction is correct and
      // a fourth group entry (the callee jump) to resolve.
      Value Target = evalAddr(peekOperands(C, I.args()), Opts);
      if (!issue(M, R, Directive::fetchTarget(static_cast<PC>(Target.Bits))) ||
          !issue(M, R, Directive::execute(Next + 1)) ||
          !issue(M, R, Directive::executeAddr(Next + 2)) ||
          !issue(M, R, Directive::execute(Next + 3)) ||
          !issue(M, R, Directive::retire()))
        return R;
      break;
    }

    case InstrKind::Ret: {
      // The RSB predicts; when it cannot (empty, attacker-choice policy)
      // the canonical schedule supplies the architectural return target.
      bool NeedTarget = Opts.RsbOnEmpty == RsbPolicy::AttackerChoice &&
                        !C.Rsb.top().has_value();
      Directive FetchDir = Directive::fetch();
      if (NeedTarget) {
        uint64_t Sp = C.Regs.get(Reg::sp()).Bits;
        FetchDir = Directive::fetchTarget(
            static_cast<PC>(C.Mem.load(Sp).Bits));
      }
      if (!issue(M, R, FetchDir) ||
          !issue(M, R, Directive::execute(Next + 1)) || // rtmp load
          !issue(M, R, Directive::execute(Next + 2)) || // rsp drop
          !issue(M, R, Directive::execute(Next + 3)))   // jump resolve
        return R;
      // A wrong RSB prediction rolled the jump back and re-inserted it
      // resolved at the same index; retiring works either way.
      if (!issue(M, R, Directive::retire()))
        return R;
      break;
    }
    }
  }
  return R;
}

} // namespace

SequentialResult sct::runSequential(const Machine &M, Configuration Init,
                                    size_t MaxRetires,
                                    const BoundaryHook &AtBoundary) {
  return runSequentialUpTo(M, std::move(Init), MaxRetires, AtBoundary);
}

SequentialResult sct::runSequentialN(const Machine &M, Configuration Init,
                                     size_t N) {
  return runSequentialUpTo(M, std::move(Init), N, {});
}
