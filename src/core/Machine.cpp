//===- core/Machine.cpp - The small-step speculative semantics -------------===//

#include "core/Machine.h"

using namespace sct;

std::string_view sct::ruleName(RuleId R) {
  switch (R) {
  case RuleId::SimpleFetch:
    return "simple-fetch";
  case RuleId::CondFetch:
    return "cond-fetch";
  case RuleId::JmpiFetch:
    return "jmpi-fetch";
  case RuleId::CallFetch:
    return "call-direct-fetch";
  case RuleId::CallIFetch:
    return "calli-fetch";
  case RuleId::RetFetchRsb:
    return "ret-fetch-rsb";
  case RuleId::RetFetchRsbEmpty:
    return "ret-fetch-rsb-empty";
  case RuleId::OpExecute:
    return "op-execute";
  case RuleId::CondExecuteCorrect:
    return "cond-execute-correct";
  case RuleId::CondExecuteIncorrect:
    return "cond-execute-incorrect";
  case RuleId::LoadExecuteNodep:
    return "load-execute-nodep";
  case RuleId::LoadExecuteForward:
    return "load-execute-forward";
  case RuleId::LoadExecuteFwdGuessed:
    return "load-execute-forwarded-guessed";
  case RuleId::LoadExecuteAddrOk:
    return "load-execute-addr-ok";
  case RuleId::LoadExecuteAddrHazard:
    return "load-execute-addr-hazard";
  case RuleId::LoadExecuteAddrMemMatch:
    return "load-execute-addr-mem-match";
  case RuleId::LoadExecuteAddrMemHazard:
    return "load-execute-addr-mem-hazard";
  case RuleId::StoreExecuteValue:
    return "store-execute-value";
  case RuleId::StoreExecuteAddrOk:
    return "store-execute-addr-ok";
  case RuleId::StoreExecuteAddrHazard:
    return "store-execute-addr-hazard";
  case RuleId::JmpiExecuteCorrect:
    return "jmpi-execute-correct";
  case RuleId::JmpiExecuteIncorrect:
    return "jmpi-execute-incorrect";
  case RuleId::ValueRetire:
    return "value-retire";
  case RuleId::JumpRetire:
    return "jump-retire";
  case RuleId::StoreRetire:
    return "store-retire";
  case RuleId::FenceRetire:
    return "fence-retire";
  case RuleId::CallRetire:
    return "call-retire";
  case RuleId::RetRetire:
    return "ret-retire";
  }
  return "<invalid>";
}

namespace {

std::optional<StepOutcome> fail(std::string *WhyNot, std::string Reason) {
  if (WhyNot)
    *WhyNot = std::move(Reason);
  return std::nullopt;
}

StepOutcome ok(RuleId Rule, Observation Obs = Observation::none()) {
  return {Obs, Rule};
}

} // namespace

//===----------------------------------------------------------------------===//
// Register resolution (Figure 3 + §3.5 extension)
//===----------------------------------------------------------------------===//

std::optional<Value> Machine::resolveReg(const Configuration &C, BufIdx I,
                                         Reg R) const {
  BufIdx J = C.Buf.lastWriterBefore(R, I);
  if (!J) // No pending assignment: fall through to the register map ρ.
    return C.Regs.get(R);
  const TransientInstr &T = C.Buf.at(J);
  switch (T.Kind) {
  case TransientKind::ResolvedValue:
  case TransientKind::LoadResolved:
  case TransientKind::LoadGuessed: // §3.5: its predicted value.
    return T.Val;
  default:
    // Latest assignment is unresolved: (buf +i ρ)(r) = ⊥.
    return std::nullopt;
  }
}

std::optional<Value> Machine::resolveOperand(const Configuration &C, BufIdx I,
                                             const Operand &Op) const {
  if (Op.isImm())
    return Value::pub(Op.getImm());
  return resolveReg(C, I, Op.getReg());
}

std::optional<InlineVector<Value, 4>>
Machine::resolveOperands(const Configuration &C, BufIdx I,
                         std::span<const Operand> Ops) const {
  InlineVector<Value, 4> Values;
  for (const Operand &Op : Ops) {
    auto V = resolveOperand(C, I, Op);
    if (!V)
      return std::nullopt;
    Values.push_back(*V);
  }
  return Values;
}

bool Machine::fenceBefore(const ReorderBuffer &Buf, BufIdx I) {
  return Buf.hasFenceBefore(I);
}

//===----------------------------------------------------------------------===//
// Rollback
//===----------------------------------------------------------------------===//

PC Machine::rollbackTo(Configuration &C, BufIdx K) const {
  assert(C.Buf.contains(K) && "rollback target not in buffer");
  // Widen into call/ret expansion groups: their hidden transients have no
  // fetchable program point of their own, so restarting must re-fetch the
  // whole call/ret (see DESIGN.md §4).
  BufIdx Leader = C.Buf.at(K).GroupLeader;
  if (Leader < K)
    K = Leader;
  PC Origin = C.Buf.at(K).Origin;
  C.Buf.truncateFrom(K);
  C.Rsb.rollbackFrom(K);
  return Origin;
}

//===----------------------------------------------------------------------===//
// Step dispatch
//===----------------------------------------------------------------------===//

std::optional<StepOutcome> Machine::step(Configuration &C, const Directive &D,
                                         std::string *WhyNot) const {
  if (D.isFetch())
    return stepFetch(C, D, WhyNot);
  if (D.isExecute())
    return stepExecute(C, D, WhyNot);
  return stepRetire(C, WhyNot);
}

//===----------------------------------------------------------------------===//
// Fetch stage
//===----------------------------------------------------------------------===//

std::optional<StepOutcome> Machine::stepFetch(Configuration &C,
                                              const Directive &D,
                                              std::string *WhyNot) const {
  if (!Prog.contains(C.N))
    return fail(WhyNot, "no instruction at program point " +
                            std::to_string(C.N));
  const Instruction &I = Prog.at(C.N);

  switch (I.kind()) {
  case InstrKind::Op:
  case InstrKind::Load:
  case InstrKind::Store:
  case InstrKind::Fence: {
    // Rule simple-fetch.
    if (D.K != Directive::Kind::Fetch)
      return fail(WhyNot, "instruction takes a plain fetch directive");
    TransientInstr T;
    switch (I.kind()) {
    case InstrKind::Op:
      T = TransientInstr::makeOp(I.dest(), I.opcode(), I.args(), C.N);
      break;
    case InstrKind::Load:
      T = TransientInstr::makeLoad(I.dest(), I.args(), C.N);
      break;
    case InstrKind::Store:
      T = TransientInstr::makeStore(I.storeValue(), I.args(), C.N);
      break;
    default:
      T = TransientInstr::makeFence(C.N);
      break;
    }
    C.Buf.push(std::move(T));
    C.N = I.next();
    return ok(RuleId::SimpleFetch);
  }

  case InstrKind::Branch: {
    // Rule cond-fetch: the directive's guess picks the speculative path.
    if (D.K != Directive::Kind::FetchBool)
      return fail(WhyNot, "conditional branch takes fetch: true/false");
    PC Chosen = D.Guess ? I.trueTarget() : I.falseTarget();
    C.Buf.push(TransientInstr::makeBranch(I.opcode(), I.args(), Chosen,
                                          I.trueTarget(), I.falseTarget(),
                                          C.N));
    C.N = Chosen;
    return ok(RuleId::CondFetch);
  }

  case InstrKind::JumpI: {
    // Rule jmpi-fetch: the directive supplies the predicted target.
    if (D.K != Directive::Kind::FetchTarget)
      return fail(WhyNot, "indirect jump takes fetch: n");
    C.Buf.push(TransientInstr::makeJumpI(I.args(), D.Target, C.N));
    C.N = D.Target;
    return ok(RuleId::JmpiFetch);
  }

  case InstrKind::Call: {
    // Rule call-direct-fetch: marker + rsp bump + return-address store;
    // push the return point onto the RSB.
    if (D.K != Directive::Kind::Fetch)
      return fail(WhyNot, "call takes a plain fetch directive");
    PC RetPoint = I.next();
    BufIdx Leader =
        C.Buf.push(TransientInstr::makeCallMarker(C.N));
    TransientInstr Bump = TransientInstr::makeOp(
        Reg::sp(), Opcode::Succ, {Operand::reg(Reg::sp())}, C.N);
    Bump.GroupLeader = Leader;
    C.Buf.push(std::move(Bump));
    TransientInstr Save = TransientInstr::makeStore(
        Operand::imm(RetPoint), {Operand::reg(Reg::sp())}, C.N);
    Save.GroupLeader = Leader;
    C.Buf.push(std::move(Save));
    C.Rsb.push(Leader, RetPoint);
    C.N = I.callee();
    return ok(RuleId::CallFetch);
  }

  case InstrKind::CallI: {
    // Indirect call (the extension App. A.1 sketches): the call group of
    // call-direct-fetch plus a jmpi transient that validates the
    // directive-predicted callee, exactly as jmpi-fetch would.
    if (D.K != Directive::Kind::FetchTarget)
      return fail(WhyNot, "calli takes fetch: n");
    PC RetPoint = I.next();
    BufIdx Leader = C.Buf.push(TransientInstr::makeCallMarker(C.N));
    TransientInstr Bump = TransientInstr::makeOp(
        Reg::sp(), Opcode::Succ, {Operand::reg(Reg::sp())}, C.N);
    Bump.GroupLeader = Leader;
    C.Buf.push(std::move(Bump));
    TransientInstr Save = TransientInstr::makeStore(
        Operand::imm(RetPoint), {Operand::reg(Reg::sp())}, C.N);
    Save.GroupLeader = Leader;
    C.Buf.push(std::move(Save));
    TransientInstr Jump = TransientInstr::makeJumpI(I.args(), D.Target, C.N);
    Jump.GroupLeader = Leader;
    C.Buf.push(std::move(Jump));
    C.Rsb.push(Leader, RetPoint);
    C.N = D.Target;
    return ok(RuleId::CallIFetch);
  }

  case InstrKind::Ret: {
    // Rules ret-fetch-rsb / ret-fetch-rsb-empty: marker + return-address
    // load + rsp drop + indirect jump predicted through the RSB.
    std::optional<PC> Predicted;
    RuleId Rule = RuleId::RetFetchRsb;
    switch (Opts.RsbOnEmpty) {
    case RsbPolicy::Circular:
      Predicted = C.Rsb.topCircular(Opts.RsbCircularSize);
      break;
    case RsbPolicy::AttackerChoice:
    case RsbPolicy::Stall:
      Predicted = C.Rsb.top();
      break;
    }
    if (Predicted) {
      if (D.K != Directive::Kind::Fetch)
        return fail(WhyNot, "ret takes a plain fetch while the RSB predicts");
    } else {
      if (Opts.RsbOnEmpty == RsbPolicy::Stall)
        return fail(WhyNot, "RSB empty and the machine refuses to speculate");
      if (D.K != Directive::Kind::FetchTarget)
        return fail(WhyNot, "ret with empty RSB takes fetch: n");
      Predicted = D.Target;
      Rule = RuleId::RetFetchRsbEmpty;
    }

    BufIdx Leader = C.Buf.push(TransientInstr::makeRetMarker(C.N));
    TransientInstr LoadRet = TransientInstr::makeLoad(
        Reg::tmp(), {Operand::reg(Reg::sp())}, C.N);
    LoadRet.GroupLeader = Leader;
    C.Buf.push(std::move(LoadRet));
    TransientInstr Drop = TransientInstr::makeOp(
        Reg::sp(), Opcode::Pred, {Operand::reg(Reg::sp())}, C.N);
    Drop.GroupLeader = Leader;
    C.Buf.push(std::move(Drop));
    TransientInstr Jump = TransientInstr::makeJumpI(
        {Operand::reg(Reg::tmp())}, *Predicted, C.N);
    Jump.GroupLeader = Leader;
    C.Buf.push(std::move(Jump));
    C.Rsb.pop(Leader);
    C.N = *Predicted;
    return ok(Rule);
  }
  }
  return fail(WhyNot, "unknown instruction kind");
}

//===----------------------------------------------------------------------===//
// Execute stage
//===----------------------------------------------------------------------===//

std::optional<StepOutcome> Machine::stepExecute(Configuration &C,
                                                const Directive &D,
                                                std::string *WhyNot) const {
  BufIdx I = D.Idx;
  if (!C.Buf.contains(I))
    return fail(WhyNot, "no buffer entry at index " + std::to_string(I));
  if (fenceBefore(C.Buf, I))
    return fail(WhyNot, "an earlier fence blocks execution");

  TransientInstr &T = C.Buf.mut(I);
  switch (T.Kind) {
  case TransientKind::Op: {
    if (D.K != Directive::Kind::Execute)
      return fail(WhyNot, "op takes a plain execute directive");
    auto Args = resolveOperands(C, I, T.Args);
    if (!Args)
      return fail(WhyNot, "op operands are unresolved");
    Value V = evalOp(T.Opc, *Args, Opts);
    BufIdx Leader = T.GroupLeader; // Call/ret group membership survives.
    T = TransientInstr::makeResolvedValue(T.Dest, V, T.Origin);
    T.GroupLeader = Leader;
    return ok(RuleId::OpExecute);
  }

  case TransientKind::Branch: {
    if (D.K != Directive::Kind::Execute)
      return fail(WhyNot, "branch takes a plain execute directive");
    auto Args = resolveOperands(C, I, T.Args);
    if (!Args)
      return fail(WhyNot, "branch condition operands are unresolved");
    Value Cond = evalOp(T.Opc, *Args, Opts);
    PC Actual = truthy(Cond) ? T.NTrue : T.NFalse;
    Value Leak(Actual, Cond.Taint);
    if (Actual == T.N0) {
      // Rule cond-execute-correct.
      C.Buf.resolveControl(I, Actual);
      return ok(RuleId::CondExecuteCorrect, Observation::jump(Leak));
    }
    // Rule cond-execute-incorrect: discard this entry and everything
    // younger, then re-insert the resolved jump at the same index.
    PC Origin = T.Origin;
    C.Buf.truncateFrom(I);
    C.Rsb.rollbackFrom(I);
    C.Buf.push(TransientInstr::makeJump(Actual, Origin));
    C.N = Actual;
    return ok(RuleId::CondExecuteIncorrect,
              Observation::jump(Leak, /*Rollback=*/true));
  }

  case TransientKind::JumpI: {
    if (D.K != Directive::Kind::Execute)
      return fail(WhyNot, "jmpi takes a plain execute directive");
    auto Args = resolveOperands(C, I, T.Args);
    if (!Args)
      return fail(WhyNot, "jmpi target operands are unresolved");
    Value Target = evalAddr(*Args, Opts);
    PC Actual = static_cast<PC>(Target.Bits);
    Value Leak(Actual, Target.Taint);
    if (Actual == T.N0) {
      // Rule jmpi-execute-correct.
      C.Buf.resolveControl(I, Actual);
      return ok(RuleId::JmpiExecuteCorrect, Observation::jump(Leak));
    }
    // Rule jmpi-execute-incorrect.
    PC Origin = T.Origin;
    BufIdx Leader = T.GroupLeader;
    C.Buf.truncateFrom(I);
    C.Rsb.rollbackFrom(I);
    TransientInstr J = TransientInstr::makeJump(Actual, Origin);
    J.GroupLeader = Leader; // A ret-group jmpi stays in its group.
    C.Buf.push(std::move(J));
    C.N = Actual;
    return ok(RuleId::JmpiExecuteIncorrect,
              Observation::jump(Leak, /*Rollback=*/true));
  }

  case TransientKind::Load: {
    if (D.K == Directive::Kind::ExecuteFwd) {
      // Rule load-execute-forwarded-guessed (§3.5): the attacker picks any
      // earlier store with a resolved value; its address may be unknown.
      BufIdx J = D.FwdFrom;
      if (J >= I || !C.Buf.contains(J))
        return fail(WhyNot, "fwd source must be an earlier buffer entry");
      const TransientInstr &S = C.Buf.at(J);
      if (!S.is(TransientKind::Store) || !S.StoreValIsResolved)
        return fail(WhyNot, "fwd source is not a value-resolved store");
      T.Kind = TransientKind::LoadGuessed;
      T.Val = S.StoreResolvedVal;
      T.Dep = J;
      return ok(RuleId::LoadExecuteFwdGuessed);
    }
    if (D.K != Directive::Kind::Execute)
      return fail(WhyNot, "load takes execute or execute: fwd");
    auto Args = resolveOperands(C, I, T.Args);
    if (!Args)
      return fail(WhyNot, "load address operands are unresolved");
    Value Addr = evalAddr(*Args, Opts);
    uint64_t A = Addr.Bits;

    // Latest earlier store with a resolved address equal to a.
    std::optional<BufIdx> Match;
    C.Buf.scanReverse(C.Buf.minIndex(), I,
                      [&](BufIdx J, const TransientInstr &S) {
                        if (!S.isStoreToAddr(A))
                          return false;
                        Match = J;
                        return true;
                      });

    if (!Match) {
      // Rule load-execute-nodep: no matching store; read from memory.
      // Stores with *unresolved* addresses do not block — the Spectre v4
      // behaviour of Figure 7.
      Value V = C.Mem.load(A);
      T.Kind = TransientKind::LoadResolved;
      T.Val = V;
      T.Dep = std::nullopt;
      T.LoadAddr = A;
      return ok(RuleId::LoadExecuteNodep, Observation::read(Addr));
    }
    const TransientInstr &S = C.Buf.at(*Match);
    if (!S.StoreValIsResolved)
      return fail(WhyNot,
                  "matching store's value is unresolved; load must wait");
    // Rule load-execute-forward: forward without touching memory.
    T.Kind = TransientKind::LoadResolved;
    T.Val = S.StoreResolvedVal;
    T.Dep = *Match;
    T.LoadAddr = A;
    return ok(RuleId::LoadExecuteForward, Observation::fwd(Addr));
  }

  case TransientKind::LoadGuessed: {
    if (D.K != Directive::Kind::Execute)
      return fail(WhyNot, "guessed load takes a plain execute directive");
    auto Args = resolveOperands(C, I, T.Args);
    if (!Args)
      return fail(WhyNot, "load address operands are unresolved");
    Value Addr = evalAddr(*Args, Opts);
    uint64_t A = Addr.Bits;
    BufIdx J = *T.Dep;

    if (C.Buf.contains(J)) {
      // The originating store is still in flight.
      const TransientInstr &S = C.Buf.at(J);
      bool AddrMismatch = S.StoreAddrIsResolved && S.StoreAddr.Bits != A;
      bool Intervening = C.Buf.scanReverse(
          J + 1, I, [&](BufIdx, const TransientInstr &S) {
            return S.isStoreToAddr(A);
          });
      if (!AddrMismatch && !Intervening) {
        // Rule load-execute-addr-ok.
        T.Kind = TransientKind::LoadResolved;
        T.LoadAddr = A;
        return ok(RuleId::LoadExecuteAddrOk, Observation::fwd(Addr));
      }
      // Rule load-execute-addr-hazard: discard this load and everything
      // younger; restart at the load's own program point.
      PC Restart = rollbackTo(C, I);
      C.N = Restart;
      return ok(RuleId::LoadExecuteAddrHazard,
                Observation::fwd(Addr, /*Rollback=*/true));
    }

    // The originating store already retired: validate against memory.
    if (C.Buf.scanReverse(C.Buf.minIndex(), I,
                          [&](BufIdx, const TransientInstr &S) {
                            return S.isStoreToAddr(A);
                          }))
      return fail(WhyNot, "an earlier in-flight store to the same address "
                          "must retire first");
    Value V = C.Mem.load(A);
    if (V == T.Val) {
      // Rule load-execute-addr-mem-match.
      T.Kind = TransientKind::LoadResolved;
      T.Val = V;
      T.Dep = std::nullopt;
      T.LoadAddr = A;
      return ok(RuleId::LoadExecuteAddrMemMatch, Observation::read(Addr));
    }
    // Rule load-execute-addr-mem-hazard.
    PC Restart = rollbackTo(C, I);
    C.N = Restart;
    return ok(RuleId::LoadExecuteAddrMemHazard,
              Observation::read(Addr, /*Rollback=*/true));
  }

  case TransientKind::Store: {
    if (D.K == Directive::Kind::ExecuteValue) {
      // Rule store-execute-value.
      if (T.StoreValIsResolved)
        return fail(WhyNot, "store value already resolved");
      auto V = resolveOperand(C, I, T.StoreVal);
      if (!V)
        return fail(WhyNot, "store value operand is unresolved");
      T.StoreValIsResolved = true;
      T.StoreResolvedVal = *V;
      return ok(RuleId::StoreExecuteValue);
    }
    if (D.K != Directive::Kind::ExecuteAddr)
      return fail(WhyNot, "store takes execute: value or execute: addr");
    if (T.StoreAddrIsResolved)
      return fail(WhyNot, "store address already resolved");
    auto Args = resolveOperands(C, I, T.Args);
    if (!Args)
      return fail(WhyNot, "store address operands are unresolved");
    Value Addr = evalAddr(*Args, Opts);
    uint64_t A = Addr.Bits;

    // Scan younger resolved loads {j_k, a_k} for forwarding mistakes:
    // (a_k = a ∧ j_k < i) — the load read stale data (⊥ counts as < i) —
    // or (j_k = i ∧ a_k ≠ a) — the load took this store's data for the
    // wrong address.
    std::optional<BufIdx> Hazard;
    for (BufIdx K = I + 1; !C.Buf.empty() && K <= C.Buf.maxIndex(); ++K) {
      const TransientInstr &L = C.Buf.at(K);
      if (!L.is(TransientKind::LoadResolved))
        continue;
      bool DepBeforeStore = !L.Dep || *L.Dep < I;
      if ((L.LoadAddr == A && DepBeforeStore) ||
          (L.Dep && *L.Dep == I && L.LoadAddr != A)) {
        Hazard = K;
        break;
      }
    }

    T.StoreAddrIsResolved = true;
    T.StoreAddr = Addr;
    if (!Hazard)
      // Rule store-execute-addr-ok.
      return ok(RuleId::StoreExecuteAddrOk, Observation::fwd(Addr));
    // Rule store-execute-addr-hazard: restart at the earliest wronged
    // load's program point; the store itself (index i < k) survives.
    PC Restart = rollbackTo(C, *Hazard);
    C.N = Restart;
    return ok(RuleId::StoreExecuteAddrHazard,
              Observation::fwd(Addr, /*Rollback=*/true));
  }

  case TransientKind::ResolvedValue:
  case TransientKind::LoadResolved:
  case TransientKind::Jump:
    return fail(WhyNot, "entry is already resolved");
  case TransientKind::CallMarker:
  case TransientKind::RetMarker:
  case TransientKind::Fence:
    return fail(WhyNot, "entry has no execute step");
  }
  return fail(WhyNot, "unknown transient kind");
}

//===----------------------------------------------------------------------===//
// Retire stage
//===----------------------------------------------------------------------===//

std::optional<StepOutcome> Machine::stepRetire(Configuration &C,
                                               std::string *WhyNot) const {
  if (C.Buf.empty())
    return fail(WhyNot, "nothing to retire");
  BufIdx I = C.Buf.minIndex();
  const TransientInstr &T = C.Buf.at(I);

  switch (T.Kind) {
  case TransientKind::ResolvedValue:
  case TransientKind::LoadResolved: {
    // Rule value-retire (covers resolved loads: the annotations drop).
    C.Regs.set(T.Dest, T.Val);
    C.Buf.popFront();
    return ok(RuleId::ValueRetire);
  }

  case TransientKind::Jump:
    // Rule jump-retire.
    C.Buf.popFront();
    return ok(RuleId::JumpRetire);

  case TransientKind::Store: {
    // Rule store-retire.
    if (!T.isResolvedStore())
      return fail(WhyNot, "store not fully resolved");
    Value Addr = T.StoreAddr;
    C.Mem.store(Addr.Bits, T.StoreResolvedVal);
    C.Buf.popFront();
    return ok(RuleId::StoreRetire, Observation::write(Addr));
  }

  case TransientKind::Fence:
    // Rule fence-retire.
    C.Buf.popFront();
    return ok(RuleId::FenceRetire);

  case TransientKind::CallMarker: {
    // Rule call-retire: the marker, the rsp bump, and the return-address
    // store retire together; an indirect call's group additionally holds
    // the resolved callee jump.
    if (!C.Buf.contains(I + 2))
      return fail(WhyNot, "call group incomplete");
    const TransientInstr &Bump = C.Buf.at(I + 1);
    const TransientInstr &Save = C.Buf.at(I + 2);
    if (!Bump.is(TransientKind::ResolvedValue))
      return fail(WhyNot, "call stack-pointer update not resolved");
    if (!Save.isResolvedStore())
      return fail(WhyNot, "call return-address store not resolved");
    bool Indirect =
        C.Buf.contains(I + 3) && C.Buf.at(I + 3).GroupLeader == I;
    if (Indirect) {
      const TransientInstr &Callee = C.Buf.at(I + 3);
      if (!Callee.is(TransientKind::Jump))
        return fail(WhyNot, "indirect call target not resolved");
    }
    Value Addr = Save.StoreAddr;
    C.Regs.set(Reg::sp(), Bump.Val);
    C.Mem.store(Addr.Bits, Save.StoreResolvedVal);
    C.Buf.popFront();
    C.Buf.popFront();
    C.Buf.popFront();
    if (Indirect)
      C.Buf.popFront();
    return ok(RuleId::CallRetire, Observation::write(Addr));
  }

  case TransientKind::RetMarker: {
    // Rule ret-retire: marker, return-address load, rsp drop, and the
    // resolved jump retire together; rtmp is not committed.
    if (!C.Buf.contains(I + 3))
      return fail(WhyNot, "ret group incomplete");
    const TransientInstr &LoadRet = C.Buf.at(I + 1);
    const TransientInstr &Drop = C.Buf.at(I + 2);
    const TransientInstr &Jump = C.Buf.at(I + 3);
    if (!LoadRet.is(TransientKind::LoadResolved) &&
        !LoadRet.is(TransientKind::ResolvedValue))
      return fail(WhyNot, "ret return-address load not resolved");
    if (!Drop.is(TransientKind::ResolvedValue))
      return fail(WhyNot, "ret stack-pointer update not resolved");
    if (!Jump.is(TransientKind::Jump))
      return fail(WhyNot, "ret jump not resolved");
    C.Regs.set(Reg::sp(), Drop.Val);
    C.Buf.popFront();
    C.Buf.popFront();
    C.Buf.popFront();
    C.Buf.popFront();
    return ok(RuleId::RetRetire);
  }

  case TransientKind::Op:
  case TransientKind::Branch:
  case TransientKind::Load:
  case TransientKind::LoadGuessed:
  case TransientKind::JumpI:
    return fail(WhyNot, "oldest entry is unresolved");
  }
  return fail(WhyNot, "unknown transient kind");
}

//===----------------------------------------------------------------------===//
// Applicable-directive enumeration (probing)
//===----------------------------------------------------------------------===//

std::vector<Directive> Machine::applicableDirectives(
    const Configuration &C) const {
  std::vector<Directive> Candidates;

  if (Prog.contains(C.N)) {
    switch (Prog.at(C.N).kind()) {
    case InstrKind::Branch:
      Candidates.push_back(Directive::fetchBool(true));
      Candidates.push_back(Directive::fetchBool(false));
      break;
    case InstrKind::JumpI:
      for (PC Target = 0; Target <= Prog.endPC(); ++Target)
        Candidates.push_back(Directive::fetchTarget(Target));
      break;
    case InstrKind::CallI:
      for (PC Target = 0; Target <= Prog.endPC(); ++Target)
        Candidates.push_back(Directive::fetchTarget(Target));
      break;
    case InstrKind::Ret:
      Candidates.push_back(Directive::fetch());
      for (PC Target = 0; Target <= Prog.endPC(); ++Target)
        Candidates.push_back(Directive::fetchTarget(Target));
      break;
    default:
      Candidates.push_back(Directive::fetch());
      break;
    }
  }

  if (!C.Buf.empty()) {
    for (BufIdx I = C.Buf.minIndex(); I <= C.Buf.maxIndex(); ++I) {
      const TransientInstr &T = C.Buf.at(I);
      switch (T.Kind) {
      case TransientKind::Op:
      case TransientKind::Branch:
      case TransientKind::JumpI:
      case TransientKind::LoadGuessed:
        Candidates.push_back(Directive::execute(I));
        break;
      case TransientKind::Load:
        Candidates.push_back(Directive::execute(I));
        for (BufIdx J = C.Buf.minIndex(); J < I; ++J)
          if (C.Buf.at(J).is(TransientKind::Store))
            Candidates.push_back(Directive::executeFwd(I, J));
        break;
      case TransientKind::Store:
        Candidates.push_back(Directive::executeValue(I));
        Candidates.push_back(Directive::executeAddr(I));
        break;
      default:
        break;
      }
    }
    Candidates.push_back(Directive::retire());
  }

  std::vector<Directive> Applicable;
  for (const Directive &D : Candidates) {
    Configuration Probe = C;
    if (step(Probe, D))
      Applicable.push_back(D);
  }
  return Applicable;
}
