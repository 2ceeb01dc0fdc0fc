//===- core/TransientInstr.h - Transient instructions ----------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transient instructions — the right column of the paper's Table 1.  A
/// physical instruction becomes one (or, for call/ret, several) transient
/// instructions when fetched into the reorder buffer, then mutates through
/// partially- and fully-resolved forms as it executes:
///
///   (r = op(op, rv⃗))              unresolved op
///   (r = v_ℓ)                     resolved value
///   br(op, rv⃗, n0, (nt, nf))      unresolved conditional
///   jump n0                       resolved conditional / indirect jump
///   (r = load(rv⃗))_n              unresolved load
///   (r = load(rv⃗, (v_ℓ, j)))_n    partially resolved load (§3.5)
///   (r = v_ℓ{⊥, a})_n             resolved load from memory
///   (r = v_ℓ{j, a})_n             resolved load forwarded from store j
///   store(rv, rv⃗)                 store; value and address resolve
///   store(v_ℓ, a_ℓa)              independently (§3.4)
///   jmpi(rv⃗, n0)                  unresolved indirect jump
///   call / ret                    markers for the A.2 expansions
///   fence                         speculation barrier
///
//===----------------------------------------------------------------------===//

#ifndef SCT_CORE_TRANSIENTINSTR_H
#define SCT_CORE_TRANSIENTINSTR_H

#include "core/Value.h"
#include "isa/Program.h"
#include "support/InlineVector.h"

#include <optional>
#include <span>

namespace sct {

/// Index into the reorder buffer (the paper's natural-number buffer
/// indices).  Indices are monotonically increasing across a run and never
/// reused, which preserves the paper's contiguous-domain invariant while
/// keeping schedules unambiguous.
using BufIdx = uint64_t;

/// An optional buffer index packed into one word: 0 encodes "no index"
/// (the paper's ⊥ provenance), any other value encodes the index plus
/// one.  Drop-in for the `std::optional<BufIdx>` it replaces in
/// reorder-buffer entries, where the separate engaged flag doubled the
/// field to 16 bytes; the raw word is also exactly the value the entry
/// fingerprint has always folded (`Dep ? *Dep + 1 : 0`), so swapping the
/// representation leaves every hash unchanged.
class OptBufIdx {
public:
  constexpr OptBufIdx() = default;
  constexpr OptBufIdx(std::nullopt_t) {}
  constexpr OptBufIdx(BufIdx I) : Raw(I + 1) {}

  constexpr explicit operator bool() const { return Raw != 0; }
  constexpr BufIdx operator*() const {
    assert(Raw != 0 && "dereferencing empty OptBufIdx");
    return Raw - 1;
  }
  /// The sentinel word itself (index + 1, 0 = none).
  constexpr uint64_t raw() const { return Raw; }

  constexpr bool operator==(const OptBufIdx &Other) const = default;

private:
  uint64_t Raw = 0;
};

/// Kinds of transient instructions.
enum class TransientKind : unsigned char {
  Op,            ///< (r = op(op, rv⃗)) — unresolved op
  ResolvedValue, ///< (r = v_ℓ) — resolved op
  Branch,        ///< br(op, rv⃗, n0, (ntrue, nfalse)) — unresolved
  Jump,          ///< jump n0 — resolved branch / indirect jump
  Load,          ///< (r = load(rv⃗))_n — unresolved load
  LoadGuessed,   ///< (r = load(rv⃗, (v_ℓ, j)))_n — alias-predicted (§3.5)
  LoadResolved,  ///< (r = v_ℓ{j|⊥, a})_n — resolved load
  Store,         ///< store(rv|v_ℓ, rv⃗|a_ℓa)
  JumpI,         ///< jmpi(rv⃗, n0) — unresolved indirect jump
  CallMarker,    ///< call
  RetMarker,     ///< ret
  Fence,         ///< fence
};

/// One reorder-buffer entry.  A single tagged struct; which fields are
/// meaningful depends on Kind (see the factory functions).
///
/// The field order is chosen for size, not narrative: the byte-wide tag,
/// opcode, and resolution flags share the leading word with the 16-bit
/// register, and every 8-byte-aligned field follows without padding.
/// tests/CoreTest.cpp asserts the resulting sizeof ceiling — an entry is
/// copied at every schedule fork and chunk unshare, so accidental
/// padding regressions are a measured cost, not a cosmetic one.
struct TransientInstr {
  TransientKind Kind = TransientKind::Fence;
  /// Op opcode or Branch condition.
  Opcode Opc = Opcode::True;
  /// Whether the store's value has resolved into StoreResolvedVal.
  bool StoreValIsResolved : 1 = false;
  /// Whether the store's address has resolved into StoreAddr.
  bool StoreAddrIsResolved : 1 = false;
  /// Destination register (Op, ResolvedValue, Load*).
  Reg Dest;

  /// Operand list rv⃗ (Op args, Branch condition args, Load/Store/JumpI
  /// address args).  Address expressions and condition lists are one or
  /// two operands in every workload, so they live inline in the entry —
  /// no per-entry heap allocation to chase (or re-allocate) when a
  /// configuration is copied at a schedule fork.
  InlineVector<Operand, 2> Args;

  /// Resolved value: ResolvedValue and LoadResolved carry the assigned
  /// value; LoadGuessed carries the speculatively forwarded value.
  Value Val;

  /// Store value operand rv (unresolved form).
  Operand StoreVal = Operand::imm(0);
  Value StoreResolvedVal;
  Value StoreAddr;

  /// LoadResolved: the address annotation a of (r = v{j,a}).
  uint64_t LoadAddr = 0;
  /// LoadResolved: originating store index j, or none for ⊥ (memory).
  /// LoadGuessed: the predicted originating store index j.
  OptBufIdx Dep;

  /// Index of the leading transient of this instruction's fetch group.
  /// Equals the entry's own index except for the call/ret expansions of
  /// Appendix A.2, whose members all point at the call/ret marker so a
  /// rollback into the middle of a group widens to the whole group.
  BufIdx GroupLeader = 0;

  /// Branch: speculatively chosen target n0.  Jump: resolved target.
  /// JumpI: predicted target n0.
  PC N0 = 0;
  /// Branch: the two static targets.
  PC NTrue = 0;
  PC NFalse = 0;

  /// Program point of the originating physical instruction (the paper's
  /// load annotation `(...)_n`, kept for every transient for diagnostics
  /// and hazard rollback).
  PC Origin = 0;

  // --- Factories -----------------------------------------------------------
  static TransientInstr makeOp(Reg Dest, Opcode Opc,
                               std::span<const Operand> Args, PC Origin);
  static TransientInstr makeResolvedValue(Reg Dest, Value V, PC Origin);
  static TransientInstr makeBranch(Opcode Cond, std::span<const Operand> Args,
                                   PC Chosen, PC NTrue, PC NFalse, PC Origin);
  static TransientInstr makeJump(PC Target, PC Origin);
  static TransientInstr makeLoad(Reg Dest, std::span<const Operand> AddrArgs,
                                 PC Origin);
  static TransientInstr makeStore(Operand Val,
                                  std::span<const Operand> AddrArgs,
                                  PC Origin);
  static TransientInstr makeJumpI(std::span<const Operand> AddrArgs,
                                  PC Predicted, PC Origin);
  // Braced-list conveniences (C++20 spans don't bind to initializer
  // lists); forward to the span factories above.
  static TransientInstr makeOp(Reg Dest, Opcode Opc,
                               std::initializer_list<Operand> Args,
                               PC Origin) {
    return makeOp(Dest, Opc, std::span<const Operand>(Args.begin(), Args.size()),
                  Origin);
  }
  static TransientInstr makeBranch(Opcode Cond,
                                   std::initializer_list<Operand> Args,
                                   PC Chosen, PC NTrue, PC NFalse, PC Origin) {
    return makeBranch(Cond,
                      std::span<const Operand>(Args.begin(), Args.size()),
                      Chosen, NTrue, NFalse, Origin);
  }
  static TransientInstr makeLoad(Reg Dest,
                                 std::initializer_list<Operand> AddrArgs,
                                 PC Origin) {
    return makeLoad(
        Dest, std::span<const Operand>(AddrArgs.begin(), AddrArgs.size()),
        Origin);
  }
  static TransientInstr makeStore(Operand Val,
                                  std::initializer_list<Operand> AddrArgs,
                                  PC Origin) {
    return makeStore(
        Val, std::span<const Operand>(AddrArgs.begin(), AddrArgs.size()),
        Origin);
  }
  static TransientInstr makeJumpI(std::initializer_list<Operand> AddrArgs,
                                  PC Predicted, PC Origin) {
    return makeJumpI(
        std::span<const Operand>(AddrArgs.begin(), AddrArgs.size()), Predicted,
        Origin);
  }
  static TransientInstr makeCallMarker(PC Origin);
  static TransientInstr makeRetMarker(PC Origin);
  static TransientInstr makeFence(PC Origin);

  // --- Queries -------------------------------------------------------------
  bool is(TransientKind K) const { return Kind == K; }

  /// The register this entry assigns when (fully or partially) resolved —
  /// the "(r = _)" shapes of the register-resolve function (Figure 3 and
  /// its §3.5 extension) — or nullopt.  Fixed at fetch: every in-place
  /// resolution keeps the kind's shape class and Dest, which the reorder
  /// buffer's rename index relies on.
  std::optional<Reg> assignedReg() const {
    switch (Kind) {
    case TransientKind::Op:
    case TransientKind::ResolvedValue:
    case TransientKind::Load:
    case TransientKind::LoadGuessed:
    case TransientKind::LoadResolved:
      return Dest;
    default:
      return std::nullopt;
    }
  }

  /// True iff this is unresolved control flow: a branch or indirect jump
  /// whose execution may still roll the buffer back.
  bool isUnresolvedControl() const {
    return Kind == TransientKind::Branch || Kind == TransientKind::JumpI;
  }

  /// True iff this is a store whose resolved address equals \p Addr — the
  /// "buf(j) = store(_, a)" premise of the load rules.
  bool isStoreToAddr(uint64_t Addr) const {
    return Kind == TransientKind::Store && StoreAddrIsResolved &&
           StoreAddr.Bits == Addr;
  }

  /// True iff this is a fully-resolved store store(v_ℓ, a_ℓa).
  bool isResolvedStore() const {
    return Kind == TransientKind::Store && StoreValIsResolved &&
           StoreAddrIsResolved;
  }

  /// True iff this entry is fully resolved (retirable shape).
  bool isResolved() const;

  bool operator==(const TransientInstr &Other) const = default;

  /// Fingerprint over every field operator== compares, resolution state
  /// included — a store with a resolved address must never hash like its
  /// unresolved twin.
  uint64_t hash() const;

  /// Renders the paper's notation, e.g. "(rb = load([0x40, ra]))".
  std::string str(const Program &P) const;
};

} // namespace sct

#endif // SCT_CORE_TRANSIENTINSTR_H
