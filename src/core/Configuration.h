//===- core/Configuration.h - Machine configurations -----------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configurations `C = (ρ, µ, n, buf)` (§3), extended with the return
/// stack buffer σ of Appendix A.2.  Also defines the two equivalences the
/// paper's metatheory uses:
///  - `≈`  (sameArchState): registers and memory equal, speculative state
///    ignored — used by sequential-equivalence (Theorem 3.2);
///  - `≃pub` (lowEquivalent): agreement on all labels and on public
///    values — the indistinguishability underlying SCT (Definition 3.1).
///
//===----------------------------------------------------------------------===//

#ifndef SCT_CORE_CONFIGURATION_H
#define SCT_CORE_CONFIGURATION_H

#include "core/Memory.h"
#include "core/RegisterFile.h"
#include "core/ReorderBuffer.h"
#include "core/ReturnStackBuffer.h"

namespace sct {

/// A machine configuration.
struct Configuration {
  RegisterFile Regs;
  Memory Mem;
  PC N = 0;
  ReorderBuffer Buf;
  ReturnStackBuffer Rsb;

  /// Builds the initial configuration of \p P: registers and memory from
  /// the program's init lists, program point at the entry, empty buffers.
  static Configuration initial(const Program &P);

  /// The paper's `≈`: equal registers and memory (speculative state — buf,
  /// σ, and the program point — may differ).
  bool sameArchState(const Configuration &Other) const {
    return Regs == Other.Regs && Mem == Other.Mem;
  }

  /// The paper's `≃pub`: configurations coincide on public values in
  /// registers and memory (labels must agree everywhere).
  bool lowEquivalent(const Configuration &Other) const {
    return Regs.lowEquivalent(Other.Regs) && Mem.lowEquivalent(Other.Mem);
  }

  /// Terminal configuration (Definition B.2): empty reorder buffer.  The
  /// run has additionally finished when no instruction remains to fetch.
  bool isTerminal() const { return Buf.empty(); }

  /// True iff the run can make no further progress: nothing speculative in
  /// flight and the program point is outside the text section.
  bool isFinal(const Program &P) const {
    return Buf.empty() && !P.contains(N);
  }

  bool operator==(const Configuration &Other) const = default;

  /// Canonical 64-bit fingerprint of the whole configuration — registers,
  /// observable memory (default-valued cells contribute nothing), program
  /// point, reorder buffer, and RSB journal.  Equal configurations hash
  /// equal by construction; the explorer's cross-schedule seen-state
  /// table keys on this to prune re-exploration of states recurring
  /// across schedule forks (see ExplorerOptions::PruneSeen for the
  /// collision caveat).
  ///
  /// O(1) amortized: each component maintains its fingerprint
  /// incrementally as an XOR-multiset updated on
  /// store/set/push/pop/rollback, so this call just chains five running
  /// values — no state walk (the maintenance contract is ARCHITECTURE.md
  /// invariant 4; hashFromScratch() is the recomputation oracle the
  /// property suite checks against).  The reorder buffer's per-entry
  /// terms are folded lazily (ReorderBuffer's file comment): on a
  /// mutable configuration this overload memoizes the entries touched
  /// since the last probe; the const overload computes them on the fly
  /// without writing, so it stays safe on a shared configuration.
  uint64_t hash();
  uint64_t hash() const;

  /// Recomputes hash() by walking every register, cell, buffer entry, and
  /// journal entry — the verification oracle for the incremental
  /// fingerprints (tests/HashEquivalenceTest.cpp).
  uint64_t hashFromScratch() const;
};

} // namespace sct

#endif // SCT_CORE_CONFIGURATION_H
