//===- core/ReturnStackBuffer.h - The RSB σ --------------------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The return stack buffer σ of Appendix A.2.  σ is a journal of
/// push/pop commands indexed by reorder-buffer indices; `top(σ)` replays
/// the journal into a stack and returns its top.  Journalling (rather than
/// a plain stack) is what lets σ roll back together with the reorder
/// buffer on misspeculation ("Similar to the reorder buffer, we address
/// the RSB through indices and roll it back").
///
/// The paper describes three hardware behaviours for `ret` with an empty
/// RSB; all three are selectable (MachineOptions::RsbOnEmpty):
///  - AttackerChoice: the schedule supplies the target (ret-fetch-rsb-empty);
///  - Stall: refuse to speculate (AMD);
///  - Circular: replay over a fixed-size circular buffer that wraps on
///    underflow ("most" Intel parts).
///
//===----------------------------------------------------------------------===//

#ifndef SCT_CORE_RETURNSTACKBUFFER_H
#define SCT_CORE_RETURNSTACKBUFFER_H

#include "core/TransientInstr.h"
#include "support/Hashing.h"

#include <memory>
#include <optional>
#include <vector>

namespace sct {

/// RSB behaviour when `top(σ)` would be ⊥.
enum class RsbPolicy : unsigned char {
  AttackerChoice, ///< fetch: n' supplies the prediction (paper default).
  Stall,          ///< ret cannot fetch until the RSB refills (AMD).
  Circular,       ///< fixed-size circular buffer; wraps on underflow.
};

/// The return stack buffer σ.
///
/// The journal is held behind a shared_ptr with copy-on-write semantics,
/// mirroring core/Memory and the reorder buffer's chunks: a configuration
/// is copied at every schedule fork and branch probe, while the journal
/// itself only changes at call/ret fetches and rollbacks — so copies
/// share the journal by pointer and the first mutation through a shared
/// reference clones it.
class ReturnStackBuffer {
public:
  /// Records "σ[i ↦ push n]" (call fetch).
  void push(BufIdx I, PC Target) {
    std::vector<Entry> &J = mutJournal();
    JournalXor ^= contribution(J.size(), {I, Target, true});
    J.push_back({I, Target, true});
  }

  /// Records "σ[i ↦ pop]" (ret fetch).
  void pop(BufIdx I) {
    std::vector<Entry> &J = mutJournal();
    JournalXor ^= contribution(J.size(), {I, 0, false});
    J.push_back({I, 0, false});
  }

  /// top(σ) under the standard stack replay; std::nullopt encodes ⊥.
  std::optional<PC> top() const;

  /// top(σ) replayed over a \p Size -entry circular buffer (never ⊥;
  /// underflow wraps around, initially reading program point 0).
  PC topCircular(unsigned Size) const;

  /// Rolls back: drops every journal entry with index >= \p I.
  void rollbackFrom(BufIdx I);

  /// Number of journal entries (for tests).
  size_t journalSize() const { return journal().size(); }

  bool operator==(const ReturnStackBuffer &Other) const {
    return journal() == Other.journal();
  }

  /// Fingerprint over the whole journal in order (σ is journalled state:
  /// two RSBs with equal replayed tops but different histories roll back
  /// differently, so the history is what gets hashed).  Maintained
  /// incrementally as an XOR-multiset of avalanched per-entry
  /// contributions — the journal position participates in each term, so
  /// order still matters; push/pop/rollbackFrom update the running value
  /// and hash() is O(1).  `hashFromScratch()` is the O(journal)
  /// verification oracle (tests/HashEquivalenceTest.cpp).
  uint64_t hash() const;

  /// Recomputes hash() by walking the journal.
  uint64_t hashFromScratch() const;

private:
  struct Entry {
    BufIdx Idx;
    PC Target;
    bool IsPush;

    bool operator==(const Entry &Other) const = default;
  };

  /// Journal entry \p Pos's term in the XOR-multiset fingerprint.
  static uint64_t contribution(uint64_t Pos, const Entry &E) {
    return hashFields({Pos, E.Idx, (uint64_t(E.Target) << 1) | E.IsPush});
  }

  /// Read view; a never-pushed RSB holds no allocation at all.
  const std::vector<Entry> &journal() const {
    static const std::vector<Entry> Empty;
    return Journal ? *Journal : Empty;
  }

  /// Write access: allocates on first use, clones when shared.
  std::vector<Entry> &mutJournal() {
    if (!Journal)
      Journal = std::make_shared<std::vector<Entry>>();
    else if (Journal.use_count() > 1)
      Journal = std::make_shared<std::vector<Entry>>(*Journal);
    return *Journal;
  }

  /// Shared copy-on-write journal (null encodes empty).
  std::shared_ptr<std::vector<Entry>> Journal;
  /// XOR of contribution over the whole journal.
  uint64_t JournalXor = 0;
};

} // namespace sct

#endif // SCT_CORE_RETURNSTACKBUFFER_H
