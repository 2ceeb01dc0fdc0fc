//===- core/ReorderBuffer.h - The reorder buffer ---------------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reorder buffer `buf : N ⇀ TransInstr` (§3).  The paper's rules
/// "add and remove indices in a way that ensures that buf's domain will
/// always be contiguous"; this class makes that invariant structural: a
/// chunked sequence of entries plus the index of the first live one.
/// Unlike the paper's convention MIN(∅) = MAX(∅) = 0 (which makes indices
/// restart at 1 after a drain), indices here increase monotonically over a
/// whole run and are never reused — semantically equivalent (every rule
/// compares indices relatively) and unambiguous for recorded schedules.
///
/// **Storage: persistent, structurally shared, allocation-free to copy.**
/// A configuration is copied at every schedule fork, and the flat-slab
/// layout this replaces made each copy O(live suffix) — the engine's top
/// profile entry.  Here entries live in fixed-size chunks held by
/// `shared_ptr` (mirroring `core/Memory`'s copy-on-write cells); the last
/// chunk is *open* — `push` writes straight into its next free slot — and
/// becomes immutable-while-shared the moment a fork copies the buffer,
/// exactly like every other chunk.  A copy duplicates only the chunk
/// *pointers* (held in an InlineVector sized for the default speculation
/// window), so a fork moves O(#chunks) refcounted pointers and performs
/// zero heap allocations.  All mutation funnels through two chokepoints
/// that clone a chunk on the first write through a shared reference
/// (`mut()`, and `push()` when the open chunk is shared) — Memory's
/// first-store unshare, applied here.  `popFront()` only advances `Base`
/// (a fully dead front chunk is dropped by releasing its pointer — no
/// entry ever moves on retire — and a sole-owned one is parked for reuse
/// by the next chunk-open, with a thread-local block pool behind it for
/// the shared-at-drop case, making the steady-state issue/retire cycle
/// allocation-free); `truncateFrom()` re-opens the cut chunk in place —
/// rollback copies no entries at all.  Chunks are aligned: the chunk
/// holding index I always starts at `ChunkBase + k·ChunkCap`, so forks
/// that share a chunk agree on every slot's absolute index.  Reference
/// stability matches the old slab: references returned by at()/mut() are
/// invalidated by push(), popFront(), and truncateFrom().  Machine.cpp's
/// rules copy what they need before any of those calls and re-acquire
/// after a rollback.
///
/// **Incremental fingerprint, lazily folded per slot.**  hash() is an
/// XOR-multiset of avalanched per-entry contributions keyed by
/// (index, entry hash).  Hashing a TransientInstr is the engine's
/// measured hot spot, and most entries are pushed, mutated, and retired
/// between two fingerprint probes — their hashes are never observed.  So
/// contributions stay lazy, tracked by per-copy *pending bitmasks*:
///
///  - `EntryXor` is the XOR of the contributions of every live *folded*
///    slot.  A freshly pushed or mutated slot is *pending*: excluded
///    from `EntryXor` until the next fold or hash probe.
///  - Each chunk ref carries this copy's pending mask plus `Folded`, the
///    XOR of that chunk's folded live contributions (a partition of
///    `EntryXor`).  mut() un-folds exactly one slot (one memo load);
///    foldPending() folds exactly the pending slots; retiring a pending
///    slot just clears its bit — an entry mutated and then retired
///    between probes is never hashed at all; dropping a whole chunk or a
///    truncated suffix subtracts folded contributions without rehashing.
///  - Chunks memoize per-slot contributions in caches *inside the chunk*
///    (`Chunk::Memo`) and therefore shared: a slot any fork has folded is
///    hashed by no other fork again.  A memo is only read for a folded
///    slot, and folding wrote the memo first, so stale values left behind
///    by mut() are unreachable — no in-band sentinel needed.  Memo slots
///    are relaxed atomics: forks sharing a chunk agree bit-for-bit on
///    slot content and absolute index, so concurrent memoizers write
///    identical values (pure idempotent publication;
///    tests/HashEquivalenceTest.cpp pins this under TSan).
///
/// The const hash() overload recomputes pending contributions on the fly
/// and performs **no writes at all** — shared configurations (such as
/// the minimizer's replay rungs) hash concurrently from many threads, in
/// O(1) once fully folded.  The non-const overload folds first so
/// repeated probes stay O(1).
/// hashFromScratch() is the O(n) oracle; `hash() == hashFromScratch()`
/// after every mutation is property-tested in
/// tests/HashEquivalenceTest.cpp, and invariant 4 in docs/ARCHITECTURE.md
/// spells out the maintenance contract.
///
/// **Derived indices: O(1) answers to the fetch path's window questions.**
/// Three pieces of state are pure functions of the live entries, kept so
/// the machine and explorer never walk the window for them:
///
///  - *Previous-writer links* (the §3.3 rename index).  Every slot stores,
///    in its chunk beside the entry, the index of the youngest entry that
///    assigned the same register when it was pushed (0 if none).  A link
///    is set once at push and never changes: entries only ever resolve in
///    place within their shape class (TransientInstr::assignedReg), and
///    rollback removes only younger entries.  A link may dangle below
///    Base after retirement; readers stop there.
///  - *The youngest-writer table*, per copy: for each register, the
///    youngest live entry assigning it, or 0.  push() sets it,
///    popFront() clears a register whose youngest writer retires, and
///    truncateFrom() walks each register's chain back below the cut.  A
///    lookup `(buf +i ρ)(r)` (lastWriterBefore) starts at the table and
///    follows links until it drops below i — one hop at the fetch point —
///    racing a plain scan down from i, which wins deep in the window.
///    The table lives inline for up to 32 registers — the corpus
///    programs and their SPS translations (which add 13) — so copies do
///    not allocate.
///  - *The control list*, per copy: live unresolved Branch/JumpI indices,
///    ascending, kept exactly like the fence list — appended at push,
///    front-dropped at popFront, suffix-dropped at truncateFrom, and
///    erased by resolveControl(), the one in-place resolution of control
///    flow.  Speculation depth is its size; the speculative-shadow test
///    is a front compare.
///
/// None of it is part of the buffer's value: operator== and every hash
/// ignore it, exactly as they ignore the fence list.
/// tests/RenameIndexTest.cpp checks all three against window scans
/// after every step of generated programs' schedules.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_CORE_REORDERBUFFER_H
#define SCT_CORE_REORDERBUFFER_H

#include "core/TransientInstr.h"
#include "support/Hashing.h"
#include "support/InlineVector.h"

#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <memory>
#include <optional>

namespace sct {

namespace detail {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SCT_CHUNK_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SCT_CHUNK_POOL_DISABLED 1
#endif
#endif

/// A thread-local free list of equally-sized blocks backing reorder-buffer
/// chunk allocations.  Chunks churn at the engine's issue/retire rate and
/// are usually *shared* when dropped (sibling forks still hold them), so
/// the in-buffer Spare recycler rarely engages inside an exploration —
/// this pool catches the remainder without touching the global allocator.
/// Blocks freed on a thread go to that thread's list; no cross-thread
/// state, no locks.  Disabled under ASan/TSan so sanitizer jobs see real
/// allocations.
class BlockPool {
public:
  void *alloc(size_t Bytes) {
#ifndef SCT_CHUNK_POOL_DISABLED
    if (Head && BlockBytes == Bytes) {
      void *B = Head;
      Head = *static_cast<void **>(B);
      --Count;
      return B;
    }
#endif
    return ::operator new(Bytes);
  }
  void free(void *B, size_t Bytes) noexcept {
#ifndef SCT_CHUNK_POOL_DISABLED
    if (Count < MaxBlocks && (Head == nullptr || BlockBytes == Bytes)) {
      BlockBytes = Bytes;
      *static_cast<void **>(B) = Head;
      Head = B;
      ++Count;
      return;
    }
#endif
    ::operator delete(B);
  }
  ~BlockPool() {
    while (Head) {
      void *N = *static_cast<void **>(Head);
      ::operator delete(Head);
      Head = N;
    }
  }

private:
  static constexpr size_t MaxBlocks = 256;
  void *Head = nullptr;
  size_t BlockBytes = 0;
  size_t Count = 0;
};

inline BlockPool &chunkPool() {
  static thread_local BlockPool P;
  return P;
}

/// Minimal allocator over chunkPool() for allocate_shared (the library
/// rebinds it to the combined object+control block, so every allocation a
/// given binary makes through it has one size — exactly what BlockPool
/// serves).
template <typename T> struct ChunkPoolAlloc {
  using value_type = T;
  ChunkPoolAlloc() = default;
  template <typename U> ChunkPoolAlloc(const ChunkPoolAlloc<U> &) noexcept {}
  T *allocate(size_t N) {
    assert(N == 1 && "pool allocator serves single objects");
    return static_cast<T *>(chunkPool().alloc(sizeof(T)));
  }
  void deallocate(T *P, size_t) noexcept { chunkPool().free(P, sizeof(T)); }
  template <typename U>
  bool operator==(const ChunkPoolAlloc<U> &) const noexcept {
    return true;
  }
};

} // namespace detail

/// The reorder buffer: a dense, contiguously indexed window of transient
/// instructions.  Indices are stable for an entry's lifetime; index 0 is
/// reserved as a null sentinel (the first pushed entry gets index 1).
class ReorderBuffer {
public:
  /// Entries per chunk.  Small on purpose: a smaller cap shrinks the
  /// clone a shared open chunk pays on first post-fork push and lets a
  /// fully-retired front chunk be dropped (its sharing reclaimed) sooner.
  static constexpr size_t ChunkCap = 4;

  ReorderBuffer() = default;
  ReorderBuffer(const ReorderBuffer &O) { copyFrom(O); }
  ReorderBuffer &operator=(const ReorderBuffer &O) {
    if (this != &O)
      copyFrom(O);
    return *this;
  }
  ReorderBuffer(ReorderBuffer &&) = default;
  ReorderBuffer &operator=(ReorderBuffer &&) = default;

  bool empty() const { return Base == nextIndex(); }
  size_t size() const { return size_t(nextIndex() - Base); }

  /// Index of the oldest live entry (the next to retire).
  BufIdx minIndex() const {
    assert(!empty() && "minIndex of empty buffer");
    return Base;
  }
  /// Index of the youngest live entry.
  BufIdx maxIndex() const {
    assert(!empty() && "maxIndex of empty buffer");
    return nextIndex() - 1;
  }
  /// Index the next push will get.
  BufIdx nextIndex() const {
    return Chunks.empty()
               ? ChunkBase
               : ChunkBase + (Chunks.size() - 1) * ChunkCap + OpenN;
  }

  bool contains(BufIdx I) const { return I >= Base && I < nextIndex(); }

  /// True iff a live Fence entry precedes index \p I — the paper's
  /// fence-blocking side condition for loads.
  bool hasFenceBefore(BufIdx I) const {
    return !Fences.empty() && Fences.front() < I;
  }

  /// True iff unresolved control flow (a Branch or JumpI entry) precedes
  /// index \p I: entries from \p I on sit in a speculative shadow and a
  /// rollback may squash them before they retire.
  bool hasControlBefore(BufIdx I) const {
    return !Controls.empty() && Controls.front() < I;
  }

  /// Number of unresolved branches and indirect jumps in flight — the
  /// current nesting depth of speculation.
  size_t controlDepth() const { return Controls.size(); }

  /// The youngest live entry assigning \p R, or 0 if none does.
  BufIdx youngestWriter(Reg R) const {
    return R.id() < Youngest.size() ? Youngest[R.id()] : 0;
  }

  /// The youngest live entry below index \p I that assigns \p R, or 0
  /// when none does and `(buf +i ρ)(r)` falls through to ρ.  Two walks
  /// race, one step each per round: down the previous-writer chain from
  /// youngestWriter() (one hop per writer of \p R at or above \p I) and
  /// down the window from \p I (one entry per step).  The first to reach
  /// the answer wins, so a lookup costs twice the shorter walk: O(1) at
  /// nextIndex(), where the fetch path asks, and never worse than a scan
  /// deep in the window, where the chain is long (a fence-blocked
  /// branch's condition read behind many younger writers).
  BufIdx lastWriterBefore(Reg R, BufIdx I) const {
    if (I <= Base)
      return 0;
    BufIdx J = youngestWriter(R), S = I;
    while (J >= I) { // J >= I > Base: live, so its link is readable.
      if (S == Base)
        return 0; // The scan covered [Base, I) and found no writer.
      if (at(--S).assignedReg() == R)
        return S;
      J = prevWriter(J);
    }
    return J >= Base ? J : 0;
  }

  /// Read-only access.  Never unshares a chunk.
  const TransientInstr &at(BufIdx I) const {
    assert(contains(I) && "index not live");
    size_t G = size_t(I - ChunkBase);
    return Chunks[G >> ChunkShift].Ptr->E[G & ChunkMask];
  }

  /// Calls `F(I, at(I))` for each live index in
  /// [max(Lo, minIndex), min(Hi, nextIndex)) in ascending order.  Loads
  /// each chunk pointer once per chunk instead of once per entry — the
  /// machine's and explorer's window scans all funnel through this (or
  /// scanReverse) rather than per-index at() calls.
  template <typename Fn> void forEachIn(BufIdx Lo, BufIdx Hi, Fn &&F) const {
    if (Lo < Base)
      Lo = Base;
    BufIdx End = nextIndex();
    if (Hi > End)
      Hi = End;
    while (Lo < Hi) {
      size_t G = size_t(Lo - ChunkBase);
      const Chunk &C = *Chunks[G >> ChunkShift].Ptr;
      size_t S = G & ChunkMask;
      size_t Take = ChunkCap - S;
      if (Take > size_t(Hi - Lo))
        Take = size_t(Hi - Lo);
      for (size_t T = 0; T < Take; ++T)
        F(Lo + T, C.E[S + T]);
      Lo += Take;
    }
  }

  /// Descending variant over the same clamped range, visiting Hi-1 down
  /// to Lo.  Stops as soon as \p F returns true; returns true iff it
  /// stopped early.
  template <typename Fn> bool scanReverse(BufIdx Lo, BufIdx Hi, Fn &&F) const {
    if (Lo < Base)
      Lo = Base;
    BufIdx End = nextIndex();
    if (Hi > End)
      Hi = End;
    while (Hi > Lo) {
      size_t G = size_t(Hi - 1 - ChunkBase);
      const Chunk &C = *Chunks[G >> ChunkShift].Ptr;
      size_t S = G & ChunkMask;
      size_t Take = S + 1;
      if (Take > size_t(Hi - Lo))
        Take = size_t(Hi - Lo);
      for (size_t T = 0; T < Take; ++T)
        if (F(Hi - 1 - T, C.E[S - T]))
          return true;
      Hi -= Take;
    }
    return false;
  }

  /// Mutable access.  Unshares the containing chunk if another copy still
  /// holds it, and marks the slot pending: its old contribution leaves
  /// `EntryXor` (via the memo) and the new one is folded lazily.
  TransientInstr &mut(BufIdx I) {
    assert(contains(I) && "index not live");
    size_t G = size_t(I - ChunkBase);
    size_t K = G >> ChunkShift;
    ChunkRef &R = Chunks[K];
    if (R.Ptr.use_count() > 1)
      R.Ptr = cloneChunk(*R.Ptr, K + 1 == Chunks.size() ? OpenN : ChunkCap);
    size_t S = G & ChunkMask;
    uint8_t Bit = uint8_t(1u << S);
    if (!(R.Pending & Bit)) {
      uint64_t C = R.Ptr->Memo[S].load(std::memory_order_relaxed);
      EntryXor ^= C;
      R.Folded ^= C;
      R.Pending |= Bit;
    }
    return R.Ptr->E[S];
  }

  /// Resolves the unresolved branch or indirect jump at \p I in place
  /// into `jump Target` (the cond/jmpi-execute-correct rules), keeping its
  /// origin and group leader, and drops it from the control list.
  void resolveControl(BufIdx I, PC Target) {
    TransientInstr &T = mut(I);
    assert(T.isUnresolvedControl() && "resolving a non-control entry");
    BufIdx Leader = T.GroupLeader;
    T = TransientInstr::makeJump(Target, T.Origin);
    T.GroupLeader = Leader;
    for (size_t K = Controls.size(); K-- > 0;)
      if (Controls[K] == I) {
        Controls.erase(K);
        return;
      }
    assert(false && "unresolved control entry missing from the list");
  }

  /// Appends \p T at the tail of the open chunk (opening a fresh one as
  /// needed) and returns its index.  A defaulted GroupLeader resolves to
  /// the entry's own index (it leads its own speculation group until a
  /// branch nests it).  Takes an rvalue so the entry moves into the chunk
  /// slot exactly once — entries are wide, and this runs once per fetch.
  BufIdx push(TransientInstr &&T) {
    BufIdx I = nextIndex();
    if (T.GroupLeader == 0)
      T.GroupLeader = I;
    // Pushes ascend, so both index lists stay sorted.
    if (T.is(TransientKind::Fence))
      Fences.push_back(I);
    if (T.isUnresolvedControl())
      Controls.push_back(I);
    BufIdx Prev = 0;
    if (std::optional<Reg> W = T.assignedReg()) {
      while (Youngest.size() <= W->id())
        Youngest.push_back(0);
      Prev = Youngest[W->id()];
      assert(Prev < I && "youngest-writer table holds a squashed index");
      Youngest[W->id()] = I;
    }
    if (Chunks.empty() || OpenN == ChunkCap) {
      std::shared_ptr<Chunk> P = Spare ? std::move(Spare) : newChunk();
      // Stale entries/memos in a recycled chunk are fine: a slot becomes
      // visible only when pushed, and arrives pending.
      P->First = ChunkBase + Chunks.size() * ChunkCap;
      Chunks.push_back(ChunkRef{std::move(P), 0, 0});
      OpenN = 0;
    }
    ChunkRef &R = Chunks.back();
    if (R.Ptr.use_count() > 1)
      R.Ptr = cloneChunk(*R.Ptr, OpenN);
    size_t S = OpenN;
    R.Ptr->E[S] = std::move(T);
    R.Ptr->PrevWriter[S] = Prev;
    R.Pending |= uint8_t(1u << S);
    ++OpenN;
    return I;
  }

  /// Retires the oldest entry.  In-order retirement only.
  void popFront() {
    assert(!empty() && "popFront of empty buffer");
    if (!Fences.empty() && Fences.front() == Base)
      Fences.eraseFront();
    if (!Controls.empty() && Controls.front() == Base)
      Controls.eraseFront();
    size_t G = size_t(Base - ChunkBase);
    ChunkRef &R = Chunks.front();
    // The retiring entry is the oldest, so no live writer precedes it: if
    // it is its register's youngest writer, the register has none left.
    if (std::optional<Reg> W = R.Ptr->E[G].assignedReg())
      if (Youngest[W->id()] == Base)
        Youngest[W->id()] = 0;
    uint8_t Bit = uint8_t(1u << G);
    if (R.Pending & Bit) {
      R.Pending &= uint8_t(~Bit); // never hashed; nothing to subtract
    } else {
      uint64_t C = R.Ptr->Memo[G].load(std::memory_order_relaxed);
      EntryXor ^= C;
      R.Folded ^= C;
    }
    if (G + 1 == ChunkCap) {
      // Front chunk fully dead: every slot retired, so its folded word
      // has drained to zero and no slot is pending.
      assert(R.Folded == 0 && R.Pending == 0 &&
             "dead chunk still carries fingerprint state");
      if (!Spare && R.Ptr.use_count() == 1)
        Spare = std::move(R.Ptr); // park for the next chunk-open
      Chunks.eraseFront();
      ChunkBase += ChunkCap;
    }
    ++Base;
    if (Base == nextIndex()) {
      // Empty: re-anchor so the dead prefix cannot grow without bound.
      if (!Chunks.empty()) {
        // Only a fully-dead open chunk can remain (full ones dropped
        // above, earlier chunks before that).
        assert(Chunks.size() == 1 && Chunks.front().Folded == 0 &&
               Chunks.front().Pending == 0);
        if (!Spare && Chunks.front().Ptr.use_count() == 1)
          Spare = std::move(Chunks.front().Ptr);
        Chunks.clear();
      }
      OpenN = 0;
      ChunkBase = Base;
    }
  }

  /// Rolls back: discards every entry with index >= \p I (misprediction
  /// squash).  Entries below the retire head are untouched.  Copies no
  /// entries: the cut chunk simply re-opens in place.
  void truncateFrom(BufIdx I) {
    if (empty() || I >= nextIndex())
      return;
    BufIdx Cut = I < Base ? Base : I;
    while (!Fences.empty() && Fences.back() >= Cut)
      Fences.resize(Fences.size() - 1);
    while (!Controls.empty() && Controls.back() >= Cut)
      Controls.resize(Controls.size() - 1);
    // Each register's youngest writer retreats down its chain to the
    // first survivor; a link that left the window means none survives.
    for (BufIdx &Y : Youngest) {
      while (Y >= Cut)
        Y = prevWriter(Y);
      if (Y < Base)
        Y = 0;
    }
    size_t G = size_t(Cut - ChunkBase);
    size_t K = G >> ChunkShift, Slot = G & ChunkMask;
    // Chunks wholly past the cut: subtract their folded words (pending
    // slots never entered EntryXor).
    for (size_t J = K + (Slot != 0 ? 1 : 0); J < Chunks.size(); ++J)
      EntryXor ^= Chunks[J].Folded;
    if (Slot == 0) {
      Chunks.resize(K);
      OpenN = K ? uint32_t(ChunkCap) : 0;
      if (Chunks.empty())
        ChunkBase = Cut; // Cut == Base here: the buffer drained
      return;
    }
    // The cut lands inside chunk K: it becomes the open chunk with Slot
    // filled slots; the dropped suffix's folded live contributions leave
    // EntryXor (and this ref's Folded) slot by slot.
    ChunkRef &R = Chunks[K];
    size_t Lim = K + 1 == Chunks.size() ? OpenN : ChunkCap;
    for (size_t S = Slot; S < Lim; ++S) {
      uint8_t Bit = uint8_t(1u << S);
      if (R.Pending & Bit)
        continue;
      if (R.Ptr->First + S < Base)
        continue; // dead prefix slot (front chunk only)
      uint64_t C = R.Ptr->Memo[S].load(std::memory_order_relaxed);
      EntryXor ^= C;
      R.Folded ^= C;
    }
    R.Pending &= uint8_t((1u << Slot) - 1);
    Chunks.resize(K + 1);
    OpenN = uint32_t(Slot);
  }

  bool operator==(const ReorderBuffer &O) const {
    if (Base != O.Base || size() != O.size())
      return false;
    for (BufIdx I = Base, E = nextIndex(); I != E; ++I)
      if (!(at(I) == O.at(I)))
        return false;
    return true;
  }

  /// Incremental fingerprint over (Base, size, live entry multiset).
  /// Folds pending contributions first, so repeated calls are O(1).
  uint64_t hash() {
    foldPending();
    return hashFields({Base, size(), EntryXor});
  }

  /// Const overload: recomputes pending contributions on the fly and
  /// performs **no writes at all** — safe to call concurrently on a
  /// frozen configuration other threads are also hashing, even while
  /// forks sharing these chunks mutate and hash their own copies.
  uint64_t hash() const {
    uint64_t Xor = EntryXor;
    for (const ChunkRef &R : Chunks)
      for (uint8_t P = R.Pending; P; P &= uint8_t(P - 1)) {
        size_t S = size_t(std::countr_zero(P));
        Xor ^= contribution(R.Ptr->First + S, R.Ptr->E[S]);
      }
    return hashFields({Base, size(), Xor});
  }

  /// Folds every pending slot's contribution into the fingerprint (and
  /// the shared memo caches).  Called by the non-const hash().
  void foldPending() {
    for (size_t K = 0; K < Chunks.size(); ++K) {
      ChunkRef &R = Chunks[K];
      while (R.Pending) {
        size_t S = size_t(std::countr_zero(R.Pending));
        uint64_t C = contribution(R.Ptr->First + S, R.Ptr->E[S]);
        R.Ptr->Memo[S].store(C, std::memory_order_relaxed);
        R.Folded ^= C;
        EntryXor ^= C;
        R.Pending &= uint8_t(R.Pending - 1);
      }
    }
  }

  /// O(n) oracle: recomputes the fingerprint from the live entries alone,
  /// ignoring all incremental state.  Must equal hash() always.
  uint64_t hashFromScratch() const;

  /// True iff any chunk is shared with another buffer copy (fork-side
  /// observability hook for tests).
  bool sharesChunks() const {
    for (const ChunkRef &R : Chunks)
      if (R.Ptr.use_count() > 1)
        return true;
    return false;
  }

  /// Bytes a copy of this buffer actually moves eagerly: the chunk-ref
  /// list, the index lists, and the youngest-writer table.  Shared chunk
  /// payloads are *not* counted — that is the point.
  size_t bytesPerCopy() const {
    return Chunks.size() * sizeof(ChunkRef) +
           (Fences.size() + Controls.size() + Youngest.size()) *
               sizeof(BufIdx);
  }

  /// Bytes the pre-chunking flat layout would have copied for the same
  /// window: every live entry plus its contribution slot, plus fences.
  size_t bytesIfFlat() const {
    return size() * (sizeof(TransientInstr) + sizeof(uint64_t)) +
           Fences.size() * sizeof(BufIdx);
  }

private:
  static constexpr size_t ChunkShift = 2;
  static constexpr size_t ChunkMask = ChunkCap - 1;
  static_assert(ChunkCap == (size_t(1) << ChunkShift), "cap/shift mismatch");
  static_assert(ChunkCap <= 8, "pending masks are uint8_t");

  /// A block of ChunkCap entry slots starting at buffer index First.
  /// Immutable while shared: mut()/push() clone first (slots at or past a
  /// holder's open count are out of its live window and never read).  The
  /// memo array is a shared cache of per-slot contributions, written only
  /// with values derived from the slot's settled entry bytes — concurrent
  /// writers store bit-identical words, so the relaxed atomics are pure
  /// idempotent publication.
  struct Chunk {
    std::array<TransientInstr, ChunkCap> E;
    mutable std::array<std::atomic<uint64_t>, ChunkCap> Memo{};
    /// Per-slot previous-writer links (see the file comment), written
    /// once at push.
    std::array<BufIdx, ChunkCap> PrevWriter{};
    BufIdx First = 0;
  };

  /// Per-copy view of one chunk.  Folded is the XOR of the contributions
  /// of this chunk's live *folded* slots (a partition of EntryXor).
  /// Pending bit S set means slot S is live but its contribution is not
  /// in Folded/EntryXor — and its memo must not be trusted until the next
  /// fold rewrites it.
  struct ChunkRef {
    std::shared_ptr<Chunk> Ptr;
    uint64_t Folded = 0;
    uint8_t Pending = 0;
  };

  /// The per-(index, entry) fingerprint contribution.
  static uint64_t contribution(BufIdx I, const TransientInstr &T) {
    return hashFields({I, T.hash()});
  }

  /// Previous-writer link of live index \p J.
  BufIdx prevWriter(BufIdx J) const {
    size_t G = size_t(J - ChunkBase);
    return Chunks[G >> ChunkShift].Ptr->PrevWriter[G & ChunkMask];
  }

  void copyFrom(const ReorderBuffer &O) {
    Fences = O.Fences;
    Controls = O.Controls;
    Youngest = O.Youngest;
    Chunks = O.Chunks;
    ChunkBase = O.ChunkBase;
    Base = O.Base;
    EntryXor = O.EntryXor;
    OpenN = O.OpenN;
    // Spare is deliberately not copied: it is this copy's private
    // allocation cache, not part of the buffer's value.
  }

  static std::shared_ptr<Chunk> newChunk() {
    return std::allocate_shared<Chunk>(detail::ChunkPoolAlloc<Chunk>());
  }

  /// Clones the first \p Filled slots of \p C (the rest are outside this
  /// copy's live window and stay default-constructed in the clone).
  static std::shared_ptr<Chunk> cloneChunk(const Chunk &C, size_t Filled) {
    std::shared_ptr<Chunk> Fresh = newChunk();
    for (size_t S = 0; S < Filled; ++S) {
      Fresh->E[S] = C.E[S];
      Fresh->PrevWriter[S] = C.PrevWriter[S];
      Fresh->Memo[S].store(C.Memo[S].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    }
    Fresh->First = C.First;
    return Fresh;
  }

  /// Live fence indices, ascending (fences issue in order).  Almost
  /// always empty or one element.
  InlineVector<BufIdx, 2> Fences;
  /// Live unresolved Branch/JumpI indices, ascending.  The explorer caps
  /// wrong-path nesting (ExplorerOptions::MaxBranchDepth, default 4), so
  /// the inline capacity usually covers it.
  InlineVector<BufIdx, 6> Controls;
  /// Youngest live writer of each register, indexed by register id (0 =
  /// none); grown on demand, so registers never written stay unlisted.
  InlineVector<BufIdx, 32> Youngest;
  /// Chunks, oldest first; chunk K covers indices
  /// [ChunkBase + K*ChunkCap, ChunkBase + (K+1)*ChunkCap).  The last
  /// chunk is open: only its first OpenN slots are filled.  Inline
  /// capacity covers the default speculation window (bound 20 → at most
  /// 7 live chunks), so fork copies do not allocate.
  InlineVector<ChunkRef, 7> Chunks;
  /// Index of the first slot of the oldest chunk (== Base when no chunks
  /// exist).  <= Base; the gap is the dead prefix.
  BufIdx ChunkBase = 1;
  /// Index of the oldest live entry; 0 is the null sentinel.
  BufIdx Base = 1;
  /// XOR of contribution(I, at(I)) over all live *folded* slots.
  uint64_t EntryXor = 0;
  /// Filled slots in the last (open) chunk; in [1, ChunkCap] when chunks
  /// exist, 0 otherwise.
  uint32_t OpenN = 0;
  /// A fully-dead sole-owned chunk parked by popFront for reuse by the
  /// next chunk-open.  Private to this copy: never copied, never shared.
  std::shared_ptr<Chunk> Spare;
};

/// Renders the buffer one entry per line, "i -> <transient>", mirroring
/// the paper's figure layout.
std::string dumpReorderBuffer(const ReorderBuffer &Buf, const Program &P);

} // namespace sct

#endif // SCT_CORE_REORDERBUFFER_H
