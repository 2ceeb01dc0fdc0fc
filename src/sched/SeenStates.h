//===- sched/SeenStates.h - Cross-schedule seen-state table ----*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-schedule seen-state table behind ExplorerOptions::PruneSeen:
/// a sharded concurrent set of Configuration fingerprints
/// (Configuration::hash()).  Schedule exploration revisits configurations
/// constantly — v4-mode forwarding hazards roll back and re-execute into
/// exactly the state an [execute s:addr; execute l] fork probed, and
/// independent resolution orders commute into identical buffers.  Since
/// the machine is deterministic given a configuration and a directive,
/// identical configurations have identical schedule subtrees, so the
/// second visitor can stop: its subtree's observations were (or will be)
/// produced by the first.
///
/// Thread-safety: insert() is linearizable per fingerprint — exactly one
/// caller ever gets `true` for a given value, no matter how many workers
/// race on it.  The table is sharded by the fingerprint's low bits so
/// concurrent inserts contend only when they land on the same shard.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_SCHED_SEENSTATES_H
#define SCT_SCHED_SEENSTATES_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace sct {

/// Aggregate occupancy/probe statistics of a SeenStateTable (one explore()
/// call's table), feeding `sctcheck --stats` and the blowup-diagnosis
/// counters in ExploreResult.  Probes count slot inspections, so
/// `Probes / Lookups` is the mean probe-sequence length — the number to
/// watch when diagnosing whether a budget blowup is hash-table pressure or
/// a genuinely exponential schedule tree.
struct SeenTableStats {
  uint64_t Entries = 0;  ///< Distinct fingerprints stored.
  uint64_t Capacity = 0; ///< Total slots across all shards.
  uint64_t Lookups = 0;  ///< insert() + contains() calls.
  uint64_t Probes = 0;   ///< Slots inspected across all lookups.
};

/// Sharded concurrent set of 64-bit state fingerprints.
///
/// Each shard is a flat open-addressing table of raw uint64_t slots
/// (linear probing, empty = 0 with a side flag for the genuine 0
/// fingerprint) rather than a node-based unordered_set: a membership
/// probe touches one cache line in the common case instead of chasing a
/// bucket pointer, and the explorer probes this table at every fork and
/// convergence check.  Fingerprints are already avalanche-mixed
/// (support/Hashing.h), so the value itself indexes well; slots use the
/// *high* bits because shard selection already consumed the low ones.
class SeenStateTable {
public:
  /// \p ShardCount is rounded up to a power of two so shard selection is a
  /// mask; 64 shards keep 8 workers' inserts effectively contention-free.
  explicit SeenStateTable(unsigned ShardCount = 64) {
    unsigned N = 1;
    while (N < ShardCount && N < 4096)
      N <<= 1;
    Mask = N - 1;
    Shards = std::make_unique<Shard[]>(N);
  }

  /// Records \p Fingerprint; returns true iff this call was the first to
  /// insert it (the caller owns exploring that state's subtree).
  bool insert(uint64_t Fingerprint) {
    Shard &S = Shards[Fingerprint & Mask];
    std::lock_guard<std::mutex> L(S.Mu);
    ++S.Lookups;
    if (Fingerprint == 0) {
      ++S.Probes;
      if (S.HasZero)
        return false;
      S.HasZero = true;
      ++S.Count;
      return true;
    }
    if (S.Slots.empty())
      S.rehash(MinSlots);
    else if ((S.Count + 1) * 10 > S.Slots.size() * 7) // 0.7 load factor
      S.rehash(S.Slots.size() * 2);
    size_t I = S.find(Fingerprint);
    if (S.Slots[I] == Fingerprint)
      return false;
    S.Slots[I] = Fingerprint;
    ++S.Count;
    return true;
  }

  /// True iff \p Fingerprint was inserted before.  Advisory only under
  /// concurrency — a racing insert may land right after the check.
  bool contains(uint64_t Fingerprint) const {
    Shard &S = Shards[Fingerprint & Mask];
    std::lock_guard<std::mutex> L(S.Mu);
    ++S.Lookups;
    if (Fingerprint == 0) {
      ++S.Probes;
      return S.HasZero;
    }
    if (S.Slots.empty()) {
      ++S.Probes;
      return false;
    }
    return S.Slots[S.find(Fingerprint)] == Fingerprint;
  }

  /// Total distinct fingerprints recorded.  Takes the shard locks one at
  /// a time, so concurrent inserts make this a snapshot, not a fence.
  uint64_t size() const {
    uint64_t Total = 0;
    for (unsigned I = 0; I <= Mask; ++I) {
      std::lock_guard<std::mutex> L(Shards[I].Mu);
      Total += Shards[I].Count;
    }
    return Total;
  }

  /// Occupancy and probe-length counters, aggregated over all shards
  /// (same snapshot semantics as size()).
  SeenTableStats stats() const {
    SeenTableStats St;
    for (unsigned I = 0; I <= Mask; ++I) {
      std::lock_guard<std::mutex> L(Shards[I].Mu);
      St.Entries += Shards[I].Count;
      St.Capacity += Shards[I].Slots.size();
      St.Lookups += Shards[I].Lookups;
      St.Probes += Shards[I].Probes;
    }
    return St;
  }

private:
  /// Smallest per-shard slot array; allocated lazily on first insert so a
  /// 64-shard table for a tiny exploration stays a few hundred bytes.
  static constexpr size_t MinSlots = 64;

  /// Cache-line sized so neighbouring shards' locks do not false-share.
  /// All fields (counters included) are guarded by Mu; the counters are
  /// mutable so contains() can account its probes.
  struct alignas(64) Shard {
    mutable std::mutex Mu;
    std::vector<uint64_t> Slots; ///< Power-of-two; 0 = empty.
    size_t Count = 0;            ///< Stored fingerprints (incl. zero).
    bool HasZero = false;        ///< The fingerprint 0 is present.
    mutable uint64_t Lookups = 0;
    mutable uint64_t Probes = 0;

    /// Linear probe from the fingerprint's high bits; returns the index
    /// holding \p F or the first empty slot.  Caller holds Mu and
    /// guarantees a free slot exists.
    size_t find(uint64_t F) const {
      size_t M = Slots.size() - 1;
      size_t I = (F >> 32) & M;
      while (true) {
        ++Probes;
        if (Slots[I] == F || Slots[I] == 0)
          return I;
        I = (I + 1) & M;
      }
    }

    void rehash(size_t NewSize) {
      std::vector<uint64_t> Old = std::move(Slots);
      Slots.assign(NewSize, 0);
      uint64_t SavedProbes = Probes; // Rehash moves are not lookups.
      for (uint64_t F : Old)
        if (F != 0)
          Slots[find(F)] = F;
      Probes = SavedProbes;
    }
  };

  std::unique_ptr<Shard[]> Shards;
  unsigned Mask = 0;
};

} // namespace sct

#endif // SCT_SCHED_SEENSTATES_H
