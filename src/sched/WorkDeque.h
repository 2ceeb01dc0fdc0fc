//===- sched/WorkDeque.h - Work-stealing frontier shards -------*- C++ -*-===//
//
// Part of libsct, a reproduction of "Constant-Time Foundations for the New
// Spectre Era" (Cauligi et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded exploration frontier: per-worker deques in the Chase-Lev
/// discipline — the owner pushes and pops at the *bottom* (LIFO, so a
/// worker keeps descending the subtree it just forked, which maximises
/// cache affinity and keeps frontier memory at O(tree depth)), while
/// thieves take from the *top* (FIFO, the oldest nodes, whose subtrees are
/// the largest and amortise the steal best).  Thieves steal *half* the
/// victim's deque in one operation (Cilk-style steal-half), so a starving
/// worker rebalances in O(log frontier) steals instead of trickling one
/// node at a time.
///
/// Each shard is guarded by its own mutex rather than the lock-free
/// Chase-Lev protocol: exploration nodes are fat (a Schedule vector plus
/// a COW Configuration), so the transfer itself dwarfs an
/// uncontended lock, and the mutex keeps the stealing path trivially
/// data-race-free (the CI ThreadSanitizer job holds the engine to that).
/// What matters for contention is that workers no longer share one global
/// mutex: a worker's fast path touches only its own shard, and thieves
/// contend only with the specific victim they probe.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_SCHED_WORKDEQUE_H
#define SCT_SCHED_WORKDEQUE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

namespace sct {

/// One frontier shard: a deque with owner-LIFO / thief-FIFO ends.
template <typename T> class WorkDeque {
public:
  /// Owner side: push a node at the bottom.
  void pushBottom(T &&Item) {
    std::lock_guard<std::mutex> L(Mu);
    Items.push_back(std::move(Item));
  }

  /// Owner side: pop the most recently pushed node (depth-first descent).
  bool popBottom(T &Out) {
    std::lock_guard<std::mutex> L(Mu);
    if (Items.empty())
      return false;
    Out = std::move(Items.back());
    Items.pop_back();
    return true;
  }

  /// Thief side: take the oldest half of the deque (at least one node) in
  /// FIFO order.  Returns the number of nodes appended to \p Out.
  size_t stealTopHalf(std::vector<T> &Out) {
    std::lock_guard<std::mutex> L(Mu);
    if (Items.empty())
      return 0;
    size_t Take = (Items.size() + 1) / 2;
    for (size_t I = 0; I < Take; ++I) {
      Out.push_back(std::move(Items.front()));
      Items.pop_front();
    }
    return Take;
  }

  bool empty() const {
    std::lock_guard<std::mutex> L(Mu);
    return Items.empty();
  }

private:
  mutable std::mutex Mu;
  std::deque<T> Items;
};

/// The sharded frontier: one WorkDeque per worker (worker w owns shard w)
/// plus the randomized steal protocol.
///
/// Thread-safety: every method is safe to call concurrently from any
/// worker.  At most one shard mutex is held at a time (a steal drains the
/// victim into a local buffer before refilling the thief's shard), so the
/// protocol cannot deadlock regardless of victim order.
template <typename T> class StealQueue {
public:
  explicit StealQueue(unsigned Workers) : Deques(Workers) {
    for (auto &S : Deques)
      S = std::make_unique<WorkDeque<T>>();
  }

  unsigned workers() const { return static_cast<unsigned>(Deques.size()); }

  void push(unsigned Worker, T &&Item) {
    Deques[Worker]->pushBottom(std::move(Item));
  }

  /// Owner fast path: LIFO pop from the worker's own shard.
  bool tryPop(unsigned Worker, T &Out) {
    return Deques[Worker]->popBottom(Out);
  }

  /// Steal for worker \p Home: probe every other shard once, starting
  /// from a caller-supplied random offset (randomization spreads
  /// simultaneous thieves over distinct victims).  On success the oldest
  /// stolen node is returned in \p Out for immediate execution and the
  /// rest refill the home shard; the number of nodes taken is returned, 0
  /// if every victim was empty.
  size_t trySteal(unsigned Home, unsigned RandomOffset, T &Out) {
    unsigned D = workers();
    if (D <= 1)
      return 0;
    std::vector<T> Loot;
    for (unsigned K = 0; K < D; ++K) {
      unsigned Victim = (RandomOffset + K) % D;
      if (Victim == Home)
        continue;
      if (Deques[Victim]->stealTopHalf(Loot) == 0)
        continue;
      // Oldest node runs now; the younger remainder refills home in
      // order, so the owner's next LIFO pops see youngest-first — the
      // same descent order the victim would have used.
      Out = std::move(Loot.front());
      for (size_t I = 1; I < Loot.size(); ++I)
        Deques[Home]->pushBottom(std::move(Loot[I]));
      return Loot.size();
    }
    return 0;
  }

private:
  std::vector<std::unique_ptr<WorkDeque<T>>> Deques;
};

} // namespace sct

#endif // SCT_SCHED_WORKDEQUE_H
