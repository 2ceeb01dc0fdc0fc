//===- sched/WorkDeque.h - Worker threads and frontier shards --*- C++ -*-===//
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
/// `runWorkers` is the library's one thread-spawn site: the explorer's
/// drain, both `checkMany` passes and the witness minimizer's per-leak
/// jobs (through `forEachIndex`) all start their workers there.
///
//===----------------------------------------------------------------------===//

#ifndef SCT_SCHED_WORKDEQUE_H
#define SCT_SCHED_WORKDEQUE_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
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

private:
  std::mutex Mu;
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

/// Runs \p Work(Id) concurrently for every worker Id below
/// max(\p Workers, 1): the calling thread is worker 0, and one thread is
/// started for each other worker (none at Workers <= 1).  Returns once
/// every started thread has been joined, also when a worker throws; the
/// first exception any worker threw is then rethrown on the caller.
template <typename Fn> void runWorkers(unsigned Workers, const Fn &Work) {
  std::mutex FailureMu;
  std::exception_ptr Failure;
  auto Run = [&](unsigned Id) {
    try {
      Work(Id);
    } catch (...) {
      std::lock_guard<std::mutex> L(FailureMu);
      if (!Failure)
        Failure = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> Pool; // Joins every started thread on exit.
    if (Workers > 1)
      Pool.reserve(Workers - 1);
    for (unsigned Id = 1; Id < Workers; ++Id)
      Pool.emplace_back(Run, Id);
    Run(0);
  }
  if (Failure)
    std::rethrow_exception(Failure);
}

/// Runs \p Work(I, Worker) once for every index I below \p Count on
/// min(\p Workers, Count) workers (runWorkers) that take indices from a
/// shared counter; Worker is the running worker's id.  With at most one
/// worker, the indices run in order on the calling thread.
template <typename Fn>
void forEachIndex(size_t Count, unsigned Workers, const Fn &Work) {
  std::atomic<size_t> Next{0};
  runWorkers(static_cast<unsigned>(std::min<size_t>(Workers, Count)),
             [&](unsigned Worker) {
               for (;;) {
                 size_t I = Next.fetch_add(1, std::memory_order_relaxed);
                 if (I >= Count)
                   return;
                 Work(I, Worker);
               }
             });
}

} // namespace sct

#endif // SCT_SCHED_WORKDEQUE_H
