//===- tests/ProcessPoolTest.cpp - Multi-process checkMany identity ---------===//
//
// The audit service's soundness contract for the worker backend
// (engine/ProcessPool.h): dispatching checkMany over N sctworker
// subprocesses must produce exactly the in-process results — same leak
// sets, same verdicts, byte-identical serialized CheckResults — at every
// worker count, after a worker is killed mid-batch (single re-dispatch),
// and when the worker binary cannot be spawned at all (in-process
// fallback).  Anything less and `--workers` would be a verdict-changing
// flag, which it must never be.
//
// The worker binary is found next to this test executable (all targets
// land in the build root) via defaultWorkerBinary(); SCT_WORKER_BIN
// overrides.
//
//===----------------------------------------------------------------------===//

#include "engine/ProcessPool.h"
#include "engine/Serialization.h"
#include "checker/SctChecker.h"
#include "workloads/Kocher.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <gtest/gtest.h>
#include <thread>
#include <unistd.h>

using namespace sct;

namespace {

std::vector<CheckRequest> corpus(size_t MaxCases) {
  std::vector<CheckRequest> Reqs;
  for (const SuiteCase &C : kocherCases()) {
    if (Reqs.size() >= MaxCases)
      break;
    CheckRequest Req;
    Req.Id = C.Id;
    Req.Prog = C.Prog;
    Req.Opts = v1v11Mode();
    Reqs.push_back(std::move(Req));
  }
  return Reqs;
}

/// Leak-set + verdict identity, plus the stronger byte-identity of the
/// whole serialized result.
void expectResultsIdentical(const std::vector<CheckResult> &A,
                            const std::vector<CheckResult> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Id, B[I].Id);
    EXPECT_EQ(A[I].secure(), B[I].secure()) << A[I].Id;
    ASSERT_EQ(A[I].Exploration.Leaks.size(), B[I].Exploration.Leaks.size())
        << A[I].Id;
    for (size_t L = 0; L < A[I].Exploration.Leaks.size(); ++L) {
      EXPECT_EQ(A[I].Exploration.Leaks[L].key(),
                B[I].Exploration.Leaks[L].key())
          << A[I].Id << " leak " << L;
      EXPECT_EQ(A[I].Exploration.Leaks[L].Sched,
                B[I].Exploration.Leaks[L].Sched)
          << A[I].Id << " leak " << L;
    }
    // Compare everything else through the serializer with the fields the
    // determinism contract excludes zeroed: wall-clock, and the resolved
    // thread share (each backend splits the budget differently — exactly
    // why optionsFingerprint normalizes it).
    CheckResult CA = A[I], CB = B[I];
    CA.Seconds = CB.Seconds = 0;
    if (CA.Sps)
      CA.Sps->Seconds = 0;
    if (CB.Sps)
      CB.Sps->Seconds = 0;
    CA.Opts.Threads = CB.Opts.Threads = 0;
    EXPECT_EQ(serializeCheckResult(CA), serializeCheckResult(CB)) << A[I].Id;
  }
}

/// Byte-identity across backends is only meaningful with single-threaded
/// frontiers: a multithreaded frontier may record a different (equally
/// valid) witness schedule for the same leak key depending on which
/// worker thread reaches it first.  Identity tests pin Threads = 1; the
/// any-thread-count contract (same leak *set*) is checked separately.
std::vector<CheckResult> runWith(unsigned Workers,
                                 const std::vector<CheckRequest> &Reqs,
                                 unsigned Threads = 1) {
  SessionOptions SOpts;
  SOpts.Threads = Threads;
  SOpts.Workers = Workers;
  CheckSession Session(SOpts);
  return Session.checkMany(std::span<const CheckRequest>(Reqs));
}

/// Order-insensitive leak identity: the multiset of leak keys per result.
std::vector<std::vector<uint64_t>> leakKeys(const std::vector<CheckResult> &Rs) {
  std::vector<std::vector<uint64_t>> Keys;
  for (const CheckResult &R : Rs) {
    std::vector<uint64_t> K;
    for (const LeakRecord &L : R.Exploration.Leaks)
      K.push_back(L.key());
    std::sort(K.begin(), K.end());
    Keys.push_back(std::move(K));
  }
  return Keys;
}

} // namespace

TEST(ProcessPool, WorkerBinaryIsDiscoverable) {
  std::string Bin = defaultWorkerBinary();
  ASSERT_FALSE(Bin.empty());
  EXPECT_EQ(::access(Bin.c_str(), X_OK), 0)
      << "sctworker not built next to the test binary: " << Bin;
}

TEST(ProcessPool, LeakSetsIdenticalToInProcessAtEveryWorkerCount) {
  std::vector<CheckRequest> Reqs = corpus(6);
  std::vector<CheckResult> InProc = runWith(0, Reqs);
  for (unsigned Workers : {1u, 4u}) {
    std::vector<CheckResult> Remote = runWith(Workers, Reqs);
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    expectResultsIdentical(InProc, Remote);
  }

  // With a multithreaded frontier the recorded witness schedules may
  // legally differ, but the leak sets and verdicts must not.
  std::vector<CheckResult> InProcMt = runWith(0, Reqs, /*Threads=*/4);
  std::vector<CheckResult> RemoteMt = runWith(2, Reqs, /*Threads=*/4);
  EXPECT_EQ(leakKeys(InProcMt), leakKeys(RemoteMt));
  for (size_t I = 0; I < Reqs.size(); ++I)
    EXPECT_EQ(InProcMt[I].secure(), RemoteMt[I].secure()) << Reqs[I].Id;
}

TEST(ProcessPool, MinimizationAndSpsSurviveTheWire) {
  // Pass outputs (minimized witnesses, SPS reports) are part of the
  // serialized reply; they must come back exactly as computed in-process.
  std::vector<CheckRequest> Reqs = corpus(3);
  for (CheckRequest &R : Reqs) {
    PassConfig &Passes = R.Passes.emplace();
    Passes.MinimizeWitnesses = true;
    Passes.ProveSps = true;
    Passes.Sps.DepthToWindow = true;
  }
  std::vector<CheckResult> InProc = runWith(0, Reqs);
  std::vector<CheckResult> Remote = runWith(2, Reqs);
  expectResultsIdentical(InProc, Remote);
  for (const CheckResult &R : Remote)
    EXPECT_TRUE(R.Minimization.has_value() || (R.Sps && R.Sps->conclusive()))
        << R.Id;
}

TEST(ProcessPool, KilledWorkerIsRedispatched) {
  // Kill every worker we can see while the batch is in flight; the
  // dispatcher detects the EOF, re-dispatches each lost job once to a
  // fresh slot (or the fallback path), and the results stay identical.
  std::vector<CheckRequest> Reqs = corpus(6);
  std::vector<CheckResult> InProc = runWith(0, Reqs);

  ProcessPool::Options POpts;
  POpts.WorkerBinary = defaultWorkerBinary();
  POpts.Workers = 2;
  ProcessPool Pool(POpts);
  ASSERT_TRUE(Pool.ok());
  ASSERT_EQ(Pool.aliveWorkers(), 2u);

  pid_t Victim = Pool.workerPid(0);
  ASSERT_GT(Victim, 0);

  std::vector<size_t> Jobs(Reqs.size());
  for (size_t I = 0; I < Jobs.size(); ++I)
    Jobs[I] = I;
  std::vector<CheckResult> Remote(Reqs.size());
  std::vector<bool> Got(Reqs.size(), false);

  std::thread Killer([Victim] {
    // Give the dispatcher a moment to put the victim to work, then kill
    // it mid-job.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::kill(Victim, SIGKILL);
  });

  std::vector<size_t> Fallback = Pool.run(
      Jobs,
      [&](size_t Job) {
        PassConfig Passes;
        return serializeWireRequest(Reqs[Job], Passes);
      },
      [&](size_t Job, std::span<const uint8_t> Payload) {
        std::optional<CheckResult> Res = deserializeCheckResult(Payload);
        if (!Res)
          return false;
        Remote[Job] = std::move(*Res);
        Got[Job] = true;
        return true;
      });
  Killer.join();

  // Jobs the pool could not finish (e.g. both workers dead) come back as
  // fallback indices; run them in-process like CheckSession does.
  CheckSession Direct(SessionOptions{});
  for (size_t Job : Fallback) {
    Remote[Job] = Direct.check(Reqs[Job]);
    Got[Job] = true;
  }
  for (size_t I = 0; I < Reqs.size(); ++I)
    ASSERT_TRUE(Got[I]) << "job " << I << " neither completed nor fell back";
  expectResultsIdentical(InProc, Remote);
}

TEST(ProcessPool, UnspawnableBinaryFallsBackInProcess) {
  std::vector<CheckRequest> Reqs = corpus(3);
  std::vector<CheckResult> InProc = runWith(0, Reqs);

  SessionOptions SOpts;
  SOpts.Threads = 2;
  SOpts.Workers = 2;
  SOpts.WorkerBinary = "/nonexistent/sctworker-definitely-missing";
  CheckSession Session(SOpts);
  std::vector<CheckResult> Fallback =
      Session.checkMany(std::span<const CheckRequest>(Reqs));
  expectResultsIdentical(InProc, Fallback);
}

TEST(ProcessPool, NonWireableRequestsStayLocalAndCorrect) {
  // Reuse-carrying and init-carrying requests are not wireable; checkMany
  // must route them through the in-process path even when workers are on,
  // and still return the same results.
  std::vector<CheckRequest> Reqs = corpus(4);
  Reqs[1].Opts.ExportSeenStates = true; // Not wireable.
  std::vector<CheckResult> InProc = runWith(0, Reqs);
  std::vector<CheckResult> Mixed = runWith(2, Reqs);
  expectResultsIdentical(InProc, Mixed);
}
