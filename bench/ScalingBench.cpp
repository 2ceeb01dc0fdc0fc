//===- bench/ScalingBench.cpp - Exploration cost vs speculation bound -------===//
//
// §4.2: "exploring every speculative branch and potential store-forward
// within a given speculation bound leads to an explosion in state space.
// In our tests, we were able to support speculation bounds of up to 20
// instructions [with forwarding hazards].  We were able to increase this
// bound to 250 instructions when we disabled checking for store-
// forwarding hazards."
//
// Google-benchmark sweeps over the speculation bound in both modes on a
// crypto-sized workload, plus raw machine-step and sequential-execution
// throughput — and the engine axes on top: frontier worker threads and
// batched multi-program checking through CheckSession::checkMany.
//
//===----------------------------------------------------------------------===//

#include "checker/SctChecker.h"
#include "sched/SequentialScheduler.h"
#include "workloads/ChaCha.h"
#include "workloads/CryptoLibs.h"
#include "workloads/Figures.h"
#include "workloads/Kocher.h"
#include "workloads/SpectreSuites.h"

#include <benchmark/benchmark.h>

using namespace sct;

namespace {

void BM_ExploreNoForwardingHazards(benchmark::State &State) {
  SuiteCase C = secretboxC();
  Machine M(C.Prog);
  uint64_t Steps = 0;
  for (auto _ : State) {
    ExplorerOptions Opts = v1v11Mode();
    Opts.SpeculationBound = static_cast<unsigned>(State.range(0));
    ExploreResult R = explore(M, Configuration::initial(C.Prog), Opts);
    benchmark::DoNotOptimize(R.Leaks.size());
    Steps += R.TotalSteps;
  }
  State.counters["steps"] =
      benchmark::Counter(static_cast<double>(Steps),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExploreNoForwardingHazards)
    ->Arg(10)
    ->Arg(20)
    ->Arg(50)
    ->Arg(100)
    ->Arg(250);

void BM_ExploreWithForwardingHazards(benchmark::State &State) {
  SuiteCase C = meeFact();
  Machine M(C.Prog);
  uint64_t Steps = 0;
  for (auto _ : State) {
    ExplorerOptions Opts = v4Mode();
    Opts.SpeculationBound = static_cast<unsigned>(State.range(0));
    ExploreResult R = explore(M, Configuration::initial(C.Prog), Opts);
    benchmark::DoNotOptimize(R.Leaks.size());
    Steps += R.TotalSteps;
  }
  State.counters["steps"] =
      benchmark::Counter(static_cast<double>(Steps),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExploreWithForwardingHazards)->Arg(5)->Arg(10)->Arg(20);

void BM_ExploreDonnaStraightLine(benchmark::State &State) {
  // The clean-crypto cost: the paper's tractability claim rests on
  // straight-line constant-time kernels exploring cheaply.
  SuiteCase C = donnaFact();
  Machine M(C.Prog);
  for (auto _ : State) {
    ExplorerOptions Opts = State.range(0) ? v4Mode() : v1v11Mode();
    ExploreResult R = explore(M, Configuration::initial(C.Prog), Opts);
    benchmark::DoNotOptimize(R.SchedulesCompleted);
  }
}
BENCHMARK(BM_ExploreDonnaStraightLine)->Arg(0)->Arg(1);

void BM_ExploreArxKernel(benchmark::State &State) {
  // Straight-line ARX scalability: exploration cost vs kernel size
  // (double-rounds), v4 mode.
  SuiteCase C = chachaKernel(static_cast<unsigned>(State.range(0)));
  Machine M(C.Prog);
  for (auto _ : State) {
    ExploreResult R = explore(M, Configuration::initial(C.Prog), v4Mode());
    benchmark::DoNotOptimize(R.SchedulesCompleted);
  }
  State.counters["instrs"] = static_cast<double>(C.Prog.size());
}
BENCHMARK(BM_ExploreArxKernel)->Arg(1)->Arg(2)->Arg(4);

void BM_ExploreThreadScaling(benchmark::State &State) {
  // The parallel engine on the largest schedule tree in the repo:
  // MEE-CBC (C variant) in v1/v1.1 mode — hundreds of thousands of
  // schedules, millions of steps.  Sweeping the worker count measures
  // frontier-drain scaling on the program where it matters.
  SuiteCase C = meeC();
  Machine M(C.Prog);
  for (auto _ : State) {
    ExplorerOptions Opts = v1v11Mode();
    Opts.Threads = static_cast<unsigned>(State.range(0));
    ExploreResult R = explore(M, Configuration::initial(C.Prog), Opts);
    benchmark::DoNotOptimize(R.Leaks.size());
  }
  State.counters["threads"] = static_cast<double>(State.range(0));
}
BENCHMARK(BM_ExploreThreadScaling)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ExploreThreadScalingFwd(benchmark::State &State) {
  // Same sweep with forwarding-hazard detection (v4 mode) on the
  // FaCT MEE model.
  SuiteCase C = meeFact();
  Machine M(C.Prog);
  for (auto _ : State) {
    ExplorerOptions Opts = v4Mode();
    Opts.Threads = static_cast<unsigned>(State.range(0));
    ExploreResult R = explore(M, Configuration::initial(C.Prog), Opts);
    benchmark::DoNotOptimize(R.Leaks.size());
  }
  State.counters["threads"] = static_cast<double>(State.range(0));
}
BENCHMARK(BM_ExploreThreadScalingFwd)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ExploreThreadScalingNoFwd(benchmark::State &State) {
  // Same sweep in v1/v1.1 mode (bound 250) on secretbox.
  SuiteCase C = secretboxC();
  Machine M(C.Prog);
  for (auto _ : State) {
    ExplorerOptions Opts = v1v11Mode();
    Opts.Threads = static_cast<unsigned>(State.range(0));
    ExploreResult R = explore(M, Configuration::initial(C.Prog), Opts);
    benchmark::DoNotOptimize(R.Leaks.size());
  }
  State.counters["threads"] = static_cast<double>(State.range(0));
}
BENCHMARK(BM_ExploreThreadScalingNoFwd)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CheckManyBatch(benchmark::State &State) {
  // Program-level fan-out: the whole Kocher + v1.1 corpus as one
  // checkMany batch, sweeping the session thread budget.
  std::vector<Program> Progs;
  for (const SuiteCase &C : kocherCases())
    Progs.push_back(C.Prog);
  for (const SuiteCase &C : spectreV11Cases())
    Progs.push_back(C.Prog);
  SessionOptions SOpts;
  SOpts.Threads = static_cast<unsigned>(State.range(0));
  SOpts.DefaultOpts = v4Mode();
  CheckSession Session(SOpts);
  for (auto _ : State) {
    std::vector<CheckResult> R =
        Session.checkMany(std::span<const Program>(Progs));
    benchmark::DoNotOptimize(R.size());
  }
  State.counters["programs"] = static_cast<double>(Progs.size());
}
BENCHMARK(BM_CheckManyBatch)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_MachineStepThroughput(benchmark::State &State) {
  // Raw small-step speed: one fetch+execute+retire op cycle.
  FigureCase C = figure1();
  Machine M(C.Prog);
  Configuration Init = Configuration::initial(C.Prog);
  Schedule D = C.PaperSchedule;
  for (auto _ : State) {
    RunResult R = runSchedule(M, Init, D);
    benchmark::DoNotOptimize(R.Trace.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(D.size()));
}
BENCHMARK(BM_MachineStepThroughput);

void BM_SequentialExecution(benchmark::State &State) {
  SuiteCase C = donnaC();
  Machine M(C.Prog);
  Configuration Init = Configuration::initial(C.Prog);
  for (auto _ : State) {
    SequentialResult R = runSequential(M, Init);
    benchmark::DoNotOptimize(R.Run.Retires);
    State.counters["retired"] = static_cast<double>(R.Run.Retires);
  }
}
BENCHMARK(BM_SequentialExecution);

} // namespace

BENCHMARK_MAIN();
