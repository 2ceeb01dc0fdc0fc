//===- bench/ContentionBench.cpp - Frontier drain: threads x pruning ------===//
//
// The same fork-heavy schedule trees drained by the explorer's frontier —
// the plain LIFO vector at one thread, one Chase-Lev style work-stealing
// deque per worker above it — with and without the cross-schedule
// seen-state table (`PruneSeen`), each at 1/2/4/8 worker threads.  Every
// run's deduplicated leak set is
// cross-checked against the sequential reference — a configuration that
// went faster by dropping findings fails the whole bench.
//
// Results are printed as a table and recorded to BENCH_CONTENTION.json
// (override with --out FILE) for the "reproducing the paper's figures"
// workflow in README.md.  `--quick` runs a reduced matrix for CI smoke.
//
//===----------------------------------------------------------------------===//

#include "checker/SctChecker.h"
#include "isa/AsmParser.h"
#include "support/Printing.h"
#include "workloads/CryptoLibs.h"
#include "workloads/Kocher.h"
#include "workloads/SpectreSuites.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

using namespace sct;

namespace {

struct BenchCase {
  std::string Id;
  Program Prog;
  ExplorerOptions Mode;
};

struct RunRecord {
  std::string Config;
  unsigned Threads = 0;
  double Seconds = 0;
  uint64_t Steps = 0;
  uint64_t Schedules = 0;
  uint64_t Steals = 0;
  uint64_t Pruned = 0;
  size_t Leaks = 0;
  bool LeakSetOk = true;
};

std::set<uint64_t> leakKeys(const ExploreResult &R) {
  std::set<uint64_t> S;
  for (const LeakRecord &L : R.Leaks)
    S.insert(L.key());
  return S;
}

/// A synthetic fork-dense tree: a ladder of data-independent branches.
/// Every rung doubles the schedule count while each path does almost no
/// work, so the frontier is popped and pushed at the highest possible
/// rate — the pure contention stressor (real crypto trees interleave far
/// more stepping per node).
Program forkLadder(unsigned Rungs) {
  std::string Asm = ".reg ra rb\n.init ra 1\nstart:\n";
  for (unsigned I = 0; I < Rungs; ++I) {
    std::string N = std::to_string(I);
    Asm += "  br ult ra, 4 -> t" + N + ", f" + N + "\n";
    Asm += "t" + N + ":\n  rb = add rb, 1\n";
    Asm += "f" + N + ":\n  rb = add rb, 2\n";
  }
  Asm += "end:\n";
  return parseAsmOrDie(Asm);
}

RunRecord runOne(const BenchCase &C, unsigned Threads, bool Prune,
                 const std::set<uint64_t> &RefLeaks) {
  ExplorerOptions Opts = C.Mode;
  Opts.Threads = Threads;
  Opts.PruneSeen = Prune;
  Machine M(C.Prog);
  auto T0 = std::chrono::steady_clock::now();
  ExploreResult R = explore(M, Configuration::initial(C.Prog), Opts);
  auto T1 = std::chrono::steady_clock::now();

  RunRecord Rec;
  Rec.Config = Prune ? "pruned" : "unpruned";
  Rec.Threads = Threads;
  Rec.Seconds = std::chrono::duration<double>(T1 - T0).count();
  Rec.Steps = R.TotalSteps;
  Rec.Schedules = R.SchedulesCompleted;
  Rec.Steals = R.Steals;
  Rec.Pruned = R.PrunedNodes;
  Rec.Leaks = R.Leaks.size();
  Rec.LeakSetOk = leakKeys(R) == RefLeaks;
  return Rec;
}

void jsonRun(FILE *F, const RunRecord &R, bool Last) {
  std::fprintf(F,
               "      {\"config\": \"%s\", \"threads\": %u, "
               "\"seconds\": %.6f, \"steps\": %llu, \"schedules\": %llu, "
               "\"steals\": %llu, \"pruned\": %llu, \"leaks\": %zu, "
               "\"leak_set_matches_reference\": %s}%s\n",
               R.Config.c_str(), R.Threads, R.Seconds,
               static_cast<unsigned long long>(R.Steps),
               static_cast<unsigned long long>(R.Schedules),
               static_cast<unsigned long long>(R.Steals),
               static_cast<unsigned long long>(R.Pruned), R.Leaks,
               R.LeakSetOk ? "true" : "false", Last ? "" : ",");
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = "BENCH_CONTENTION.json";
  bool Quick = false;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--out") && I + 1 < Argc)
      OutPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--quick"))
      Quick = true;
    else {
      std::fprintf(stderr, "usage: %s [--out FILE] [--quick]\n", Argv[0]);
      return 2;
    }
  }

  std::vector<BenchCase> Cases;
  {
    BenchCase Ladder;
    Ladder.Id = "fork-ladder-14";
    Ladder.Prog = forkLadder(Quick ? 10 : 14);
    Ladder.Mode = v1v11Mode();
    if (Quick)
      Ladder.Id = "fork-ladder-10";
    Cases.push_back(std::move(Ladder));
  }
  if (!Quick) {
    // The two largest real schedule trees in the repo: both run into the
    // 8M-step budget, so every frontier configuration drains the same
    // amount of work — a constant-work contention comparison.
    BenchCase Mee;
    Mee.Id = "mee-c-v4";
    Mee.Prog = meeC().Prog;
    Mee.Mode = v4Mode();
    Cases.push_back(std::move(Mee));

    BenchCase Ssl;
    Ssl.Id = "ssl3-c-v4";
    Ssl.Prog = ssl3C().Prog;
    Ssl.Mode = v4Mode();
    Cases.push_back(std::move(Ssl));
  }

  std::vector<unsigned> ThreadCounts =
      Quick ? std::vector<unsigned>{1, 8} : std::vector<unsigned>{1, 2, 4, 8};

  FILE *Out = std::fopen(OutPath, "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath);
    return 2;
  }
  std::fprintf(Out, "{\n  \"bench\": \"frontier-contention\",\n"
                    "  \"baseline\": \"unpruned (PruneSeen off)\",\n"
                    "  \"cases\": [\n");

  bool AllOk = true;
  double Unpruned8 = 0, Pruned8 = 0;
  for (size_t CI = 0; CI < Cases.size(); ++CI) {
    const BenchCase &C = Cases[CI];
    // Sequential reference leak set (the determinism anchor).
    ExplorerOptions Ref = C.Mode;
    Ref.Threads = 1;
    Machine M(C.Prog);
    std::set<uint64_t> RefLeaks =
        leakKeys(explore(M, Configuration::initial(C.Prog), Ref));

    std::printf("%s:\n", C.Id.c_str());
    std::vector<RunRecord> Runs;
    for (unsigned T : ThreadCounts) {
      Runs.push_back(runOne(C, T, /*Prune=*/false, RefLeaks));
      Runs.push_back(runOne(C, T, /*Prune=*/true, RefLeaks));
    }

    std::vector<std::vector<std::string>> Table;
    for (const RunRecord &R : Runs) {
      Table.push_back({R.Config, std::to_string(R.Threads),
                       std::to_string(R.Seconds).substr(0, 6),
                       std::to_string(R.Steps), std::to_string(R.Steals),
                       std::to_string(R.Pruned),
                       R.LeakSetOk ? "ok" : "MISMATCH"});
      AllOk &= R.LeakSetOk;
      if (R.Threads == 8)
        (R.Config == "pruned" ? Pruned8 : Unpruned8) += R.Seconds;
    }
    std::printf("%s\n",
                renderTable({"seen table", "threads", "seconds", "steps",
                             "steals", "pruned", "leak set"},
                            Table)
                    .c_str());

    std::fprintf(Out, "    {\"id\": \"%s\", \"runs\": [\n", C.Id.c_str());
    for (size_t I = 0; I < Runs.size(); ++I)
      jsonRun(Out, Runs[I], I + 1 == Runs.size());
    std::fprintf(Out, "    ]}%s\n", CI + 1 == Cases.size() ? "" : ",");
  }

  double PruneSpeedup = Pruned8 > 0 ? Unpruned8 / Pruned8 : 0;
  std::fprintf(Out,
               "  ],\n  \"aggregate_8_threads\": {\"unpruned_seconds\": %.6f, "
               "\"pruned_seconds\": %.6f, "
               "\"pruned_speedup_vs_unpruned\": %.3f},\n"
               "  \"all_leak_sets_match_reference\": %s\n}\n",
               Unpruned8, Pruned8, PruneSpeedup, AllOk ? "true" : "false");
  std::fclose(Out);

  std::printf("aggregate at 8 threads: unpruned %.3fs, pruned %.3fs "
              "(%.2fx)\n",
              Unpruned8, Pruned8, PruneSpeedup);
  std::printf("recorded %s\n", OutPath);
  if (!AllOk) {
    std::printf("LEAK SET MISMATCH against the sequential reference\n");
    return 1;
  }
  return 0;
}
