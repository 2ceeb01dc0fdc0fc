//===- bench/MinimizerBench.cpp - Minimization: threads x seeding sweep -----===//
//
// The measurement behind the parallel, rung-seeded minimization phase.
// Each case builds a deterministic leak corpus — the explorer's own
// witnesses (a Threads=1 exploration with default options) plus, for
// the deep trees, bloated random-schedule
// witnesses (fixed seeds; the junk-rich "unreadable witness" inputs
// docs/WITNESSES.md frames as minimization's motivating case) — and
// minimizes it under:
//
//   - `from-initial`: `detail::minimizeWitnessFromInitial`, sequential —
//     the same pipeline with every candidate replayed from the initial
//     configuration, no rungs, no candidate memo.  This is the
//     byte-identity reference: seeding, memoization, and threads are all
//     output-preserving, so every row below must match it exactly.
//   - `seeded-tN`: `minimizeWitnesses` — rung-seeded replays and the
//     candidate memo — at Threads in {1, 2, 4, 8}.
//
// The full phase's ratio against `from-initial` is reported per case and
// summarized for the deepest tree, and byte-equal outputs are enforced:
// a mismatch fails the whole bench.  `replayed_steps` counts machine
// steps actually executed — the honest CPU cost; `seeded_steps` is what
// rung seeding skipped.  Wall-clock rows on a single-core host show the
// step ratio; thread scaling needs cores.
//
// Results are printed as a table and recorded to BENCH_MINIMIZER.json
// (override with --out FILE).  `--quick` runs a reduced matrix for CI
// smoke.
//
//===----------------------------------------------------------------------===//

#include "checker/SctChecker.h"
#include "sched/RandomScheduler.h"
#include "support/Printing.h"
#include "workloads/CryptoLibs.h"
#include "workloads/Kocher.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace sct;

namespace {

struct BenchCase {
  std::string Id;
  Program Prog;
  ExplorerOptions Mode;
  /// Also harvest bloated random-schedule witnesses (deep trees only —
  /// kocher gadgets are too small to bloat).
  bool BloatedCorpus = false;
};

struct RunRecord {
  std::string Config;
  unsigned Threads = 1;
  bool Seeded = false;
  double Seconds = 0;
  MinimizeStats Stats;
  std::map<uint64_t, Schedule> MinScheds;
  bool MatchesFromInitial = true;
};

/// MinSched per leak key — the identity oracle between configurations.
std::map<uint64_t, Schedule> minSchedByKey(const std::vector<LeakRecord> &Ls) {
  std::map<uint64_t, Schedule> Out;
  for (const LeakRecord &L : Ls)
    Out[L.key()] = L.MinSched;
  return Out;
}

/// Deterministic bloated witnesses: random well-formed schedules run to
/// their first secret observation, kept when the prefix is long enough
/// to be junk-rich.  Mirrors tests/MinimizerTest.cpp's corpus recipe.
std::vector<LeakRecord> bloatedWitnesses(const Machine &M,
                                         const Configuration &Init,
                                         size_t MaxWitnesses) {
  std::vector<LeakRecord> Out;
  for (uint64_t Seed = 1; Seed <= 80 && Out.size() < MaxWitnesses; ++Seed) {
    RandomRunOptions ROpts;
    ROpts.Seed = Seed;
    ROpts.MaxSteps = 600;
    ROpts.FetchWeight = 6; // Deep speculation: leaky and junk-rich.
    RunResult R = runRandom(M, Init, ROpts);
    Schedule Prefix;
    Configuration C = Init;
    for (const StepRecord &S : R.Trace) {
      PC Origin = leakOriginOf(C, S.D);
      auto Res = M.step(C, S.D);
      if (!Res)
        break;
      Prefix.push_back(S.D);
      if (Res->Obs.isSecret()) {
        if (Prefix.size() >= 64)
          Out.push_back(LeakRecord{Prefix, Res->Obs, Origin, Res->Rule});
        break;
      }
    }
  }
  return Out;
}

/// Minimizes fresh copies of \p RawLeaks: through the from-initial
/// reference when \p Threads is 0, else through `minimizeWitnesses`.
RunRecord runOne(const Machine &M, const Configuration &Init,
                 const std::vector<LeakRecord> &RawLeaks, unsigned Threads) {
  std::vector<LeakRecord> Leaks = RawLeaks; // MinSched empty.
  RunRecord Rec;
  Rec.Seeded = Threads > 0;
  Rec.Threads = Rec.Seeded ? Threads : 1;
  Rec.Config = Rec.Seeded ? "seeded-t" + std::to_string(Threads)
                          : std::string("from-initial");
  auto T0 = std::chrono::steady_clock::now();
  if (Rec.Seeded) {
    MinimizeOptions Opts;
    Opts.Threads = Threads;
    Rec.Stats = minimizeWitnesses(M, Init, Leaks, Opts);
  } else {
    for (LeakRecord &L : Leaks)
      L.MinSched =
          detail::minimizeWitnessFromInitial(M, Init, L, {}, &Rec.Stats);
  }
  auto T1 = std::chrono::steady_clock::now();
  Rec.Seconds = std::chrono::duration<double>(T1 - T0).count();
  Rec.MinScheds = minSchedByKey(Leaks);
  return Rec;
}

void jsonRun(FILE *F, const RunRecord &R, bool Last) {
  std::fprintf(
      F,
      "      {\"config\": \"%s\", \"threads\": %u, \"seeded\": %s, "
      "\"seconds\": %.6f, \"replays\": %llu, "
      "\"replayed_steps\": %llu, \"seeded_steps\": %llu, "
      "\"sliced_excursions\": %llu, \"minimized_directives\": %llu, "
      "\"matches_from_initial\": %s}%s\n",
      R.Config.c_str(), R.Threads, R.Seeded ? "true" : "false", R.Seconds,
      static_cast<unsigned long long>(R.Stats.Replays),
      static_cast<unsigned long long>(R.Stats.ReplayedSteps),
      static_cast<unsigned long long>(R.Stats.SeededSteps),
      static_cast<unsigned long long>(R.Stats.SlicedExcursions),
      static_cast<unsigned long long>(R.Stats.MinimizedDirectives),
      R.MatchesFromInitial ? "true" : "false", Last ? "" : ",");
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = "BENCH_MINIMIZER.json";
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
    BenchCase Kocher;
    Kocher.Id = "kocher-05-v4";
    Kocher.Prog = kocherCases()[4].Prog;
    Kocher.Mode = v4Mode();
    Cases.push_back(std::move(Kocher));
  }
  if (!Quick) {
    BenchCase Mee;
    Mee.Id = "mee-c-v4";
    Mee.Prog = meeC().Prog;
    Mee.Mode = v4Mode();
    Mee.BloatedCorpus = true;
    Cases.push_back(std::move(Mee));
  }
  {
    // The deep-tree case the acceptance ratio is read on (last in the
    // matrix); --quick keeps it with a smaller bloated corpus.
    BenchCase Ssl;
    Ssl.Id = "ssl3-c-v4";
    Ssl.Prog = ssl3C().Prog;
    Ssl.Mode = v4Mode();
    Ssl.BloatedCorpus = true;
    Cases.push_back(std::move(Ssl));
  }

  std::vector<unsigned> ThreadLadder =
      Quick ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};

  FILE *Out = std::fopen(OutPath, "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath);
    return 2;
  }
  std::fprintf(
      Out,
      "{\n  \"bench\": \"minimizer-scaling\",\n"
      "  \"baselines\": {\n"
      "    \"from-initial\": \"the shipped pipeline with every candidate "
      "replayed from the initial configuration, no rungs, no memo — the "
      "byte-identity reference for seeding, memoization, and threads\"\n"
      "  },\n  \"cases\": [\n");

  bool AllOk = true;
  double SeedStepX = 0, SeedWallX = 0;
  for (size_t CI = 0; CI < Cases.size(); ++CI) {
    const BenchCase &C = Cases[CI];
    // One deterministic exploration feeds every config: the case's mode
    // at Threads=1, as a sequential minimizing CheckSession explores it.
    ExplorerOptions EOpts = C.Mode;
    EOpts.Threads = 1;
    Machine M(C.Prog);
    Configuration Init = Configuration::initial(C.Prog);
    ExploreResult R = explore(M, Init, EOpts);
    std::vector<LeakRecord> Corpus = R.Leaks;
    if (C.BloatedCorpus)
      for (LeakRecord &L : bloatedWitnesses(M, Init, Quick ? 2 : 8))
        Corpus.push_back(std::move(L));

    uint64_t RawTotal = 0;
    for (const LeakRecord &L : Corpus)
      RawTotal += L.Sched.size();
    std::printf("%s: %zu witnesses, %llu raw directives\n", C.Id.c_str(),
                Corpus.size(), static_cast<unsigned long long>(RawTotal));

    std::vector<RunRecord> Runs;
    Runs.push_back(runOne(M, Init, Corpus, /*Threads=*/0));
    for (unsigned T : ThreadLadder)
      Runs.push_back(runOne(M, Init, Corpus, T));

    const RunRecord &From = Runs[0];
    std::vector<std::vector<std::string>> Table;
    for (RunRecord &Rec : Runs) {
      Rec.MatchesFromInitial = Rec.MinScheds == From.MinScheds;
      AllOk &= Rec.MatchesFromInitial;
      double StepX = Rec.Stats.ReplayedSteps
                         ? double(From.Stats.ReplayedSteps) /
                               double(Rec.Stats.ReplayedSteps)
                         : 0;
      double WallX = Rec.Seconds ? From.Seconds / Rec.Seconds : 0;
      Table.push_back({Rec.Config, std::to_string(Rec.Threads),
                       std::to_string(Rec.Seconds).substr(0, 6),
                       std::to_string(Rec.Stats.Replays),
                       std::to_string(Rec.Stats.ReplayedSteps),
                       std::to_string(Rec.Stats.MinimizedDirectives),
                       std::to_string(StepX).substr(0, 4) + "x",
                       std::to_string(WallX).substr(0, 4) + "x",
                       Rec.MatchesFromInitial ? "ok" : "MISMATCH"});
    }
    std::printf("%s\n",
                renderTable({"config", "threads", "seconds", "replays",
                             "replayed steps", "minimized", "steps vs from",
                             "wall vs from", "vs from-initial"},
                            Table)
                    .c_str());

    // The summary ratios are read on the deepest tree in the matrix.
    if (CI + 1 == Cases.size()) {
      const RunRecord &Full = Runs.back();
      if (Full.Stats.ReplayedSteps)
        SeedStepX = double(From.Stats.ReplayedSteps) /
                    double(Full.Stats.ReplayedSteps);
      if (Full.Seconds)
        SeedWallX = From.Seconds / Full.Seconds;
    }

    std::fprintf(Out,
                 "    {\"id\": \"%s\", \"witnesses\": %zu, "
                 "\"raw_directives\": %llu, \"runs\": [\n",
                 C.Id.c_str(), Corpus.size(),
                 static_cast<unsigned long long>(RawTotal));
    for (size_t I = 0; I < Runs.size(); ++I)
      jsonRun(Out, Runs[I], I + 1 == Runs.size());
    std::fprintf(Out, "    ]}%s\n", CI + 1 == Cases.size() ? "" : ",");
  }

  std::fprintf(
      Out,
      "  ],\n  \"deep_tree_summary\": {\n"
      "    \"full_phase_vs_from_initial\": {\"replay_steps\": %.2f, "
      "\"wall_clock\": %.2f},\n"
      "    \"note\": \"threads shorten wall-clock only up to the "
      "host's core count\"\n  },\n"
      "  \"all_min_scheds_match_from_initial\": %s\n}\n",
      SeedStepX, SeedWallX, AllOk ? "true" : "false");
  std::fclose(Out);
  std::printf("recorded %s\n", OutPath);
  if (!AllOk) {
    std::printf("MIN SCHED MISMATCH against the from-initial reference\n");
    return 1;
  }
  return 0;
}
