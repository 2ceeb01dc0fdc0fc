//===- bench/StepRateBench.cpp - Engine core step rate --------------------===//
//
// Engine core step rate: per-core steps/sec on the two largest pruned v4
// crypto trees and on the bound-250 MEE-CBC C tree of the paper's v1/v1.1
// mode, each against the **pre-PR engine** its speedup target was set
// against:
//  - the v4 trees against the node-based engine that the cache-friendly
//    core (flat COW memory, chunked structurally-shared ROB with a
//    lazily-folded incremental fingerprint, flat seen-state table)
//    replaced;
//  - the bound-250 tree against the engine before the reorder buffer's
//    derived indices, which scanned the window for every register lookup
//    and speculation-depth query and copied the configuration to probe
//    each branch.
// That tree stops at the step budget, so its leak set depends on drain
// order: it runs at Threads=1 only, and `--quick` cuts its budget to
// QuickBound250Steps.  Each run also records the fork-copy accounting
// (configurations forked, ROB bytes actually moved vs. the flat-slab
// equivalent): the chunked layout's sharing is what turned fork cost
// from O(live suffix) into O(delta).
//
// The old engines no longer exist in this binary, so their rates are
// embedded below as measured constants with provenance (same machine,
// equivalent best-of driver, runs interleaved with the new engine to
// cancel machine drift; identity digests over full leak records were
// byte-identical).  `--prepr ID=RATE` re-anchors them after
// re-measuring on different hardware.
//
// The bench enforces result identity: every run's leak-key set must
// match the sequential reference, and the Threads=1 run must reproduce
// the reference's LeakRecords (keys, schedules, observations) and
// minimized witnesses byte-for-byte.  (That hash() equals the full-walk
// hashFromScratch() oracle along these trees' witnesses is pinned by
// tests/HashEquivalenceTest.cpp.)
//
// Results go to BENCH_STEPRATE.json (override with --out FILE); the
// headline is per-core steps/sec at Threads=1 vs the pre-PR layout,
// with the >=2x target recorded alongside.  `--quick` runs a reduced
// matrix for CI smoke, and `--check-against FILE` compares this run's
// per-core step rate with a committed JSON, failing on a >25%
// regression.  The comparison normalizes both sides by a small
// fixed-work calibration loop timed in the same process, so the gate
// survives moving between machines of different single-core speed.
//
//===----------------------------------------------------------------------===//

#include "checker/SctChecker.h"
#include "engine/WitnessMinimizer.h"
#include "support/Hashing.h"
#include "support/Printing.h"
#include "workloads/CryptoLibs.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace sct;

namespace {

/// Pre-PR per-core steps/sec at Threads=1 (prune on), measured with an
/// equivalent driver: best of interleaved best-of-5 timed explores, same
/// machine as the committed BENCH_STEPRATE.json.  Leak records, raw
/// schedules, and minimized schedules were byte-identical between the
/// engines at Threads=1 (full record digest), and for the v4 trees
/// leak-key sets were equal at Threads=8.
struct PreprBaseline {
  const char *Id;
  double PerCoreT1;
  const char *Provenance;
};
PreprBaseline PreprBaselines[] = {
    {"mee-c-v4", 2571788.0,
     "node-based engine at the growth-seed commit, before the "
     "flat-memory/arena/incremental-hash rewrite; -O2 -DNDEBUG"},
    {"ssl3-c-v4", 2103168.0,
     "node-based engine at the growth-seed commit, before the "
     "flat-memory/arena/incremental-hash rewrite; -O2 -DNDEBUG"},
    {"mee-c-v1v11-b250", 1582131.4,
     "engine before the reorder buffer's derived indices: window scans "
     "for register lookups and speculation depth, copy-and-step branch "
     "probes; -O2 -g -DNDEBUG"},
};

/// The bound-250 tree's step budget under --quick (the full run keeps
/// v1v11Mode()'s 8M-step budget).
constexpr uint64_t QuickBound250Steps = 1u << 20;

/// Timed explores repeat this many times per cell; the best wall time
/// wins (the usual bench defence against scheduler noise).
constexpr int Repeats = 5;

struct BenchCase {
  std::string Id;
  Program Prog;
  ExplorerOptions Mode;
  /// The tree stops at its step budget, so only the one-worker drain
  /// order is reproducible: run at Threads=1 only.
  bool SequentialOnly = false;
};

struct RunRecord {
  unsigned Threads = 0;
  double Seconds = 0;
  uint64_t Steps = 0;
  size_t Leaks = 0;
  bool LeakSetOk = true;
  /// Fork-copy accounting from the structurally-shared ROB (see
  /// ExploreResult): configurations copied at fork sites, the ROB bytes
  /// those copies actually moved, and the flat-slab equivalent.  The
  /// flat/copied ratio is the sharing factor the chunked layout buys.
  uint64_t Forked = 0;
  uint64_t RobCopied = 0;
  uint64_t RobFlat = 0;
  double stepsPerSec() const { return Seconds > 0 ? Steps / Seconds : 0; }
  double perCore() const { return Threads ? stepsPerSec() / Threads : 0; }
  double shareFactor() const {
    return RobCopied ? double(RobFlat) / double(RobCopied) : 0;
  }
};

std::set<uint64_t> leakKeys(const ExploreResult &R) {
  std::set<uint64_t> S;
  for (const LeakRecord &L : R.Leaks)
    S.insert(L.key());
  return S;
}

/// Full byte-level equality of two leak lists: same order, same keys,
/// same raw schedules, same observations.  Only meaningful at
/// Threads=1, where exploration is fully deterministic.
bool recordsIdentical(const std::vector<LeakRecord> &A,
                      const std::vector<LeakRecord> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I) {
    if (A[I].key() != B[I].key() || A[I].Sched != B[I].Sched ||
        A[I].MinSched != B[I].MinSched)
      return false;
  }
  return true;
}

std::pair<RunRecord, ExploreResult> runOne(const BenchCase &C,
                                           unsigned Threads,
                                           const std::set<uint64_t> &RefLeaks) {
  ExplorerOptions Opts = C.Mode;
  Opts.Threads = Threads;
  Opts.PruneSeen = true;
  Machine M(C.Prog);

  RunRecord Rec;
  Rec.Threads = Threads;
  ExploreResult Best;
  for (int I = 0; I < Repeats; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    ExploreResult R = explore(M, Configuration::initial(C.Prog), Opts);
    auto T1 = std::chrono::steady_clock::now();
    double Secs = std::chrono::duration<double>(T1 - T0).count();
    Rec.LeakSetOk &= leakKeys(R) == RefLeaks;
    if (I == 0 || Secs < Rec.Seconds) {
      Rec.Seconds = Secs;
      Rec.Steps = R.TotalSteps;
      Rec.Leaks = R.Leaks.size();
      Rec.Forked = R.ConfigsForked;
      Rec.RobCopied = R.RobBytesCopied;
      Rec.RobFlat = R.RobBytesFlat;
      Best = std::move(R);
    }
  }
  return {Rec, std::move(Best)};
}

/// Fixed-work single-core calibration: hash-avalanche a chain for a
/// fixed iteration count and time it.  Pure cache-resident ALU work, so
/// it scales with the machine's single-core speed the same way the
/// explore loop's fingerprint arithmetic does — dividing step rates by
/// this makes committed-vs-current comparisons survive hardware changes.
double calibrationScore() {
  constexpr uint64_t Iters = 1u << 25;
  double BestSecs = 0;
  for (int R = 0; R < 3; ++R) {
    uint64_t H = HashSeed;
    auto T0 = std::chrono::steady_clock::now();
    for (uint64_t I = 0; I < Iters; ++I)
      H = hashAvalanche(H ^ I);
    auto T1 = std::chrono::steady_clock::now();
    // Fold H into the timing sink so the loop cannot be elided.
    double Secs = std::chrono::duration<double>(T1 - T0).count() +
                  (H == 0 ? 1e-12 : 0);
    if (R == 0 || Secs < BestSecs)
      BestSecs = Secs;
  }
  return Iters / BestSecs;
}

void jsonRun(FILE *F, const RunRecord &R, bool Last) {
  std::fprintf(F,
               "      {\"threads\": %u, "
               "\"seconds\": %.6f, \"steps\": %llu, "
               "\"steps_per_sec\": %.1f, \"per_core_steps_per_sec\": %.1f, "
               "\"leaks\": %zu, \"leak_set_matches_reference\": %s, "
               "\"configs_forked\": %llu, \"rob_bytes_copied\": %llu, "
               "\"rob_bytes_flat_equiv\": %llu, "
               "\"rob_flat_over_copied\": %.2f}%s\n",
               R.Threads, R.Seconds,
               static_cast<unsigned long long>(R.Steps), R.stepsPerSec(),
               R.perCore(), R.Leaks, R.LeakSetOk ? "true" : "false",
               static_cast<unsigned long long>(R.Forked),
               static_cast<unsigned long long>(R.RobCopied),
               static_cast<unsigned long long>(R.RobFlat), R.shareFactor(),
               Last ? "" : ",");
}

/// Pulls the first number following `"<key>":` out of our own emitted
/// JSON — no dependency, fine for the fixed format this bench writes.
double jsonNumber(const std::string &Text, const std::string &Key) {
  size_t P = Text.find("\"" + Key + "\":");
  if (P == std::string::npos)
    return -1;
  P = Text.find(':', P);
  return std::strtod(Text.c_str() + P + 1, nullptr);
}

double preprRate(const std::string &Id) {
  for (const PreprBaseline &B : PreprBaselines)
    if (Id == B.Id)
      return B.PerCoreT1;
  return 0;
}

const char *preprProvenance(const std::string &Id) {
  for (const PreprBaseline &B : PreprBaselines)
    if (Id == B.Id)
      return B.Provenance;
  return "";
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = "BENCH_STEPRATE.json";
  const char *CheckPath = nullptr;
  bool Quick = false;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--out") && I + 1 < Argc)
      OutPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--check-against") && I + 1 < Argc)
      CheckPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--quick"))
      Quick = true;
    else if (!std::strcmp(Argv[I], "--prepr") && I + 1 < Argc) {
      // ID=RATE: re-anchor one embedded pre-PR baseline.
      std::string Arg = Argv[++I];
      size_t Eq = Arg.find('=');
      bool Found = false;
      if (Eq != std::string::npos)
        for (PreprBaseline &B : PreprBaselines)
          if (Arg.compare(0, Eq, B.Id) == 0) {
            B.PerCoreT1 = std::strtod(Arg.c_str() + Eq + 1, nullptr);
            Found = true;
          }
      if (!Found) {
        std::fprintf(stderr, "error: bad --prepr '%s' (want ID=RATE)\n",
                     Arg.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out FILE] [--quick] [--check-against FILE] "
                   "[--prepr ID=RATE]\n",
                   Argv[0]);
      return 2;
    }
  }

  // The two largest real schedule trees in the repo (both saturate the
  // step budget unpruned); with pruning on they collapse to the
  // recurrence-free core, where every surviving step pays the engine's
  // full fetch/execute/fork cost — exactly the loop this bench measures.
  std::vector<BenchCase> Cases;
  {
    BenchCase Mee;
    Mee.Id = "mee-c-v4";
    Mee.Prog = meeC().Prog;
    Mee.Mode = v4Mode();
    Cases.push_back(std::move(Mee));
  }
  if (!Quick) {
    BenchCase Ssl;
    Ssl.Id = "ssl3-c-v4";
    Ssl.Prog = ssl3C().Prog;
    Ssl.Mode = v4Mode();
    Cases.push_back(std::move(Ssl));
  }
  {
    // The paper's Table 2 bottleneck: MEE-CBC C in v1/v1.1 mode at
    // speculation bound 250 runs out its step budget.
    BenchCase Mee250;
    Mee250.Id = "mee-c-v1v11-b250";
    Mee250.Prog = meeC().Prog;
    Mee250.Mode = v1v11Mode();
    if (Quick)
      Mee250.Mode.MaxTotalSteps = QuickBound250Steps;
    Mee250.SequentialOnly = true;
    Cases.push_back(std::move(Mee250));
  }

  std::vector<unsigned> ThreadCounts =
      Quick ? std::vector<unsigned>{1} : std::vector<unsigned>{1, 2, 4, 8};

  double Calib = calibrationScore();

  FILE *Out = std::fopen(OutPath, "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath);
    return 2;
  }
  std::fprintf(
      Out,
      "{\n  \"bench\": \"engine-step-rate\",\n"
      "  \"baseline\": \"per case, the pre-PR engine its speedup target "
      "was set against (the case's pre_pr_provenance)\",\n"
      "  \"pre_pr_method\": \"per-core steps/sec at Threads=1 measured "
      "with an equivalent best-of driver, interleaved with the new engine "
      "on the same machine; leak records, raw schedules, and minimized "
      "schedules byte-identical at Threads=1\",\n"
      "  \"calibration_hashes_per_sec\": %.0f,\n"
      "  \"target_per_core_speedup_at_1_thread\": 2.0,\n"
      "  \"cases\": [\n",
      Calib);

  bool AllOk = true;
  double MinSpeedup1 = 0, MinPerCore1 = 0;
  for (size_t CI = 0; CI < Cases.size(); ++CI) {
    const BenchCase &C = Cases[CI];
    // Sequential reference: the determinism anchor for every timed
    // run's leak-key set and for the T=1 records.
    ExplorerOptions Ref = C.Mode;
    Ref.Threads = 1;
    Ref.PruneSeen = true;
    Machine M(C.Prog);
    ExploreResult RefRun = explore(M, Configuration::initial(C.Prog), Ref);
    std::set<uint64_t> RefLeaks = leakKeys(RefRun);

    std::printf("%s:\n", C.Id.c_str());
    std::vector<RunRecord> Runs;
    double New1 = 0;
    bool T1Identical = true, T1MinIdentical = true;
    for (unsigned T : ThreadCounts) {
      if (T > 1 && C.SequentialOnly)
        break;
      auto [Rec, Res] = runOne(C, T, RefLeaks);
      if (T == 1) {
        New1 = Rec.perCore();
        // Sequential exploration is deterministic, so the timed run must
        // agree with the reference on every byte of every record — and
        // their minimized witnesses must match too (minimization replays
        // use the incremental fingerprints for convergence rejoins).
        T1Identical = recordsIdentical(RefRun.Leaks, Res.Leaks);
        MinimizeOptions MinOpts;
        minimizeWitnesses(M, Configuration::initial(C.Prog), RefRun.Leaks,
                          MinOpts);
        minimizeWitnesses(M, Configuration::initial(C.Prog), Res.Leaks,
                          MinOpts);
        T1MinIdentical = recordsIdentical(RefRun.Leaks, Res.Leaks);
      }
      Runs.push_back(std::move(Rec));
    }

    std::vector<std::vector<std::string>> Table;
    for (const RunRecord &R : Runs) {
      char Rate[32];
      std::snprintf(Rate, sizeof Rate, "%.0f", R.perCore());
      Table.push_back({std::to_string(R.Threads),
                       std::to_string(R.Seconds).substr(0, 6),
                       std::to_string(R.Steps), Rate,
                       R.LeakSetOk ? "ok" : "MISMATCH"});
      AllOk &= R.LeakSetOk;
    }
    AllOk &= T1Identical && T1MinIdentical;
    std::printf("%s\n",
                renderTable({"threads", "seconds", "steps",
                             "steps/s/core", "leak set"},
                            Table)
                    .c_str());

    double Prepr = preprRate(C.Id);
    double Speedup1 = Prepr > 0 ? New1 / Prepr : 0;
    if (CI == 0 || Speedup1 < MinSpeedup1)
      MinSpeedup1 = Speedup1;
    if (CI == 0 || New1 < MinPerCore1)
      MinPerCore1 = New1;
    // The T=1 run is Runs[0]; its fork accounting is deterministic, so
    // it is the sharing headline.
    double Share1 = Runs[0].shareFactor();
    std::printf("  per-core at 1 thread: %.0f steps/s, %.2fx the pre-PR "
                "layout's %.0f; T=1 records %s, minimized witnesses %s\n",
                New1, Speedup1, Prepr, T1Identical ? "identical" : "DIFFER",
                T1MinIdentical ? "identical" : "DIFFER");
    std::printf("  fork copies at 1 thread: %llu, ROB bytes %llu vs %llu "
                "flat (%.1fx shared)\n",
                static_cast<unsigned long long>(Runs[0].Forked),
                static_cast<unsigned long long>(Runs[0].RobCopied),
                static_cast<unsigned long long>(Runs[0].RobFlat), Share1);

    std::fprintf(Out, "    {\"id\": \"%s\",\n", C.Id.c_str());
    std::fprintf(Out,
                 "     \"max_total_steps\": %llu,\n"
                 "     \"pre_pr_provenance\": \"%s\",\n"
                 "     \"pre_pr_per_core_steps_per_sec_at_1_thread\": %.1f,\n"
                 "     \"per_core_speedup_vs_pre_pr_at_1_thread\": %.3f,\n"
                 "     \"rob_flat_over_copied_at_1_thread\": %.2f,\n"
                 "     \"t1_records_identical\": %s,\n"
                 "     \"t1_minimized_identical\": %s,\n"
                 "     \"runs\": [\n",
                 static_cast<unsigned long long>(C.Mode.MaxTotalSteps),
                 preprProvenance(C.Id), Prepr, Speedup1, Share1,
                 T1Identical ? "true" : "false",
                 T1MinIdentical ? "true" : "false");
    for (size_t I = 0; I < Runs.size(); ++I)
      jsonRun(Out, Runs[I], I + 1 == Runs.size());
    std::fprintf(Out, "    ]}%s\n", CI + 1 == Cases.size() ? "" : ",");
  }

  std::fprintf(Out,
               "  ],\n  \"min_per_core_steps_per_sec_at_1_thread\": %.1f,\n"
               "  \"min_per_core_speedup_at_1_thread\": %.3f,\n"
               "  \"meets_2x_target\": %s,\n"
               "  \"all_results_identical\": %s\n}\n",
               MinPerCore1, MinSpeedup1, MinSpeedup1 >= 2.0 ? "true" : "false",
               AllOk ? "true" : "false");
  std::fclose(Out);

  std::printf("minimum per-core speedup at 1 thread: %.2fx (target 2.0x)\n",
              MinSpeedup1);
  std::printf("recorded %s\n", OutPath);
  if (!AllOk) {
    std::printf("RESULT MISMATCH against the sequential reference\n");
    return 1;
  }

  if (CheckPath) {
    std::ifstream In(CheckPath);
    if (!In) {
      std::fprintf(stderr, "error: cannot read '%s'\n", CheckPath);
      return 2;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    double CommittedRate =
        jsonNumber(Buf.str(), "min_per_core_steps_per_sec_at_1_thread");
    double CommittedCalib =
        jsonNumber(Buf.str(), "calibration_hashes_per_sec");
    if (CommittedRate <= 0 || CommittedCalib <= 0) {
      std::fprintf(stderr, "error: no committed baseline in '%s'\n",
                   CheckPath);
      return 2;
    }
    // Normalize both sides by their calibration scores so the gate
    // compares engine efficiency (steps per unit of single-core hash
    // throughput), not the raw speed of whichever machine ran last.
    double CommittedNorm = CommittedRate / CommittedCalib;
    double CurrentNorm = MinPerCore1 / Calib;
    std::printf("committed %.0f steps/s/core (calib %.0f), this run %.0f "
                "(calib %.0f); normalized ratio %.2f (gate: >= 0.75)\n",
                CommittedRate, CommittedCalib, MinPerCore1, Calib,
                CurrentNorm / CommittedNorm);
    if (CurrentNorm < 0.75 * CommittedNorm) {
      std::printf("PER-CORE STEP RATE REGRESSION (>25%% vs %s)\n", CheckPath);
      return 1;
    }
  }
  return 0;
}
