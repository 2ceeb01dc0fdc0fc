//===- bench/AuditBench.cpp - Cold vs warm corpus audit ---------------------===//
//
// The audit-service tentpole number: re-auditing an unchanged corpus
// through the content-addressed result cache must be an order of
// magnitude faster than the cold audit that populated it — and serve
// results whose re-serialized bytes are identical to the cold run's.
//
// Flow: dump the Kocher corpus into a fresh cache directory twice through
// the same CheckSession configuration.  The cold pass explores everything
// and stores; the warm pass must be all hits.  A third pass flips one
// option (the speculation bound) to confirm the fingerprint separates it
// — a changed audit must MISS, not serve a stale verdict.
//
//   AuditBench [--quick] [--out BENCH_AUDIT.json] [session flags]
//
// The committed BENCH_AUDIT.json is this harness's full-corpus output.
//
//===----------------------------------------------------------------------===//

#include "checker/SctChecker.h"
#include "engine/ResultCache.h"
#include "engine/Serialization.h"
#include "engine/SessionArgs.h"
#include "workloads/Kocher.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

using namespace sct;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = "BENCH_AUDIT.json";
  bool Quick = false;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--help") || !std::strcmp(Argv[I], "-h")) {
      std::printf("usage: %s [--quick] [--out FILE] [session flags]\n%s",
                  Argv[0], sessionFlagsHelp().c_str());
      return 0;
    }
  }
  SessionArgs SA;
  try {
    SA = parseSessionArgs(Argc, Argv);
  } catch (const std::invalid_argument &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 2;
  }
  for (int I = 1; I < Argc; ++I) {
    if (SA.Consumed[static_cast<size_t>(I)])
      continue;
    if (!std::strcmp(Argv[I], "--out") && I + 1 < Argc)
      OutPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--quick"))
      Quick = true;
    else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE] [session flags]\n",
                   Argv[0]);
      return 2;
    }
  }

  // Corpus: every Kocher case in both checker modes (the paper's two
  // configurations).  --quick keeps one mode to fit the CI smoke.
  std::vector<CheckRequest> Reqs;
  for (const SuiteCase &C : kocherCases()) {
    CheckRequest V1;
    V1.Id = C.Id + "/v1v11";
    V1.Prog = C.Prog;
    V1.Opts = v1v11Mode();
    Reqs.push_back(std::move(V1));
    if (Quick)
      continue;
    CheckRequest V4;
    V4.Id = C.Id + "/v4";
    V4.Prog = C.Prog;
    V4.Opts = v4Mode();
    Reqs.push_back(std::move(V4));
  }

  // A fresh cache directory per run: the bench measures the cold->warm
  // transition, not whatever a previous run left behind.
  std::string CacheDir =
      (std::filesystem::temp_directory_path() /
       ("sct-audit-bench-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(CacheDir);

  SessionOptions SOpts = SA.Opts;
  SOpts.CacheDir = CacheDir;
  auto Audit = [&](std::vector<CheckResult> &Out, uint64_t &Hits) {
    // A fresh session per pass: hit counters and cache handle start clean.
    CheckSession Session(SOpts);
    double T0 = now();
    Out = Session.checkMany(std::span<const CheckRequest>(Reqs));
    double T1 = now();
    Hits = Session.cache() ? Session.cache()->hits() : 0;
    return T1 - T0;
  };

  std::vector<CheckResult> Cold, Warm;
  uint64_t ColdHits = 0, WarmHits = 0;
  double ColdSec = Audit(Cold, ColdHits);
  double WarmSec = Audit(Warm, WarmHits);

  // The warm pass must serve every request from disk, and its results
  // must re-serialize to exactly the cold run's bytes.
  bool AllHits = WarmHits == Reqs.size();
  bool ByteIdentical = true;
  for (size_t I = 0; I < Reqs.size(); ++I) {
    if (!Warm[I].FromCache ||
        serializeCheckResult(Cold[I]) != serializeCheckResult(Warm[I])) {
      std::fprintf(stderr, "mismatch on %s (from-cache: %s)\n",
                   Reqs[I].Id.c_str(), Warm[I].FromCache ? "yes" : "no");
      ByteIdentical = false;
    }
  }

  // Fingerprint separation: change one behavior-affecting option and the
  // warm cache must miss (a stale verdict would be a soundness bug).
  std::vector<CheckRequest> Changed = Reqs;
  for (CheckRequest &R : Changed)
    R.Opts.SpeculationBound += 1;
  CheckSession ChangedSession(SOpts);
  std::vector<CheckResult> ChangedRes =
      ChangedSession.checkMany(std::span<const CheckRequest>(Changed));
  bool ChangedAllMiss =
      ChangedSession.cache() && ChangedSession.cache()->hits() == 0;

  double Speedup = WarmSec > 0 ? ColdSec / WarmSec : 0;
  std::printf("audit corpus: %zu request(s)\n", Reqs.size());
  std::printf("cold: %.3fs (%llu hit(s)); warm: %.3fs (%llu hit(s))\n",
              ColdSec, static_cast<unsigned long long>(ColdHits), WarmSec,
              static_cast<unsigned long long>(WarmHits));
  std::printf("warm speedup: %.1fx; byte-identical results: %s; "
              "changed-options all-miss: %s\n",
              Speedup, ByteIdentical ? "yes" : "NO",
              ChangedAllMiss ? "yes" : "NO");

  FILE *Out = std::fopen(OutPath, "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath);
    return 2;
  }
  std::fprintf(
      Out,
      "{\n  \"bench\": \"audit-cache\",\n"
      "  \"corpus\": \"kocher%s\",\n"
      "  \"requests\": %zu,\n"
      "  \"cold_seconds\": %.6f,\n"
      "  \"warm_seconds\": %.6f,\n"
      "  \"warm_speedup\": %.2f,\n"
      "  \"warm_hits\": %llu,\n"
      "  \"warm_all_hits\": %s,\n"
      "  \"byte_identical_results\": %s,\n"
      "  \"changed_options_all_miss\": %s\n}\n",
      Quick ? " (v1v11 only)" : " (v1v11 + v4)", Reqs.size(), ColdSec,
      WarmSec, Speedup, static_cast<unsigned long long>(WarmHits),
      AllHits ? "true" : "false", ByteIdentical ? "true" : "false",
      ChangedAllMiss ? "true" : "false");
  std::fclose(Out);
  std::printf("wrote %s\n", OutPath);

  std::filesystem::remove_all(CacheDir);
  bool Ok = AllHits && ByteIdentical && ChangedAllMiss && Speedup >= 10.0;
  if (!Ok)
    std::fprintf(stderr, "FAIL: all-hits=%d byte-identical=%d all-miss=%d "
                         "speedup=%.1f (need >= 10x)\n",
                 AllHits, ByteIdentical, ChangedAllMiss, Speedup);
  return Ok ? 0 : 1;
}
