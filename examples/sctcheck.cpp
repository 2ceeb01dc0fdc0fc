//===- examples/sctcheck.cpp - Command-line SCT checker ---------------------===//
//
// The Pitchfork workflow as a CLI: assemble a .sct file, check it for
// speculative constant-time under configurable attacker power, and print
// replayable witnesses.
//
//   sctcheck FILE [--bound N] [--no-fwd] [--alias] [--seq-only]
//            [--indirect-targets a,b,..] [--rsb-targets a,b,..]
//            [--fence-branches] [--fence-stores] [--first]
//            [--mitigate fence|retpoline|minimal-fence]
//            [--stats] [--validate] [--print]
//            [session flags: --threads, --cache-dir,
//             --minimize-*, --prove-sps, ... (--help)]
//
// Checks run through the engine layer (CheckSession).  The session-level
// knobs — thread budget, seen-state pruning, witness minimization, the
// SPS proof backend and the persistent result cache (--cache-dir) — all
// parse through the shared declarative flag table (engine/SessionArgs.h);
// this driver only adds the per-file attacker knobs above.  A malformed
// session-flag or --bound value exits with status 2 and a message naming
// the flag.  With --cache-dir, a hit/miss line goes to *stderr* so stdout
// stays byte-comparable between cold and warm audits (the CI cache-smoke
// relies on this).
// --validate replays every witness differentially to confirm it as a
// concrete trace divergence.
//
// --mitigate runs the mitigation engine (engine/MitigationSession.h)
// instead of a plain check: the program is checked, transformed
// (fence = blanket fences, retpoline, minimal-fence = the placement
// search), and re-checked — the SPS proof first, a plain exploration
// when the proof is inconclusive; the report lists per-leak closure,
// placement cost, and how the re-check was settled.  Jump-table programs
// yield the transform's structured not-relocatable error instead of a
// miscompile.
//
//===----------------------------------------------------------------------===//

#include "checker/DifferentialChecker.h"
#include "checker/FenceInsertion.h"
#include "checker/Retpoline.h"
#include "checker/SctChecker.h"
#include "checker/SequentialCt.h"
#include "engine/MitigationSession.h"
#include "engine/ResultCache.h"
#include "engine/SessionArgs.h"
#include "isa/AsmParser.h"
#include "isa/AsmPrinter.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

using namespace sct;

namespace {

void usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s FILE.sct [options]\n"
      "  --bound N              speculation bound (default 20)\n"
      "  --no-fwd               disable forwarding-hazard detection\n"
      "  --alias                explore alias prediction (PS 3.5)\n"
      "  --indirect-targets L   comma-separated mistraining labels (v2)\n"
      "  --rsb-targets L        comma-separated underflow labels\n"
      "  --seq-only             classical sequential CT check only\n"
      "  --fence-branches       insert fences at branch targets first\n"
      "  --fence-stores         insert fences after stores first\n"
      "  --mitigate KIND        run the mitigation engine: check, apply\n"
      "                         KIND (fence|retpoline|minimal-fence),\n"
      "                         re-check (SPS proof first), report\n"
      "                         per-leak closure + cost\n"
      "  --first                stop at the first violation\n"
      "  --stats                collect and print exploration diagnostics:\n"
      "                         fork-copy accounting (configurations\n"
      "                         forked, ROB bytes moved vs. flat layout),\n"
      "                         seen-table occupancy/probe lengths, fork-\n"
      "                         filter verdicts, convergence prunes, and\n"
      "                         the distinct-state-per-depth histogram\n"
      "  --validate             differentially confirm each witness\n"
      "  --print                echo the (possibly transformed) program\n"
      "session flags (shared with every engine driver):\n%s",
      Prog, sessionFlagsHelp().c_str());
}

std::vector<PC> parseTargets(const Program &P, const char *List) {
  std::vector<PC> Out;
  std::stringstream Stream(List);
  std::string Name;
  while (std::getline(Stream, Name, ',')) {
    auto It = P.codeLabels().find(Name);
    if (It == P.codeLabels().end()) {
      std::fprintf(stderr, "error: unknown label '%s'\n", Name.c_str());
      std::exit(2);
    }
    Out.push_back(It->second);
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (!std::strcmp(Argv[I], "--help") || !std::strcmp(Argv[I], "-h")) {
      usage(Argv[0]);
      return 0;
    }
  if (Argc < 2) {
    usage(Argv[0]);
    return 2;
  }

  std::ifstream In(Argv[1]);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Argv[1]);
    return 2;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  ParseResult Parsed = parseAsm(Buffer.str());
  if (!Parsed.ok()) {
    std::fprintf(stderr, "%s: assembly errors:\n%s", Argv[1],
                 Parsed.errorText().c_str());
    return 2;
  }
  Program Prog = std::move(*Parsed.Prog);

  // Session flags (thread budget, pruning, passes, cache) parse
  // through the shared table; the loop below only handles what the table
  // left unconsumed.
  SessionArgs SA;
  try {
    SA = parseSessionArgs(Argc, Argv);
  } catch (const std::invalid_argument &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 2;
  }
  ExplorerOptions Opts = SA.Opts.DefaultOpts;
  bool SeqOnly = false, Print = false, Validate = false;
  const char *IndirectList = nullptr, *RsbList = nullptr;
  const char *MitigateKind = nullptr;
  auto ApplyFences = [&Prog](FencePolicy Policy) {
    MitigationResult R = FenceInsertion(Policy).run(Prog);
    if (!R.ok()) {
      std::fprintf(stderr, "error: %s: %s\n",
                   std::string(fencePolicyName(Policy)).c_str(),
                   R.Error->Message.c_str());
      for (uint64_t A : R.Error->SuspectAddrs)
        std::fprintf(stderr, "  suspect data word at 0x%llx\n",
                     static_cast<unsigned long long>(A));
      std::exit(2);
    }
    Prog = std::move(R.Prog);
  };
  for (int I = 2; I < Argc; ++I) {
    if (SA.Consumed[static_cast<size_t>(I)])
      continue;
    if (!std::strcmp(Argv[I], "--bound") && I + 1 < Argc) {
      // At bound 0 nothing is ever fetched; explore() refuses it.
      try {
        Opts.SpeculationBound = static_cast<unsigned>(parseInteger(
            Argv[++I], 1, std::numeric_limits<unsigned>::max()));
      } catch (const std::invalid_argument &E) {
        std::fprintf(stderr, "error: --bound: %s\n", E.what());
        return 2;
      }
    } else if (!std::strcmp(Argv[I], "--no-fwd"))
      Opts.ExploreForwardingHazards = false;
    else if (!std::strcmp(Argv[I], "--alias"))
      Opts.ExploreAliasPrediction = true;
    else if (!std::strcmp(Argv[I], "--indirect-targets") && I + 1 < Argc)
      IndirectList = Argv[++I];
    else if (!std::strcmp(Argv[I], "--rsb-targets") && I + 1 < Argc)
      RsbList = Argv[++I];
    else if (!std::strcmp(Argv[I], "--seq-only"))
      SeqOnly = true;
    else if (!std::strcmp(Argv[I], "--fence-branches"))
      ApplyFences(FencePolicy::BranchTargets);
    else if (!std::strcmp(Argv[I], "--fence-stores"))
      ApplyFences(FencePolicy::AfterStores);
    else if (!std::strcmp(Argv[I], "--mitigate") && I + 1 < Argc)
      MitigateKind = Argv[++I];
    else if (!std::strcmp(Argv[I], "--first"))
      Opts.StopAtFirstLeak = true;
    else if (!std::strcmp(Argv[I], "--stats"))
      Opts.CollectStats = true;
    else if (!std::strcmp(Argv[I], "--validate"))
      Validate = true;
    else if (!std::strcmp(Argv[I], "--print"))
      Print = true;
    else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Argv[I]);
      usage(Argv[0]);
      return 2;
    }
  }
  if (IndirectList)
    Opts.IndirectTargets = parseTargets(Prog, IndirectList);
  if (RsbList)
    Opts.RsbUnderflowTargets = parseTargets(Prog, RsbList);

  if (Print)
    std::printf("%s\n", printAsm(Prog).c_str());

  if (MitigateKind) {
    MitigationSession MSession(SA.Opts);
    bool WantStores = Opts.ExploreForwardingHazards;
    FencePolicy Blanket = WantStores ? FencePolicy::BranchTargetsAndStores
                                     : FencePolicy::BranchTargets;

    if (!std::strcmp(MitigateKind, "minimal-fence")) {
      FencePlacementOptions FOpts;
      FOpts.Blanket = Blanket;
      FencePlacementResult R =
          MSession.minimizeFencePlacement(Prog, Opts, FOpts);
      if (R.Error) {
        std::fprintf(stderr, "error: %s\n", R.Error->Message.c_str());
        return 2;
      }
      std::printf("baseline: %zu leak(s)\n",
                  R.Baseline.Exploration.Leaks.size());
      std::printf("minimal fence placement: %zu of %zu blanket fence(s) "
                  "suffice (%u re-checks)\n",
                  R.Sites.size(), R.BlanketSites, R.ChecksSpent);
      for (PC S : R.Sites) {
        std::optional<std::string> L = Prog.labelAt(S);
        std::printf("  fence before %u%s%s\n", S, L ? "  ; " : "",
                    L ? L->c_str() : "");
      }
      std::printf("re-check with minimal set: %s\n",
                  R.RestoredSct ? "secure" : "still LEAKS");
      return R.RestoredSct ? 0 : 1;
    }

    std::unique_ptr<Mitigation> M;
    if (!std::strcmp(MitigateKind, "fence"))
      M = std::make_unique<FenceInsertion>(Blanket);
    else if (!std::strcmp(MitigateKind, "retpoline"))
      M = std::make_unique<Retpoline>();
    else {
      std::fprintf(stderr,
                   "error: unknown --mitigate kind '%s' "
                   "(fence|retpoline|minimal-fence)\n",
                   MitigateKind);
      return 2;
    }
    MitigationReport Rep = MSession.run(Prog, Opts, *M);
    std::printf("baseline: %zu leak(s), %llu steps\n",
                Rep.Baseline.Exploration.Leaks.size(),
                static_cast<unsigned long long>(
                    Rep.Baseline.Exploration.TotalSteps));
    const MitigationVariant &V = Rep.Variants.front();
    if (!V.applied()) {
      std::fprintf(stderr, "%s refused: %s\n", V.Name.c_str(),
                   V.Error->Message.c_str());
      for (uint64_t A : V.Error->SuspectAddrs)
        std::fprintf(stderr, "  suspect data word at 0x%llx\n",
                     static_cast<unsigned long long>(A));
      return 2;
    }
    std::printf("%s: +%u instruction(s), %u fence(s), %u site(s)\n",
                V.Name.c_str(), V.Cost.InstructionsAdded, V.Cost.FencesAdded,
                V.Cost.Sites);
    std::printf("sequential schedule: %zu -> %zu steps\n",
                Rep.SeqStepsBaseline, V.SeqSteps);
    const char *SettledBy = "explored";
    if (V.After.Sps && V.After.Sps->conclusive())
      SettledBy = V.After.Sps->proved() ? "SPS proof" : "SPS counterexample";
    std::printf("re-check: %s; closed %zu/%zu leak(s); settled by %s\n",
                V.restoredSct() ? "secure" : "still LEAKS", V.closedCount(),
                V.Leaks.size(), SettledBy);
    for (const LeakClosure &L : V.Leaks)
      std::printf("  leak at pc %u: %s%s\n", L.Origin,
                  L.Closed ? "closed" : "OPEN",
                  L.ReplayPredictsOpen ? " (witness still replays)" : "");
    return V.restoredSct() ? 0 : 1;
  }

  SequentialCtReport Seq = checkSequentialCt(Prog);
  std::printf("sequential constant-time: %s\n",
              Seq.secure() ? "yes" : "VIOLATION");
  for (const Observation &O : Seq.Leaks)
    std::printf("  sequential leak: %s\n", O.str().c_str());
  if (SeqOnly)
    return Seq.secure() ? 0 : 1;

  CheckSession Session(SA.Opts);
  CheckRequest Req;
  Req.Id = Argv[1];
  Req.Prog = Prog;
  Req.Opts = Opts;
  CheckResult Check = Session.check(Req);
  // The hit/miss line goes to stderr: stdout must stay byte-identical
  // between a cold audit and its warm re-run (the cache-smoke contract).
  if (Session.cache())
    std::fprintf(stderr, "cache: %s\n", Check.FromCache ? "hit" : "miss");
  if (Check.Sps) {
    const SpsReport &S = *Check.Sps;
    const char *V = S.Verdict == SpsVerdict::Proved ? "PROVED leak-free"
                    : S.Verdict == SpsVerdict::CounterExample
                        ? "COUNTEREXAMPLE"
                        : "inconclusive";
    std::printf("sps proof backend: %s (%llu tapes, %llu retires, %.3fs)%s%s\n",
                V, static_cast<unsigned long long>(S.TapesRun),
                static_cast<unsigned long long>(S.RetiresTotal), S.Seconds,
                S.Reason.empty() ? "" : " — ", S.Reason.c_str());
    for (const SpsCounterExample &CE : S.CounterExamples) {
      std::optional<std::string> L = Prog.labelAt(CE.Origin);
      std::printf("  sps counterexample at pc %u%s%s: %s%s\n", CE.Origin,
                  L ? "  ; " : "", L ? L->c_str() : "", CE.Obs.str().c_str(),
                  CE.Speculative ? " (speculative)" : " (architectural)");
    }
    if (S.conclusive())
      return S.proved() && Seq.secure() ? 0 : 1;
    std::printf("falling back to schedule exploration\n");
  }
  SctReport Report = toReport(Check);
  std::printf("%s", describeResult(Prog, Report.Exploration).c_str());
  std::printf("explored %llu steps in %.3fs (%u thread%s)\n",
              static_cast<unsigned long long>(Report.Exploration.TotalSteps),
              Report.Seconds, Check.Opts.Threads,
              Check.Opts.Threads == 1 ? "" : "s");
  if (Check.Opts.PruneSeen)
    std::printf("seen-state pruning dropped %llu convergent subtrees\n",
                static_cast<unsigned long long>(
                    Report.Exploration.PrunedNodes));
  if (Check.Opts.CollectStats && Report.Exploration.ConfigsForked) {
    const ExploreResult &Ex = Report.Exploration;
    double Factor = Ex.RobBytesCopied
                        ? double(Ex.RobBytesFlat) / double(Ex.RobBytesCopied)
                        : 0.0;
    std::printf("fork copies: %llu configuration(s), %llu ROB bytes moved "
                "(%llu flat-equivalent, %.1fx shared)\n",
                static_cast<unsigned long long>(Ex.ConfigsForked),
                static_cast<unsigned long long>(Ex.RobBytesCopied),
                static_cast<unsigned long long>(Ex.RobBytesFlat), Factor);
  }
  if (Report.Exploration.Stats) {
    // The blowup-diagnosis block (docs/WITNESSES.md "diagnosing budget
    // blowups"): which of table pressure, missed recurrence, or genuine
    // exponential growth is eating the budget.
    const ExploreStats &St = *Report.Exploration.Stats;
    double ProbeLen = St.Seen.Lookups
                          ? double(St.Seen.Probes) / double(St.Seen.Lookups)
                          : 0.0;
    uint64_t ForkTotal = St.ForkInsertNew + St.ForkInsertDup;
    std::printf("stats: seen table %llu states in %llu slots, %.2f probes"
                "/lookup over %llu lookups\n",
                static_cast<unsigned long long>(St.Seen.Entries),
                static_cast<unsigned long long>(St.Seen.Capacity), ProbeLen,
                static_cast<unsigned long long>(St.Seen.Lookups));
    std::printf("stats: fork filter %llu fresh / %llu duplicate (%.1f%% "
                "pruned); convergence %llu prunes / %llu checks\n",
                static_cast<unsigned long long>(St.ForkInsertNew),
                static_cast<unsigned long long>(St.ForkInsertDup),
                ForkTotal ? 100.0 * double(St.ForkInsertDup) /
                                double(ForkTotal)
                          : 0.0,
                static_cast<unsigned long long>(St.ConvergencePrunes),
                static_cast<unsigned long long>(St.ConvergenceChecks));
    std::printf("stats: distinct states per depth bucket (%zu directives "
                "each):\n", ExploreStats::DepthBucket);
    for (size_t B = 0; B < St.NewStatesPerDepth.size(); ++B)
      std::printf("  [%4zu..%4zu) %llu\n", B * ExploreStats::DepthBucket,
                  (B + 1) * ExploreStats::DepthBucket,
                  static_cast<unsigned long long>(St.NewStatesPerDepth[B]));
  }
  if (Check.Minimization)
    std::printf("witness minimization: %llu -> %llu directives over %zu "
                "witness(es), %llu replays%s\n",
                static_cast<unsigned long long>(
                    Check.Minimization->RawDirectives),
                static_cast<unsigned long long>(
                    Check.Minimization->MinimizedDirectives),
                Report.Exploration.Leaks.size(),
                static_cast<unsigned long long>(Check.Minimization->Replays),
                Check.Minimization->BudgetExhausted ? " (budget exhausted)"
                                                    : "");
  if (!Report.secure()) {
    Machine M(Prog);
    std::printf("\n%s", describeLeak(M, Configuration::initial(Prog),
                                     Report.Exploration.Leaks.front())
                            .c_str());
  }
  if (Validate && !Report.secure()) {
    Machine M(Prog);
    WitnessValidation V = validateWitnesses(M, Report.Exploration);
    std::printf("\ndifferential validation: %zu/%zu witnesses confirmed "
                "as concrete trace divergences\n",
                V.Confirmed, V.Checked);
  }
  return Report.secure() && Seq.secure() ? 0 : 1;
}
