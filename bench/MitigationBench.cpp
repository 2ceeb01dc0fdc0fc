//===- bench/MitigationBench.cpp - Mitigation engine ablation ---------------===//
//
// The §3.6 / Appendix A.2 countermeasures run through the mitigation
// engine (engine/MitigationSession.h) over the leaky suite programs:
// which mitigation closes which leaks, at what placement cost
// (instructions added, sequential-schedule growth), and how far the
// minimal-fence-placement search shrinks the blanket policy.  Every
// re-check runs the SPS proof first and explores only on Inconclusive
// (the v4-mode groups).  The output has no wall-clock fields, so
// tests/golden/MitigationBench.txt pins it byte for byte.
//
//   MitigationBench [--threads N] [--quick]
//
// --quick restricts to the first 8 Kocher cases + the v2 figure (the CI
// smoke).
//
//===----------------------------------------------------------------------===//

#include "checker/Retpoline.h"
#include "checker/SctChecker.h"
#include "engine/MitigationSession.h"
#include "engine/SessionArgs.h"
#include "support/Printing.h"
#include "workloads/CryptoLibs.h"
#include "workloads/Figures.h"
#include "workloads/Kocher.h"
#include "workloads/SpectreSuites.h"

#include <cstdio>
#include <cstring>

using namespace sct;

namespace {

struct PlacementTally {
  unsigned LeakyCases = 0;
  unsigned StrictlyFewer = 0;
  unsigned Restored = 0;
};

void reportGroup(const MitigationSession &MS, const char *Title,
                 const std::vector<SuiteCase> &Cases, FencePolicy Policy,
                 const ExplorerOptions &Mode, PlacementTally &Tally,
                 bool Quick) {
  std::printf("%s\n", Title);
  std::vector<std::vector<std::string>> Table;
  unsigned Done = 0;
  for (const SuiteCase &C : Cases) {
    if (Quick && Done >= 8)
      continue;
    ++Done;
    MitigationReport Rep = MS.run(C.Prog, Mode, FenceInsertion(Policy));
    if (Rep.Baseline.secure())
      continue; // Only ablate the leaky ones.
    FencePlacementOptions FOpts;
    FOpts.Blanket = Policy;
    // Hand the placement search the baseline run() just produced so the
    // schedule tree is explored once per case, not twice.
    FencePlacementResult FP = MS.minimizeFencePlacement(
        C.Prog, Mode, FOpts, MachineOptions{}, &Rep.Baseline);
    const MitigationVariant &V = Rep.Variants.front();
    if (!V.applied()) {
      Table.push_back({C.Id, "not relocatable", "-", "-", "-", "-"});
      continue;
    }
    ++Tally.LeakyCases;
    Tally.Restored += FP.RestoredSct;
    Tally.StrictlyFewer += FP.RestoredSct && FP.Sites.size() < FP.BlanketSites;

    double Overhead =
        Rep.SeqStepsBaseline
            ? 100.0 * (double(V.SeqSteps) - double(Rep.SeqStepsBaseline)) /
                  double(Rep.SeqStepsBaseline)
            : 0.0;
    char OverheadBuf[32];
    std::snprintf(OverheadBuf, sizeof(OverheadBuf), "%.1f%%", Overhead);
    char Closed[32];
    std::snprintf(Closed, sizeof(Closed), "%zu/%zu", V.closedCount(),
                  V.Leaks.size());
    char Minimal[48];
    if (FP.RestoredSct)
      std::snprintf(Minimal, sizeof(Minimal), "%zu of %zu (%u checks)",
                    FP.Sites.size(), FP.BlanketSites, FP.ChecksSpent);
    else
      std::snprintf(Minimal, sizeof(Minimal), "blanket insufficient");
    Table.push_back({C.Id, V.restoredSct() ? "secure" : "still LEAKS",
                     Closed, std::to_string(V.Cost.FencesAdded), OverheadBuf,
                     Minimal});
  }
  std::printf("%s\n",
              renderTable({"case", "after fencing", "closed", "fences",
                           "overhead", "minimal fences"},
                          Table)
                  .c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (!std::strcmp(Argv[I], "--help") || !std::strcmp(Argv[I], "-h")) {
      std::printf("usage: %s [session flags]\n%s", Argv[0],
                  sct::sessionFlagsHelp().c_str());
      return 0;
    }
  bool Quick = false;
  for (int I = 1; I < Argc; ++I)
    if (!std::strcmp(Argv[I], "--quick"))
      Quick = true;
  MitigationSession MS(sessionOptionsFromArgs(Argc, Argv));
  std::printf("engine: %u worker thread(s)\n\n",
              MS.session().options().Threads);

  PlacementTally Tally;
  reportGroup(MS,
              "Fences at branch targets vs the Kocher v1 suite "
              "(§3.6, Figure 8):",
              kocherCases(), FencePolicy::BranchTargets, v1v11Mode(), Tally,
              Quick);
  if (!Quick) {
    reportGroup(MS, "Fences at branch targets vs the v1.1 suite:",
                spectreV11Cases(), FencePolicy::BranchTargets, v1v11Mode(),
                Tally, Quick);
    reportGroup(MS, "Fences after stores vs the v4 suite:", spectreV4Cases(),
                FencePolicy::AfterStores, v4Mode(), Tally, Quick);
    reportGroup(MS,
                "Fences (branches+stores) vs the Table 2 crypto models, "
                "v4 mode:",
                cryptoCases(), FencePolicy::BranchTargetsAndStores, v4Mode(),
                Tally, Quick);
  }
  std::printf("minimal fence placement: restored SCT on %u/%u leaky "
              "case(s); strictly fewer fences than the blanket on %u\n\n",
              Tally.Restored, Tally.LeakyCases, Tally.StrictlyFewer);

  // Retpoline vs the Figure 11 v2 gadget (fences provably do not help —
  // the figure's point — but the retpoline does).
  FigureCase V2 = figure11();
  MitigationReport FenceRep = MS.run(
      V2.Prog, V2.CheckOpts, FenceInsertion(FencePolicy::BranchTargetsAndStores));
  Retpoline Retp({}, {*V2.Prog.regByName("rb")});
  MitigationReport RetpRep = MS.run(V2.Prog, V2.CheckOpts, Retp);
  std::printf("Spectre v2 (Figure 11 gadget):\n");
  std::printf("  unmitigated:        %s\n",
              FenceRep.Baseline.secure() ? "secure" : "LEAKS");
  const MitigationVariant &FV = FenceRep.Variants.front();
  std::printf("  fences everywhere:  %s   (%u applicable fence sites — "
              "fences cannot stop mistrained indirect jumps)\n",
              FV.restoredSct() ? "secure" : "still LEAKS", FV.Cost.Sites);
  const MitigationVariant &RV = RetpRep.Variants.front();
  if (RV.applied())
    std::printf("  retpoline:          %s   (+%u instructions, closed "
                "%zu/%zu)\n",
                RV.restoredSct() ? "secure" : "still LEAKS",
                RV.Cost.InstructionsAdded, RV.closedCount(), RV.Leaks.size());
  else
    std::printf("  retpoline:          refused (%s)\n",
                RV.Error->Message.c_str());
  return 0;
}
