//===- engine/SessionArgs.cpp - Declarative session flag table --------------===//

#include "engine/SessionArgs.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

using namespace sct;

uint64_t sct::parseInteger(const char *V, uint64_t Min, uint64_t Max) {
  uint64_t N = 0;
  const char *End = V + std::strlen(V);
  auto [Ptr, Ec] = std::from_chars(V, End, N);
  if (Ec != std::errc() || Ptr != End || N < Min || N > Max)
    throw std::invalid_argument(std::string("invalid value '") + V +
                                "' (expected an integer in [" +
                                std::to_string(Min) + ", " +
                                std::to_string(Max) + "])");
  return N;
}

namespace {

/// Thread counts above this are typos (or a negative number read as
/// unsigned), not budgets: each one spawns an OS thread.
constexpr uint64_t MaxWorkers = 1024;

unsigned asWorkers(const char *V) {
  return static_cast<unsigned>(parseInteger(V, 0, MaxWorkers));
}
/// A work budget: 0 would do no work at all (no replay, no tape).
uint64_t asBudget(const char *V) {
  return parseInteger(V, 1, std::numeric_limits<uint64_t>::max());
}

// The one place a session flag is declared.  Rows parse *and* document:
// sessionFlagsHelp() renders Name/Arg/Doc, parseSessionArgs dispatches to
// Apply.  Keep Doc to one line — it becomes one help row.
constexpr SessionFlag Flags[] = {
    {"--threads", "N", "engine worker threads (default: hardware concurrency)",
     [](SessionOptions &O, const char *V) { O.Threads = asWorkers(V); }},
    {"--prune-seen", nullptr, "enable seen-state pruning (the default)",
     [](SessionOptions &O, const char *) { O.DefaultOpts.PruneSeen = true; }},
    {"--no-prune-seen", nullptr, "disable cross-schedule seen-state pruning",
     [](SessionOptions &O, const char *) { O.DefaultOpts.PruneSeen = false; }},
    {"--minimize-witnesses", nullptr,
     "delta-debug witnesses to minimal attack schedules",
     [](SessionOptions &O, const char *) {
       O.Passes.MinimizeWitnesses = true;
     }},
    {"--minimize-budget", "N", "replays spent minimizing each witness",
     [](SessionOptions &O, const char *V) {
       O.Passes.Minimize.MaxReplays = asBudget(V);
     }},
    {"--minimize-threads", "N",
     "minimization worker threads (0 = the check's frontier share)",
     [](SessionOptions &O, const char *V) {
       O.Passes.Minimize.Threads = asWorkers(V);
     }},
    {"--prove-sps", nullptr,
     "try the SPS proof backend first; conclusive verdicts skip exploring",
     [](SessionOptions &O, const char *) { O.Passes.ProveSps = true; }},
    {"--sps-max-tapes", "N", "oracle-tape budget for --prove-sps",
     [](SessionOptions &O, const char *V) {
       O.Passes.Sps.MaxTapes = asBudget(V);
     }},
    {"--cache-dir", "DIR",
     "persistent result cache: serve unchanged checks from DIR",
     [](SessionOptions &O, const char *V) { O.CacheDir = V; }},
};

} // namespace

std::span<const SessionFlag> sct::sessionFlags() { return Flags; }

SessionArgs sct::parseSessionArgs(int Argc, char **Argv) {
  SessionArgs Parsed;
  Parsed.Opts.Threads = std::thread::hardware_concurrency();
  Parsed.Consumed.assign(static_cast<size_t>(Argc < 0 ? 0 : Argc), false);
  for (int I = 1; I < Argc; ++I) {
    for (const SessionFlag &F : Flags) {
      if (std::strcmp(Argv[I], F.Name) != 0)
        continue;
      if (F.Arg) {
        if (I + 1 >= Argc)
          throw std::invalid_argument(std::string(F.Name) + ": missing value " +
                                      F.Arg);
        Parsed.Consumed[static_cast<size_t>(I)] = true;
        ++I;
        try {
          F.Apply(Parsed.Opts, Argv[I]);
        } catch (const std::invalid_argument &E) {
          throw std::invalid_argument(std::string(F.Name) + ": " + E.what());
        }
      } else {
        F.Apply(Parsed.Opts, nullptr);
      }
      Parsed.Consumed[static_cast<size_t>(I)] = true;
      break;
    }
  }
  return Parsed;
}

std::string sct::sessionFlagsHelp() {
  // Align the doc column on the widest "--flag ARG" spelling.
  size_t Widest = 0;
  for (const SessionFlag &F : Flags) {
    size_t W = std::strlen(F.Name) + (F.Arg ? 1 + std::strlen(F.Arg) : 0);
    Widest = std::max(Widest, W);
  }
  std::string Out;
  for (const SessionFlag &F : Flags) {
    std::string Head = F.Name;
    if (F.Arg) {
      Head += ' ';
      Head += F.Arg;
    }
    Out += "  " + Head + std::string(Widest + 2 - Head.size(), ' ') +
           F.Doc + "\n";
  }
  return Out;
}

SessionOptions sct::sessionOptionsFromArgs(int Argc, char **Argv) {
  try {
    return parseSessionArgs(Argc, Argv).Opts;
  } catch (const std::invalid_argument &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    std::exit(2);
  }
}
