//===- engine/CheckSession.cpp - Unified analysis API -----------------------===//

#include "engine/CheckSession.h"

#include "engine/ResultCache.h"
#include "sched/WorkDeque.h"

#include <algorithm>
#include <chrono>

using namespace sct;

CheckSession::CheckSession(SessionOptions SOpts) : Opts(std::move(SOpts)) {
  if (this->Opts.Threads == 0)
    this->Opts.Threads = 1;
  if (!this->Opts.CacheDir.empty()) {
    auto C = std::make_unique<ResultCache>(this->Opts.CacheDir);
    if (C->ok())
      Cache = std::move(C);
  }
}

CheckSession::~CheckSession() = default;
CheckSession::CheckSession(CheckSession &&) noexcept = default;
CheckSession &CheckSession::operator=(CheckSession &&) noexcept = default;

CheckResult CheckSession::runOne(const CheckRequest &Req,
                                 unsigned FrontierThreads) const {
  CheckResult Res;
  Res.Id = Req.Id;
  Res.Opts = Req.Opts;
  // Request-pinned thread counts win; otherwise take the share the
  // session computed for this batch.
  if (Res.Opts.Threads == 0)
    Res.Opts.Threads = FrontierThreads ? FrontierThreads : 1;

  // The one resolution point: request-overrides-session (see
  // CheckRequest::resolved).  The cache fingerprint consumes the same
  // value.
  const PassConfig &Passes = Req.resolved(Opts);

  Machine M(Req.Prog, Req.MOpts);
  Configuration Init =
      Req.Init ? *Req.Init : Configuration::initial(Req.Prog);

  // SPS proof pass: a conclusive verdict (Proved / CounterExample over
  // the full tape tree) settles the request without exploring at all.
  // Custom initial configurations are excluded — the translation bakes
  // the program's own init lists into P̂'s canonical start state.
  if (Passes.ProveSps && !Req.Init) {
    auto T0 = std::chrono::steady_clock::now();
    Res.Sps = checkSps(Req.Prog, Res.Opts, Req.MOpts, Passes.Sps);
    auto T1 = std::chrono::steady_clock::now();
    Res.Seconds = std::chrono::duration<double>(T1 - T0).count();
    if (Res.Sps->conclusive())
      return Res;
    // Inconclusive: fall through to the ordinary exploration.
  }

  auto T0 = std::chrono::steady_clock::now();
  Res.Exploration = explore(M, Init, Res.Opts);
  auto T1 = std::chrono::steady_clock::now();
  // += so an inconclusive SPS pass's time stays on the bill.
  Res.Seconds += std::chrono::duration<double>(T1 - T0).count();

  // Witness minimization rides after exploration as a second parallel
  // phase: the raw prefixes stay in LeakRecord::Sched, the delta-debugged
  // schedules land in MinSched.  An unset minimizer thread count inherits
  // this check's frontier share, so one `--threads N` budget governs both
  // phases.
  if (Passes.MinimizeWitnesses) {
    MinimizeOptions MinOpts = Passes.Minimize;
    if (MinOpts.Threads == 0)
      MinOpts.Threads = Res.Opts.Threads ? Res.Opts.Threads : 1;
    Res.Minimization =
        minimizeWitnesses(M, Init, Res.Exploration.Leaks, MinOpts);
  }
  return Res;
}

CheckResult CheckSession::runOneCached(const CheckRequest &Req,
                                       unsigned FrontierThreads) const {
  if (!Cache)
    return runOne(Req, FrontierThreads);
  const PassConfig &Passes = Req.resolved(Opts);
  if (std::optional<CheckResult> Hit = Cache->lookupResult(Req, Passes)) {
    Hit->Id = Req.Id;
    Hit->FromCache = true;
    return std::move(*Hit);
  }
  CheckResult Res = runOne(Req, FrontierThreads);
  Cache->storeResult(Req, Passes, Res);
  return Res;
}

CheckResult CheckSession::check(const CheckRequest &Req) const {
  return runOneCached(Req, Opts.Threads);
}

CheckResult CheckSession::check(const Program &P) const {
  return check(P, Opts.DefaultOpts);
}

CheckResult CheckSession::check(const Program &P,
                                const ExplorerOptions &EOpts) const {
  CheckRequest Req;
  Req.Prog = P;
  Req.Opts = EOpts;
  Req.MOpts = Opts.DefaultMOpts;
  return check(Req);
}

std::vector<CheckResult>
CheckSession::checkMany(std::span<const CheckRequest> Reqs) const {
  std::vector<CheckResult> Results(Reqs.size());
  if (Reqs.empty())
    return Results;

  // Cache pass first, on the pool: an unchanged corpus audit is pure
  // lookups.  A hit is marked by its FromCache.
  if (Cache)
    forEachIndex(Reqs.size(), Opts.Threads, [&](size_t I, unsigned) {
      if (std::optional<CheckResult> Hit =
              Cache->lookupResult(Reqs[I], Reqs[I].resolved(Opts))) {
        Hit->Id = Reqs[I].Id;
        Hit->FromCache = true;
        Results[I] = std::move(*Hit);
      }
    });
  std::vector<size_t> Pending;
  Pending.reserve(Reqs.size());
  for (size_t I = 0; I < Reqs.size(); ++I)
    if (!Results[I].FromCache)
      Pending.push_back(I);
  if (Pending.empty())
    return Results;

  // Split the budget: program-level fan-out first, leftover threads go to
  // each program's frontier.
  unsigned PoolSize =
      static_cast<unsigned>(std::min<size_t>(Opts.Threads, Pending.size()));
  unsigned PerProgram = std::max(1u, Opts.Threads / PoolSize);
  forEachIndex(Pending.size(), Opts.Threads, [&](size_t N, unsigned) {
    size_t I = Pending[N];
    Results[I] = runOne(Reqs[I], PerProgram);
    if (Cache)
      Cache->storeResult(Reqs[I], Reqs[I].resolved(Opts), Results[I]);
  });
  return Results;
}

std::vector<CheckResult>
CheckSession::checkMany(std::span<const Program> Progs) const {
  std::vector<CheckRequest> Reqs;
  Reqs.reserve(Progs.size());
  for (size_t I = 0; I < Progs.size(); ++I) {
    CheckRequest Req;
    Req.Id = "program-" + std::to_string(I);
    Req.Prog = Progs[I];
    Req.Opts = Opts.DefaultOpts;
    Req.MOpts = Opts.DefaultMOpts;
    Reqs.push_back(std::move(Req));
  }
  return checkMany(std::span<const CheckRequest>(Reqs));
}
