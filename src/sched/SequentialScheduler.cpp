//===- sched/SequentialScheduler.cpp - Canonical sequential runs ------------===//

#include "sched/SequentialScheduler.h"

using namespace sct;

namespace {

/// Records every step into the result's schedule and trace.
struct TraceRecorder {
  SequentialResult &R;

  void boundary(const Configuration &, size_t) {}
  void applied(const Directive &D, const StepOutcome &Out, PC) {
    R.Sched.push_back(D);
    R.Run.Trace.push_back({D, Out.Obs, Out.Rule});
  }
};

} // namespace

SequentialResult sct::runSequential(const Machine &M, Configuration Init,
                                    size_t MaxRetires) {
  SequentialResult R;
  R.Run.Final = std::move(Init);
  TraceRecorder Rec{R};
  std::string Why;
  switch (driveSequential(M, R.Run.Final, R.Run.Retires, MaxRetires, Rec,
                          Why)) {
  case SeqEnd::Final:
    break;
  case SeqEnd::HitBound:
    R.HitBound = true;
    break;
  case SeqEnd::Stuck:
    R.Run.Stuck = true;
    R.Run.StuckAt = R.Sched.size();
    R.Run.StuckReason = std::move(Why);
    break;
  }
  return R;
}
