// Critical-path analysis over a recorded trace: the longest chain of
// simulated dependences that determines the run's finish time, and how much
// of it each communication occupies.
//
// The engine's timing (the reference interpreter emits a bit-identical
// trace) is a constraint system — compute spans and
// IRONMAN CPU costs advance one processor's clock, messages carry time
// across processors (a DN that waited was bound by its message's wire
// transit, which was bound by the SR that sent it), and barriers bind every
// clock to the latest participant. The walk starts at the event with the
// latest end time and follows the binding constraint backward:
//
//   call CPU span      -> continue on the same processor at t_unblocked
//   DN with wait > 0   -> the message's wire transit, then hop to the
//                         sending SR (messages pair with DN events FIFO per
//                         channel (chan, src, dst), mirroring the
//                         Transport's arrival queues)
//   SR/SV with wait    -> a wait segment (gated send / drain), same proc
//   barrier            -> hop to the binding participant (latest t_begin
//                         of the k-th barrier across processors)
//   gap between events -> untracked (scalar statements and loop
//                         bookkeeping advance clocks without records)
//
// Per-transfer slack is the dual: the minimum over a transfer's messages of
// how long each sat consumed-ready before its DN began. Zero slack means
// some message bound its receiver — more pipelining distance could pay;
// positive slack means the transfer's wire time was fully hidden with
// margin.
//
// The walk needs the detailed event buffers; when the recorder dropped
// records at a cap the FIFO pairing loses alignment, so the report
// degrades honestly: `exact` turns false and only the totals survive.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/blame.h"
#include "src/support/json.h"
#include "src/trace/recorder.h"

namespace zc::analysis {

/// One hop of the critical path (chronological after the walk reverses).
struct PathSegment {
  enum class Kind {
    kCompute,    ///< array-statement local work
    kCallCpu,    ///< software overhead inside an IRONMAN call
    kCallWait,   ///< blocked inside SR/SV (gated send, drain) — on-proc wait
    kWire,       ///< message transit binding a DN
    kBarrier,    ///< global synch / reduction combine
    kUntracked,  ///< clock advance with no event (scalar statements)
  };
  Kind kind = Kind::kUntracked;
  int proc = -1;                ///< owning processor (source proc for kWire)
  std::int64_t transfer = -1;   ///< for kCallCpu/kCallWait/kWire
  ironman::IronmanCall call = ironman::IronmanCall::kDR;  ///< kCallCpu/kCallWait
  double t_begin = 0.0;
  double t_end = 0.0;

  [[nodiscard]] double seconds() const { return t_end - t_begin; }
};

/// One communication's presence on the path, plus its scheduling slack.
struct PathTransfer {
  std::int64_t transfer = -1;
  std::string label;
  Anchor anchor;               ///< filled when a plan was joined
  double path_seconds = 0.0;   ///< time on the critical path (cpu+wait+wire)
  double slack_seconds = 0.0;  ///< min over messages of (dn.t_begin - t_arrived)+
  long long messages = 0;      ///< consumed messages seen for this transfer
  bool on_path = false;
};

struct CriticalPathReport {
  double makespan = 0.0;  ///< latest event end (== elapsed minus untracked tail)
  bool exact = true;      ///< false when detail buffers were capped (no walk)

  std::vector<PathSegment> segments;  ///< chronological

  // Path time by kind (sums to makespan when exact).
  double compute_seconds = 0.0;
  double call_cpu_seconds = 0.0;
  double call_wait_seconds = 0.0;
  double wire_seconds = 0.0;
  double barrier_seconds = 0.0;
  double untracked_seconds = 0.0;

  /// Every transfer with consumed messages, path occupants first (sorted by
  /// path time descending, then slack ascending).
  std::vector<PathTransfer> transfers;

  [[nodiscard]] std::string to_string(int top_n = -1) const;
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] json::Value to_json(int top_n = -1) const;
};

/// Walks the recorded constraint chain. Labels come from the recorder.
[[nodiscard]] CriticalPathReport compute_critical_path(const trace::Recorder& recorder);

/// Same, with plan/source anchors joined onto the per-transfer rows.
[[nodiscard]] CriticalPathReport compute_critical_path(const trace::Recorder& recorder,
                                                       const zir::Program& program,
                                                       const comm::CommPlan& plan);

}  // namespace zc::analysis
