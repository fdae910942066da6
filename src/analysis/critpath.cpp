#include "src/analysis/critpath.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "src/prof/prof.h"
#include "src/support/check.h"
#include "src/support/csv.h"
#include "src/support/str.h"

namespace zc::analysis {

namespace {

using trace::Event;
using trace::EventKind;
using trace::MessageRecord;

std::string seconds_str(double s) {
  std::ostringstream os;
  os.precision(17);
  os << s;
  return os.str();
}

std::string kind_key(PathSegment::Kind kind) {
  switch (kind) {
    case PathSegment::Kind::kCompute: return "compute";
    case PathSegment::Kind::kCallCpu: return "call_cpu";
    case PathSegment::Kind::kCallWait: return "call_wait";
    case PathSegment::Kind::kWire: return "wire";
    case PathSegment::Kind::kBarrier: return "barrier";
    case PathSegment::Kind::kUntracked: return "untracked";
  }
  return "?";
}

using ChanKey = std::tuple<std::int64_t, int, int>;

/// FIFO pairing state mirroring the Transport's per-channel arrival queues:
/// the k-th DN event on a channel consumed the k-th message sent on it.
struct Pairing {
  std::map<ChanKey, std::vector<std::size_t>> messages;  ///< indices, send order
  /// (proc, index-in-track) of a DN event -> its message index (or npos).
  std::map<std::pair<int, std::size_t>, std::size_t> dn_message;
  /// message index -> (src proc, index-in-track) of the SR that sent it.
  std::map<std::size_t, std::pair<int, std::size_t>> message_sr;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

Pairing build_pairing(const trace::Recorder& recorder) {
  Pairing p;
  const std::vector<MessageRecord>& msgs = recorder.messages();
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    p.messages[{msgs[i].chan, msgs[i].src, msgs[i].dst}].push_back(i);
  }
  std::map<ChanKey, std::size_t> dn_seen;
  std::map<ChanKey, std::size_t> sr_seen;
  for (int proc = 0; proc < recorder.procs(); ++proc) {
    const std::vector<Event>& track = recorder.events(proc);
    for (std::size_t i = 0; i < track.size(); ++i) {
      const Event& e = track[i];
      if (e.kind != EventKind::kCall) continue;
      const ChanKey key{e.chan, e.src, e.dst};
      if (e.call == ironman::IronmanCall::kDN) {
        const std::size_t k = dn_seen[key]++;
        const auto it = p.messages.find(key);
        p.dn_message[{proc, i}] =
            (it != p.messages.end() && k < it->second.size()) ? it->second[k] : Pairing::npos;
      } else if (e.call == ironman::IronmanCall::kSR) {
        const std::size_t k = sr_seen[key]++;
        const auto it = p.messages.find(key);
        if (it != p.messages.end() && k < it->second.size()) {
          p.message_sr[it->second[k]] = {proc, i};
        }
      }
    }
  }
  return p;
}

/// Per-processor barrier ordinals: every barrier records once on every
/// processor, so the k-th barrier event in each track is the same barrier.
std::vector<std::vector<std::size_t>> barrier_positions(const trace::Recorder& recorder) {
  std::vector<std::vector<std::size_t>> pos(static_cast<std::size_t>(recorder.procs()));
  for (int proc = 0; proc < recorder.procs(); ++proc) {
    const std::vector<Event>& track = recorder.events(proc);
    for (std::size_t i = 0; i < track.size(); ++i) {
      if (track[i].kind == EventKind::kBarrier) pos[static_cast<std::size_t>(proc)].push_back(i);
    }
  }
  return pos;
}

void finish_transfers(CriticalPathReport& report, const trace::Recorder& recorder,
                      const Pairing& pairing) {
  // Slack for every transfer with consumed messages, independent of the
  // walk: pair messages with their DN events and take the minimum idle gap
  // between arrival and the DN's begin.
  std::map<std::int64_t, PathTransfer> by_transfer;
  for (const PathSegment& seg : report.segments) {
    if (seg.transfer < 0) continue;
    if (seg.kind != PathSegment::Kind::kCallCpu && seg.kind != PathSegment::Kind::kCallWait &&
        seg.kind != PathSegment::Kind::kWire) {
      continue;
    }
    PathTransfer& t = by_transfer[seg.transfer];
    t.transfer = seg.transfer;
    t.path_seconds += seg.seconds();
    t.on_path = true;
  }

  const std::vector<MessageRecord>& msgs = recorder.messages();
  std::map<std::int64_t, double> min_slack;
  std::map<std::int64_t, long long> msg_count;
  for (int proc = 0; proc < recorder.procs(); ++proc) {
    const std::vector<Event>& track = recorder.events(proc);
    for (std::size_t i = 0; i < track.size(); ++i) {
      const auto it = pairing.dn_message.find({proc, i});
      if (it == pairing.dn_message.end() || it->second == Pairing::npos) continue;
      const MessageRecord& m = msgs[it->second];
      if (!m.consumed) continue;
      const double slack = std::max(0.0, track[i].t_begin - m.t_arrived);
      const auto [sit, inserted] = min_slack.emplace(m.transfer, slack);
      if (!inserted) sit->second = std::min(sit->second, slack);
      ++msg_count[m.transfer];
    }
  }
  for (const auto& [transfer, slack] : min_slack) {
    PathTransfer& t = by_transfer[transfer];
    t.transfer = transfer;
    t.slack_seconds = slack;
    t.messages = msg_count[transfer];
  }

  for (auto& [transfer, t] : by_transfer) {
    t.label = transfer < 0 ? "(untagged)" : recorder.transfer_label(transfer);
    report.transfers.push_back(std::move(t));
  }
  std::sort(report.transfers.begin(), report.transfers.end(),
            [](const PathTransfer& a, const PathTransfer& b) {
              if (a.path_seconds != b.path_seconds) return a.path_seconds > b.path_seconds;
              if (a.slack_seconds != b.slack_seconds) return a.slack_seconds < b.slack_seconds;
              return a.transfer < b.transfer;
            });
}

}  // namespace

CriticalPathReport compute_critical_path(const trace::Recorder& recorder) {
  ZC_PROF_SPAN("analysis/critpath");
  CriticalPathReport report;

  int start_proc = -1;
  for (int proc = 0; proc < recorder.procs(); ++proc) {
    const std::vector<Event>& track = recorder.events(proc);
    if (track.empty()) continue;
    if (track.back().t_end > report.makespan) {
      report.makespan = track.back().t_end;
      start_proc = proc;
    }
  }
  report.exact = recorder.dropped_events() == 0 && recorder.dropped_messages() == 0;
  if (start_proc < 0) return report;
  if (!report.exact) {
    // Capped detail buffers break the FIFO pairing; report totals only.
    finish_transfers(report, recorder, build_pairing(recorder));
    return report;
  }

  const Pairing pairing = build_pairing(recorder);
  const std::vector<std::vector<std::size_t>> barriers = barrier_positions(recorder);
  const std::vector<MessageRecord>& msgs = recorder.messages();
  const double eps = 1e-12 * std::max(1.0, report.makespan);

  // Backward walk state: per-proc scan index (time only decreases, so a
  // monotone cursor per processor is enough), plus per-proc barrier
  // ordinals consumed from the back.
  std::vector<std::size_t> idx(static_cast<std::size_t>(recorder.procs()));
  for (int proc = 0; proc < recorder.procs(); ++proc) {
    idx[static_cast<std::size_t>(proc)] = recorder.events(proc).size();
  }

  auto emit = [&report](PathSegment::Kind kind, int proc, double t0, double t1,
                        std::int64_t transfer = -1,
                        ironman::IronmanCall call = ironman::IronmanCall::kDR) {
    if (t1 - t0 <= 0.0) return;
    PathSegment seg;
    seg.kind = kind;
    seg.proc = proc;
    seg.transfer = transfer;
    seg.call = call;
    seg.t_begin = t0;
    seg.t_end = t1;
    report.segments.push_back(seg);
    switch (kind) {
      case PathSegment::Kind::kCompute: report.compute_seconds += t1 - t0; break;
      case PathSegment::Kind::kCallCpu: report.call_cpu_seconds += t1 - t0; break;
      case PathSegment::Kind::kCallWait: report.call_wait_seconds += t1 - t0; break;
      case PathSegment::Kind::kWire: report.wire_seconds += t1 - t0; break;
      case PathSegment::Kind::kBarrier: report.barrier_seconds += t1 - t0; break;
      case PathSegment::Kind::kUntracked: report.untracked_seconds += t1 - t0; break;
    }
  };

  int proc = start_proc;
  double t = report.makespan;
  // Every iteration either consumes one event from some track or closes an
  // untracked gap down to an event's end, so the walk is linear in events.
  const std::size_t max_iters = [&recorder] {
    std::size_t n = 16;
    for (int p = 0; p < recorder.procs(); ++p) n += 2 * recorder.events(p).size();
    return n;
  }();
  for (std::size_t iter = 0; t > eps && iter < max_iters; ++iter) {
    const std::vector<Event>& track = recorder.events(proc);
    std::size_t& i = idx[static_cast<std::size_t>(proc)];
    while (i > 0 && track[i - 1].t_begin >= t - eps) --i;
    if (i == 0) {
      emit(PathSegment::Kind::kUntracked, proc, 0.0, t);
      break;
    }
    const Event& e = track[i - 1];
    if (e.t_end < t - eps) {
      // Clock advanced without a record (scalar statement, loop bookkeeping).
      emit(PathSegment::Kind::kUntracked, proc, e.t_end, t);
      t = e.t_end;
      continue;
    }
    --i;  // consume e
    switch (e.kind) {
      case EventKind::kCompute:
        emit(PathSegment::Kind::kCompute, proc, e.t_begin, t);
        t = e.t_begin;
        break;
      case EventKind::kBarrier: {
        // This is proc's k-th barrier; the barrier ends when its latest
        // participant arrives — hop there.
        const std::vector<std::size_t>& own = barriers[static_cast<std::size_t>(proc)];
        const auto kit = std::find(own.begin(), own.end(), i);
        ZC_ASSERT(kit != own.end());
        const std::size_t k = static_cast<std::size_t>(kit - own.begin());
        int bind = proc;
        double bind_begin = e.t_begin;
        for (int p = 0; p < recorder.procs(); ++p) {
          const std::vector<std::size_t>& pos = barriers[static_cast<std::size_t>(p)];
          if (k >= pos.size()) continue;
          const Event& be = recorder.events(p)[pos[k]];
          if (be.t_begin > bind_begin) {
            bind_begin = be.t_begin;
            bind = p;
          }
        }
        emit(PathSegment::Kind::kBarrier, bind, bind_begin, t);
        if (bind != proc) {
          proc = bind;
          // Consume the binding proc's copy of this barrier so the scan
          // continues before it.
          idx[static_cast<std::size_t>(bind)] = barriers[static_cast<std::size_t>(bind)][k];
        }
        t = bind_begin;
        break;
      }
      case EventKind::kCall: {
        const double unblocked = std::min(e.t_unblocked, t);
        emit(PathSegment::Kind::kCallCpu, proc, unblocked, t, e.transfer, e.call);
        t = unblocked;
        if (e.t_unblocked - e.t_begin <= eps) break;
        std::size_t msg = Pairing::npos;
        if (e.call == ironman::IronmanCall::kDN) {
          const auto mit = pairing.dn_message.find({proc, i});
          if (mit != pairing.dn_message.end()) msg = mit->second;
        }
        if (msg != Pairing::npos && msgs[msg].t_arrived >= t - eps) {
          // The DN was bound by this message's transit: wire back to the
          // send, then continue on the source processor.
          const MessageRecord& m = msgs[msg];
          const double on_wire = std::min(m.t_on_wire, t);
          emit(PathSegment::Kind::kWire, m.src, on_wire, t, m.transfer);
          t = on_wire;
          proc = m.src;
        } else {
          // Gated SR (readiness), SV drain, or an unmatched DN: count the
          // wait against the transfer and keep walking this processor —
          // for barriers-backed readiness the chain rejoins at the barrier.
          emit(PathSegment::Kind::kCallWait, proc, e.t_begin, t, e.transfer, e.call);
          t = e.t_begin;
        }
        break;
      }
    }
  }

  std::reverse(report.segments.begin(), report.segments.end());
  finish_transfers(report, recorder, pairing);
  return report;
}

CriticalPathReport compute_critical_path(const trace::Recorder& recorder,
                                         const zir::Program& program,
                                         const comm::CommPlan& plan) {
  CriticalPathReport report = compute_critical_path(recorder);
  const std::map<std::int64_t, Anchor> anchors = plan_anchors(program, plan);
  for (PathTransfer& t : report.transfers) {
    if (const auto it = anchors.find(t.transfer); it != anchors.end()) t.anchor = it->second;
  }
  return report;
}

std::string CriticalPathReport::to_string(int top_n) const {
  std::ostringstream os;
  os << "critical path: makespan " << str::format_f(makespan * 1e3, 3) << " ms";
  if (!exact) {
    os << " (trace truncated: walk skipped, slack/totals only)\n";
  } else {
    os << " = compute " << str::format_f(compute_seconds * 1e3, 3) << " + call cpu "
       << str::format_f(call_cpu_seconds * 1e3, 3) << " + wait "
       << str::format_f(call_wait_seconds * 1e3, 3) << " + wire "
       << str::format_f(wire_seconds * 1e3, 3) << " + barrier "
       << str::format_f(barrier_seconds * 1e3, 3) << " + untracked "
       << str::format_f(untracked_seconds * 1e3, 3) << " ms over " << segments.size()
       << " segments\n";
  }
  std::size_t shown = transfers.size();
  if (top_n >= 0) shown = std::min(shown, static_cast<std::size_t>(top_n));
  for (std::size_t i = 0; i < shown; ++i) {
    const PathTransfer& t = transfers[i];
    os << "  #" << t.transfer;
    if (!t.label.empty()) os << " " << t.label;
    if (!t.anchor.proc.empty()) {
      os << " (" << t.anchor.proc;
      if (t.anchor.use_line > 0) os << ":" << t.anchor.use_line;
      os << ")";
    }
    os << ": " << str::format_f(t.path_seconds * 1e3, 3) << " ms on path, slack "
       << str::format_f(t.slack_seconds * 1e3, 3) << " ms, "
       << str::with_commas(t.messages) << " msgs" << (t.on_path ? "" : " (off path)") << "\n";
  }
  if (shown < transfers.size()) os << "  ... " << transfers.size() - shown << " more\n";
  return os.str();
}

std::string CriticalPathReport::to_csv() const {
  CsvWriter csv({"transfer", "label", "proc", "use_line", "path_seconds", "slack_seconds",
                 "messages", "on_path"});
  for (const PathTransfer& t : transfers) {
    csv.add_row({std::to_string(t.transfer), t.label, t.anchor.proc,
                 std::to_string(t.anchor.use_line), seconds_str(t.path_seconds),
                 seconds_str(t.slack_seconds), std::to_string(t.messages),
                 t.on_path ? "1" : "0"});
  }
  return csv.to_string();
}

json::Value CriticalPathReport::to_json(int top_n) const {
  json::Value v = json::Value::make_object();
  v["makespan_seconds"] = json::Value::make_num(makespan);
  v["exact"] = json::Value::make_bool(exact);
  json::Value by_kind = json::Value::make_object();
  by_kind[kind_key(PathSegment::Kind::kCompute)] = json::Value::make_num(compute_seconds);
  by_kind[kind_key(PathSegment::Kind::kCallCpu)] = json::Value::make_num(call_cpu_seconds);
  by_kind[kind_key(PathSegment::Kind::kCallWait)] = json::Value::make_num(call_wait_seconds);
  by_kind[kind_key(PathSegment::Kind::kWire)] = json::Value::make_num(wire_seconds);
  by_kind[kind_key(PathSegment::Kind::kBarrier)] = json::Value::make_num(barrier_seconds);
  by_kind[kind_key(PathSegment::Kind::kUntracked)] = json::Value::make_num(untracked_seconds);
  v["path_seconds_by_kind"] = std::move(by_kind);
  v["segments"] = json::Value::make_int(static_cast<long long>(segments.size()));
  std::size_t shown = transfers.size();
  if (top_n >= 0) shown = std::min(shown, static_cast<std::size_t>(top_n));
  v["truncated"] = json::Value::make_bool(shown < transfers.size());
  json::Value arr = json::Value::make_array();
  for (std::size_t i = 0; i < shown; ++i) {
    const PathTransfer& t = transfers[i];
    json::Value r = json::Value::make_object();
    r["transfer"] = json::Value::make_int(t.transfer);
    r["label"] = json::Value::make_str(t.label);
    if (!t.anchor.proc.empty()) {
      r["proc"] = json::Value::make_str(t.anchor.proc);
      r["block"] = json::Value::make_int(t.anchor.block);
      r["use_line"] = json::Value::make_int(t.anchor.use_line);
    }
    r["path_seconds"] = json::Value::make_num(t.path_seconds);
    r["slack_seconds"] = json::Value::make_num(t.slack_seconds);
    r["messages"] = json::Value::make_int(t.messages);
    r["on_path"] = json::Value::make_bool(t.on_path);
    arr.push_back(std::move(r));
  }
  v["transfers"] = std::move(arr);
  return v;
}

}  // namespace zc::analysis
