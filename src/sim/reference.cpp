#include "src/sim/reference.h"

#include <map>
#include <vector>

#include "src/support/check.h"
#include "src/support/diag.h"
#include "src/tseries/tseries.h"

namespace zc::sim::reference {

namespace {

/// One point-to-point message of a communication: the array slices it
/// carries and, between SR and DN, their captured values.
struct Message {
  struct Part {
    zir::ArrayId array;
    rt::Box box;
  };
  int src = 0;
  int dst = 0;
  long long bytes = 0;
  std::vector<Part> parts;
  std::vector<double> payload;
};

class Interpreter {
 public:
  Interpreter(const zir::Program& program, const comm::CommPlan& plan, RunConfig config)
      : s_(program, plan, std::move(config)) {}

  RunResult run() {
    exec_body(s_.program.proc(s_.program.entry()).body);
    ZC_ASSERT(in_flight_.empty());
    return s_.finish();
  }

 private:
  void exec_body(const std::vector<zir::StmtId>& body);
  void exec_block(const comm::BlockPlan& block);
  void exec_stmt(zir::StmtId sid);
  void exec_array_assign(const zir::Stmt& stmt);
  void exec_scalar_assign(const zir::Stmt& stmt);
  void charge_compute(int proc, const zir::Stmt& stmt, long long elems);
  void bump_all(double amount);

  [[nodiscard]] std::vector<Message> messages_for(const comm::BlockPlan& block,
                                                  const comm::CommGroup& group) const;
  void comm_dr(const comm::BlockPlan& block, const comm::CommGroup& group);
  void comm_sr(const comm::CommGroup& group);
  void comm_dn(const comm::CommGroup& group);
  void comm_sv(const comm::CommGroup& group);

  SimState s_;
  /// The messages of every communication between its DR and its SV, by
  /// group id.
  std::map<int, std::vector<Message>> in_flight_;
};

void Interpreter::exec_body(const std::vector<zir::StmtId>& body) {
  std::size_t i = 0;
  while (i < body.size()) {
    const zir::Stmt& s = s_.program.stmt(body[i]);
    if (s.kind == zir::Stmt::Kind::kArrayAssign || s.kind == zir::Stmt::Kind::kScalarAssign) {
      const comm::BlockPlan* bp = s_.plan.find_block(body[i]);
      ZC_ASSERT(bp != nullptr);  // every assign run starts a planned block
      exec_block(*bp);
      i += bp->stmts.size();
      continue;
    }
    exec_stmt(body[i]);
    ++i;
  }
}

void Interpreter::exec_block(const comm::BlockPlan& block) {
  // Call-slot order at each insertion point: DR then SR (receive-side setup
  // and sends), then DN then SV (completions) — matching the paper's
  // DR/SR/DN/SV listing for co-located calls and deadlock-free for
  // pipelined ones (all sends precede all receives at a point).
  const int n = static_cast<int>(block.stmts.size());
  for (int pos = 0; pos <= n; ++pos) {
    for (const comm::CommGroup& g : block.groups) {
      if (g.dr_pos == pos) comm_dr(block, g);
    }
    for (const comm::CommGroup& g : block.groups) {
      if (g.sr_pos == pos) comm_sr(g);
    }
    for (const comm::CommGroup& g : block.groups) {
      if (g.dn_pos == pos) comm_dn(g);
    }
    for (const comm::CommGroup& g : block.groups) {
      if (g.sv_pos == pos) comm_sv(g);
    }
    if (pos < n) exec_stmt(block.stmts[pos]);
  }
}

void Interpreter::exec_stmt(zir::StmtId sid) {
  const zir::Stmt& s = s_.program.stmt(sid);
  switch (s.kind) {
    case zir::Stmt::Kind::kArrayAssign:
      exec_array_assign(s);
      return;
    case zir::Stmt::Kind::kScalarAssign:
      exec_scalar_assign(s);
      return;
    case zir::Stmt::Kind::kFor: {
      const long long lo = s.lo.eval(s_.env);
      const long long hi = s.hi.eval(s_.env);
      const std::size_t v = s.loop_var.index();
      const bool was_bound = s_.env.loop_bound[v];
      const long long old_value = s_.env.loop_values[v];
      s_.env.loop_bound[v] = true;
      for (long long i = lo; s.step > 0 ? i <= hi : i >= hi; i += s.step) {
        s_.env.loop_values[v] = i;
        bump_all(s_.config.machine.scalar_stmt_time);  // loop bookkeeping
        exec_body(s.body);
      }
      s_.env.loop_bound[v] = was_bound;
      s_.env.loop_values[v] = old_value;
      return;
    }
    case zir::Stmt::Kind::kIf: {
      const double cond = s_.evaluator.eval_scalar(s_.context_for(0), s.cond, {});
      bump_all(s_.config.machine.scalar_stmt_time);
      exec_body(cond != 0.0 ? s.body : s.else_body);
      return;
    }
    case zir::Stmt::Kind::kCall:
      exec_body(s_.program.proc(s.callee).body);
      return;
  }
}

void Interpreter::exec_array_assign(const zir::Stmt& stmt) {
  const rt::Box region = rt::eval_region(*stmt.region, s_.env);
  if (region.empty()) return;
  if (!s_.declared[stmt.lhs_array.index()].contains(region)) {
    throw Error("statement region " + region.to_string() + " exceeds the declared region of '" +
                s_.program.array(stmt.lhs_array).name + "'");
  }
  for (int proc = 0; proc < s_.mesh.procs(); ++proc) {
    rt::LocalArray& lhs = s_.arrays[proc][stmt.lhs_array.index()];
    if (lhs.owned().empty()) continue;
    const rt::Box local = region.intersect(lhs.owned());
    if (local.empty()) continue;
    rt::EvalContext ctx = s_.context_for(proc);
    ctx.box = local;
    std::vector<double> values;
    s_.evaluator.eval_vector(ctx, stmt.rhs, values);
    lhs.write_box(local, values.data());
    charge_compute(proc, stmt, local.count());
  }
}

void Interpreter::exec_scalar_assign(const zir::Stmt& stmt) {
  const std::vector<zir::ReduceOp> ops = s_.evaluator.reduce_ops(stmt.rhs);
  if (ops.empty()) {
    s_.scalars[stmt.lhs_scalar.index()] = s_.evaluator.eval_scalar(s_.context_for(0), stmt.rhs, {});
    bump_all(s_.config.machine.scalar_stmt_time);
    return;
  }

  ZC_ASSERT(stmt.region.has_value());
  const rt::Box region = rt::eval_region(*stmt.region, s_.env);
  std::vector<double> global;
  for (const zir::ReduceOp op : ops) global.push_back(rt::reduce_identity(op));
  for (int proc = 0; proc < s_.mesh.procs(); ++proc) {
    // Crop the owned box to the region's rank (a rank-2 reduction in a
    // rank-3 program reduces over dims 0 and 1 only).
    rt::Box owned = s_.dist.owned(proc);
    owned.rank = region.rank;
    for (int d = s_.dist.space().rank; d < region.rank; ++d) {
      owned.lo[d] = region.lo[d];
      owned.hi[d] = region.hi[d];
    }
    const rt::Box local = region.intersect(owned);
    rt::EvalContext ctx = s_.context_for(proc);
    ctx.box = local;
    std::vector<double> partials;
    s_.evaluator.eval_reduce_partials(ctx, stmt.rhs, partials);
    for (std::size_t k = 0; k < ops.size(); ++k) {
      global[k] = rt::reduce_combine(ops[k], global[k], partials[k]);
    }
    if (!local.empty()) charge_compute(proc, stmt, local.count());
  }

  // Combine across processors: a log-tree allreduce that synchronizes all
  // clocks (reductions are ZPL primitives outside the optimized
  // point-to-point communication; counted separately).
  s_.allreduce_clocks(s_.config.machine.reduce_stage_overhead);
  ++s_.reduction_count;
  s_.scalars[stmt.lhs_scalar.index()] =
      s_.evaluator.eval_scalar(s_.context_for(0), stmt.rhs, global);
}

/// Advances `proc`'s clock by the cost model's price for `elems` elements of
/// `stmt`: a fixed overhead plus per-element flops and memory traffic.
void Interpreter::charge_compute(int proc, const zir::Stmt& stmt, long long elems) {
  const machine::MachineModel& m = s_.config.machine;
  const int flops = zir::count_flops(s_.program, stmt.rhs);
  const int arrays_touched =
      static_cast<int>(zir::collect_arrays_read(s_.program, stmt.rhs).size()) + 1;
  const double t0 = s_.clocks[proc];
  s_.clocks[proc] += m.stmt_overhead + static_cast<double>(elems) *
                                           (flops * m.flop_time + arrays_touched * m.elem_mem_time);
  if (s_.config.recorder != nullptr) {
    s_.config.recorder->record_compute(proc, elems, t0, s_.clocks[proc]);
  }
  if (s_.config.timeline != nullptr) s_.config.timeline->add_compute(proc, t0, s_.clocks[proc]);
}

void Interpreter::bump_all(double amount) {
  for (double& c : s_.clocks) c += amount;
}

std::vector<Message> Interpreter::messages_for(const comm::BlockPlan& block,
                                               const comm::CommGroup& group) const {
  const std::vector<int>& offsets = s_.program.direction(group.direction).offsets;
  std::vector<Message> msgs;  // one per (src, dst), in order of first appearance
  const auto message = [&msgs](int src, int dst) -> Message& {
    for (Message& msg : msgs) {
      if (msg.src == src && msg.dst == dst) return msg;
    }
    Message& msg = msgs.emplace_back();
    msg.src = src;
    msg.dst = dst;
    return msg;
  };

  for (const comm::Member& m : group.members) {
    const zir::Stmt& use = s_.program.stmt(block.stmts[m.use_stmt]);
    ZC_ASSERT(use.region.has_value());
    const rt::Box region = rt::eval_region(*use.region, s_.env);
    const rt::Box& declared = s_.declared[m.array.index()];
    if (region.empty()) continue;

    for (int dst = 0; dst < s_.mesh.procs(); ++dst) {
      const rt::Box& owned_dst = s_.arrays[dst][m.array.index()].owned();
      if (owned_dst.empty()) continue;
      const rt::Box use_local = region.intersect(owned_dst);
      if (use_local.empty()) continue;
      const rt::Box needed = use_local.shifted(offsets).intersect(declared);
      for (const rt::Box& piece : needed.subtract(owned_dst)) {
        for (int src : s_.dist.owners(piece)) {
          if (src == dst) continue;
          const rt::Box slice = piece.intersect(s_.arrays[src][m.array.index()].owned());
          if (slice.empty()) continue;
          Message& msg = message(src, dst);
          msg.parts.push_back({m.array, slice});
          msg.bytes += slice.count() * static_cast<long long>(sizeof(double));
        }
      }
    }
  }
  return msgs;
}

void Interpreter::comm_dr(const comm::BlockPlan& block, const comm::CommGroup& group) {
  const auto [it, inserted] = in_flight_.emplace(group.id, messages_for(block, group));
  ZC_ASSERT(inserted);  // at most one outstanding execution per group
  const std::vector<Message>& msgs = it->second;

  // The paper's dynamic count: the number of communications (IRONMAN call
  // sets) the SPMD program executes. Every processor runs the same calls,
  // so the count is a program property; per-processor counters additionally
  // record which executions actually moved data through each processor.
  ++s_.dynamic_count;
  std::vector<bool> participated(static_cast<std::size_t>(s_.mesh.procs()), false);
  for (const Message& msg : msgs) {
    participated[static_cast<std::size_t>(msg.src)] = true;
    participated[static_cast<std::size_t>(msg.dst)] = true;
  }
  for (int proc = 0; proc < s_.mesh.procs(); ++proc) {
    if (participated[static_cast<std::size_t>(proc)]) ++s_.counters[proc].communications;
  }

  s_.transport.set_transfer(group.transfer_id);
  if (s_.transport.dr_is_global_synch()) {
    // SHMEM prototype: the DR synch is a global barrier executed by every
    // processor, with data to move or not — the heavyweight behaviour the
    // paper blames for TOMCATV's and SP's SHMEM slowdowns.
    s_.transport.global_synch(s_.clocks);
    for (const Message& msg : msgs) {
      s_.transport.post_readiness(group.id, msg.src, msg.dst, s_.clocks[msg.dst]);
    }
    return;
  }
  for (const Message& msg : msgs) {
    s_.transport.dr(group.id, msg.src, msg.dst, msg.bytes, s_.clocks[msg.dst]);
  }
}

void Interpreter::comm_sr(const comm::CommGroup& group) {
  s_.transport.set_transfer(group.transfer_id);
  for (Message& msg : in_flight_.at(group.id)) {
    // Capture the payload now: pipelining is only correct if the data at SR
    // equals the data at use, which the optimizer's legality rules
    // guarantee — and the golden tests verify.
    for (const Message::Part& part : msg.parts) {
      const std::size_t at = msg.payload.size();
      msg.payload.resize(at + static_cast<std::size_t>(part.box.count()));
      s_.arrays[msg.src][part.array.index()].read_box(part.box, msg.payload.data() + at);
    }
    s_.transport.sr(group.id, msg.src, msg.dst, msg.bytes, s_.clocks[msg.src]);
    ++s_.counters[msg.src].messages_sent;
    s_.counters[msg.src].bytes_sent += msg.bytes;
  }
}

void Interpreter::comm_dn(const comm::CommGroup& group) {
  s_.transport.set_transfer(group.transfer_id);
  for (const Message& msg : in_flight_.at(group.id)) {
    s_.transport.dn(group.id, msg.src, msg.dst, msg.bytes, s_.clocks[msg.dst]);
    std::size_t at = 0;
    for (const Message::Part& part : msg.parts) {
      s_.arrays[msg.dst][part.array.index()].write_box(part.box, msg.payload.data() + at);
      at += static_cast<std::size_t>(part.box.count());
    }
    ++s_.counters[msg.dst].messages_received;
    s_.counters[msg.dst].bytes_received += msg.bytes;
  }
}

void Interpreter::comm_sv(const comm::CommGroup& group) {
  const auto it = in_flight_.find(group.id);
  ZC_ASSERT(it != in_flight_.end());
  s_.transport.set_transfer(group.transfer_id);
  for (const Message& msg : it->second) {
    s_.transport.sv(group.id, msg.src, msg.dst, msg.bytes, s_.clocks[msg.src]);
  }
  in_flight_.erase(it);
}

}  // namespace

RunResult run_program(const zir::Program& program, const comm::CommPlan& plan, RunConfig config) {
  return Interpreter(program, plan, std::move(config)).run();
}

}  // namespace zc::sim::reference
