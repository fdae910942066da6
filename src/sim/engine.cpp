// The event-driven engine: executes the compiled bytecode
// (src/sim/bytecode.h) over per-processor virtual clocks.
//
// Why one walker is exact. Mini-ZPL has no processor-divergent control
// flow, so every processor executes the same instruction sequence; the only
// per-processor divergence is in clock values and array contents. A single
// walker stepping the flat instruction stream in program order therefore
// reproduces the reference interpreter's global order of every observable
// call — transport DR/SR/DN/SV, recorder events, timeline events, compute
// hooks — exactly, not merely its aggregates. Per instruction it touches
// only the processors the instruction concerns (the statement's active set,
// a message's endpoints), which is what drops the per-statement cost from
// O(procs) to O(active).
//
// Why the clocks stay bit-identical. Uniform all-processor bumps (scalar
// statements, branches, loop bookkeeping) go through the deferred bump log,
// replayed per processor in the original order — float addition is not
// associative, so the amounts are never coalesced. Barriers (reductions,
// the SHMEM global synch) leave every clock equal, which both empties and
// compacts the log. DESIGN.md §15 states the full argument.
#include "src/sim/engine.h"

#include <algorithm>
#include <cstring>

#include "src/prof/prof.h"
#include "src/support/check.h"
#include "src/support/diag.h"
#include "src/tseries/tseries.h"

namespace zc::sim {

namespace {

/// Exact (bitwise) clock comparison: the pristine fast path must never
/// conflate 0.0 with -0.0 or otherwise round.
bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Compact the bump log once it holds this many deferred entries (replaying
/// everyone is O(procs + entries); the threshold just bounds memory and the
/// worst-case single replay).
constexpr std::size_t kBumpCompactThreshold = 1u << 16;

}  // namespace

Engine::Engine(const zir::Program& program, const comm::CommPlan& plan, RunConfig config)
    : st_(program, plan, std::move(config)) {}

RunResult Engine::run() {
  ZC_PROF_SPAN("sim/run");
  ZC_ASSERT(!ran_);
  ran_ = true;
  {
    ZC_PROF_SPAN("sim/compile");
    compiled_ = compile_sim(st_.program, st_.plan, st_.env, st_.config.machine);
    bump_cursor_.assign(static_cast<std::size_t>(st_.mesh.procs()), 0);
  }
  execute();
  return st_.finish();
}

// ---------------------------------------------------------------------------
// Deferred clock bumps.

void Engine::bump(double amount) {
  bump_log_.push_back(amount);
  if (bump_log_.size() >= kBumpCompactThreshold) compact_bumps();
}

void Engine::advance_pristine() {
  for (; pristine_len_ < bump_log_.size(); ++pristine_len_) {
    pristine_value_ += bump_log_[pristine_len_];
  }
}

void Engine::touch(int proc) {
  const std::size_t n = bump_log_.size();
  std::size_t& cur = bump_cursor_[static_cast<std::size_t>(proc)];
  if (cur == n) return;
  double& c = st_.clocks[static_cast<std::size_t>(proc)];
  if (cur == 0 && bits_equal(c, pristine_base_)) {
    // Untouched since the last barrier/compaction: every such processor
    // replays the identical prefix, memoized in pristine_value_.
    advance_pristine();
    c = pristine_value_;
    cur = n;
    return;
  }
  for (; cur < n; ++cur) c += bump_log_[cur];
}

void Engine::materialize_all() {
  for (int proc = 0; proc < st_.mesh.procs(); ++proc) touch(proc);
}

void Engine::compact_bumps() {
  materialize_all();
  bump_log_.clear();
  std::fill(bump_cursor_.begin(), bump_cursor_.end(), 0);
  // Processors that were pristine materialized to pristine_value_; rebasing
  // keeps them on the fast path.
  pristine_base_ = pristine_value_;
  pristine_len_ = 0;
}

void Engine::barrier_reset(double t) {
  bump_log_.clear();
  std::fill(bump_cursor_.begin(), bump_cursor_.end(), 0);
  pristine_base_ = t;
  pristine_value_ = t;
  pristine_len_ = 0;
}

// ---------------------------------------------------------------------------
// Statements.

void Engine::exec_assign(CompiledAssign& ca) {
  const zir::Stmt& stmt = *ca.stmt;
  const rt::Box region = ca.region_static ? ca.static_box : rt::eval_region(*stmt.region, st_.env);
  if (region.empty()) return;
  if (!st_.declared[stmt.lhs_array.index()].contains(region)) {
    throw Error("statement region " + region.to_string() + " exceeds the declared region of '" +
                st_.program.array(stmt.lhs_array).name + "'");
  }
  const std::size_t a = static_cast<std::size_t>(ca.lhs_array);
  const machine::MachineModel& model = st_.config.machine;

  const auto run_one = [&](int proc, const rt::Box& local, double cost) {
    const std::vector<double>& buf = eval_expr_prog(ca.rhs, st_.program, st_.arrays[proc],
                                                    st_.scalars, st_.env, local, scratch_);
    st_.arrays[proc][a].write_box(local, buf.data());
    touch(proc);
    const double t0 = st_.clocks[proc];
    st_.clocks[proc] += cost;
    if (st_.config.recorder != nullptr) {
      st_.config.recorder->record_compute(proc, local.count(), t0, st_.clocks[proc]);
    }
    if (st_.config.timeline != nullptr) {
      st_.config.timeline->add_compute(proc, t0, st_.clocks[proc]);
    }
  };

  if (ca.region_static) {
    if (!ca.actives_ready) {
      for (int proc = 0; proc < st_.mesh.procs(); ++proc) {
        const rt::Box& owned = st_.arrays[proc][a].owned();
        if (owned.empty()) continue;
        const rt::Box local = region.intersect(owned);
        if (local.empty()) continue;
        const double cost =
            model.stmt_overhead + static_cast<double>(local.count()) * ca.per_elem_cost;
        ca.actives.push_back({proc, local, cost});
      }
      ca.actives_ready = true;
    }
    for (const CompiledAssign::Active& act : ca.actives) run_one(act.proc, act.local, act.cost);
    return;
  }
  for (int proc = 0; proc < st_.mesh.procs(); ++proc) {
    const rt::Box& owned = st_.arrays[proc][a].owned();
    if (owned.empty()) continue;
    const rt::Box local = region.intersect(owned);
    if (local.empty()) continue;
    const double cost =
        model.stmt_overhead + static_cast<double>(local.count()) * ca.per_elem_cost;
    run_one(proc, local, cost);
  }
}

void Engine::exec_reduce(CompiledReduce& cr) {
  const zir::Stmt& stmt = *cr.stmt;
  const rt::Box region = cr.region_static ? cr.static_box : rt::eval_region(*stmt.region, st_.env);
  std::vector<double>& global = reduce_acc_;
  global.clear();
  for (const zir::ReduceOp op : cr.ops) global.push_back(rt::reduce_identity(op));

  for (int proc = 0; proc < st_.mesh.procs(); ++proc) {
    // Crop the owned box to the region's rank (a rank-2 reduction in a
    // rank-3 program reduces over dims 0 and 1 only), as the reference does.
    rt::Box owned = st_.dist.owned(proc);
    owned.rank = region.rank;
    for (int d = st_.dist.space().rank; d < region.rank; ++d) {
      owned.lo[d] = region.lo[d];
      owned.hi[d] = region.hi[d];
    }
    const rt::Box local = region.intersect(owned);
    if (local.empty()) {
      // The reference combines the identity partial of every inactive
      // processor; combining is not always a bitwise no-op
      // (-0.0 + 0.0 = +0.0), so this core combines it too.
      for (std::size_t k = 0; k < cr.ops.size(); ++k) {
        global[k] = rt::reduce_combine(cr.ops[k], global[k], rt::reduce_identity(cr.ops[k]));
      }
      continue;
    }
    for (std::size_t k = 0; k < cr.ops.size(); ++k) {
      const std::vector<double>& buf = eval_expr_prog(cr.operands[k], st_.program, st_.arrays[proc],
                                                      st_.scalars, st_.env, local, scratch_);
      double acc = rt::reduce_identity(cr.ops[k]);
      for (const double x : buf) acc = rt::reduce_combine(cr.ops[k], acc, x);
      global[k] = rt::reduce_combine(cr.ops[k], global[k], acc);
    }
    touch(proc);
    const double t0 = st_.clocks[proc];
    st_.clocks[proc] += st_.config.machine.stmt_overhead +
                        static_cast<double>(local.count()) * cr.per_elem_cost;
    if (st_.config.recorder != nullptr) {
      st_.config.recorder->record_compute(proc, local.count(), t0, st_.clocks[proc]);
    }
    if (st_.config.timeline != nullptr) {
      st_.config.timeline->add_compute(proc, t0, st_.clocks[proc]);
    }
  }

  materialize_all();
  st_.allreduce_clocks(st_.config.machine.reduce_stage_overhead);
  barrier_reset(st_.clocks[0]);
  ++st_.reduction_count;

  const rt::EvalContext ctx = st_.context_for(0);
  st_.scalars[stmt.lhs_scalar.index()] = st_.evaluator.eval_scalar(ctx, stmt.rhs, global);
}

// ---------------------------------------------------------------------------
// Communication.

void Engine::build_geometry(const CompiledGroup& cg, const std::vector<rt::Box>& member_boxes,
                            CommGeometry& geom) {
  const std::vector<int>& offsets = st_.program.direction(cg.group->direction).offsets;

  const auto slot_for = [&geom](int src, int dst) -> CommGeometry::Msg& {
    for (CommGeometry::Msg& m : geom.msgs) {
      if (m.src == src && m.dst == dst) return m;
    }
    geom.msgs.emplace_back();
    CommGeometry::Msg& m = geom.msgs.back();
    m.src = src;
    m.dst = dst;
    return m;
  };

  for (std::size_t i = 0; i < cg.members.size(); ++i) {
    const std::size_t a = static_cast<std::size_t>(cg.members[i].array);
    const rt::Box& region = member_boxes[i];
    const rt::Box& declared = st_.declared[a];
    if (region.empty()) continue;

    // dist.owners(region) is a superset of the processors whose clamped
    // owned block meets the region (clamping only shrinks within the
    // distributed dims), ascending — so filtering by the same emptiness
    // checks as the reference's 0..P-1 scan visits the same dsts in the
    // same order without touching idle processors.
    for (const int dst : st_.dist.owners(region)) {
      const rt::Box& owned_dst = st_.arrays[dst][a].owned();
      if (owned_dst.empty()) continue;
      const rt::Box use_local = region.intersect(owned_dst);
      if (use_local.empty()) continue;
      const rt::Box needed = use_local.shifted(offsets).intersect(declared);
      for (const rt::Box& piece : needed.subtract(owned_dst)) {
        for (const int src : st_.dist.owners(piece)) {
          if (src == dst) continue;
          const rt::Box slice = piece.intersect(st_.arrays[src][a].owned());
          if (slice.empty()) continue;
          CommGeometry::Msg& msg = slot_for(src, dst);
          msg.parts.push_back({cg.members[i].array, slice});
          msg.bytes += slice.count() * static_cast<long long>(sizeof(double));
        }
      }
    }
  }

  for (CommGeometry::Msg& msg : geom.msgs) {
    msg.channel = st_.transport.channel_handle(cg.group->id, msg.src, msg.dst);
    geom.participants.push_back(msg.src);
    geom.participants.push_back(msg.dst);
  }
  std::sort(geom.participants.begin(), geom.participants.end());
  geom.participants.erase(std::unique(geom.participants.begin(), geom.participants.end()),
                          geom.participants.end());
}

CommGeometry& Engine::resolve_geometry(CompiledGroup& cg) {
  ZC_ASSERT(cg.outstanding == nullptr);  // at most one outstanding execution
  if (cg.all_static) {
    if (!cg.static_ready) {
      member_boxes_.clear();
      for (const CompiledGroup::MemberSpec& m : cg.members) member_boxes_.push_back(m.static_box);
      build_geometry(cg, member_boxes_, cg.static_geom);
      cg.static_ready = true;
    }
    cg.outstanding = &cg.static_geom;
    return cg.static_geom;
  }

  member_boxes_.clear();
  geom_key_.clear();
  for (const CompiledGroup::MemberSpec& m : cg.members) {
    member_boxes_.push_back(m.is_static ? m.static_box : rt::eval_region(*m.region, st_.env));
    const rt::Box& b = member_boxes_.back();
    geom_key_.push_back(b.rank);
    for (int d = 0; d < b.rank; ++d) {
      geom_key_.push_back(b.lo[d]);
      geom_key_.push_back(b.hi[d]);
    }
  }
  const auto [it, inserted] = cg.dynamic_geoms.try_emplace(geom_key_);
  if (inserted) build_geometry(cg, member_boxes_, it->second);
  cg.outstanding = &it->second;
  return it->second;
}

void Engine::comm_dr(CompiledGroup& cg) {
  CommGeometry& geom = resolve_geometry(cg);

  // The paper's dynamic count and the per-processor participation counters,
  // tallied at DR time exactly as the reference does.
  ++st_.dynamic_count;
  for (const int proc : geom.participants) ++st_.counters[proc].communications;

  Transport& transport = st_.transport;
  transport.set_transfer(cg.group->transfer_id);
  if (transport.dr_is_global_synch()) {
    // SHMEM prototype: the DR synch is a global barrier executed by every
    // processor, with data to move or not.
    materialize_all();
    transport.global_synch(st_.clocks);
    barrier_reset(st_.clocks[0]);
    for (const CommGeometry::Msg& msg : geom.msgs) {
      transport.post_readiness(cg.group->id, msg.src, msg.dst, st_.clocks[msg.dst]);
    }
    return;
  }
  for (CommGeometry::Msg& msg : geom.msgs) {
    touch(msg.dst);
    transport.dr(msg.channel, cg.group->id, msg.src, msg.dst, msg.bytes, st_.clocks[msg.dst]);
  }
}

void Engine::comm_sr(CompiledGroup& cg) {
  ZC_ASSERT(cg.outstanding != nullptr);
  st_.transport.set_transfer(cg.group->transfer_id);
  for (CommGeometry::Msg& msg : cg.outstanding->msgs) {
    // Capture the payload now: pipelining is only correct if the data at SR
    // equals the data at use (the optimizer's legality rules guarantee it).
    msg.payload.clear();
    msg.payload.reserve(static_cast<std::size_t>(msg.bytes / sizeof(double)));
    for (const CommGeometry::Part& part : msg.parts) {
      const std::size_t at = msg.payload.size();
      msg.payload.resize(at + static_cast<std::size_t>(part.box.count()));
      st_.arrays[msg.src][static_cast<std::size_t>(part.array)].read_box(
          part.box, msg.payload.data() + at);
    }
    touch(msg.src);
    st_.transport.sr(msg.channel, cg.group->id, msg.src, msg.dst, msg.bytes, st_.clocks[msg.src]);
    ++st_.counters[msg.src].messages_sent;
    st_.counters[msg.src].bytes_sent += msg.bytes;
  }
}

void Engine::comm_dn(CompiledGroup& cg) {
  ZC_ASSERT(cg.outstanding != nullptr);
  st_.transport.set_transfer(cg.group->transfer_id);
  for (CommGeometry::Msg& msg : cg.outstanding->msgs) {
    touch(msg.dst);
    st_.transport.dn(msg.channel, cg.group->id, msg.src, msg.dst, msg.bytes, st_.clocks[msg.dst]);
    std::size_t at = 0;
    for (const CommGeometry::Part& part : msg.parts) {
      st_.arrays[msg.dst][static_cast<std::size_t>(part.array)].write_box(
          part.box, msg.payload.data() + at);
      at += static_cast<std::size_t>(part.box.count());
    }
    // Cleared but NOT shrunk: the cached geometry doubles as the payload
    // allocation pool, so steady state moves data without allocating.
    msg.payload.clear();
    ++st_.counters[msg.dst].messages_received;
    st_.counters[msg.dst].bytes_received += msg.bytes;
  }
}

void Engine::comm_sv(CompiledGroup& cg) {
  ZC_ASSERT(cg.outstanding != nullptr);
  st_.transport.set_transfer(cg.group->transfer_id);
  for (const CommGeometry::Msg& msg : cg.outstanding->msgs) {
    touch(msg.src);
    st_.transport.sv(msg.channel, cg.group->id, msg.src, msg.dst, msg.bytes, st_.clocks[msg.src]);
  }
  cg.outstanding = nullptr;
}

// ---------------------------------------------------------------------------
// The instruction loop.

void Engine::execute() {
  CompiledSim& cs = compiled_;
  const double scalar_stmt_time = st_.config.machine.scalar_stmt_time;
  zir::IntEnv& env = st_.env;

  std::int32_t pc = 0;
  for (;;) {
    const Inst in = cs.code[static_cast<std::size_t>(pc)];
    switch (in.op) {
      case Inst::Op::kAssign:
        exec_assign(cs.assigns[static_cast<std::size_t>(in.a)]);
        ++pc;
        break;
      case Inst::Op::kScalar: {
        const zir::Stmt& s = *cs.scalar_stmts[static_cast<std::size_t>(in.a)].stmt;
        const rt::EvalContext ctx = st_.context_for(0);
        st_.scalars[s.lhs_scalar.index()] = st_.evaluator.eval_scalar(ctx, s.rhs, {});
        bump(scalar_stmt_time);
        ++pc;
        break;
      }
      case Inst::Op::kReduce:
        exec_reduce(cs.reduces[static_cast<std::size_t>(in.a)]);
        ++pc;
        break;
      case Inst::Op::kCommDR:
        comm_dr(cs.groups[static_cast<std::size_t>(in.a)]);
        ++pc;
        break;
      case Inst::Op::kCommSR:
        comm_sr(cs.groups[static_cast<std::size_t>(in.a)]);
        ++pc;
        break;
      case Inst::Op::kCommDN:
        comm_dn(cs.groups[static_cast<std::size_t>(in.a)]);
        ++pc;
        break;
      case Inst::Op::kCommSV:
        comm_sv(cs.groups[static_cast<std::size_t>(in.a)]);
        ++pc;
        break;
      case Inst::Op::kForInit: {
        const zir::Stmt& s = *cs.loops[static_cast<std::size_t>(in.a)].stmt;
        const long long lo = s.lo.eval(env);
        const long long hi = s.hi.eval(env);
        if (s.step > 0 ? lo > hi : lo < hi) {
          pc = in.b;  // empty range: no frame, no bookkeeping charge
          break;
        }
        ForFrame f;
        f.loop = in.a;
        f.i = lo;
        f.hi = hi;
        f.step = s.step;
        const std::size_t v = s.loop_var.index();
        f.was_bound = env.loop_bound[v];
        f.old_value = env.loop_values[v];
        env.loop_bound[v] = true;
        env.loop_values[v] = lo;
        for_stack_.push_back(f);
        bump(scalar_stmt_time);  // loop bookkeeping, as the reference charges it
        ++pc;
        break;
      }
      case Inst::Op::kForNext: {
        ForFrame& f = for_stack_.back();
        const zir::Stmt& s = *cs.loops[static_cast<std::size_t>(f.loop)].stmt;
        const std::size_t v = s.loop_var.index();
        f.i += f.step;
        if (f.step > 0 ? f.i <= f.hi : f.i >= f.hi) {
          env.loop_values[v] = f.i;
          bump(scalar_stmt_time);
          pc = in.b;
        } else {
          env.loop_bound[v] = f.was_bound;
          env.loop_values[v] = f.old_value;
          for_stack_.pop_back();
          ++pc;
        }
        break;
      }
      case Inst::Op::kIf: {
        const zir::Stmt& s = *cs.ifs[static_cast<std::size_t>(in.a)].stmt;
        const rt::EvalContext ctx = st_.context_for(0);
        const double cond = st_.evaluator.eval_scalar(ctx, s.cond, {});
        bump(scalar_stmt_time);
        pc = cond != 0.0 ? pc + 1 : in.b;
        break;
      }
      case Inst::Op::kJump:
        pc = in.b;
        break;
      case Inst::Op::kHalt: {
        materialize_all();
        for (const CompiledGroup& cg : cs.groups) ZC_ASSERT(cg.outstanding == nullptr);
        ZC_ASSERT(for_stack_.empty());
        return;
      }
    }
  }
}

RunResult run_program(const zir::Program& program, const comm::CommPlan& plan,
                      RunConfig config) {
  Engine engine(program, plan, std::move(config));
  return engine.run();
}

}  // namespace zc::sim
